import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from d21alpha import cli, cohomology, enveloping
from d21alpha.algebra import E2, build_algebra
from d21alpha.cli import main
from d21alpha.cohomology import ConsistencyError, psi_lambda
from d21alpha.enveloping import VermaModule


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes(capsys):
    code, _, err = run(capsys, "check", "--p", "5", "--alpha", "2")
    assert code == 0
    assert "ok" in err
    # the summary names the residue that was checked, not the raw text
    code, _, err = run(capsys, "check", "--p", "5", "--alpha", "7", "--algebra-only")
    assert code == 0
    assert "check p=5 alpha=2: ok" in err


def test_check_fails_a_broken_module_action(monkeypatch, capsys):
    """A doubled rho(e2) breaks [e2, f2] = h2: exit 2, naming the identity."""
    action_matrix = VermaModule.action_matrix

    def doubled_e2(self, g):
        mat = action_matrix(self, g)
        return 2 * mat if g == E2 else mat

    monkeypatch.setattr(VermaModule, "action_matrix", doubled_e2)
    violation = "commutator identity fails for [e2,f2]"
    assert violation in enveloping.verify_module_axioms(5, 2, (2, 3, 3), (0, 0, 0))
    code, _, err = run(capsys, "check", "--p", "5", "--alpha", "2",
                       "--lambda", "2,3,3")
    assert code == 2
    assert f"module axiom violation: {violation}" in err


def test_check_rejects_bad_alpha(capsys):
    code, _, err = run(capsys, "check", "--p", "5", "--alpha", "4")
    assert code == 1
    assert "alpha" in err


def test_check_rejects_composite_p(capsys):
    code, _, _ = run(capsys, "check", "--p", "4", "--alpha", "2")
    assert code == 1


def test_huge_p_is_rejected_by_range_before_primality(capsys):
    # 2^61 - 1 is prime; trial division up to its square root would not finish
    code, _, err = run(capsys, "h1", "--p", str(2**61 - 1))
    assert code == 1
    assert "p must be a prime with 3 < p <= 101" in err


@pytest.mark.parametrize("argv", [
    ("check", "--alpha", "2"),
    ("check", "--alpha", "2", "--algebra-only"),
    ("verma", "--alpha", "2"),
    ("scan", "--alpha", "2"),
    ("scan", "--alpha", "all", "--lambda", "1,2,3"),
])
def test_whole_module_commands_keep_the_lower_p_cap(capsys, argv):
    # these grow as p^3 (every weight block, every basis monomial, every lambda)
    code, out, err = run(capsys, *argv, "--p", "37")
    assert code == 1
    assert out == ""
    assert "p must be a prime with 3 < p <= 31, got 37" in err


def test_one_point_scan_takes_the_point_cap(capsys):
    code, out, _ = run(capsys, "scan", "--p", "37", "--alpha", "2",
                       "--lambda", "1,2,3", "--jobs", "1")
    assert code == 0
    assert out.splitlines()[1] == "37,2,1,2,3,0,0,0,0,0"


def test_check_dump_brackets(tmp_path, capsys):
    path = tmp_path / "brackets.json"
    code, _, _ = run(capsys, "check", "--p", "5", "--alpha", "2",
                     "--algebra-only", "--dump-brackets", str(path))
    assert code == 0
    dump = json.loads(path.read_text())
    entry = next(x for x in dump["pairs"] if x["a"] == "x1" and x["b"] == "y4")
    assert entry["value"] == {"h1": 2, "h2": 1, "h3": 2}


@pytest.mark.parametrize("flag, value", [("--lambda", "1,2"), ("--chi-f", "1,x,0")])
def test_check_refuses_bad_input_before_writing(tmp_path, capsys, flag, value):
    path = tmp_path / "brackets.json"
    code, out, err = run(capsys, "check", "--p", "5", "--alpha", "2",
                         flag, value, "--dump-brackets", str(path))
    assert code == 1
    assert not path.exists()
    assert out == ""
    assert "bracket tensor written" not in err


@pytest.mark.parametrize("where", ["missing_dir/x.json", ".", ""])
def test_unwritable_output_is_refused_before_any_work(
    tmp_path, monkeypatch, capsys, where
):
    def no_work(module):
        raise AssertionError("h1 ran before --output was checked")

    monkeypatch.setattr(cli, "h1", no_work)
    # an empty path is not a file name, and must not fall back to stdout
    output = str(tmp_path / where) if where else where
    code, out, err = run(capsys, "h1", "--p", "5", "--alpha", "2",
                         "--lambda", "2,3,3", "--output", output)
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write --output")
    assert "Traceback" not in err


def test_check_has_no_output_flag(tmp_path, capsys):
    # check writes no data, so an --output flag is refused, not ignored
    path = tmp_path / "report.txt"
    code, out, err = run(capsys, "check", "--p", "5", "--alpha", "2",
                         "--algebra-only", "--output", str(path))
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --output" in err
    assert not path.exists()


def test_os_error_is_a_parameter_error(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--p", "5", "--alpha", "2", "--algebra-only",
                       "--dump-brackets", str(tmp_path / "missing_dir" / "b.json"))
    assert code == 1
    assert err.startswith("error: cannot write --dump-brackets")
    assert "Traceback" not in err


def test_a_failed_output_write_is_a_parameter_error(tmp_path, monkeypatch, capsys):
    # a write that fails after the up-front check (the folder vanished meanwhile)
    monkeypatch.setattr(cli, "_check_output", lambda output: None)
    code, out, err = run(capsys, "verma", "--p", "5", "--alpha", "2",
                         "--output", str(tmp_path / "missing_dir" / "v.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write --output")


def test_other_os_errors_are_not_parameter_errors(monkeypatch, capsys):
    def no_fork(*args, **kwargs):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_fork)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    with pytest.raises(BlockingIOError):
        main(["scan", "--p", "5", "--alpha", "all", "--lambda", "2,3,3",
              "--jobs", "2"])


def test_h1_single_point_json(capsys):
    code, out, _ = run(capsys, "h1", "--p", "5", "--alpha", "2",
                       "--lambda", "2,3,3", "--chi-f", "0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == {"even": 6, "odd": 0}
    assert payload["lambda"] == [2, 3, 3]
    assert len(payload["representatives"]) == 6


def test_h1_odd_point(capsys):
    code, out, _ = run(capsys, "h1", "--p", "5", "--alpha", "2",
                       "--lambda", "3,2,2")
    assert code == 0
    assert json.loads(out)["h1"] == {"even": 0, "odd": 1}


def test_h1_nonzero_chi_point(capsys):
    code, out, _ = run(capsys, "h1", "--p", "5", "--alpha", "2",
                       "--lambda", "1,1,1", "--chi-f", "1,0,0")
    assert code == 0
    assert json.loads(out)["h1"] == {"even": 0, "odd": 0}


def test_h1_method_both_cross_checks(capsys):
    code, out, _ = run(capsys, "h1", "--p", "5", "--alpha", "2",
                       "--lambda", "0,0,0", "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == {"even": 0, "odd": 0}
    oracle = payload["oracle"]
    for label in ("even", "odd"):
        assert oracle[label]["der"] - oracle[label]["ider"] == 0


def test_h1_has_no_method_full(capsys):
    # both runs the graded solver and the oracle; there is no oracle-only method
    code, out, err = run(capsys, "h1", "--p", "5", "--alpha", "2",
                         "--lambda", "2,3,3", "--method", "full")
    assert code == 1
    assert out == ""
    assert "invalid choice: 'full'" in err


def test_import_leaves_the_oracle_graph_code_unloaded():
    # scipy.sparse (with its csgraph and scipy.linalg) loads only for
    # whole-module work: neither the import, a graded command nor the
    # algebra's axiom check (which reduces through linalg.mod) loads it
    code = (
        "import sys, d21alpha.cli\n"
        "print('loaded:', 'scipy.sparse' in sys.modules)\n"
        "d21alpha.cli.main(['h1', '--p', '7', '--alpha', '3', '--lambda', '2,5,5'])\n"
        "d21alpha.cli.main(['verify-psi', '--which', '1', '--p', '7'])\n"
        "print('loaded:', 'scipy.sparse' in sys.modules)\n"
        "d21alpha.cli.main(['check', '--p', '5', '--alpha', '2', '--algebra-only'])\n"
        "print('loaded:', 'scipy.sparse' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert [line for line in out if line.startswith("loaded:")] == ["loaded: False"] * 3


def test_scan_alpha_sweep_single_lambda(capsys):
    code, out, _ = run(capsys, "scan", "--p", "5", "--alpha", "all",
                       "--lambda", "2,3,3", "--chi-f", "0,0,0", "--jobs", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,alpha,lambda1,lambda2,lambda3,chif1,chif2,chif3,h1_even,h1_odd"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert data == [f"5,{a},2,3,3,0,0,0,6,0" for a in (1, 2, 3)]
    assert "# nonzero rows: 3 of 3" in lines
    assert any("(2p+2,2p-2,2p-2)" in l for l in lines)


def test_scan_deterministic_across_jobs(tmp_path, capsys):
    args = ["scan", "--p", "5", "--alpha", "all", "--lambda", "3,2,2"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--jobs", "1", "--output", str(out1)]) == 0
    assert main(args + ["--jobs", "2", "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_worker_count_is_capped(monkeypatch, capsys):
    requested = []

    class InlinePool:
        """Records the worker count asked for and maps in this process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "compute_point", lambda p, alpha, lam, chi:
                        SimpleNamespace(dim_even=0, dim_odd=0))
    args = ["scan", "--p", "5", "--alpha", "all", "--lambda", "0,0,0"]  # 3 points
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert main(args + ["--jobs", "1000000"]) == 0
    monkeypatch.setenv("H1_JOBS", "1000000")
    assert main(args) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert main(args + ["--jobs", "1000000"]) == 0
    assert main(args + ["--jobs", "1"]) == 0  # serial: no pool at all
    capsys.readouterr()
    assert requested == [3, 3, 2]


def test_scan_rejects_a_nonpositive_jobs_flag(capsys):
    code, out, err = run(capsys, "scan", "--p", "5", "--alpha", "2", "--lambda",
                         "0,0,0", "--jobs", "-3")
    assert code == 1
    assert out == ""
    assert "--jobs must be at least 1, got -3" in err


def test_scan_rejects_a_non_integer_h1_jobs(monkeypatch, capsys):
    monkeypatch.setenv("H1_JOBS", "abc")
    code, out, err = run(capsys, "scan", "--p", "5", "--alpha", "2", "--lambda",
                         "0,0,0")
    assert code == 1
    assert out == ""
    assert "H1_JOBS must be an integer, got 'abc'" in err


@pytest.mark.parametrize("error,exit_code", [(ConsistencyError, 2), (ValueError, 1)])
def test_failing_scan_point_names_itself(monkeypatch, capsys, error, exit_code):
    def fail(p, alpha, lam, chi):
        raise error("boom")

    monkeypatch.setattr(cli, "compute_point", fail)
    code, _, err = run(capsys, "scan", "--p", "5", "--alpha", "2", "--lambda",
                       "2,3,3", "--chi-f", "1,0,0", "--jobs", "1")
    assert code == exit_code
    assert "p=5 alpha=2 lambda=(2, 3, 3) chi=(1, 0, 0): boom" in err


def test_divergent_straightening_is_an_inconsistency(monkeypatch, capsys):
    """The rewrite-step guard fails each command, and the message names its point."""
    monkeypatch.setattr(enveloping, "MAX_REWRITE_STEPS", 1)
    for argv, point in (
        (["h1", "--p", "5", "--alpha", "2", "--lambda", "2,3,3"],
         "p=5 alpha=2 lambda=(2, 3, 3) chi=(0, 0, 0)"),
        (["verify-psi", "--which", "2", "--p", "7", "--alpha", "3"],
         "p=7 alpha=3 lambda=(2, 5, 0) chi=(0, 0, 0)"),
        (["check", "--p", "5", "--alpha", "2", "--lambda", "2,3,3",
          "--chi-f", "1,0,0"],
         "p=5 alpha=2 lambda=(2, 3, 3) chi=(1, 0, 0)"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert (f"inconsistency: {point}: straightening exceeded 1 rewrite steps"
                in err), argv


@pytest.mark.parametrize("p", [5, 11])
def test_divergent_straightening_in_a_scan_names_its_point(monkeypatch, capsys, p):
    """The rewrite-step guard fires inside the crossing-table build, and the
    scan names its point.

    The failed build caches nothing: with the guard restored, the same point
    builds a correct table and gives the paper's superdimension.
    """
    lam = psi_lambda(1, p)
    with monkeypatch.context() as patch:
        patch.setattr(enveloping, "MAX_REWRITE_STEPS", 1)
        with pytest.raises(ConsistencyError, match="exceeded 1 rewrite steps"):
            enveloping.crossing_table(build_algebra(p, 2))
        code, out, err = run(capsys, "scan", "--p", str(p), "--alpha", "2",
                             "--lambda", ",".join(map(str, lam)), "--jobs", "1")
    assert code == 2
    assert out == ""
    assert (f"p={p} alpha=2 lambda={lam} chi=(0, 0, 0): straightening "
            "exceeded 1 rewrite steps") in err
    assert enveloping._TABLES == {}
    s = cohomology.compute_point(p, 2, lam, (0, 0, 0))
    assert (s.dim_even, s.dim_odd) == (6, 0)
    assert [key[:2] for key in enveloping._TABLES] == [(p, 2)]


def test_verma_dump(capsys):
    code, out, _ = run(capsys, "verma", "--p", "5", "--alpha", "2",
                       "--lambda", "2,3,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == [2, 3, 3]
    assert len(payload["weights"]) == 125
    assert all(w["dim"] == 16 for w in payload["weights"])
    total = sum(len(w["basis"]) for w in payload["weights"])
    assert total == 2000
    zero = next(w for w in payload["weights"] if w["beta"] == [0, 0, 0])
    assert [4, 4, 4, 1, 1, 1, 1] in zero["basis"]


def test_verify_psi_all_families(capsys):
    for which, parity, expected_h1 in (
        (1, "even", {"even": 6, "odd": 0}),
        (2, "even", {"even": 1, "odd": 0}),
        (3, "even", {"even": 1, "odd": 0}),
        (4, "odd", {"even": 0, "odd": 1}),
    ):
        code, out, _ = run(capsys, "verify-psi", "--which", str(which),
                           "--p", "5", "--alpha", "2")
        assert code == 0, which
        payload = json.loads(out)
        assert payload["parity"] == parity
        assert payload["h1"] == expected_h1
        assert all(d["outer"] and d["in_h1_span"] for d in payload["directions"])


def test_verify_psi_reports_parameter_count_finding(capsys):
    code, out, _ = run(capsys, "verify-psi", "--which", "1", "--p", "5",
                       "--alpha", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["outer_class_rank"] == 5
    assert payload["h1"]["even"] == 6
    assert "5" in payload["finding"] and "6" in payload["finding"]


def test_verify_psi_rejects_wrong_lambda(capsys):
    code, _, err = run(capsys, "verify-psi", "--which", "2", "--p", "5",
                       "--alpha", "2", "--lambda", "0,0,0")
    assert code == 1
    assert "lambda" in err


def test_h1_rejects_alpha_sweep(capsys):
    code, _, _ = run(capsys, "h1", "--p", "5", "--alpha", "all",
                     "--lambda", "0,0,0")
    assert code == 1


def test_missing_subcommand_is_parameter_error(capsys):
    assert main([]) == 1


# sha256 of the stdout of each command, as printed before derivation maps were
# held as graded coordinates; the representative and psi JSON must not move
PINNED_OUTPUTS = [
    (["h1", "--p", "5", "--alpha", "2", "--lambda", "2,3,3"],
     "e7bac68bc237b41bf7097ba8eae28151488211359f65ba3abfd6f018d18bf54d"),
    (["h1", "--p", "5", "--alpha", "2", "--lambda", "3,2,2"],
     "0129b2ba96bbfbf4c0311ba78034d7f44b6a073c37a8477be5b6da55d296c97b"),
    (["h1", "--p", "7", "--alpha", "3", "--lambda", "2,5,0"],
     "62ac9cdd053e9d129cd88c5c4fe139fdee97fbce8a62868b4ea4b1e2b27452ec"),
    (["verify-psi", "--which", "1", "--p", "5", "--alpha", "2"],
     "5709cb39130cf7074242c44380af824449cedf42228e21b0e77ba71080e02667"),
    (["verify-psi", "--which", "2", "--p", "5", "--alpha", "2"],
     "fbf3e7f61a95aa688690158f6c0a9d5b3f18b6411c61b6ef0c767ae2bb4b98cf"),
    (["verify-psi", "--which", "3", "--p", "5", "--alpha", "2"],
     "b05c7349ec43f11d5893b4c9e23313c10cc7ed63cd00aa232c238c786d402ce8"),
    (["verify-psi", "--which", "4", "--p", "5", "--alpha", "2"],
     "e70067f4af2871c002ab78bb14ed8807a1604c368d464cf195f94b9dfd931650"),
    # the oracle's absolute dims (der, ider) per parity, not only their difference
    (["h1", "--p", "5", "--alpha", "2", "--lambda", "2,3,3", "--method", "both"],
     "235d26793bac7c51108cd5c3679fd0b6081b034886ce6f13d24e2c45e11da417"),
    # every point of p=5: guards the CSV against any change to the solved rows
    (["scan", "--p", "5", "--alpha", "all", "--lambda", "all"],
     "07ae4265bff561b9c4f5031249067c8147510795a61e1aa2c50b77035ec9536e"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_OUTPUTS,
    ids=["-".join(argv[:7:2] + argv[8:]) for argv, _ in PINNED_OUTPUTS],
)
def test_outputs_are_byte_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
