"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact arithmetic everywhere, so every comparison is equality.  The two full
scan grids (all lambda at p=5 and p=7, chi=0) are computed once per session
and shared between the superdimension-table and the structural-check tests.
"""
import hashlib
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import pytest

from d21alpha.algebra import build_algebra
from d21alpha.cli import main
from d21alpha.cohomology import (
    check_lemma_h_images, compute_point, full_derivation_dims, h1,
)
from d21alpha.enveloping import VermaModule, decode, verify_module_axioms

ALPHAS = (1, 2, 3)


def _jobs() -> int:
    env = os.environ.get("H1_JOBS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class CheckedPoint:
    dim_even: int
    dim_odd: int
    h_image_violations: tuple[str, ...]


def _checked_point(p, alpha, lam, chi):
    """H^1 at one point plus the h-image lemma on the same module."""
    module = VermaModule(build_algebra(p, alpha), lam, chi)
    result = h1(module)
    return CheckedPoint(
        result.dim_even, result.dim_odd, tuple(check_lemma_h_images(module)),
    )


def _run_grid(p, alphas, lambdas, chis, worker=compute_point):
    tasks = [(p, a, lam, chi) for a in alphas for chi in chis for lam in lambdas]
    jobs = _jobs()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, *zip(*tasks), chunksize=8))
    else:
        results = [worker(*t) for t in tasks]
    return {(a, lam, chi): s for (_, a, lam, chi), s in zip(tasks, results)}


def _all_lambdas(p):
    return [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]


def _expected_nonzero(p):
    return {
        (2 % p, (-2) % p, (-2) % p): (6, 0),
        (2 % p, (-2) % p, 0): (1, 0),
        (2 % p, 0, (-2) % p): (1, 0),
        (3 % p, (-3) % p, (-3) % p): (0, 1),
    }


@pytest.fixture(scope="session")
def scan_p5():
    t0 = time.time()
    grid = _run_grid(5, ALPHAS, _all_lambdas(5), [(0, 0, 0)], _checked_point)
    print(f"\n[p=5 grid: {len(grid)} points in {time.time()-t0:.0f} s]")
    return grid


@pytest.fixture(scope="session")
def scan_p7():
    t0 = time.time()
    grid = _run_grid(7, ALPHAS, _all_lambdas(7), [(0, 0, 0)], _checked_point)
    print(f"\n[p=7 grid: {len(grid)} points in {time.time()-t0:.0f} s]")
    return grid


def test_criterion_1_algebra_axioms():
    """Axioms hold for p in {5,7}, every valid alpha, under 1 s each."""
    for p in (5, 7):
        for alpha in range(1, p - 1):
            t0 = time.time()
            violations = build_algebra(p, alpha).check_axioms()
            elapsed = time.time() - t0
            assert violations == [], (p, alpha, violations[:3])
            assert elapsed < 1.0, f"axiom sweep too slow: {elapsed:.2f} s"
    print("CRITERION 1 PASS: algebra axioms empty for all (p, alpha)")


def test_criterion_2_module_axioms():
    """Exact module identities over 45 configurations in under 30 s."""
    rng = random.Random(20240817)
    lambdas = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(5)]
    chis = [(0, 0, 0), (1, 0, 0), (1, 1, 1)]
    configs = [(5, a, lam, chi) for a in ALPHAS for chi in chis for lam in lambdas]
    t0 = time.time()
    jobs = _jobs()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(verify_module_axioms, *zip(*configs)))
    else:
        reports = [verify_module_axioms(*c) for c in configs]
    elapsed = time.time() - t0
    for config, report in zip(configs, reports):
        assert report == [], (config, report)
    assert elapsed < 30.0, f"module axiom sweep took {elapsed:.1f} s"
    print(f"CRITERION 2 PASS: module axioms exact on {len(configs)} configs "
          f"in {elapsed:.1f} s")


def test_criterion_3_weight_decomposition():
    """Every weight space is 16-dimensional with the closed-form basis."""
    rng = random.Random(11)
    algebra = build_algebra(5, 2)
    t0 = time.time()
    for _ in range(5):
        lam = tuple(rng.randrange(5) for _ in range(3))
        module = VermaModule(algebra, lam, (0, 0, 0))
        decomposition = module.weight_decomposition()
        assert len(decomposition) == 125
        for beta, members in decomposition.items():
            assert len(members) == 16
            basis = module.weight_basis(beta)
            assert sorted(basis) == members
            for theta, n in enumerate(basis):
                assert module.weight_of_monomial(n) == beta
                assert decode(n, 5)[3] == theta
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"weight decomposition took {elapsed:.1f} s"
    print(f"CRITERION 3 PASS: 5 random lambda decompose into 16-dim weight "
          f"spaces in {elapsed:.1f} s")


def _check_table(grid, p):
    expected = _expected_nonzero(p)
    for alpha in ALPHAS:
        for lam in _all_lambdas(p):
            s = grid[(alpha, lam, (0, 0, 0))]
            want = expected.get(lam, (0, 0))
            assert (s.dim_even, s.dim_odd) == want, (alpha, lam, s)


def test_criterion_4_superdimension_table_p5(scan_p5):
    _check_table(scan_p5, 5)
    print("CRITERION 4a PASS: p=5 table exact for alpha in {1,2,3} "
          "(4 nonzero points per alpha)")


def test_criterion_4_superdimension_table_p7(scan_p7):
    _check_table(scan_p7, 7)
    print("CRITERION 4b PASS: p=7 table exact for alpha in {1,2,3} "
          "(nonzero at (2,5,5),(2,5,0),(2,0,5),(3,4,4))")


def test_criterion_4_superdimension_table_past_p31():
    """The table's special residues, two generic lambda and one chi != 0 point.

    At p in {37, 53, 101} with alpha in {2, p-2}, past the range the scan
    grids cover.
    """
    t0 = time.time()
    tasks = []
    for p in (37, 53, 101):
        lambdas = [*_expected_nonzero(p), (0, 0, 0), (1, p - 1, 5)]
        for alpha in (2, p - 2):
            tasks += [(p, alpha, lam, (0, 0, 0)) for lam in lambdas]
            tasks.append((p, alpha, (2, p - 2, p - 2), (1, 2, 3)))
    for p, alpha, lam, chi in tasks:
        s = compute_point(p, alpha, lam, chi)
        want = _expected_nonzero(p).get(lam, (0, 0)) if chi == (0, 0, 0) else (0, 0)
        assert (s.dim_even, s.dim_odd) == want, (p, alpha, lam, chi)
    print(f"CRITERION 4c PASS: {len(tasks)} points at p in {{37,53,101}} match "
          f"the table in {time.time()-t0:.0f} s")


def test_criterion_5_nonzero_chi_kills_h1():
    """H^1 = 0 for chi = e1, e2, e3, (1,1,1) at every lambda (p=5, alpha=2)."""
    chis = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    t0 = time.time()
    grid = _run_grid(5, [2], _all_lambdas(5), chis)
    for key, s in grid.items():
        assert (s.dim_even, s.dim_odd) == (0, 0), key
    print(f"CRITERION 5 PASS: 500 nonzero-chi points all give (0,0) "
          f"in {time.time()-t0:.0f} s")


def test_criterion_6_oracle_equivalence():
    """Ungraded dim Der - dim Ider equals the graded quotient per parity."""
    points = [
        ((2, 3, 3), (0, 0, 0)),
        ((2, 3, 0), (0, 0, 0)),
        ((3, 2, 2), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0)),
        ((1, 1, 1), (1, 0, 0)),
    ]
    algebra = build_algebra(5, 2)
    for lam, chi in points:
        t0 = time.time()
        module = VermaModule(algebra, lam, chi)
        result = h1(module)
        for parity in (0, 1):
            der, ider = full_derivation_dims(module, parity)
            der0, ider0 = result.graded_dims[parity]
            graded = result.dim_even if parity == 0 else result.dim_odd
            assert der - ider == graded, (lam, chi, parity, der, ider, graded)
            assert der == der0 + ider - ider0, (lam, chi, parity)
        print(f"  oracle point lam={lam} chi={chi} ok in {time.time()-t0:.0f} s")
    print("CRITERION 6 PASS: oracle equivalence and the decomposition "
          "identity hold at 5 points")


def test_criterion_7_psi_families(tmp_path, capsys):
    """All four outer families verify; the psi1 parameter finding is emitted."""
    for which in (1, 2, 3, 4):
        artifact = tmp_path / f"psi{which}.json"
        code = main(["verify-psi", "--which", str(which), "--p", "5",
                     "--alpha", "2", "--output", str(artifact)])
        assert code == 0, f"psi{which} failed verification"
        payload = json.loads(artifact.read_text())
        for direction in payload["directions"]:
            assert direction["derivation"], (which, direction)
            assert direction["outer"], (which, direction)
            assert direction["in_h1_span"], (which, direction)
    payload = json.loads((tmp_path / "psi1.json").read_text())
    assert payload["outer_class_rank"] == 5
    assert payload["h1"]["even"] == 6
    assert "finding" in payload
    capsys.readouterr()
    print("CRITERION 7 PASS: psi1 (5 parameter directions), psi2, psi3, psi4 "
          "verified; parameter-count finding emitted:")
    print(f"  {payload['finding']}")


def test_criterion_7_psi_families_p101(capsys):
    """The four outer families also verify at p=101."""
    for which in (1, 2, 3, 4):
        code = main(["verify-psi", "--which", str(which), "--p", "101",
                     "--alpha", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, f"psi{which} failed verification at p=101"
        assert all(d["outer"] and d["in_h1_span"] for d in payload["directions"])
    print("CRITERION 7b PASS: psi1..psi4 verified at p=101, alpha=2")


def test_criterion_8_lemma_regressions(scan_p5, scan_p7):
    """The h-image lemma returns empty reports across both scan grids."""
    for grid in (scan_p5, scan_p7):
        for key, s in grid.items():
            assert s.h_image_violations == (), (key, s.h_image_violations)
    print("CRITERION 8 PASS: h-image lemma checks empty on "
          f"{len(scan_p5) + len(scan_p7)} grid points")


def test_criterion_9_scan_determinism(tmp_path, capsys):
    """Byte-identical scan CSV across different worker counts."""
    args = ["scan", "--p", "5", "--alpha", "2", "--lambda", "all",
            "--chi-f", "0,0,0"]
    first = tmp_path / "scan_jobs1.csv"
    second = tmp_path / "scan_jobs2.csv"
    assert main(args + ["--jobs", "1", "--output", str(first)]) == 0
    assert main(args + ["--jobs", "2", "--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert b"# nonzero rows: 4 of 125" in first.read_bytes()
    # the CSV as first pinned, comment lines and lambda aliases included
    assert hashlib.sha256(first.read_bytes()).hexdigest() == (
        "7d802e734fb4f4f4a97a9a21e8f148b965693e3cb6824c65e6ef1d09a4a255be"
    )
    print("CRITERION 9 PASS: scan CSV byte-identical for --jobs 1 vs 2")
