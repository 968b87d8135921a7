"""Command-line interface: axiom checks, Verma dumps, H^1 points and scans.

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 invalid parameters, 2 mathematical/internal inconsistency.
Output is byte-stable for a fixed configuration regardless of --jobs.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import linalg
from .algebra import build_algebra
from .cohomology import (
    ORACLE_MAX_P, ConsistencyError, PSI_REGIMES, compute_point,
    full_derivation_dims, graded_spaces, h1, psi, psi_lambda,
)
from .enveloping import VermaModule, decode, theta_tuple, verify_module_axioms
from .field import is_prime

# A graded point (h1, verify-psi, a one-point scan) costs about the same at
# every p; work over the whole module (check's module axioms, verma, a scan
# grid) grows as p^3 and keeps the lower cap.
MAX_P = 101
MAX_P_MODULE = 31

# customary 2p-offset aliases for the nonzero locus of the superdimension
# table: the lambda of each psi family, psi_lambda(which, p)
LAMBDA_ALIASES = dict(zip(PSI_REGIMES, (
    "(2p+2,2p-2,2p-2)", "(2p+2,2p-2,2p)", "(2p+2,2p,2p-2)", "(2p+3,2p-3,2p-3)",
)))


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_triple(text: str, p: int, label: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"{label} must be three comma-separated residues")
    try:
        vals = tuple(int(v) % p for v in parts)
    except ValueError as exc:
        raise CliError(f"{label}: {exc}") from None
    return vals


def _validate_p(p: int, method: str = "graded", cap: int = MAX_P) -> None:
    # the range first: is_prime is trial division, slow for a huge p
    if not 3 < p <= cap or not is_prime(p):
        raise CliError(f"p must be a prime with 3 < p <= {cap}, got {p}")
    if method == "both" and p > ORACLE_MAX_P:
        raise CliError(f"the ungraded oracle is capped at p <= {ORACLE_MAX_P}")


def _alphas(text: str, p: int) -> list[int]:
    if text == "all":
        return [a for a in range(1, p - 1)]
    try:
        a = int(text) % p
    except ValueError:
        raise CliError(f"alpha must be an integer or 'all', got {text!r}") from None
    if a in (0, p - 1):
        raise CliError(f"alpha must avoid 0 and -1 mod p, got {a}")
    return [a]


def _single_alpha(text: str, p: int) -> int:
    alphas = _alphas(text, p)
    if len(alphas) != 1:
        raise CliError("this command needs a single alpha; use scan for sweeps")
    return alphas[0]


def _lambdas(spec_text: str, p: int) -> list[tuple[int, int, int]]:
    if spec_text == "all":
        return [
            (l1, l2, l3)
            for l1 in range(p)
            for l2 in range(p)
            for l3 in range(p)
        ]
    return [_parse_triple(spec_text, p, "lambda")]


def _jobs(args) -> int:
    """Requested worker count (--jobs, else H1_JOBS), capped at the CPU count."""
    cpus = os.cpu_count() or 1
    if args.jobs is not None:
        requested, source = args.jobs, "--jobs"
    else:
        text = os.environ.get("H1_JOBS") or str(cpus)
        try:
            requested, source = int(text), "H1_JOBS"
        except ValueError:
            raise CliError(f"H1_JOBS must be an integer, got {text!r}") from None
    if requested < 1:
        raise CliError(f"{source} must be at least 1, got {requested}")
    return min(requested, cpus)


def _check_output(output: str | None) -> None:
    """Refuse an --output path that cannot be written, before any work."""
    if output is None:
        return
    folder = os.path.dirname(os.path.abspath(output))
    if (
        not output
        or os.path.isdir(output)
        or not os.path.isdir(folder)
        or not os.access(output if os.path.exists(output) else folder, os.W_OK)
    ):
        raise CliError(f"cannot write --output {output}")


@contextlib.contextmanager
def _at_point(p, alpha, lam, chi):
    """Prefix a failure raised inside with its parameter point."""
    try:
        yield
    except (ConsistencyError, ValueError) as exc:
        # same type, so main() still maps it to the same exit code
        raise type(exc)(
            f"p={p} alpha={alpha} lambda={lam} chi={chi}: {exc}"
        ) from exc


def _emit(text: str, output: str | None) -> None:
    if output is not None:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write --output {output}: {exc}") from None
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def cmd_check(args) -> int:
    _validate_p(args.p, cap=MAX_P_MODULE)
    alpha = _single_alpha(args.alpha, args.p)
    lam = _parse_triple(args.lam, args.p, "lambda")
    chi = _parse_triple(args.chi_f, args.p, "chi-f")
    algebra = build_algebra(args.p, alpha)
    if args.dump_brackets:
        try:
            with open(args.dump_brackets, "w", encoding="utf-8") as fh:
                json.dump(algebra.bracket_table_json(), fh, indent=1)
        except OSError as exc:
            raise CliError(
                f"cannot write --dump-brackets {args.dump_brackets}: {exc}"
            ) from None
        print(f"bracket tensor written to {args.dump_brackets}", file=sys.stderr)
    violations = algebra.check_axioms()
    for v in violations:
        print(f"algebra axiom violation [{v.kind}] at {v.generators}: {v.detail}",
              file=sys.stderr)
    module_violations: list[str] = []
    if not args.algebra_only:
        with _at_point(args.p, alpha, lam, chi):
            module_violations = verify_module_axioms(args.p, alpha, lam, chi)
        for v in module_violations:
            print(f"module axiom violation: {v}", file=sys.stderr)
    total = len(violations) + len(module_violations)
    print(f"check p={args.p} alpha={alpha}: "
          f"{'ok' if total == 0 else f'{total} violations'}", file=sys.stderr)
    return 0 if total == 0 else 2


def cmd_verma(args) -> int:
    _validate_p(args.p, cap=MAX_P_MODULE)
    lam = _parse_triple(args.lam, args.p, "lambda")
    chi = _parse_triple(args.chi_f, args.p, "chi-f")
    module = VermaModule(build_algebra(args.p, _single_alpha(args.alpha, args.p)), lam, chi)
    decomposition = module.weight_decomposition()
    weights = []
    for beta in sorted(decomposition):
        basis = []
        for n in sorted(decomposition[beta]):
            *i, code = decode(n, args.p)
            basis.append([*i, *theta_tuple(code)])
        weights.append({"beta": list(beta), "dim": len(basis), "basis": basis})
    payload = {"lambda": list(lam), "weights": weights}
    _emit(json.dumps(payload, separators=(",", ":")) + "\n", args.output)
    return 0


SCAN_HEADER = "p,alpha,lambda1,lambda2,lambda3,chif1,chif2,chif3,h1_even,h1_odd"


def _scan_row(p, alpha, lam, chi, even, odd) -> str:
    return (f"{p},{alpha},{lam[0]},{lam[1]},{lam[2]},"
            f"{chi[0]},{chi[1]},{chi[2]},{even},{odd}")


def cmd_h1(args) -> int:
    _validate_p(args.p, args.method)
    lam = _parse_triple(args.lam, args.p, "lambda")
    chi = _parse_triple(args.chi_f, args.p, "chi-f")
    alpha = _single_alpha(args.alpha, args.p)
    module = VermaModule(build_algebra(args.p, alpha), lam, chi)
    with _at_point(args.p, alpha, lam, chi):
        result = h1(module)
        payload = result.to_json_dict()
        if args.method == "both":
            oracle = {}
            for parity, label in ((0, "even"), (1, "odd")):
                der, ider = full_derivation_dims(module, parity)
                der0, ider0 = result.graded_dims[parity]
                oracle[label] = {"der": der, "ider": ider, "der0": der0, "ider0": ider0}
                graded_dim = result.dim_even if parity == 0 else result.dim_odd
                if der - ider != graded_dim or der != der0 + ider - ider0:
                    raise ConsistencyError(
                        f"oracle mismatch ({label}): der={der} ider={ider} "
                        f"graded={graded_dim} der0={der0} ider0={ider0}"
                    )
            payload["oracle"] = oracle
    _emit(json.dumps(payload, separators=(",", ":")) + "\n", args.output)
    return 0


def _point_task(task):
    with _at_point(*task):
        s = compute_point(*task)
    return (s.dim_even, s.dim_odd)


def cmd_scan(args) -> int:
    grid = "all" in (args.alpha, args.lam)
    _validate_p(args.p, cap=MAX_P_MODULE if grid else MAX_P)
    p = args.p
    chi = _parse_triple(args.chi_f, p, "chi-f")
    alphas = _alphas(args.alpha, p)
    lambdas = _lambdas(args.lam, p)
    tasks = [(p, a, lam, chi) for a in alphas for lam in lambdas]
    jobs = min(_jobs(args), len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            dims = list(pool.map(_point_task, tasks, chunksize=8))
    else:
        dims = [_point_task(t) for t in tasks]
    nonzero = [
        (a, lam, even, odd)
        for (tp, a, lam, tchi), (even, odd) in zip(tasks, dims)
        if even or odd
    ]
    lines = [SCAN_HEADER]
    for (tp, a, lam, tchi), (even, odd) in zip(tasks, dims):
        lines.append(_scan_row(tp, a, lam, tchi, even, odd))
    lines.append(f"# nonzero rows: {len(nonzero)} of {len(tasks)}")
    aliases = {psi_lambda(which, p): text for which, text in LAMBDA_ALIASES.items()}
    for a, lam, even, odd in nonzero:
        alias = aliases.get(lam, "(no standard alias)")
        lines.append(f"# alpha={a} lambda=({lam[0]},{lam[1]},{lam[2]}) "
                     f"sdim=({even},{odd}) {alias}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify_psi(args) -> int:
    _validate_p(args.p)
    which = args.which
    p = args.p
    lam = psi_lambda(which, p)
    if args.lam is not None:
        requested = _parse_triple(args.lam, p, "lambda")
        if requested != lam:
            raise CliError(
                f"psi{which} is defined at lambda={lam} mod {p}, got {requested}"
            )
    alpha = _single_alpha(args.alpha, p)
    module = VermaModule(build_algebra(p, alpha), lam, (0, 0, 0))
    # psi names its own point in its messages
    with _at_point(p, alpha, lam, (0, 0, 0)):
        result = h1(module)
    _, parity, names = PSI_REGIMES[which]
    # the H^1 span (inner plus h1's representatives) is the kernel: h1 checked
    # inner <= kernel and built the representatives as a basis of kernel/inner
    kernel, inner = graded_spaces(module, parity)
    # one psi per parameter direction: the k-th parameter 1, the others 0
    built = [psi(which, [int(i == k) for i in range(len(names))], module)
             for k in range(len(names))]
    coords = np.array([b.map.coords for b in built])
    reduced = linalg.reduce(inner, coords, p)
    outer = reduced.any(axis=1)
    in_span = ~linalg.reduce(kernel, coords, p).any(axis=1)
    directions = [
        {
            "param": name,
            # psi extends its listed images by zero or raises
            "completion": "zero_extension",
            "derivation": True,
            "outer": bool(outer[k]),
            "in_h1_span": bool(in_span[k]),
        }
        for k, name in enumerate(names)
    ]
    ok = bool((outer & in_span).all())
    notes = built[-1].notes
    class_rank = linalg.rank(reduced, p)
    payload = {
        "psi": which,
        "p": p,
        "alpha": alpha,
        "lambda": list(lam),
        "chi_f": [0, 0, 0],
        "parity": "even" if parity == 0 else "odd",
        "parameters": list(names),
        "directions": directions,
        "notes": list(notes),
        "h1": {"even": result.dim_even, "odd": result.dim_odd},
        "outer_class_rank": class_rank,
    }
    if which == 1:
        h1_parity_dim = result.dim_even if parity == 0 else result.dim_odd
        payload["finding"] = (
            f"the displayed psi1 family carries {len(names)} parameters whose "
            f"classes span {class_rank} of the {h1_parity_dim} even outer "
            f"classes; one further class (the f1-direction inner limit) is "
            f"needed to exhaust H^1"
        )
    _emit(json.dumps(payload, separators=(",", ":")) + "\n", args.output)
    return 0 if ok else 2


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="d21alpha", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, lam_default=None, output=True):
        sp.add_argument("--p", type=int, required=True, help="prime modulus > 3")
        sp.add_argument("--alpha", default="1",
                        help="algebra parameter; residue or 'all' (scan only)")
        if lam_default is not None:
            sp.add_argument("--lambda", dest="lam", default=lam_default,
                            help="highest weight, e.g. 2,3,3 (or 'all' for scan)")
        sp.add_argument("--chi-f", dest="chi_f", default="0,0,0",
                        help="character values chi(f1),chi(f2),chi(f3)")
        if output:
            sp.add_argument("--output", default=None,
                            help="write data here, not stdout")

    sp = sub.add_parser("check", help="algebra and module axiom sweep")
    common(sp, lam_default="1,1,1", output=False)
    sp.add_argument("--algebra-only", action="store_true",
                    help="skip the module-axiom stage")
    sp.add_argument("--dump-brackets", default=None,
                    help="write the bracket tensor as JSON to this path")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("verma", help="dump the weight decomposition as JSON")
    common(sp, lam_default="0,0,0")
    sp.set_defaults(func=cmd_verma)

    sp = sub.add_parser("h1", help="H^1 superdimension at one parameter point")
    common(sp, lam_default="0,0,0")
    sp.add_argument("--method", choices=("graded", "both"), default="graded",
                    help="graded solver, or the graded solver cross-checked "
                         f"against the ungraded oracle (p <= {ORACLE_MAX_P})")
    sp.set_defaults(func=cmd_h1)

    sp = sub.add_parser("scan", help="sweep lambda/alpha and emit CSV")
    common(sp, lam_default="all")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: H1_JOBS or cpu count; "
                         "capped at the cpu count and the number of points)")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("verify-psi", help="verify one outer family psi_1..psi_4")
    sp.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="optional; must match the family's residues")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_verify_psi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # check writes no data, so it has no --output
        _check_output(getattr(args, "output", None))
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
