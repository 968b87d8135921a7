"""d21alpha benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-slice-p5 --seed 1 --seconds 40 --trace 0

The load is a closed loop: one client in one worker process issues one op at
a time and waits for its answer.  The worker is a fresh interpreter, so its
set-up time and peak RSS belong to this run alone.  Every op's answer is
checked against the paper's table; a wrong answer or an exception is a
failed op.  With --trace 0 the last line of stdout carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up samples besides the measured worker's own, half launched before it
# and half after, so that they span the run rather than one moment of it
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170
OUT_DIR = ".perfbench"
MIN_SPAN_COVERAGE = 0.9  # share of op wall time the named spans must explain


class BenchError(RuntimeError):
    pass


def _commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return f"unknown ({ref[5:]} is packed)"


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _launch(cmd, env, deadline: float) -> float:
    """Start a worker, return its set-up time, and wait for it to exit.

    A timer kills the worker at the deadline, so a hung worker cannot hold
    the run past it.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().strip() == "READY"
        setup = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise BenchError(f"worker killed after {WORKER_TIMEOUT_S} s")
    if not ready or code != 0:
        raise BenchError(f"worker exited with code {code}")
    return setup


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="testing: run only the first N ops of round 0")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="testing: shift the reference of each round's first op")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "d21alpha", "__init__.py")):
        print("error: run from the root of a d21alpha checkout (no src/d21alpha)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(why)}",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(root, OUT_DIR)
    tmpdir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    out = os.path.join(tmpdir, "result.json")
    blas_threads = "1"
    env = dict(
        os.environ,
        PYTHONPATH=src,
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS=blas_threads,
        OMP_NUM_THREADS=blas_threads,
        MKL_NUM_THREADS=blas_threads,
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", out, "--tmpdir", tmpdir,
    ]
    if args.max_ops:
        cmd += ["--max-ops", str(args.max_ops)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    trace_file = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
    if args.trace:
        cmd += ["--trace-file", trace_file]

    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [_launch(cmd + ["--probe"], env, deadline) for _ in range(probes)]
        setups.append(_launch(cmd, env, deadline))
        setups += [_launch(cmd + ["--probe"], env, deadline) for _ in range(probes)]
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted = res["attempted"]
    failed = len(res["failures"])
    lat = sorted(res["latencies"])
    v = res["versions"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  why: {why[args.workload]}")
    print(f"  load: closed loop, 1 client, 1 worker process, one op at a time; "
          f"{res['rounds']} round(s) of {res['ops_per_round']} ops, "
          f"inputs {res['inputs_sha256']}")
    print(f"  env: nproc={os.cpu_count()} python={v['python']} numpy={v['numpy']} "
          f"scipy={v['scipy']} blas_threads={blas_threads} "
          f"commit={_commit(root)} src={_source_digest(src)}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    if not args.trace and not lat:
        print("error: no op completed", file=sys.stderr)
        return 1

    if args.trace:
        if res["missing_spans"]:
            print(f"error: spans never fired on {args.workload}: "
                  f"{', '.join(res['missing_spans'])}", file=sys.stderr)
            return 1
        metrics = {k: (val, unit) for k, (val, unit) in res["layers"].items()}
        coverage = metrics["trace.span_coverage"][0]
        if coverage < MIN_SPAN_COVERAGE:
            print(f"error: named spans' self time covers only {coverage:.1%} of "
                  f"op wall time", file=sys.stderr)
            return 1
        print(f"  spans: {os.path.relpath(trace_file, root)}; times are per op, "
              f"counts are totals over the round ({res['ops_per_round']} ops)")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / res["wall_s"], "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        print(f"  setup_s is the median of {len(setups)} interpreter launches; "
              f"latencies from n={len(lat)} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {_fmt(value):>14s} {unit}")
    if not args.trace:
        # printed, not reported: a p90 needs 100 samples to have 10 beyond
        # it, and a share that reads 0 cannot carry a relative bound
        p90 = (_fmt(statistics.quantiles(lat, n=10)[-1]) + " s"
               if len(lat) >= 100 else f"n/a (n={len(lat)} < 100)")
        print(f"  {'op_p90_s':34s} {p90:>14s}")
        print(f"  {'ops_failed_frac':34s} {_fmt(failed / attempted):>14s} "
              f"({failed}/{attempted})")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
