"""One workload run in a fresh interpreter; started by run.py, not by hand.

The worker imports the engine, builds round 0 of its inputs, prints READY
(run.py times set-up up to that line) and then runs closed-loop: one op at a
time, each op timed on its own.  Untraced, it runs whole rounds while the
next round is expected to end within --seconds (always at least one round).
Traced, it runs round 0 once untraced and once traced, so the difference is
the tracing overhead on identical inputs.  The result goes to --out as JSON.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import workloads
from tracing import Tracer, layer_metrics


class Record:
    """Latencies and failures of the ops a run attempted."""

    def __init__(self, tmpdir: str, corrupt: bool):
        self.tmpdir = tmpdir
        self.corrupt = corrupt
        self.attempted = 0
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def run_round(self, ops, tracer: Tracer | None = None) -> float:
        t0 = time.perf_counter()
        for index, op in enumerate(ops):
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    answer = workloads.run_op(op, self.tmpdir)
                else:
                    answer = tracer.run_op(index, workloads.run_op, op, self.tmpdir)
                latency = time.perf_counter() - start
                # the forced wrong reference hits only the first op of a round
                workloads.check_op(op, answer, self.corrupt and index == 0)
            except Exception as exc:  # a failed op is recorded; the run goes on
                self.failures.append(
                    f"{op.label()}: {type(exc).__name__}: {exc}".splitlines()[0]
                )
                if not isinstance(exc, workloads.Mismatch):
                    traceback.print_exc(file=sys.stderr)
                continue
            self.latencies.append(latency)
        return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--trace-file", help="where a traced run writes its spans")
    ap.add_argument("--probe", action="store_true",
                    help="exit as soon as set-up is done")
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args(argv)

    round0 = workloads.ROUNDS[args.workload](args.seed, 0)
    if args.max_ops:
        round0 = round0[: args.max_ops]
    print("READY", flush=True)
    if args.probe:
        return 0

    record = Record(args.tmpdir, args.corrupt_reference)
    result = {
        "inputs_sha256": workloads.inputs_digest(round0),
        "ops_per_round": len(round0),
    }
    if args.trace:
        untraced_s = record.run_round(round0)
        tracer = Tracer()
        tracer.install()
        traced_s = record.run_round(round0, tracer)
        tracer.save(args.trace_file)
        layers = layer_metrics(tracer, len(round0))
        layers["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        fired = {k for k, v in tracer.summary().items() if v["calls"]}
        result["missing_spans"] = [
            name for name in workloads.REQUIRED_SPANS[args.workload]
            if name not in fired
        ]
        result.update(rounds=1, layers=layers)
    else:
        round_times = [record.run_round(round0)]
        while not args.max_ops:
            expected = sum(round_times) / len(round_times)
            if sum(round_times) + expected > args.seconds:
                break
            ops = workloads.ROUNDS[args.workload](args.seed, len(round_times))
            round_times.append(record.run_round(ops))
        result.update(rounds=len(round_times), wall_s=sum(round_times))

    result.update(
        attempted=record.attempted,
        failures=record.failures,
        latencies=record.latencies,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
