"""Fast self-test of the benchmark, on tiny op counts (about 20 s).

    python3 perfbench/smoke.py        # from the root of a checkout

Checks that every metric of BENCHMARK.json is printed by name with its unit,
that a forced wrong reference counts as a failed op while the run goes on,
that one seed gives identical inputs and identical exact counts twice, and
that the benchmark refuses to run where the engine's sources are missing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench", "smoke")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def scan(seed: int, trace: int, *extra):
    proc = bench("--workload", "scan-slice-p5", "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace), *extra)
    if proc.returncode != 0:
        sys.exit(f"FAIL: run exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL: result keys {sorted(result)}")
    return lines, result


def inputs_of(lines) -> str:
    load = next(line for line in lines if line.strip().startswith("load:"))
    return load.rsplit("inputs ", 1)[1]


def check_metrics(lines, result, wanted) -> None:
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        sys.exit(f"FAIL: metrics {list(result['metrics'])}")
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            sys.exit(f"FAIL: {m['name']} has unit {result['metrics'][m['name']]['unit']}")
        if not any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in lines[:-1]
        ):
            sys.exit(f"FAIL: {m['name']} ({m['unit']}) is not printed")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    lines, result = scan(1, 0, "--max-ops", "2")
    check_metrics(lines, result, spec["end_to_end"])
    if not (result["correct"] and result["attempted"] == 2 and result["failed"] == 0):
        sys.exit(f"FAIL: clean run reported {result}")
    print("ok   every end-to-end metric printed with its unit")

    lines, result = scan(1, 0, "--max-ops", "2", "--corrupt-reference")
    if result["correct"] or result["attempted"] != 2 or result["failed"] != 1:
        sys.exit(f"FAIL: forced wrong reference reported {result}")
    if not any("FAILED p=5 alpha=2 lambda=" in line for line in lines):
        sys.exit("FAIL: the failed op's parameters are not printed")
    print("ok   a forced wrong reference is one failed op, and the run goes on")

    first_lines, first = scan(1, 1, "--max-ops", "2")
    check_metrics(first_lines, first, spec["per_layer"])
    again_lines, again = scan(1, 1, "--max-ops", "2")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for name in counts:
        if first["metrics"][name] != again["metrics"][name]:
            sys.exit(f"FAIL: count {name} differs between two runs of one seed")
    if inputs_of(first_lines) != inputs_of(again_lines):
        sys.exit("FAIL: one seed gave different inputs")
    other_lines, _ = scan(2, 1, "--max-ops", "1")
    if inputs_of(other_lines) == inputs_of(first_lines):
        sys.exit("FAIL: two seeds gave the same inputs")
    print(f"ok   every per-layer metric printed; one seed repeats inputs and "
          f"{len(counts)} counts")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        os.makedirs(SCRATCH)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(SCRATCH, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "scan-slice-p5", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=SCRATCH)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL: ran without the engine's sources")
    print("ok   refuses to run without src/d21alpha")
    return 0


if __name__ == "__main__":
    sys.exit(main())
