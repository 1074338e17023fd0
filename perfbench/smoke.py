#!/usr/bin/env python3
"""Smoke test of the perfbench harness at tiny scale.

Run from the root of the repository:

    python3 perfbench/smoke.py

Runs every workload for one short pass (two iterations, so the
determinism check runs too) with tracing off and with tracing on.  It
checks that the run succeeds, that every metric BENCHMARK.json names
prints with its unit, that the harness and BENCHMARK.json name the same
metrics, and that failed_frac is 0.  Takes about ten seconds; exits 1
with the reason on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as harness  # noqa: E402  (perfbench/run.py)


def check(cond, message):
    if not cond:
        print(f"smoke test FAILED: {message}")
        sys.exit(1)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS),
          "BENCHMARK.json workloads differ from the harness")
    for trace, section, units in ((0, "end_to_end", harness.END_TO_END),
                                  (1, "per_layer", harness.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        check(declared == units, f"BENCHMARK.json {section} differs from the harness")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--scale", "smoke",
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode == 0, f"trace {trace} run exited {proc.returncode}: {proc.stderr[-800:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(result["correct"] and result["failed"] == 0, f"trace {trace}: failures {result}")
        for workload in harness.WORKLOADS:
            check(f"== {workload}: " in proc.stdout and "failed_frac 0\n" in proc.stdout,
                  f"trace {trace}: no clean summary for {workload}")
            for name, unit in units.items():
                metric = result["metrics"].get(f"{workload}.{name}")
                check(metric is not None and metric["unit"] == unit,
                      f"trace {trace}: {workload}.{name} missing or not in {unit}")
                check(isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]),
                      f"trace {trace}: {workload}.{name} is not a finite number")
            if trace:
                check(result["metrics"][f"{workload}.failed_frac"]["value"] == 0,
                      f"{workload}: failed_frac is not 0")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
