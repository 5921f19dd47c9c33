#!/usr/bin/env python3
"""Check that two traced runs with the same seed give identical counts.

    python3 perfbench/check_counts.py

Runs ``run.py --trace 1 --seed 1 --seconds 1`` (one traced pass) twice
for each workload and compares every
per-layer metric that is a count (unit ``count`` or ``bytes``).  Times
are expected to differ; counts are exact and must not.  Exits 1 on any
difference or failed run.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH_DIR, ROOT

COUNT_UNITS = ("count", "bytes")


def traced_counts(workload):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"traced run of {workload} failed (exit {proc.returncode})")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    differ = 0
    for name in (w["name"] for w in spec["workloads"]):
        first = traced_counts(name)
        second = traced_counts(name)
        diffs = sorted(k for k in first if first[k] != second.get(k))
        differ += len(diffs)
        for k in diffs:
            print(f"{name}: {k} {first[k]} != {second.get(k)}")
        print(f"{name}: {len(first) - len(diffs)} of {len(first)} counts identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
