#!/usr/bin/env python3
"""Record the expected exit code and stdout SHA-256 of every benchmark operation.

    python3 perfbench/record_expected.py

Run from the repository root at the commit whose outputs are the
reference.  Every operation any seed can draw is run once plainly and once
under the tracer; the two stdouts must agree.  Also recorded per operation
is its work, the exact number of char_mul term pairs, which the
decompose_str workload uses to stratify its draw.  Operations run two at
a time.  Writes perfbench/expected.json.
"""
from __future__ import annotations

import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import EXPECTED_PATH, ROOT, all_candidates, run_op

JOBS = 2


def record(argv):
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        plain = run_op(argv, Path(tmp))
        traced = run_op(argv, Path(tmp), trace=True)
    if (plain.exit_code, plain.sha256) != (traced.exit_code, traced.sha256):
        raise RuntimeError(f"tracer changed the output of {argv}")
    return argv, {
        "exit": plain.exit_code,
        "sha256": plain.sha256,
        "stdout_bytes": plain.stdout_bytes,
        "work": traced.trace["counts"].get("charring.char_mul.term_pairs", 0),
    }


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from tiltchar import datum, enumerate_class

    weights = enumerate_class(datum("A", 2), 5, 2, "pr_minuscule")
    with ThreadPoolExecutor(JOBS) as pool:
        ops = dict(pool.map(record, all_candidates(weights)))
    failing = [argv for argv, rec in ops.items() if rec["exit"] != 0]
    if failing:
        raise SystemExit(f"operations that exit non-zero cannot be workload inputs: {failing}")
    out = {"about": "expected tiltchar CLI outputs, recorded at the seed commit", "ops": ops}
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(ops)} operations in {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
