#!/usr/bin/env python3
"""Run every verification suite over a grid of types, ranks and primes.

Prints one summary line per (type, suite) and a final coverage report of
undetermined cases.  Exit status 0 iff nothing failed; bad input (an
unknown suite, type or rank, a non-prime p, an r below 1, a malformed
list) exits 2 with one error line and nothing on stdout.

Examples:
    python scripts/run_identity_sweeps.py
    python scripts/run_identity_sweeps.py --types A1,A2,A3,B3,C3 --p 2,3,5 --r 1
    python scripts/run_identity_sweeps.py --types B3,C3 --p 2,3 --r 2   # minutes
    python scripts/run_identity_sweeps.py --types D4 --p 2,3,5 --r 1 --suites remark,thm1

The default grid is every rank <= 2 type over p in {2, 3} and r in
{1, 2} (a few seconds).  Larger ranks are fine at r = 1; with r = 2 the
second Steinberg weight makes rank-3 sweeps take minutes and D4 sweeps
take gigabytes, so those stay opt-in.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tiltchar import suites
from tiltchar.cli import _check, _parse_suites
from tiltchar.errors import InvalidSpec
from tiltchar.rootsys import RootSystemSpec, build_root_datum

DEFAULT_TYPES = "A1,A2,B2,C2,G2"


def parse_type(text):
    series, rank = text[:1], text[1:]
    if not rank.isdigit():
        raise InvalidSpec(f"bad type {text!r}; expected a series and a rank, e.g. A2")
    return RootSystemSpec(series, int(rank))


def parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidSpec(f"bad list {text!r}; expected integers, e.g. 2,3")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--types", default=DEFAULT_TYPES)
    ap.add_argument("--p", default="2,3", type=parse_ints)
    ap.add_argument("--r", default="1,2", type=parse_ints)
    ap.add_argument("--suites", default="all", type=_parse_suites)
    try:
        args = ap.parse_args(argv)
        for p in args.p:
            for r in args.r:
                _check(argparse.Namespace(p=p, r=r, group=None))
        specs = [(text, parse_type(text.strip())) for text in args.types.split(",")]
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    gaps = []
    for spec_text, spec in specs:
        d = build_root_datum(spec)
        t0 = time.monotonic()
        reports = suites.run_suites(d, args.suites, ps=args.p, rs=args.r)
        elapsed = time.monotonic() - t0
        for rep in reports:
            print(
                f"{spec_text:>3} {rep.suite:<8} "
                f"{rep.passed:4d} passed {rep.failed:3d} failed "
                f"{rep.undetermined:3d} undetermined"
            )
            failures += rep.failed
            for case in rep.cases:
                if case.status == "fail":
                    print(f"    FAIL {case.case}: {case.detail}")
                elif case.status == "undetermined":
                    gaps.append(f"{rep.suite}:{case.case}")
        print(f"{spec_text:>3} total {elapsed:6.1f}s")

    if gaps:
        print(f"\ncoverage gaps ({len(gaps)} undetermined cases):")
        for gap in gaps:
            print(f"  {gap}")
    else:
        print("\ncoverage: complete, no undetermined cases")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
