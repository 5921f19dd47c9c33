#!/usr/bin/env python3
"""Solve simple characters below a bound and write a table file.

The resulting JSON can be fed back to the CLI and the library through
--table; undetermined weights are listed on stderr so the coverage of the
solver is visible.  Bad input (an unknown type or rank, a non-prime p, a
bound that is malformed, of the wrong length or not dominant) exits 2
with one error line and nothing on stdout.

Example:
    python scripts/build_simple_char_table.py --type A --rank 2 --p 3 \
        --bound 4,4 -o tables/a2_p3.json
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tiltchar.cli import _check, _parse_weight
from tiltchar.errors import InvalidSpec, NotDominant
from tiltchar.rootsys import RootSystemSpec, build_root_datum
from tiltchar.simplechar import jsf_solve


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--type", required=True, dest="series", choices=list("ABCDEFG"))
    ap.add_argument("--rank", required=True, type=int)
    ap.add_argument("--p", required=True, type=int)
    ap.add_argument(
        "--bound", required=True, dest="weight", type=_parse_weight,
        help="dominant weight, e.g. 4,4",
    )
    ap.add_argument("-o", "--output", default="-")
    try:
        args = ap.parse_args(argv)
        _check(args)
        d = build_root_datum(RootSystemSpec(args.series, args.rank))
        table = jsf_solve(d, args.p, args.weight)
    except (InvalidSpec, NotDominant) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    blob = json.dumps(table.to_json_list(), indent=2)
    if args.output == "-":
        print(blob)
    else:
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
        print(f"wrote {len(table)} entries to {args.output}", file=sys.stderr)

    if table.undetermined:
        print(f"{len(table.undetermined)} undetermined weights:", file=sys.stderr)
        for key in table.undetermined:
            print(f"  {key[0]}{key[1]} p={key[3]} weight={list(key[2])}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
