"""Command-line front end: compute, decompose, classify, verify.

Results go to stdout (canonical JSON by default, or readable text with
--format text); diagnostics and one-line summaries go to stderr.  Exit
codes: 0 success, 1 verification failure (a failed suite case, or an
internal cross-check that disagreed), 2 invalid root-system spec or
usage, 3 hypothesis violation (any HypothesisViolated), 4 undetermined
character, 5 negative decomposition coefficient, 6 resource cap
exceeded, 141 (128 + SIGPIPE, as a shell reports a process killed by a
closed pipe) stdout closed before the output was complete.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial

from .errors import (
    HypothesisViolated,
    InvalidSpec,
    NegativeCoefficient,
    ResourceCap,
    TiltcharError,
    Undetermined,
)
# The package registers these lazily: their attributes are read only
# inside functions, so a command runs only the modules it calls.
from . import charring as ch
from . import minuscule as mn
from . import simplechar as sc
from . import suites
from . import tilting as tl
from .rootsys import (
    DEFAULT_CONE_CAP,
    DEFAULT_ORBIT_CAP,
    RootSystemSpec,
    build_root_datum,
    is_prime,
)


def _parse_weight(text: str) -> tuple:
    # argparse reports only ValueError and TypeError itself; InvalidSpec reaches main
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidSpec(f"bad weight syntax {text!r}; expected e.g. 1,0")


def _parse_suites(text: str) -> list:
    try:
        return suites.suite_names(text.split(","))
    except ValueError as exc:
        raise InvalidSpec(str(exc))


def _check(args):
    """Reject outside input before any library call (InvalidSpec, exit 2)."""
    opts = vars(args)
    if opts.get("p") is not None and not is_prime(args.p):
        raise InvalidSpec(f"p must be prime, got {args.p}")
    # verify --r 0 sweeps the grid
    if "r" in opts and args.r < (0 if args.group == "verify" else 1):
        raise InvalidSpec(f"r must be at least 1, got {args.r}")
    if any(opts[cap] <= 0 for cap in ("cap_orbit", "cap_cone") if cap in opts):
        raise InvalidSpec("caps must be positive")
    if "weight" in opts and len(args.weight) != args.rank:
        raise InvalidSpec(
            f"weight {','.join(map(str, args.weight))} needs {args.rank} "
            f"coordinates, got {len(args.weight)}"
        )


def _datum(args):
    """The run's datum, with --cap-orbit and --cap-cone where the command takes them."""
    opts = vars(args)
    return build_root_datum(
        RootSystemSpec(args.series, args.rank),
        orbit_cap=opts.get("cap_orbit", DEFAULT_ORBIT_CAP),
        cone_cap=opts.get("cap_cone", DEFAULT_CONE_CAP),
    )


def _provider(args) -> sc.SimpleCharProvider:
    """The ch L(lambda) resolver set by --strategy, --table, --table-override."""
    table = None
    if args.table is not None:
        import json

        try:
            with open(args.table, encoding="utf-8") as fh:
                table = sc.SimpleCharTable.from_json_list(json.load(fh))
        # a character for another datum (DatumMismatch) is a bad file too
        except (OSError, ValueError, KeyError, TypeError, TiltcharError) as exc:
            raise InvalidSpec(f"cannot read table {args.table}: {exc}")
    return sc.SimpleCharProvider(args.strategy, table, args.table_override)


def _simple_character(d, args):
    return _provider(args).resolve(d, args.weight, args.p)[0]


def _emit(obj, fmt, text_lines):
    if fmt == "json":
        import json

        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def _char_lines(char):
    t = char.terms
    for w in char.sorted_weights():
        yield f"{t[w]} e({','.join(map(str, w))})"
    yield f"dimension {char.dimension()}"


def _char_output(char, fmt):
    # streamed either way: a character can have millions of terms
    if fmt == "json":
        char.write_json(sys.stdout)
    else:
        for line in _char_lines(char):
            print(line)
    print(
        f"dimension {char.dimension()}, {len(char.terms)} terms",
        file=sys.stderr,
    )


def cmd_rootsys_info(args) -> int:
    d = _datum(args)
    obj = {
        "type": args.series,
        "rank": args.rank,
        "positive_roots": len(d.positive_roots),
        "coxeter_number": d.coxeter_number,
        "rho": list(d.rho),
        "highest_root": list(d.positive_roots[d.highest_root].fw),
        "highest_short_root": list(d.positive_roots[d.highest_short_root].fw),
        "w0_perm": [i + 1 for i in d.w0_perm],
    }
    lines = [
        f"type {args.series}{args.rank}: {len(d.positive_roots)} positive roots, "
        f"h={d.coxeter_number}",
        f"rho={','.join(map(str, d.rho))}",
        f"highest root={','.join(map(str, obj['highest_root']))}",
        f"highest short root={','.join(map(str, obj['highest_short_root']))}",
        f"w0 permutation={','.join(map(str, obj['w0_perm']))}",
    ]
    _emit(obj, args.fmt, lines)
    return 0


# char subcommand -> (needs --p, needs --r, character of (datum, args))
_CHARACTERS = {
    "weyl": (False, False, lambda d, a: ch.weyl_character(d, a.weight)),
    "orbit": (False, False, lambda d, a: ch.orbit_sum(d, a.weight)),
    "steinberg": (True, True, lambda d, a: ch.steinberg_character(d, a.p, a.r)),
    "sr": (True, True, lambda d, a: ch.s_r_character(d, a.p, a.r, a.weight)),
    "simple": (True, False, _simple_character),
    "tiltp": (True, False, lambda d, a: tl.tilting_char_p(d, a.p, a.weight)),
    "tiltpr": (True, True, lambda d, a: tl.tilting_char_pr(d, a.p, a.r, a.weight)),
}


def cmd_char(args) -> int:
    _, _, character = _CHARACTERS[args.command]
    _char_output(character(_datum(args), args), args.fmt)
    return 0


def _module_character(d, args, provider):
    if args.module == "simple":
        return provider.resolve(d, args.weight, args.p)[0]
    if args.module == "orbit":
        return ch.orbit_sum(d, args.weight)
    return ch.weyl_character(d, args.weight)  # nabla, delta


def _decomposition_text(dec):
    parts = [
        f"{m}*T({','.join(map(str, hw))})" for hw, m in dec.highest_weights()
    ]
    return " + ".join(parts) if parts else "0"


def cmd_decompose(args) -> int:
    d = _datum(args)
    provider = _provider(args)  # read for every --module, so a bad --table is exit 2
    if args.command == "st":
        phi = _module_character(d, args, provider)
        dec = tl.decompose_st_tensor(d, args.p, args.weight, phi)
    else:
        dec = tl.decompose_str_tensor(d, args.p, args.r, args.weight, provider)
    text = _decomposition_text(dec)
    _emit(dec.to_json_dict(), args.fmt, [text])
    print(text, file=sys.stderr)
    return 0


def cmd_classify(args) -> int:
    prof = mn.classify(_datum(args), args.weight, args.p, args.r)
    flags = prof.to_json_dict()["flags"]
    lines = [f"weight {','.join(map(str, prof.weight))} at p={args.p}, r={args.r}"]
    lines += [f"  {name}: {'yes' if val else 'no'}" for name, val in flags.items()]
    if prof.digits:
        lines.append(
            "  digits: " + " | ".join(",".join(map(str, dig)) for dig in prof.digits)
        )
    _emit(prof.to_json_dict(), args.fmt, lines)
    return 0


def cmd_verify(args) -> int:
    ps = (args.p,) if args.p is not None else suites.DEFAULT_PRIMES
    rs = (args.r,) if args.r else suites.DEFAULT_RS
    reports = suites.run_suites(_datum(args), args.suite, ps=ps, rs=rs)
    obj = {
        "type": args.series,
        "rank": args.rank,
        "p": list(ps),
        "r": list(rs),
        "suites": [rep.to_json_dict() for rep in reports],
        "ok": all(rep.ok for rep in reports),
    }
    summaries = [
        f"suite {rep.suite}: {rep.passed} passed, {rep.failed} failed, "
        f"{rep.undetermined} undetermined"
        for rep in reports
    ]
    lines = []
    for rep, summary in zip(reports, summaries):
        for case in rep.cases:
            tag = {"pass": "PASS", "fail": "FAIL", "undetermined": "UNDET"}[case.status]
            lines.append(f"{tag} {rep.suite}:{case.case}")
        lines.append(summary)
    _emit(obj, args.fmt, lines)
    for summary in summaries:
        print(summary, file=sys.stderr)
    return 0 if obj["ok"] else 1


def _add_common(parser, need_p=False, need_r=False, weight_flag=None):
    parser.add_argument("--type", required=True, dest="series", choices=list("ABCDEFG"))
    parser.add_argument("--rank", required=True, type=int)
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    if weight_flag:
        parser.add_argument(weight_flag, dest="weight", required=True, type=_parse_weight)
    if need_p:
        parser.add_argument("--p", type=int, required=True)
    if need_r:
        parser.add_argument("--r", type=int, default=1)


def _add_simple_char_args(parser):
    """How ch L(lambda) is resolved: --strategy, --table, --table-override."""
    parser.add_argument("--strategy", choices=("auto",) + sc.STRATEGIES, default="auto")
    parser.add_argument("--table")
    parser.add_argument("--table-override", action="store_true")


_CAP_DEFAULTS = {"--cap-orbit": DEFAULT_ORBIT_CAP, "--cap-cone": DEFAULT_CONE_CAP}
# char subcommand -> the caps its character walks reach: orbits, dominant cones
_CHAR_CAPS = {
    "weyl": ("--cap-cone",), "orbit": ("--cap-orbit",), "sr": ("--cap-orbit",)
}


def _add_cap_args(parser, flags):
    """The run datum's bounds on orbit enumeration and dominant-cone size."""
    for flag in flags:
        parser.add_argument(flag, type=int, default=_CAP_DEFAULTS[flag])


class _LazyParser(argparse.ArgumentParser):
    """Runs its fill(self), if set, in its first parse_known_args call, which is
    how subparsers dispatch: only the parsers on the command line's path are filled."""

    fill = None

    def parse_known_args(self, args=None, namespace=None):
        fill, self.fill = self.fill, None
        if fill:
            fill(self)
        return super().parse_known_args(args, namespace)


def _add_char_args(cp, name):
    need_p, need_r, _ = _CHARACTERS[name]
    _add_common(cp, need_p, need_r, None if name == "steinberg" else "--weight")
    _add_cap_args(cp, _CHAR_CAPS.get(name, ()))
    if name == "simple":
        _add_simple_char_args(cp)


def _add_st_args(st):
    _add_common(st, need_p=True, weight_flag="--lambda")
    st.add_argument(
        "--module", choices=("nabla", "delta", "simple", "orbit"), default="nabla"
    )
    _add_simple_char_args(st)
    _add_cap_args(st, ("--cap-orbit", "--cap-cone"))


def _add_str_args(strp):
    _add_common(strp, need_p=True, need_r=True, weight_flag="--lambda")
    _add_simple_char_args(strp)


def _add_verify_args(ver):
    ver.add_argument(
        "--suite",
        type=_parse_suites,
        default="all",
        help="comma-separated suite names or 'all' "
        f"(suites: {', '.join(suites.SUITE_NAMES)})",
    )
    ver.add_argument("--type", required=True, dest="series", choices=list("ABCDEFG"))
    ver.add_argument("--rank", required=True, type=int)
    ver.add_argument("--p", type=int)
    ver.add_argument("--r", type=int, default=0)  # 0 = sweep the default grid
    ver.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")


def _add_leaves(*leaves):
    """A fill that adds a group's leaf parsers, one per (name, help text or None, fill)."""

    def fill(parser):
        leaf_sub = parser.add_subparsers(dest="command", required=True)
        for name, summary, leaf_fill in leaves:
            kwargs = {} if summary is None else {"help": summary}
            leaf_sub.add_parser(name, **kwargs).fill = leaf_fill

    return fill


def build_parser():
    """The tiltchar parser; a command's parsers are filled when it is parsed."""
    top = _LazyParser(
        prog="tiltchar",
        description="Exact tilting-character combinatorics for simple root systems.",
    )
    sub = top.add_subparsers(dest="group", required=True)
    for name, summary, run, fill in [
        ("rootsys", "root-system data", cmd_rootsys_info, _add_leaves(
            ("info", "print rank, roots, h, rho, w0", _add_common),
        )),
        ("char", "compute characters", cmd_char, _add_leaves(
            *[(name, None, partial(_add_char_args, name=name)) for name in _CHARACTERS]
        )),
        ("decompose", "Steinberg tensor decompositions", cmd_decompose, _add_leaves(
            ("st", "St (x) V into T((p-1)rho + nu)", _add_st_args),
            ("str", "St_r (x) L(lambda) into T((p^r-1)rho + nu)", _add_str_args),
        )),
        ("classify", "minuscule-family classification", cmd_classify, partial(
            _add_common, need_p=True, need_r=True, weight_flag="--weight"
        )),
        ("verify", "run verification suites", cmd_verify, _add_verify_args),
    ]:
        parser = sub.add_parser(name, help=summary)
        parser.set_defaults(run=run)
        parser.fill = fill
    return top


_WEIGHT_FLAGS = ("--weight", "--lambda")
_WEIGHT_RE = re.compile(r"-?\d+(,-?\d+)*$")


def _preprocess_argv(argv):
    """Glue negative weight values onto their flag so argparse accepts them."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _WEIGHT_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and _WEIGHT_RE.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


EXIT_STDOUT_CLOSED = 141


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        try:
            # the unwritten rest stays buffered; let the shutdown flush drop it
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError):
            pass  # stdout has no file descriptor, as under capture
        print("error: stdout closed before the output was complete", file=sys.stderr)
        return EXIT_STDOUT_CLOSED


def _run(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_preprocess_argv(list(argv)))
        _check(args)
        return args.run(args)
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except Undetermined as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return 4
    except NegativeCoefficient as exc:
        print(f"negative coefficient: {exc}", file=sys.stderr)
        return 5
    except ResourceCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 6
    except TiltcharError as exc:
        # InternalMismatch, NotDivisible: a cross-check that must never fail
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
