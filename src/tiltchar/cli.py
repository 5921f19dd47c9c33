"""Command-line front end: compute, decompose, classify, verify.

Results go to stdout (canonical JSON by default, or readable text with
--format text); diagnostics and one-line summaries go to stderr.  Exit
codes: 0 success, 1 verification failure (a failed suite case, or an
internal cross-check that disagreed), 2 invalid root-system spec or
usage, 3 hypothesis violation, 4 undetermined character, 5 negative
decomposition coefficient, 6 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from .errors import (
    CarrierNotPrMinuscule,
    DatumMismatch,
    HypothesisViolated,
    InvalidSpec,
    NegativeCoefficient,
    NotDominant,
    NotPMinuscule,
    NotRestricted,
    NotWInvariant,
    OrbitTooLarge,
    ResourceCap,
    TermNotRestricted,
    TiltcharError,
    Undetermined,
)
from . import charring as ch
from . import minuscule as mn
from . import suites
from . import tilting as tl
from .rootsys import (
    DEFAULT_CONE_CAP,
    DEFAULT_ORBIT_CAP,
    RootSystemSpec,
    build_root_datum,
)
from .simplechar import (
    SimpleCharProvider,
    SimpleCharRequest,
    SimpleCharTable,
    is_prime,
    simple_character,
)

_HYPOTHESIS_ERRORS = (
    HypothesisViolated,
    NotDominant,
    NotRestricted,
    NotPMinuscule,
    CarrierNotPrMinuscule,
    TermNotRestricted,
    NotWInvariant,
    DatumMismatch,
)


@dataclass
class RunConfig:
    """Parsed invocation: which operation over which (type, rank, p, r)."""

    series: str
    rank: int
    command: str
    p: int | None = None
    r: int = 1
    weight: tuple = ()
    fmt: str = "json"
    cap_orbit: int = DEFAULT_ORBIT_CAP
    cap_cone: int = DEFAULT_CONE_CAP
    table_path: str | None = None
    table_override: bool = False
    strategy: str = "auto"
    module: str = "nabla"

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise InvalidSpec(f"p must be prime, got {self.p}")
        if self.r < 1:
            raise InvalidSpec(f"r must be at least 1, got {self.r}")
        if self.cap_orbit <= 0 or self.cap_cone <= 0:
            raise InvalidSpec("caps must be positive")


def _parse_weight(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidSpec(f"bad weight syntax {text!r}; expected e.g. 1,0")


def _emit(obj, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def _char_output(char, fmt):
    obj = char.to_json_dict()
    lines = [f"{m} e({','.join(map(str, w))})" for w, m in sorted(char.terms.items())]
    lines.append(f"dimension {char.dimension()}")
    _emit(obj, fmt, lines)
    print(
        f"dimension {char.dimension()}, {len(char.terms)} terms",
        file=sys.stderr,
    )


def _load_table(cfg: RunConfig):
    if cfg.table_path is None:
        return None
    with open(cfg.table_path, "r", encoding="utf-8") as fh:
        return SimpleCharTable.from_json_list(json.load(fh))


def cmd_rootsys_info(cfg: RunConfig) -> int:
    d = build_root_datum(RootSystemSpec(cfg.series, cfg.rank))
    obj = {
        "type": cfg.series,
        "rank": cfg.rank,
        "positive_roots": len(d.positive_roots),
        "coxeter_number": d.coxeter_number,
        "rho": list(d.rho),
        "highest_root": list(d.positive_roots[d.highest_root].fw),
        "highest_short_root": list(d.positive_roots[d.highest_short_root].fw),
        "w0_perm": [i + 1 for i in d.w0_perm],
    }
    lines = [
        f"type {cfg.series}{cfg.rank}: {len(d.positive_roots)} positive roots, "
        f"h={d.coxeter_number}",
        f"rho={','.join(map(str, d.rho))}",
        f"highest root={','.join(map(str, obj['highest_root']))}",
        f"highest short root={','.join(map(str, obj['highest_short_root']))}",
        f"w0 permutation={','.join(map(str, obj['w0_perm']))}",
    ]
    _emit(obj, cfg.fmt, lines)
    return 0


def cmd_char(cfg: RunConfig) -> int:
    d = build_root_datum(RootSystemSpec(cfg.series, cfg.rank))
    sub = cfg.command
    if sub == "weyl":
        char = ch.weyl_character(d, cfg.weight, cfg.cap_cone)
    elif sub == "orbit":
        char = ch.orbit_sum(d, cfg.weight, cfg.cap_orbit)
    elif sub == "steinberg":
        char = tl.steinberg_character(d, cfg.p, cfg.r)
    elif sub == "sr":
        char = ch.s_r_character(d, cfg.p, cfg.r, cfg.weight, cfg.cap_orbit)
    elif sub == "simple":
        char = simple_character(
            d,
            SimpleCharRequest(cfg.weight, cfg.p, cfg.strategy),
            _load_table(cfg),
            "override" if cfg.table_override else "compare",
        )
    elif sub == "tiltp":
        char = tl.tilting_char_p(d, cfg.p, cfg.weight)
    elif sub == "tiltpr":
        char = tl.tilting_char_pr(d, cfg.p, cfg.r, cfg.weight)
    else:
        raise InvalidSpec(f"unknown char subcommand {sub!r}")
    _char_output(char, cfg.fmt)
    return 0


def _module_character(d, cfg):
    if cfg.module in ("nabla", "delta"):
        return ch.weyl_character(d, cfg.weight, cfg.cap_cone)
    if cfg.module == "simple":
        return simple_character(
            d,
            SimpleCharRequest(cfg.weight, cfg.p, cfg.strategy),
            _load_table(cfg),
            "override" if cfg.table_override else "compare",
        )
    if cfg.module == "orbit":
        return ch.orbit_sum(d, cfg.weight, cfg.cap_orbit)
    raise InvalidSpec(f"unknown module kind {cfg.module!r}")


def _decomposition_text(dec):
    parts = [
        f"{m}*T({','.join(map(str, hw))})" for hw, m in dec.highest_weights()
    ]
    return " + ".join(parts) if parts else "0"


def cmd_decompose(cfg: RunConfig) -> int:
    d = build_root_datum(RootSystemSpec(cfg.series, cfg.rank))
    if cfg.command == "st":
        phi = _module_character(d, cfg)
        dec = tl.decompose_st_tensor(d, cfg.p, cfg.weight, phi)
    elif cfg.command == "str":
        provider = SimpleCharProvider(
            strategy=cfg.strategy,
            table=_load_table(cfg),
            table_mode="override" if cfg.table_override else "compare",
        )
        dec = tl.decompose_str_tensor(d, cfg.p, cfg.r, cfg.weight, provider)
    else:
        raise InvalidSpec(f"unknown decompose subcommand {cfg.command!r}")
    text = _decomposition_text(dec)
    _emit(dec.to_json_dict(), cfg.fmt, [text])
    print(text, file=sys.stderr)
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    d = build_root_datum(RootSystemSpec(cfg.series, cfg.rank))
    prof = mn.classify(d, cfg.weight, cfg.p, cfg.r)
    flags = prof.to_json_dict()["flags"]
    lines = [f"weight {','.join(map(str, prof.weight))} at p={cfg.p}, r={cfg.r}"]
    lines += [f"  {name}: {'yes' if val else 'no'}" for name, val in flags.items()]
    if prof.digits:
        lines.append(
            "  digits: " + " | ".join(",".join(map(str, dig)) for dig in prof.digits)
        )
    _emit(prof.to_json_dict(), cfg.fmt, lines)
    return 0


def cmd_verify(cfg: RunConfig, suite_names, r_given: bool) -> int:
    d = build_root_datum(RootSystemSpec(cfg.series, cfg.rank))
    ps = (cfg.p,) if cfg.p is not None else suites.DEFAULT_PRIMES
    rs = (cfg.r,) if r_given else suites.DEFAULT_RS
    reports = suites.run_suites(d, suite_names, ps=ps, rs=rs)
    obj = {
        "type": cfg.series,
        "rank": cfg.rank,
        "p": list(ps),
        "r": list(rs),
        "suites": [rep.to_json_dict() for rep in reports],
        "ok": all(rep.ok for rep in reports),
    }
    lines = []
    for rep in reports:
        for case in rep.cases:
            tag = {"pass": "PASS", "fail": "FAIL", "undetermined": "UNDET"}[case.status]
            lines.append(f"{tag} {rep.suite}:{case.case}")
        lines.append(
            f"suite {rep.suite}: {rep.passed} passed, {rep.failed} failed, "
            f"{rep.undetermined} undetermined"
        )
    _emit(obj, cfg.fmt, lines)
    for rep in reports:
        print(
            f"suite {rep.suite}: {rep.passed} passed, {rep.failed} failed, "
            f"{rep.undetermined} undetermined",
            file=sys.stderr,
        )
    return 0 if obj["ok"] else 1


def _add_common(parser, need_weight=False, need_p=False, need_r=False):
    parser.add_argument("--type", required=True, dest="series", choices=list("ABCDEFG"))
    parser.add_argument("--rank", required=True, type=int)
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    if need_weight:
        parser.add_argument("--weight", required=True)
    if need_p:
        parser.add_argument("--p", type=int, required=True)
    if need_r:
        parser.add_argument("--r", type=int, default=1)


def _add_simple_char_args(parser):
    """How ch L(lambda) is resolved: --strategy, --table, --table-override."""
    parser.add_argument("--strategy", default="auto")
    parser.add_argument("--table", dest="table_path")
    parser.add_argument("--table-override", action="store_true")


def _add_cap_args(parser):
    """Bounds on orbit enumeration and dominant-cone size."""
    parser.add_argument("--cap-orbit", type=int, default=DEFAULT_ORBIT_CAP)
    parser.add_argument("--cap-cone", type=int, default=DEFAULT_CONE_CAP)


def build_parser():
    top = argparse.ArgumentParser(
        prog="tiltchar",
        description="Exact tilting-character combinatorics for simple root systems.",
    )
    sub = top.add_subparsers(dest="group", required=True)

    rootsys_p = sub.add_parser("rootsys", help="root-system data")
    rootsys_sub = rootsys_p.add_subparsers(dest="command", required=True)
    info = rootsys_sub.add_parser("info", help="print rank, roots, h, rho, w0")
    _add_common(info)

    char_p = sub.add_parser("char", help="compute characters")
    char_sub = char_p.add_subparsers(dest="command", required=True)
    for name, np_, nr in [
        ("weyl", False, False),
        ("orbit", False, False),
        ("steinberg", True, True),
        ("sr", True, True),
        ("simple", True, False),
        ("tiltp", True, False),
        ("tiltpr", True, True),
    ]:
        cp = char_sub.add_parser(name)
        _add_common(cp, need_weight=(name not in ("steinberg",)), need_p=np_, need_r=nr)
        if name in ("weyl", "orbit", "sr"):
            _add_cap_args(cp)
        if name == "simple":
            _add_simple_char_args(cp)

    dec_p = sub.add_parser("decompose", help="Steinberg tensor decompositions")
    dec_sub = dec_p.add_subparsers(dest="command", required=True)
    st = dec_sub.add_parser("st", help="St (x) V into T((p-1)rho + nu)")
    _add_common(st, need_p=True)
    st.add_argument("--lambda", dest="weight_str", required=True)
    st.add_argument(
        "--module", choices=("nabla", "delta", "simple", "orbit"), default="nabla"
    )
    _add_simple_char_args(st)
    _add_cap_args(st)
    strp = dec_sub.add_parser("str", help="St_r (x) L(lambda) into T((p^r-1)rho + nu)")
    _add_common(strp, need_p=True, need_r=True)
    strp.add_argument("--lambda", dest="weight_str", required=True)
    _add_simple_char_args(strp)

    cls = sub.add_parser("classify", help="minuscule-family classification")
    _add_common(cls, need_weight=True, need_p=True, need_r=True)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument(
        "--suite",
        default="all",
        help="comma-separated suite names or 'all' "
        f"(suites: {', '.join(suites.SUITE_NAMES)})",
    )
    ver.add_argument("--type", required=True, dest="series", choices=list("ABCDEFG"))
    ver.add_argument("--rank", required=True, type=int)
    ver.add_argument("--p", type=int)
    ver.add_argument("--r", type=int, default=0)  # 0 = sweep the default grid
    ver.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
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


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_preprocess_argv(list(argv)))
    try:
        if args.group == "verify":
            cfg = RunConfig(
                series=args.series,
                rank=args.rank,
                command="verify",
                p=args.p,
                r=args.r if args.r else 1,
                fmt=args.fmt,
            )
            names = args.suite.split(",") if args.suite != "all" else "all"
            return cmd_verify(cfg, names, r_given=bool(args.r))

        weight = ()
        if getattr(args, "weight", None) is not None:
            weight = _parse_weight(args.weight)
        if getattr(args, "weight_str", None) is not None:
            weight = _parse_weight(args.weight_str)
        cfg = RunConfig(
            series=args.series,
            rank=args.rank,
            command=getattr(args, "command", args.group),
            p=getattr(args, "p", None),
            r=getattr(args, "r", 1),
            weight=weight,
            fmt=args.fmt,
            cap_orbit=getattr(args, "cap_orbit", DEFAULT_ORBIT_CAP),
            cap_cone=getattr(args, "cap_cone", DEFAULT_CONE_CAP),
            table_path=getattr(args, "table_path", None),
            table_override=getattr(args, "table_override", False),
            strategy=getattr(args, "strategy", "auto"),
            module=getattr(args, "module", "nabla"),
        )
        if args.group == "rootsys":
            return cmd_rootsys_info(cfg)
        if args.group == "char":
            return cmd_char(cfg)
        if args.group == "decompose":
            return cmd_decompose(cfg)
        if args.group == "classify":
            return cmd_classify(cfg)
        raise InvalidSpec(f"unknown command group {args.group!r}")
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except Undetermined as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return 4
    except NegativeCoefficient as exc:
        print(f"negative coefficient: {exc}", file=sys.stderr)
        return 5
    except (OrbitTooLarge, ResourceCap) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 6
    except TiltcharError as exc:
        # InternalMismatch, NotDivisible: a cross-check that must never fail
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
