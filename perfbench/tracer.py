"""Run one tiltchar CLI invocation with spans around the library's layer functions.

    python3 perfbench/tracer.py OUT.json OP_ID -- <tiltchar arguments>

Run from the repository root with PYTHONPATH=src.  Every module-level
binding of a traced function, including names imported with
``from .rootsys import ...``, is replaced by a wrapper that records a span
(name, start, end, parent) in memory and exact work counts.  When the CLI
returns, the spans, the counts and the size of each ``RootDatum._cache``
bucket are written to OUT.json under the operation id OP_ID, with the
time the tracer itself spent wrapping and writing out (``tracer_s``);
stdout is left to the CLI so the caller can check it against the
recorded digest.  The process exits with the
CLI's exit code.

Per-weight helpers (``reflect``, ``scaled_height``, ``to_dominant``,
``pairing`` and the minuscule predicates) run millions of times and are
not wrapped: their cost shows in their callers' self time.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute) of every traced function; "Class.method" for methods.
# Span names are "<module>.<attribute>" without leading underscores, and
# FormalCharacter.__eq__ is named FormalCharacter.eq.
TRACED = (
    ("rootsys", "build_root_datum"),
    ("rootsys", "dominant_below"),
    ("rootsys", "weyl_orbit"),
    ("charring", "FormalCharacter.__eq__"),
    ("charring", "FormalCharacter.is_w_invariant"),
    ("charring", "char_add"),
    ("charring", "scale"),
    ("charring", "char_mul"),
    ("charring", "orbit_sum"),
    ("charring", "weyl_character"),
    ("charring", "alternating_character_oracle"),
    ("charring", "s_r_character"),
    ("charring", "expand_in_orbit_sums"),
    ("charring", "expand_in_weyl_chars"),
    ("charring", "expand_in_sr"),
    ("charring", "divide_exact"),
    ("minuscule", "enumerate_class"),
    ("minuscule", "lemma2_check"),
    ("simplechar", "jantzen_sum"),
    ("simplechar", "_resolve"),
    ("simplechar", "_jsf_attempt"),
    ("tilting", "steinberg_character"),
    ("tilting", "tilting_char_p"),
    ("tilting", "tilting_char_pr"),
    ("tilting", "decompose_st_tensor"),
    ("tilting", "decompose_str_tensor"),
    ("tilting", "verify_remark"),
    ("tilting", "TiltingCharProvider.resolve"),
    ("tilting", "verify_lemma1a"),
    ("tilting", "verify_prop2_corollary"),
    ("tilting", "verify_lemma1b_character"),
    ("tilting", "good_filtration_consistent"),
    ("suites", "run_suites"),
)

def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__eq__', 'eq').lstrip('_')}"


def _cache_misses(bucket, key_of):
    """Pre-call hook: is the call's key absent from the datum's cache bucket?"""

    def before(args):
        return key_of(args) not in args[0]._cache.get(bucket, {})

    return before


class Tracer:
    """In-memory span recorder with exact per-function work counts."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = [-1]
        self.counts = Counter()
        self.data = []  # every RootDatum built, for the cache-size record

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording one span per call of fn.

        before(args) runs ahead of the call and its result is handed to
        after(args, result, state), which adds to the exact counts.
        """
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        calls = f"{name}.calls"

        def traced(*args, **kwargs):
            state = before(args) if before else None
            rec = [idx, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
                counts[calls] += 1
            if after:
                after(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name):
        """(before, after) count hooks for the functions that have them."""
        c = self.counts

        if name == "charring.char_mul":

            def after(args, result, _):
                c[f"{name}.term_pairs"] += len(args[0]) * len(args[1])
                c[f"{name}.terms_out"] += len(result)

            return None, after
        if name == "charring.divide_exact":

            def after(args, result, _):
                c[f"{name}.quotient_terms"] += len(result)

            return None, after
        if name == "charring.expand_in_weyl_chars":

            def after(args, result, _):
                c[f"{name}.terms_in"] += len(args[0])

            return None, after
        if name == "charring.weyl_character":
            return _cache_misses("weyl_char", lambda a: tuple(a[1])), self._miss_out(name)
        if name == "rootsys.dominant_below":
            return _cache_misses("dominant_below", lambda a: a[1]), self._miss_out(name)
        if name == "tilting.tilting_char_pr":
            key = lambda a: (a[1], a[2], tuple(a[3]))  # noqa: E731
            return _cache_misses("tilt_pr", key), self._miss_out(name)
        if name == "rootsys.weyl_orbit":

            def after(args, result, _):
                c[f"{name}.weights_out"] += len(result)

            return None, after
        if name == "rootsys.build_root_datum":

            def after(args, result, _):
                self.data.append(result)

            return None, after
        if name == "simplechar.resolve":

            def after(args, result, _):
                # provenance is "jsf", "steinberg[...]", "table(...)", ...
                head = result[1].split("[")[0].split("(")[0]
                c[f"{name}.by_strategy.{head}"] += 1

            return None, after
        return None, None

    def _miss_out(self, name):
        """Count cache misses, and the size of what each miss built."""
        c = self.counts
        out = "weights_out" if name == "rootsys.dominant_below" else "terms_out"

        def after(args, result, missed):
            if missed:
                c[f"{name}.misses"] += 1
                c[f"{name}.{out}"] += len(result)

        return after

    def install(self):
        """Wrap every traced function at every binding site in tiltchar."""
        import tiltchar.cli  # noqa: F401  (imports every tiltchar module)

        start = time.perf_counter()
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "tiltchar"]
        for module_name, attr in TRACED:
            module = sys.modules[f"tiltchar.{module_name}"]
            name = span_name(module_name, attr)
            before, after = self._hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], before, after))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, before, after)
            if name == "simplechar.resolve":
                wrapper = self._count_undetermined(name, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self.install_s = time.perf_counter() - start

    def _count_undetermined(self, name, wrapper):
        from tiltchar.errors import Undetermined

        counts = self.counts

        def resolve(*args, **kwargs):
            try:
                return wrapper(*args, **kwargs)
            except Undetermined:
                counts[f"{name}.undetermined"] += 1
                raise

        return resolve

    def cache_sizes(self):
        """Entries per RootDatum._cache bucket, summed over the distinct data built."""
        sizes = Counter()
        for d in {id(d): d for d in self.data}.values():
            for bucket, value in d._cache.items():
                if isinstance(value, dict) and all(isinstance(v, dict) for v in value.values()):
                    n = sum(len(v) for v in value.values())  # e.g. jsf: {p: {lam: vec}}
                else:
                    n = len(value)
                sizes[f"rootsys.RootDatum._cache.{bucket}.entries"] += n
        return sizes


def main(argv):
    out_path, op_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json OP_ID -- <tiltchar arguments>")
    tracer = Tracer()
    tracer.install()
    from tiltchar import cli

    code = tracer.wrap("cli.main", cli.main)(cli_argv)
    sys.stdout.flush()
    start = time.perf_counter()
    counts = tracer.counts + tracer.cache_sizes()
    text = json.dumps({"op": int(op_id), "names": tracer.names, "spans": tracer.spans, "counts": counts})
    # the tracer's own work, which is not part of the operation's start-up
    tracer_s = tracer.install_s + time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f'{text[:-1]}, "tracer_s": {tracer_s!r}}}')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
