#!/usr/bin/env python3
"""End-to-end benchmark of the tiltchar CLI, with an optional per-layer trace.

    python3 perfbench/run.py --workload decompose_str --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  Every operation is one ``tiltchar``
invocation in a fresh interpreter (PYTHONPATH=src, TILTCHAR_THREADS=1,
never -O, which strips the assertions that guard the mathematics), run
one at a time: a closed loop with a single client.  A cache kept across
operations in one process can therefore only pay off inside a single
operation, as it would for a user.

A pass runs the workload's operation list, drawn from --seed, once.
Passes repeat until --seconds is used up and at least MIN_TAIL_SAMPLES
latencies are in hand; a run stops early rather than start a pass that
would end past --seconds, once it has those latencies.  Every
operation's exit code and stdout SHA-256 are checked against
expected.json, recorded at the seed commit; any mismatch makes the run
incorrect and the exit code 1.

The host's speed drifts, so every end-to-end time is reported at a
reference speed: a fixed pure-Python reference child runs after each
timed child, and a time is scaled by REFERENCE_S over the mean of the
reference times on either side of it.  The unscaled figures are printed
as notes.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs each operation untraced and then under tracer.py, and
reports the per-layer metrics named there, derived from the spans.
The last line of stdout is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

from tracer import TRACED, span_name

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

CLI_MAIN = "import sys; from tiltchar.cli import main; sys.exit(main())"
SETUP_RUNS = 30  # set-up samples per run
# A fixed pure-Python job that uses nothing of tiltchar: products of
# tuple-keyed dicts, the kind of work char_mul does.  It runs in a fresh
# interpreter after every timed child, and each time the benchmark
# reports is scaled by REFERENCE_S over the mean time of the reference
# children on either side of it.  On a shared host the speed can fall by
# half for seconds to minutes at a time; the scaled time of a program that
# did not change stays put.  A change to tiltchar moves the scaled time by
# the same factor as the raw one.
REFERENCE_CODE = """
a = {(i, j): i + 2 * j - 7 for i in range(-6, 7) for j in range(-6, 7)}
for _ in range(6):
    out = {}
    for (x1, y1), c1 in a.items():
        for (x2, y2), c2 in a.items():
            k = (x1 + x2, y1 + y2)
            out[k] = out.get(k, 0) + c1 * c2
"""
REFERENCE_S = 0.11  # the reference child, spawn to reap, on a quiet host
# p75 is reported only with at least ten samples beyond it
MIN_TAIL_SAMPLES = 40

# The 22 verify cells: rank 2 types over five (p, r), rank 3 at r=1, D4 p=2.
VERIFY_CELLS = (
    [(t, 2, p, r) for t in "ABG" for p, r in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2))]
    + [(t, 3, p, 1) for t in "ABC" for p in (2, 3)]
    + [("D", 4, 2, 1)]
)
DECOMPOSE_PREFIX = "decompose str --type A --rank 2 --p 5 --r 2 --lambda"
DECOMPOSE_QUERIES = 40
# The slots span the cheapest three fifths of the weights by recorded
# work: the dearer ones take up to five seconds each, and 40 queries over
# the whole range took about 50 s, past the time a run may measure.
DECOMPOSE_POOL_SHARE = 0.6


def _d4_triality(w):
    """The six images of w under the D4 graph automorphisms (outer nodes 1, 3, 4)."""
    a, b, c, d = w
    return sorted({(x, b, y, z) for x, y, z in ((a, c, d), (a, d, c), (c, a, d), (c, d, a), (d, a, c), (d, c, a))})


def _char(kind, series, rank, weight=None, p=None, r=None):
    argv = f"char {kind} --type {series} --rank {rank}"
    if weight is not None:
        argv += " --weight " + ",".join(map(str, weight))
    if p is not None:
        argv += f" --p {p} --r {r}"
    return argv


# One slot per query; the seed picks one variant of each.  Variants of a
# slot cost the same: graph-automorphic weights, or an orbit sum of a
# multiple of the same weight (same stabiliser, same orbit size).  Seven
# slots, an odd number, put the p50 and p75 of a run's latencies inside
# one query's samples rather than on the gap between two queries.
CHAR_SLOTS = (
    (_char("steinberg", "D", 4, p=5, r=1),),
    (_char("steinberg", "B", 3, p=3, r=2),),
    (_char("steinberg", "F", 4, p=2, r=1),),
    tuple(_char("orbit", "E", 6, (k,) * 6) for k in (1, 2, 3)),
    tuple(_char("orbit", "E", 7, (0, 0, 0, k, 0, 0, 0)) for k in (1, 2, 3)),
    tuple(_char("weyl", "D", 4, w) for w in _d4_triality((3, 1, 2, 0))),
    (_char("weyl", "E", 7, (1, 0, 0, 0, 0, 0, 1)),),
)


def verify_argv(series, rank, p, r):
    return f"verify --type {series} --rank {rank} --p {p} --r {r}"


def all_candidates(decompose_weights):
    """Every operation any seed can draw, for recording expected outputs."""
    ops = [verify_argv(*cell) for cell in VERIFY_CELLS]
    ops += [f"{DECOMPOSE_PREFIX} {','.join(map(str, w))}" for w in decompose_weights]
    ops += [argv for slot in CHAR_SLOTS for argv in slot]
    return ops


def workload_ops(name, seed, expected):
    """The operation list of one pass, as CLI argument strings."""
    rng = random.Random(f"{name}/{seed}")
    if name == "verify_grid":
        ops = [verify_argv(*cell) for cell in VERIFY_CELLS]
    elif name == "decompose_str":
        # One slot per stratum: sort the weights by recorded work (char_mul
        # term pairs), keep the cheapest DECOMPOSE_POOL_SHARE of them, cut
        # them into 40 equal strata and take the middle weight of each.  The
        # seed picks the weight or its image (b, a) under the A2 diagram
        # automorphism, which has the same work, so that every seed draws
        # other inputs of the same cost.
        weights = sorted(
            (rec["work"], key) for key, rec in expected.items() if key.startswith(DECOMPOSE_PREFIX)
        )
        n = int(len(weights) * DECOMPOSE_POOL_SHARE)
        ops = []
        for i in range(DECOMPOSE_QUERIES):
            a, b = weights[(2 * i + 1) * n // (2 * DECOMPOSE_QUERIES)][1].split()[-1].split(",")
            ops.append(f"{DECOMPOSE_PREFIX} {rng.choice([f'{a},{b}', f'{b},{a}'])}")
    elif name == "char_queries":
        ops = [rng.choice(slot) for slot in CHAR_SLOTS]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = "src"
    env["TILTCHAR_THREADS"] = "1"
    return env


@dataclass
class OpResult:
    argv: str
    exit_code: int
    sha256: str
    stdout_bytes: int
    latency_s: float
    maxrss_kb: int
    traced: bool
    cases: Counter = field(default_factory=Counter)
    trace: dict | None = None
    stderr: bytes = b""


def run_op(argv, workdir, trace=False, op_id=0):
    """Run one CLI invocation to completion; time it from spawn to reap."""
    trace_path = workdir / "trace.json"
    if trace:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), str(op_id), "--", *argv.split()]
    else:
        cmd = [sys.executable, "-c", CLI_MAIN, *argv.split()]
    keep = argv.startswith("verify")
    digest = hashlib.sha256()
    size = 0
    chunks = []
    err_path = workdir / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err)
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
            if keep:
                chunks.append(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = OpResult(argv, proc.returncode, digest.hexdigest(), size, latency, usage.ru_maxrss, trace)
    if proc.returncode != 0:
        result.stderr = err_path.read_bytes()[-2000:]
    if keep:
        try:
            for suite in json.loads(b"".join(chunks))["suites"]:
                result.cases.update(
                    {"pass": suite["passed"], "fail": suite["failed"], "undetermined": suite["undetermined"]}
                )
        except (ValueError, KeyError, TypeError):
            pass  # not a suite report; the digest check fails this operation
    if trace and trace_path.exists():
        result.trace = summarize_trace(json.loads(trace_path.read_text()))
        trace_path.unlink()
    return result


def summarize_trace(data):
    """Self time per span name, the cli.main span, and the exact counts.

    A span's self time is its duration minus the durations of its direct
    children; spans are appended at entry, so children follow parents.
    """
    names, spans = data["names"], data["spans"]
    child = [0.0] * len(spans)
    self_s = Counter()
    cli_main = 0.0
    for i in range(len(spans) - 1, -1, -1):
        idx, start, end, parent = spans[i]
        dur = end - start
        self_s[names[idx]] += dur - child[i]
        if parent >= 0:
            child[parent] += dur
        if names[idx] == "cli.main":
            cli_main += dur
    return {"self_s": self_s, "cli_main_s": cli_main, "tracer_s": data["tracer_s"], "counts": Counter(data["counts"])}


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def check(result, expected):
    """Whether the operation matched its recorded exit code and stdout digest."""
    rec = expected.get(result.argv)
    ok = rec is not None and rec["exit"] == result.exit_code and rec["sha256"] == result.sha256
    if result.traced and result.trace is None:
        ok = False
        print(f"NO TRACE {result.argv}", file=sys.stderr)
    if not ok:
        print(f"MISMATCH {result.argv}: exit {result.exit_code}, sha256 {result.sha256}", file=sys.stderr)
        sys.stderr.write(result.stderr.decode(errors="replace"))
    return ok


@dataclass
class Pass:
    results: list

    @property
    def wall_s(self):
        """Time to finish every operation: the ops run back to back."""
        return sum(r.latency_s for r in self.results)


def root_types(ops):
    """The (series, rank) pairs the operations use."""
    types = set()
    for argv in ops:
        words = argv.split()
        types.add((words[words.index("--type") + 1], int(words[words.index("--rank") + 1])))
    return sorted(types)


def setup_child(ops):
    """Time one child that starts, imports tiltchar.cli and builds the root data the ops use."""
    code = (
        "import tiltchar.cli\nfrom tiltchar.rootsys import RootSystemSpec, build_root_datum\n"
        f"for s, n in {root_types(ops)!r}:\n    build_root_datum(RootSystemSpec(s, n))\n"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - start


def reference_child():
    """Time one reference child, spawn to reap."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CODE], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - start


def end_to_end(ops, seconds, workdir):
    setup_child(ops)  # warms the bytecode and page caches; not counted
    setup, passes, raw = [], [], []
    refs = [reference_child()]

    def speed_factor():
        """Scale for the children timed since the last reference child."""
        refs.append(reference_child())
        return 2 * REFERENCE_S / (refs[-2] + refs[-1])

    start = time.perf_counter()
    while True:
        passes.append([])
        for argv in ops:
            # one set-up sample ahead of each of the first SETUP_RUNS
            # operations, so that a burst of load on the host skews few
            setup_s = setup_child(ops) if len(setup) < SETUP_RUNS else None
            result = run_op(argv, workdir)
            raw.append(result)
            factor = speed_factor()
            passes[-1].append(result.latency_s * factor)
            if setup_s is not None:
                setup.append(setup_s * factor)
        elapsed = time.perf_counter() - start
        if len(raw) >= MIN_TAIL_SAMPLES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(setup_child(ops) * speed_factor())
    latencies = [t for p in passes for t in p]
    raw_pass_s = median(sum(r.latency_s for r in raw[i : i + len(ops)]) for i in range(0, len(raw), len(ops)))
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(sum(p) for p in passes),
        "latency_p50_s": median(latencies),
        "latency_p75_s": quantiles(latencies, n=4)[2],
        "peak_rss_mb": max(r.maxrss_kb for r in raw) / 1024,
    }
    notes = [
        f"passes {len(passes)}, operations {len(raw)}",
        f"reference child median {median(refs):.4f} s (REFERENCE_S {REFERENCE_S} s)",
        f"unscaled latency p50 {median(r.latency_s for r in raw):.4f} s, pass time {raw_pass_s:.4f} s",
    ]
    return metrics, raw, notes


LAYERS = ("rootsys", "charring", "minuscule", "simplechar", "tilting", "suites", "cli")


def traced_metrics(traced):
    """Per-layer metrics of one traced pass."""
    self_s, counts = Counter(), Counter()
    cli_main = startup = 0.0
    for r in traced.results:
        if r.trace is None:  # failed operation, counted by check()
            continue
        self_s.update(r.trace["self_s"])
        counts.update(r.trace["counts"])
        cli_main += r.trace["cli_main_s"]
        startup += r.latency_s - r.trace["cli_main_s"] - r.trace["tracer_s"]
    metrics = {f"{name}.self_s": t for name, t in self_s.items()}
    metrics.update(counts)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(t for n, t in self_s.items() if n.split(".")[0] == layer)
    metrics["process.startup_s"] = startup
    metrics["cli.stdout_bytes"] = sum(r.stdout_bytes for r in traced.results)
    return metrics, cli_main


def per_layer(ops, seconds, workdir):
    setup_child(ops)  # warms the bytecode and page caches; not counted
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        # each operation runs untraced and then traced, back to back, so
        # that a drift in the host's speed hardly moves their ratio
        plain.append(Pass([]))
        traced.append(Pass([]))
        for op_id, argv in enumerate(ops):
            plain[-1].results.append(run_op(argv, workdir))
            traced[-1].results.append(run_op(argv, workdir, True, op_id))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    per_pass = [traced_metrics(p) for p in traced]
    metrics = dict(per_pass[0][0])
    for name in metrics:
        if name.endswith("_s"):  # times: median over the traced passes
            metrics[name] = median(m.get(name, 0.0) for m, _ in per_pass)
        elif any(m.get(name, 0) != metrics[name] for m, _ in per_pass):
            print(f"warning: count {name} differs between traced passes", file=sys.stderr)
    metrics["trace.overhead_ratio"] = median(p.wall_s for p in traced) / median(p.wall_s for p in plain)
    # Shares of operation self time, the time inside cli.main, which the
    # self times of all spans add up to; process start-up is shared
    # against the whole operation latency instead.
    cli_main = median(c for _, c in per_pass)
    shares = {
        name[: -len(".self_s")]: t / cli_main
        for name, t in metrics.items()
        if name.endswith(".self_s")
    }
    shares["process"] = metrics["process.startup_s"] / (metrics["process.startup_s"] + cli_main)
    notes = [f"traced passes {len(traced)}, untraced passes {len(plain)}"]
    notes += [
        f"share {name} {share:.4f}"
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1])
        if share >= 0.001
    ]
    results = [r for p in plain + traced for r in p.results]
    return metrics, results, notes


def known_zero(name):
    """Whether a per-layer metric absent from a run simply counted nothing."""
    prefixes = {span_name(m, a) for m, a in TRACED} | {"cli.main", "rootsys.RootDatum._cache", "suites.cases"}
    prefixes |= {f"layer.{layer}" for layer in LAYERS}
    return any(name.startswith(p + ".") for p in prefixes)


def run_workload(name, seed, seconds, trace, spec, expected, workdir):
    ops = workload_ops(name, seed, expected)
    measure = per_layer if trace else end_to_end
    computed, results, notes = measure(ops, seconds, workdir)
    failed = sum(not check(r, expected) for r in results)
    cases = Counter()
    for r in results:
        cases.update(r.cases)
    passes = len(results) // len(ops)
    for status in ("pass", "fail", "undetermined"):
        computed[f"suites.cases.{status}"] = cases[status] // passes
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = computed.get(m["name"])
        if value is None:
            if not (trace and known_zero(m["name"])):
                raise RuntimeError(f"metric {m['name']} was not measured")
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"== {name} seed {seed}: {'; '.join(notes[:1])}")
    for line in notes[1:]:
        print(line)
    if not trace:
        for status in ("pass", "fail", "undetermined"):
            print(f"suites.cases.{status} {computed[f'suites.cases.{status}']} count")
    print(f"fail_ratio {failed / len(results):.4f} ratio ({failed} of {len(results)} operations)")
    for m_name, m in metrics.items():
        value = m["value"]
        print(f"{m_name} {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tiltchar" / "cli.py").is_file():
        print(f"error: no tiltchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; expected one of {names} or all", file=sys.stderr)
        return 2
    expected = load_expected()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.workload != "all":
            out = run_workload(args.workload, args.seed, args.seconds, args.trace, spec, expected, Path(tmp))
        else:
            out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in names:
                part = run_workload(name, args.seed, args.seconds, args.trace, spec, expected, Path(tmp))
                out["correct"] &= part["correct"]
                out["attempted"] += part["attempted"]
                out["failed"] += part["failed"]
                out["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
