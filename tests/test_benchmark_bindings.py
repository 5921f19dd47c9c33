"""Every function and cache bucket the benchmark tracer reads must still exist."""
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

from tiltchar import suites
from tiltchar.rootsys import datum

ROOT = os.path.join(os.path.dirname(__file__), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def traced_bindings():
    """TRACED of perfbench/tracer.py, run from source so nothing is written there."""
    with open(TRACER, encoding="utf-8") as fh:
        namespace = {"__name__": "perfbench_tracer"}
        exec(compile(fh.read(), TRACER, "exec"), namespace)
    return namespace["TRACED"]


def test_traced_bindings_resolve():
    missing = []
    for module_name, attr in traced_bindings():
        module = importlib.import_module(f"tiltchar.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing


def traced_buckets():
    """The RootDatum._cache buckets whose misses perfbench/tracer.py counts."""
    with open(TRACER, encoding="utf-8") as fh:
        return set(re.findall(r'_cache_misses\(\s*"(\w+)"', fh.read()))


def test_traced_cache_buckets_are_filled():
    buckets = traced_buckets()
    assert buckets
    d = datum("A", 2)
    suites.run_suites(d, "all", ps=(2,), rs=(1,))
    empty = sorted(b for b in buckets if not d._cache.get(b))
    assert not empty


def _run_cli(*argv, trace_path=None):
    """One CLI run in a fresh interpreter, as the benchmark starts it; with
    trace_path, under perfbench/tracer.py."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    if trace_path:
        cmd = [sys.executable, TRACER, str(trace_path), "1", "--", *argv]
    else:
        cmd = [sys.executable, "-c", "import sys; from tiltchar.cli import main; sys.exit(main())", *argv]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True)


@pytest.mark.parametrize(
    "argv, span",
    [
        ("verify --type A --rank 1 --p 2 --r 1", "suites.run_suites"),
        ("decompose str --type A --rank 1 --p 2 --r 2 --lambda 1", "tilting.decompose_str_tensor"),
    ],
)
def test_tracer_wraps_the_lazily_registered_modules(tmp_path, argv, span):
    trace_path = tmp_path / "trace.json"
    traced = _run_cli(*argv.split(), trace_path=trace_path)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == _run_cli(*argv.split()).stdout
    trace = json.loads(trace_path.read_text())
    recorded = {trace["names"][idx] for idx, *_ in trace["spans"]}
    assert {span, "cli.main"} <= recorded
