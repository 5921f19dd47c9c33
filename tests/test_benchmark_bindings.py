"""Every function and cache bucket the benchmark tracer reads must still exist."""
import importlib
import os
import re

from tiltchar import suites
from tiltchar.rootsys import datum

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


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
