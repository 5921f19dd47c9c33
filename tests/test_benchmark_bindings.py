"""Every function the benchmark tracer wraps must still exist under its name."""
import importlib
import os

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
