"""Resource caps belong to the run's RootDatum, so no call takes its own."""
import importlib
import inspect
import pkgutil

import tiltchar

PER_CALL_LIMITS = {"cap", "max_steps"}


def _public_functions():
    for info in pkgutil.iter_modules(tiltchar.__path__):
        module = importlib.import_module(f"tiltchar.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                        yield f"{info.name}.{name}.{meth}", fn


def test_no_public_function_takes_a_per_call_limit():
    functions = dict(_public_functions())
    assert "rootsys.weyl_orbit" in functions and "charring.divide_exact" in functions
    found = [
        f"{name}({param})"
        for name, fn in sorted(functions.items())
        for param in inspect.signature(fn).parameters
        if param in PER_CALL_LIMITS
    ]
    assert not found, f"set caps on the RootDatum instead: {found}"
