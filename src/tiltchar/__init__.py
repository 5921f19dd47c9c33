"""Exact character combinatorics for simple root systems.

Computes and verifies tilting-module character identities: Weyl and orbit
characters, Steinberg characters, simple-character resolution, and the
decomposition of Steinberg tensor products into indecomposable tilting
characters.  All arithmetic is exact integer arithmetic.

Every CLI call imports the package in a fresh interpreter, so a run
compiles only the modules its command calls.  ``errors`` and ``rootsys``
run on import.  ``charring``, ``minuscule``, ``simplechar``, ``tilting``
and ``suites`` are registered in ``sys.modules``, and bound on the
package, through ``importlib.util.LazyLoader``: each module's code runs
on the first access to one of its attributes.  ``from tiltchar import
tilting`` gives the registered module without running it, while ``import
tiltchar.tilting`` and ``from tiltchar.tilting import ...`` run it at
once.  The names re-exported here resolve in their home modules on
access (PEP 562 ``__getattr__``).  Before Python 3.12 a lazy load is not
thread-safe, so a program that calls tiltchar from several threads
touches the modules it uses before it starts them.
"""
import importlib.util
import sys

from . import errors, rootsys


def _register_lazily(name):
    """Put tiltchar.<name> in sys.modules, to run on its first attribute access."""
    spec = importlib.util.find_spec(f".{name}", __name__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


charring, minuscule, simplechar, tilting, suites = map(
    _register_lazily, ("charring", "minuscule", "simplechar", "tilting", "suites")
)

# home module -> the names the package re-exports from it
_EXPORTS = {
    "rootsys": (
        "RootSystemSpec", "RootDatum", "build_root_datum", "datum", "pairing",
        "weyl_orbit", "to_dominant",
    ),
    "charring": (
        "FormalCharacter", "char_add", "char_mul", "frobenius_twist", "orbit_sum",
        "weyl_character", "s_r_character", "expand_in_orbit_sums",
        "expand_in_weyl_chars", "from_weyl_chars", "expand_in_sr", "brauer_klimyk",
        "divide_exact",
    ),
    "minuscule": (
        "MinusculeProfile", "classify", "is_restricted", "p_digits", "is_minuscule",
        "is_p_minuscule", "is_pr_minuscule", "is_r_minuscule", "enumerate_class",
        "lemma2_check",
    ),
    "simplechar": ("SimpleCharProvider", "SimpleCharTable", "jantzen_sum", "jsf_solve"),
    "tilting": (
        "Decomposition", "TiltingCharProvider", "steinberg_character",
        "tilting_char_p", "tilting_char_pr", "tilting_chi_pr", "decompose_st_tensor",
        "decompose_str_tensor", "remark_check", "verify_remark", "verify_lemma1a",
        "verify_prop2_corollary", "verify_lemma1b_character",
        "good_filtration_consistent",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})


__all__ = sorted([*_HOME, *_EXPORTS, "errors"])
