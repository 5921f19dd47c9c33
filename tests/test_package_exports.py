"""The package's re-exports, resolved on access from lazily registered modules."""
import sys
import types

import pytest

import tiltchar

EXPORTS = [
    "Decomposition", "FormalCharacter", "MinusculeProfile", "RootDatum",
    "RootSystemSpec", "SimpleCharProvider", "SimpleCharTable", "TiltingCharProvider",
    "brauer_klimyk", "build_root_datum", "char_add", "char_mul", "charring",
    "classify", "datum", "decompose_st_tensor", "decompose_str_tensor",
    "divide_exact", "enumerate_class", "errors", "expand_in_orbit_sums",
    "expand_in_sr", "expand_in_weyl_chars", "frobenius_twist", "from_weyl_chars",
    "good_filtration_consistent", "is_minuscule", "is_p_minuscule",
    "is_pr_minuscule", "is_r_minuscule", "is_restricted", "jantzen_sum",
    "jsf_solve", "lemma2_check", "minuscule", "orbit_sum", "p_digits", "pairing",
    "remark_check", "rootsys", "s_r_character", "simplechar",
    "steinberg_character", "tilting", "tilting_char_p", "tilting_char_pr",
    "tilting_chi_pr", "to_dominant", "verify_lemma1a", "verify_lemma1b_character",
    "verify_prop2_corollary", "verify_remark", "weyl_character", "weyl_orbit",
]


def test_all_is_unchanged():
    assert tiltchar.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(tiltchar))


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_its_home_modules_object(name):
    obj = getattr(tiltchar, name)
    if isinstance(obj, types.ModuleType):
        assert obj is sys.modules[f"tiltchar.{name}"]
    else:
        assert obj.__module__.startswith("tiltchar.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tiltchar import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(EXPORTS)
    assert all(namespace[name] is getattr(tiltchar, name) for name in EXPORTS)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tiltchar.no_such_name
    with pytest.raises(ImportError):
        from tiltchar import no_such_name  # noqa: F401
