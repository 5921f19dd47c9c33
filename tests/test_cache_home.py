"""Every per-datum cache bucket is read and filled through RootDatum.memo.

RootDatum.memo stores an entry only once its build returns, and
RootDatum.peek reads without storing; no other code in src/ touches
RootDatum._cache.  Tests may still inspect the layout
d._cache[bucket][key], as perfbench/tracer.py does.
"""
import ast
import builtins

import pytest

from tiltchar import charring as ch
from tiltchar import rootsys
from tiltchar import simplechar as sc
from tiltchar import tilting as tl
from tiltchar.errors import ResourceCap
from tiltchar.rootsys import datum

from test_hypothesis_homes import _sites


def test_cache_is_touched_only_by_its_home():
    found = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "_cache")
    assert sorted(set(found)) == [
        ("rootsys.py", "__init__"),
        ("rootsys.py", "memo"),
        ("rootsys.py", "peek"),
    ]


# bucket: (the call that fills it, the key it stores, the callee of its build
# that fails once)
CASES = {
    "dominant_below": (
        lambda d: rootsys.dominant_below(d, (2, 1)), (2, 1), (rootsys, "_dominant_cone"),
    ),
    "weyl_char": (lambda d: ch.weyl_character(d, (2, 1)), (2, 1), (ch, "_weyl_terms")),
    "weyl_denominator": (ch._weyl_denominator, (1, 1), (ch, "_orbit_table")),
    "s_r": (
        lambda d: ch.expand_in_sr(ch.weyl_character(d, (4, 2)), 3, 2),
        (3, 2, (4, 2)),
        (ch, "s_r_character"),
    ),
    "tilt_pr": (
        lambda d: tl.tilting_char_pr(d, 3, 1, (1, 0)), (3, 1, (1, 0)), (ch, "char_mul"),
    ),
    "tilt_chi_pr": (
        lambda d: tl.tilting_chi_pr(d, 3, 2, (1, 1)), (3, 2, (1, 1)), (ch, "brauer_klimyk"),
    ),
    "st_twist": (
        lambda d: tl._times_twisted_steinberg(d, {(2, 2): 1}, 3, 1),
        (3, 1, (2, 2)),
        (ch, "brauer_klimyk"),
    ),
    # the solver's table starts empty: its build is dict itself
    "jsf": (lambda d: sc._resolve_jsf(d, (2, 2), 3, None, False), 3, (sc, "dict")),
}


@pytest.mark.parametrize("bucket", sorted(CASES))
def test_a_failed_build_stores_nothing(bucket, monkeypatch):
    call, key, (module, name) = CASES[bucket]
    real = getattr(module, name, None) or getattr(builtins, name)
    builds = []

    def fails_once(*args, **kwargs):
        builds.append(args)
        if len(builds) == 1:
            raise ResourceCap("injected fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, fails_once, raising=False)
    d = datum("A", 2)
    with pytest.raises(ResourceCap, match="injected fault"):
        call(d)
    assert bucket not in d._cache
    first = call(d)
    assert key in d._cache[bucket]
    built = len(builds)
    assert call(d) == first
    assert len(builds) == built


def test_steinberg_is_twisted_only_on_a_miss(monkeypatch):
    d = datum("A", 2)
    vec = {(2, 2): 1, (3, 3): -1}
    first = tl._times_twisted_steinberg(d, vec, 3, 1)
    twists = []
    real = ch.frobenius_twist
    monkeypatch.setattr(ch, "frobenius_twist", lambda *args: twists.append(args) or real(*args))
    assert tl._times_twisted_steinberg(d, vec, 3, 1) == first
    assert twists == []
    tl._times_twisted_steinberg(d, {(2, 2): 1, (4, 1): 1}, 3, 1)
    assert len(twists) == 1


def test_tilting_chi_pr_returns_a_copy():
    d = datum("A", 2)
    vec = tl.tilting_chi_pr(d, 3, 1, (1, 0))
    vec.clear()
    assert tl.tilting_chi_pr(d, 3, 1, (1, 0)) == d._cache["tilt_chi_pr"][(3, 1, (1, 0))] != {}
