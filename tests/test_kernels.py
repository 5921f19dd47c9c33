"""The per-datum generated kernels against the loops they unroll.

rootsys generates four functions per root datum from its Cartan
integers: the orbit walk behind _fill_orbit, which fills its caller's
dict with the orbit of a weight, the straightening behind to_dominant,
the reflection check behind FormalCharacter.is_w_invariant and the
Freudenthal recursion behind charring._weyl_terms.  Each is compared
here with the generic loop it replaced, kept in tests/oracles.py, on
every series.
"""
import ast
import functools
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tiltchar import charring as ch, rootsys
from tiltchar.charring import FormalCharacter, orbit_sum
from tiltchar.errors import InternalMismatch, ResourceCap
from tiltchar.rootsys import (
    RootSystemSpec,
    build_root_datum,
    datum,
    to_dominant,
    weyl_orbit,
)

from oracles import (
    is_w_invariant_scan,
    orbit_layers_loop,
    reflect,
    to_dominant_loop,
    weyl_terms_loop,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tiltchar")

# every series: A1-A8, B2-B8, C2-C8, D4-D8, E6-E8, F4, G2
TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(s, n) for s in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

# orbits up to this size are walked in full; larger ones stop at a cap
SMALL_ORBIT = 3000


@functools.lru_cache(maxsize=None)
def cached_datum(series, rank):
    return datum(series, rank)


@functools.lru_cache(maxsize=None)
def small_orbit_nodes(series, rank):
    """The nodes i whose fundamental weight has at most SMALL_ORBIT weights in its orbit."""
    d = cached_datum(series, rank)
    return tuple(
        i for i in range(rank)
        if orbit_layers_loop(d, fundamental(rank, i), SMALL_ORBIT) is not None
    )


def fundamental(rank, i, k=1):
    return tuple(k * (j == i) for j in range(rank))


def coordinate_objects(weights):
    """How many distinct int objects the walk's weights hold."""
    return len({id(x) for nu in weights for x in nu})


def fill(d, lam, cap, m=1, sign=1):
    """(what _fill_orbit returns, the table it filled)."""
    table = {}
    return rootsys._fill_orbit(d, lam, cap, table, m, sign), table


def loop_table(d, lam, cap, m=1, sign=1):
    """{w: m * sign**k} over layer k of orbit_layers_loop, or None past cap."""
    layers = orbit_layers_loop(d, lam, cap)
    if layers is None:
        return None
    return {w: m * sign**k for k, layer in enumerate(layers) for w in layer}


@st.composite
def walk_inputs(draw):
    series, rank = draw(st.sampled_from(TYPES))
    d = cached_datum(series, rank)
    lam = [0] * rank
    for i in draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=2)):
        lam[i] = draw(st.integers(0, 4))
    # x 400 puts <lam, theta_s^v> past the 1,024 entries of rootsys._NEG
    scale = draw(st.sampled_from([1, 1, 70, 400]))
    lam = tuple(scale * x for x in lam)
    cap = draw(st.sampled_from([1, 7, 60, SMALL_ORBIT, "orbit", "orbit - 1"]))
    if isinstance(cap, str):
        # a cap the orbit just fits, or just does not
        layers = orbit_layers_loop(d, lam, SMALL_ORBIT)
        size = SMALL_ORBIT if layers is None else sum(map(len, layers))
        cap = size - cap.endswith("- 1")
    m = draw(st.sampled_from([1, 1, -2, 5]))
    sign = draw(st.sampled_from([1, -1]))
    return d, lam, cap, m, sign


@given(walk_inputs())
@settings(max_examples=300, deadline=None)
def test_orbit_walk_matches_the_loop(case):
    # the loop's layer k stored with m * sign**k, in the same order, after
    # what the table held; the same cap; the same int sharing
    d, lam, cap, m, sign = case
    table = {None: 0}
    done = rootsys._fill_orbit(d, lam, cap, table, m, sign)
    want = loop_table(d, lam, cap, m, sign)
    assert done is (want is not None)
    if done:
        assert list(table.items()) == [(None, 0)] + list(want.items())
        del table[None]
        assert all(type(nu) is tuple and len(nu) == d.rank for nu in table)
        assert coordinate_objects(table) == coordinate_objects(want)


@pytest.mark.parametrize("series,rank,lam", [
    ("A", 1, (700,)), ("G", 2, (300, 700)), ("B", 3, (0, 0, 1500)),
    ("D", 4, (0, 300, 0, 0)), ("E", 8, (0, 0, 0, 0, 0, 0, 0, 200)),
])
def test_negated_coordinates_share_the_table(series, rank, lam):
    # below the table's length every negated coordinate is an entry of
    # rootsys._NEG; past it, or after an addition, it is a fresh int
    d = cached_datum(series, rank)
    bound = sum(a * b for a, b in zip(lam, d.highest_coroot))
    for sign in (1, -1):
        done, table = fill(d, lam, d.orbit_cap, 1, sign)
        assert done and table == loop_table(d, lam, d.orbit_cap, 1, sign)
    shared = {id(x) for x in rootsys._NEG}
    negated = [x for nu in list(table)[1:] for x in nu if x < -256]
    in_table = [id(x) in shared for x in negated]
    if bound < len(rootsys._NEG):
        assert any(in_table)
    else:
        assert not any(in_table)


def test_rank_1_kernels():
    # rank 1 needs the trailing comma of a one-element tuple display and target
    d = cached_datum("A", 1)
    assert fill(d, (3,), 2) == (True, {(3,): 1, (-3,): 1})
    assert fill(d, (3,), 2, 5, -1) == (True, {(3,): 5, (-3,): -5})
    assert fill(d, (3,), 1)[0] is False
    assert fill(d, (0,), 1) == (True, {(0,): 1})
    for lam, cap, m, sign in (((3,), 2, 1, 1), ((3,), 2, 5, -1), ((0,), 1, 1, -1)):
        assert fill(d, lam, cap, m, sign)[1] == loop_table(d, lam, cap, m, sign)
    assert to_dominant(d, (-4,)) == ((4,), 1)
    assert to_dominant(d, (-4,), dot=True) == ((2,), -1)
    assert to_dominant(d, (-1,), dot=True) == ((-1,), 0)
    assert FormalCharacter(d, {(2,): 1, (-2,): 1}).is_w_invariant()
    assert not FormalCharacter(d, {(2,): 1, (-2,): 2}).is_w_invariant()


@st.composite
def any_weight(draw):
    series, rank = draw(st.sampled_from(TYPES))
    size = draw(st.sampled_from([3, 8, 3000]))
    mu = tuple(draw(st.integers(-size, size)) for _ in range(rank))
    return cached_datum(series, rank), mu


@given(any_weight())
@settings(max_examples=300, deadline=None)
def test_straightening_matches_the_loop(case):
    d, mu = case
    assert to_dominant(d, mu) == to_dominant_loop(d, mu)
    assert to_dominant(d, mu, dot=True) == to_dominant_loop(d, mu, dot=True)


@st.composite
def dot_singular_weights(draw):
    # nu + rho has a zero coordinate, so it is singular, and so is every
    # w(nu + rho): mu = w . nu, for a random word w in the simple reflections
    series, rank = draw(st.sampled_from(TYPES))
    d = cached_datum(series, rank)
    nu = [draw(st.integers(-1, 6)) for _ in range(rank)]
    nu[draw(st.integers(0, rank - 1))] = -1
    shifted = tuple(x + 1 for x in nu)
    for i in draw(st.lists(st.integers(0, rank - 1), max_size=12)):
        shifted = reflect(d, shifted, i)
    return d, tuple(x - 1 for x in shifted)


@given(dot_singular_weights())
@settings(max_examples=200, deadline=None)
def test_dot_singular_weights_straighten_to_sign_zero(case):
    d, mu = case
    lam, sign = to_dominant(d, mu, dot=True)
    assert sign == 0
    assert (lam, sign) == to_dominant_loop(d, mu, dot=True)


@st.composite
def invariant_characters(draw):
    series, rank = draw(st.sampled_from(TYPES))
    d = cached_datum(series, rank)
    nodes = small_orbit_nodes(series, rank)
    terms = {}
    for i in draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True)):
        lam = fundamental(rank, i, draw(st.integers(1, 3)))
        m = draw(st.integers(-3, 3).filter(bool))
        for mu in orbit_sum(d, lam).terms:
            terms[mu] = terms.get(mu, 0) + m
    return d, {mu: m for mu, m in terms.items() if m}, draw(st.randoms())


@given(invariant_characters(), st.integers(-2, 2))
@settings(max_examples=200, deadline=None)
def test_reflection_check_matches_the_scan(case, delta):
    # an unmarked W-invariant character passes; one reflected (non-dominant)
    # term altered, or dropped when delta is 0, must fail
    d, terms, rnd = case
    phi = FormalCharacter(d, terms)
    assert phi.is_w_invariant() and is_w_invariant_scan(phi)
    altered = dict(terms)
    mu = rnd.choice(sorted(nu for nu in terms if min(nu) < 0))
    altered[mu] = terms[mu] + delta if delta else 0
    psi = FormalCharacter(d, altered)
    assert not psi.is_w_invariant()
    assert not is_w_invariant_scan(psi)


@st.composite
def weyl_terms_inputs(draw):
    # up to two small-orbit fundamental weights, each at most doubled; the
    # caps stop a walk at lam's orbit or inside the character
    series, rank = draw(st.sampled_from(TYPES))
    lam = [0] * rank
    for i in draw(st.lists(st.sampled_from(small_orbit_nodes(series, rank)), min_size=1, max_size=2)):
        lam[i] += draw(st.integers(0, 2))
    cap = draw(st.sampled_from([1, 7, 60, SMALL_ORBIT, 10**5]))
    return cached_datum(series, rank), tuple(lam), cap


def spreads(route, d, lam, cap):
    """(the terms route gives, or its ResourceCap message; the dominant
    weights whose orbits it walked, in order)."""
    walked = []

    def logged(d, mu, room, table, m):
        walked.append(mu)
        return rootsys._fill_orbit(d, mu, room, table, m)

    with mock.patch.object(ch, "_fill_orbit", logged), mock.patch.object(
        oracles, "_fill_orbit", logged
    ):
        try:
            out = list(route(d, lam, cap).items())
        except ResourceCap as exc:
            out = str(exc)
    return out, walked


@given(weyl_terms_inputs())
@settings(max_examples=150, deadline=None)
def test_freudenthal_matches_the_loop(case):
    # the same terms in the same insertion order, or the same ResourceCap
    # raised from the same orbit walk
    d, lam, cap = case
    assert spreads(ch._weyl_terms, d, lam, cap) == spreads(weyl_terms_loop, d, lam, cap)


def test_freudenthal_hands_back_the_failing_weight():
    d = cached_datum("A", 2)

    def spread(mu, m):
        raise AssertionError(f"spread {mu} after a failed check")

    # lam - mu = (0, 1) is not in the root lattice of A2
    got = d.freudenthal((1, 1), [(1, 0)], {(3, -1): 1}.get, {}, spread)
    assert got == ((1, 0), None, None)
    # m(1, 1) = 2 in chi(1, 1) makes 2 * total = 16 over den = 6
    table = {(1, 1): 2, (2, -1): 1, (-1, 2): 1}
    sums = {(1, 1): (0, 0, 0)}
    got = d.freudenthal((1, 1), [(0, 0)], table.get, sums, spread)
    assert got == ((0, 0), 16, 6)
    assert sums[(0, 0)] == (2, 2, 4)


@pytest.mark.parametrize("failed,message", [
    (((1, 0), None, None), "(1, 1) - (1, 0) is not in the root lattice"),
    (((0, 0), 16, 6), "Freudenthal multiplicity of (0, 0) in chi((1, 1)) is 16/6"),
])
def test_weyl_terms_raise_on_the_failing_weight(failed, message):
    d = datum("A", 2)
    vars(d)["freudenthal"] = lambda *args: failed
    with pytest.raises(InternalMismatch, match=f"^{re.escape(message)}$"):
        ch._weyl_terms(d, (1, 1), d.cone_cap)


def test_kernels_are_generated_on_first_use_and_kept():
    # building a datum, all the benchmark's set-up does, generates no kernel
    d = build_root_datum(RootSystemSpec("E", 6))
    kernels = {"orbit_walk", "straighten", "invariance_check", "freudenthal"}
    assert not (kernels | {"w0_perm"}) & set(vars(d))
    weyl_orbit(d, (1, 0, 0, 0, 0, 0))
    assert set(vars(d)) >= {"orbit_walk", "straighten"}
    walk, straighten = d.orbit_walk, d.straighten
    weyl_orbit(d, (0, 1, 0, 0, 0, 0))
    assert d.orbit_walk is walk and d.straighten is straighten
    assert "invariance_check" not in vars(d)
    assert FormalCharacter(d, orbit_sum(d, (1, 0, 0, 0, 0, 0)).terms).is_w_invariant()
    assert "invariance_check" in vars(d)
    assert "freudenthal" not in vars(d)
    ch.weyl_character(d, (1, 0, 0, 0, 0, 0))
    freudenthal = d.freudenthal
    ch.weyl_character(d, (0, 1, 0, 0, 0, 0))
    assert d.freudenthal is freudenthal and set(vars(d)) >= kernels
    assert d.w0_perm == (5, 1, 4, 3, 2, 0)


def _calls(tree, names):
    """(enclosing function, call node) for every call of a bare name in names."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in names:
                found.append((scope, child))
            visit(child, inner)

    visit(tree, None)
    return found


def test_exec_only_in_the_kernel_generator():
    # exec and eval run nothing but the source _exec_kernels is handed, and
    # that is always built from a datum's refl_cols by a _*_source function:
    # the four kernels orbit_walk, straighten, invariance_check, freudenthal
    sites = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            sites += [
                (name, scope, call.func.id)
                for scope, call in _calls(tree, {"exec", "eval", "compile", "__import__"})
            ]
            if name == "rootsys.py":
                kernel_calls = _calls(tree, {"_exec_kernels"})
    assert sites == [("rootsys.py", "_exec_kernels", "exec")]
    assert len(kernel_calls) == 4
    for _, call in kernel_calls:
        (source,) = call.args
        assert isinstance(source, ast.Call) and source.func.id.endswith("_source")
        assert ast.unparse(source.args[0]) == "self.refl_cols" and len(source.args) == 1
