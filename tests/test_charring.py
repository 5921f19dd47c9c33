import io
import itertools
import json
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tiltchar.errors import (
    DatumMismatch,
    NotDivisible,
    NotDominant,
    NotWInvariant,
    OrbitTooLarge,
    ResourceCap,
    TermNotRestricted,
)
from tiltchar import charring as ch, rootsys
from tiltchar.rootsys import (
    RootSystemSpec,
    build_root_datum,
    datum,
    orbit_with_dets,
    pairing,
    to_dominant,
)

from oracles import (
    divide_exact_maxscan,
    dominant_below_boxscan,
    expand_in_sr_maxscan,
    expand_in_weyl_chars_subtractive,
    weyl_orbit_dfs,
    weyl_terms_two_pass,
)


A1 = datum("A", 1)
A2 = datum("A", 2)
B2 = datum("B", 2)
G2 = datum("G", 2)


def capped(series, rank, **caps):
    return build_root_datum(RootSystemSpec(series, rank), **caps)


def weyl_dimension_formula(d, lam):
    """Independent dimension oracle in exact rational arithmetic."""
    dim = Fraction(1)
    for i in range(len(d.positive_roots)):
        num = pairing(d, tuple(x + 1 for x in lam), i)
        den = pairing(d, d.rho, i)
        dim *= Fraction(num, den)
    assert dim.denominator == 1
    return int(dim)


def dominant_box(rank, top):
    import itertools

    return list(itertools.product(range(top + 1), repeat=rank))


# ---------------------------------------------------------------- ring ops

def test_add_examples():
    phi = ch.e(A1, (1,)) + ch.e(A1, (0,))
    assert phi + ch.zero(A1) == phi
    assert ch.e(A1, (1,)) + ch.scale(ch.e(A1, (1,)), -1) == ch.zero(A1)
    assert ch.orbit_sum(A1, (1,)) + ch.orbit_sum(A1, (0,)) == ch.FormalCharacter(
        A1, {(1,): 1, (0,): 1, (-1,): 1}
    )


def test_mul_examples():
    phi = ch.e(A1, (1,)) + ch.e(A1, (-1,))
    assert ch.char_mul(phi, ch.one(A1)) == phi
    sq = ch.char_mul(phi, phi)
    assert dict(sq.terms) == {(2,): 1, (0,): 2, (-2,): 1}
    # s(lam) * e(mu) translates the orbit
    s = ch.orbit_sum(A2, (1, 0))
    shifted = ch.char_mul(s, ch.e(A2, (2, 2)))
    assert dict(shifted.terms) == {
        tuple(a + b for a, b in zip(mu, (2, 2))): 1 for mu in s.terms
    }


def test_datum_mismatch():
    with pytest.raises(DatumMismatch):
        ch.char_add(ch.one(A1), ch.one(A2))
    with pytest.raises(DatumMismatch):
        ch.char_mul(ch.one(B2), ch.one(G2))


def test_twist_examples():
    phi = ch.e(A1, (1,)) + ch.e(A1, (-1,))
    assert ch.frobenius_twist(phi, 2, 0) == phi
    assert dict(ch.frobenius_twist(phi, 2, 1).terms) == {(2,): 1, (-2,): 1}


# ------------------------------------------------------------- characters

def test_orbit_sum_examples():
    assert ch.orbit_sum(A1, (0,)) == ch.one(A1)
    assert dict(ch.orbit_sum(A1, (4,)).terms) == {(4,): 1, (-4,): 1}
    assert len(ch.orbit_sum(A2, (1, 1)).terms) == 6
    with pytest.raises(NotDominant):
        ch.orbit_sum(A2, (-1, 0))


def test_weyl_character_a1():
    assert ch.weyl_character(A1, (0,)) == ch.one(A1)
    for m in range(1, 8):
        chi = ch.weyl_character(A1, (m,))
        assert dict(chi.terms) == {(k,): 1 for k in range(-m, m + 1, 2)}


def test_weyl_character_a2_adjoint():
    chi = ch.weyl_character(A2, (1, 1))
    assert chi.dimension() == 8
    assert chi.multiplicity((0, 0)) == 2
    assert chi.multiplicity((1, 1)) == 1


@pytest.mark.parametrize("d,top", [(A1, 8), (A2, 4), (B2, 4), (G2, 3)])
def test_weyl_dimension_formula(d, top):
    for lam in dominant_box(d.rank, top):
        assert ch.weyl_character(d, lam).dimension() == weyl_dimension_formula(d, lam)


@pytest.mark.parametrize("series,rank,lam,dim", [
    ("G", 2, (1, 0), 7), ("G", 2, (0, 1), 14), ("G", 2, (1, 1), 64),
    ("B", 3, (0, 0, 1), 8), ("B", 3, (1, 0, 0), 7), ("B", 3, (0, 1, 0), 21),
    ("C", 3, (1, 0, 0), 6), ("C", 3, (0, 1, 0), 14), ("C", 3, (0, 0, 1), 14),
    ("F", 4, (0, 0, 0, 1), 26), ("F", 4, (1, 0, 0, 0), 52),
    ("E", 6, (1, 0, 0, 0, 0, 0), 27), ("E", 6, (0, 1, 0, 0, 0, 0), 78),
    ("D", 4, (0, 1, 0, 0), 28), ("D", 4, (1, 0, 0, 0), 8),
    ("A", 3, (0, 1, 0), 6), ("B", 2, (0, 1), 4), ("C", 2, (1, 0), 4),
])
def test_classical_dimensions(series, rank, lam, dim):
    # textbook values for small fundamental-weight modules
    from tiltchar.rootsys import datum as mk

    assert ch.weyl_character(mk(series, rank), lam).dimension() == dim


@pytest.mark.parametrize("d,top", [(A1, 6), (A2, 3), (B2, 3), (G2, 2)])
def test_freudenthal_vs_alternating_oracle(d, top):
    for lam in dominant_box(d.rank, top):
        assert ch.weyl_character(d, lam) == ch.alternating_character_oracle(d, lam)


def test_straightened_examples():
    # chi(mu) = sign(w) chi(w . mu); zero when mu + rho is singular
    assert to_dominant(A1, (2,), dot=True) == ((2,), 1)
    assert to_dominant(A1, (-1,), dot=True)[1] == 0
    assert to_dominant(A1, (-3,), dot=True) == ((1,), -1)


def test_s_r_examples():
    assert ch.s_r_character(A1, 2, 1, (1,)) == ch.orbit_sum(A1, (1,))
    sr = ch.s_r_character(A1, 2, 2, (3,))
    assert dict(sr.terms) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    assert ch.s_r_character(A2, 3, 2, (0, 0)) == ch.one(A2)
    # leading term has multiplicity 1
    sr2 = ch.s_r_character(B2, 2, 2, (3, 2))
    assert sr2.multiplicity((3, 2)) == 1


@pytest.mark.parametrize("d, p", [(A1, 2), (A2, 3), (B2, 2), (G2, 5)])
def test_s_1_is_the_orbit_sum_without_a_product(monkeypatch, d, p):
    # the product starts from digit 0's orbit sum, not from one(d) times it
    monkeypatch.setattr(ch, "char_mul", lambda a, b: pytest.fail("char_mul called"))
    for lam in itertools.product(range(p), repeat=d.rank):
        sr = ch.s_r_character(d, p, 1, lam)
        assert sr == ch.orbit_sum(d, lam) and sr._w_inv


def test_steinberg_dimensions_rank_le2():
    for d in (A1, A2, B2, G2):
        npos = len(d.positive_roots)
        for p in (2, 3):
            for r in (1, 2):
                lam = tuple((p**r - 1) for _ in range(d.rank))
                assert ch.weyl_character(d, lam).dimension() == p ** (r * npos)


# ------------------------------------------------------------- expansions

def test_expand_orbit_sums_examples():
    assert ch.expand_in_orbit_sums(ch.orbit_sum(A2, (1, 1))) == {(1, 1): 1}
    assert ch.expand_in_orbit_sums(ch.weyl_character(A1, (2,))) == {(2,): 1, (0,): 1}
    assert ch.expand_in_orbit_sums(ch.zero(A1)) == {}


def test_expand_weyl_chars_examples():
    assert ch.expand_in_weyl_chars(ch.weyl_character(A2, (2, 1))) == {(2, 1): 1}
    assert ch.expand_in_weyl_chars(ch.orbit_sum(A1, (2,))) == {(2,): 1, (0,): -1}
    prod = ch.char_mul(ch.weyl_character(A1, (1,)), ch.orbit_sum(A1, (1,)))
    assert ch.expand_in_weyl_chars(prod) == {(2,): 1, (0,): 1}


def test_expand_rejects_non_invariant():
    with pytest.raises(NotWInvariant):
        ch.expand_in_orbit_sums(ch.e(A2, (1, 0)))
    with pytest.raises(NotWInvariant):
        ch.expand_in_weyl_chars(ch.e(A1, (2,)))


def test_expand_in_sr_examples():
    sr = ch.s_r_character(A1, 2, 2, (3,))
    assert ch.expand_in_sr(sr, 2, 2) == {(3,): 1}
    assert ch.expand_in_sr(ch.zero(A1), 2, 2) == {}
    # chi(3) = s_2(3) at p=2, so the expansion is a single carrier
    assert ch.expand_in_sr(ch.weyl_character(A1, (3,)), 2, 2) == {(3,): 1}
    with pytest.raises(TermNotRestricted):
        ch.expand_in_sr(ch.weyl_character(A1, (4,)), 2, 2)


def test_divide_exact_examples():
    st_char = ch.weyl_character(A1, (1,))
    assert ch.divide_exact(st_char, st_char) == ch.one(A1)
    sq = ch.char_mul(st_char, st_char)
    assert ch.divide_exact(sq, st_char) == st_char
    with pytest.raises(NotDivisible):
        ch.divide_exact(ch.e(A1, (1,)) + ch.e(A1, (0,)), st_char)
    with pytest.raises(ZeroDivisionError):
        ch.divide_exact(st_char, ch.zero(A1))


@pytest.mark.parametrize("divide", [ch.divide_exact, divide_exact_maxscan])
def test_divide_exact_not_divisible_branches(divide, monkeypatch):
    st_char = ch.weyl_character(A1, (1,))
    # e(0) / (e(1) + e(-1)): the first quotient term e(-1) is below the
    # floor min(phi) - min(delta) = (1,)
    with pytest.raises(NotDivisible, match=r"quotient term \(-1,\) falls below"):
        divide(ch.one(A1), st_char)
    with pytest.raises(NotDivisible, match=r"coefficient 2 not divisible by 3 at \(1,\)"):
        divide(ch.scale(ch.e(A1, (1,)), 2), ch.FormalCharacter(A1, {(0,): 3, (-1,): 1}))
    # chi(1)^2 / chi(1) takes two quotient terms of two updates each
    sq = ch.char_mul(st_char, st_char)
    monkeypatch.setattr(ch, "MAX_DIVISION_UPDATES", 3)
    with pytest.raises(ResourceCap, match="division exceeded 3 term updates"):
        divide(sq, st_char)
    monkeypatch.setattr(ch, "MAX_DIVISION_UPDATES", 4)
    assert divide(sq, st_char) == st_char


@pytest.mark.parametrize("divide", [ch.divide_exact, divide_exact_maxscan])
def test_divide_exact_stops_at_the_newton_box(divide, monkeypatch):
    # with the (height, lex) floor alone this quotient drifted along one
    # height, (-25, 24), (-295, 294), ..., until the budget; the box ends
    # it at the third quotient term, within three terms' 5 updates each
    a = ch.FormalCharacter(A2, {(-3, 1): 9, (-3, 0): -4, (3, -3): -1, (0, 0): 1, (-1, -3): 9})
    b = ch.FormalCharacter(A2, {(-3, 1): 9, (-3, 0): -4, (3, -3): -1, (0, 0): 1, (0, -3): 9})
    phi = ch.char_mul(a, b) + ch.scale(ch.e(A2, (-1, 0)), 4)
    monkeypatch.setattr(ch, "MAX_DIVISION_UPDATES", 3 * len(b))
    with pytest.raises(NotDivisible, match=r"quotient term \(-4, 3\) lies outside the Newton box"):
        divide(phi, b)


@pytest.mark.parametrize("series,rank,lam", [("B", 3, (1, 0, 1)), ("D", 4, (1, 0, 0, 1))])
def test_alternating_oracle_rank_3_and_4(series, rank, lam):
    d = datum(series, rank)
    assert ch.alternating_character_oracle(d, lam) == ch.weyl_character(d, lam)


def oracle_support(d, cone):
    """The union of the seen-set DFS orbits of the weights in cone."""
    support = set()
    for mu in cone:
        support.update(weyl_orbit_dfs(d, mu))
    return support


# Freudenthal at rank 4 costs seconds per type already at coordinate 2
@pytest.mark.parametrize("series,rank,top", [
    ("A", 1, 3), ("A", 2, 3), ("A", 3, 3), ("A", 4, 1), ("B", 2, 3),
    ("B", 3, 3), ("B", 4, 1), ("C", 2, 3), ("C", 3, 3), ("C", 4, 1),
    ("D", 4, 1), ("F", 4, 1), ("G", 2, 3),
])
def test_weyl_support_matches_oracles(series, rank, top):
    d = datum(series, rank)
    for lam in dominant_box(rank, top):
        cone = dominant_below_boxscan(d, lam)
        assert set(ch.weyl_character(d, lam).terms) == oracle_support(d, cone)


# fundamental weights by 0-based index (index i is w(i+1)); E8 w3 to w6 are
# left out, their supports hold 117,361 to 3,207,121 weights
E_SUPPORT_CASES = [(6, range(6)), (7, range(7)), (8, (0, 1, 6, 7))]


@pytest.mark.parametrize("rank,indices", E_SUPPORT_CASES)
def test_weyl_support_matches_oracles_e_fundamental(rank, indices):
    d = datum("E", rank)
    for i in indices:
        lam = tuple(int(k == i) for k in range(rank))
        chi = ch.weyl_character(d, lam)
        assert set(chi.terms) == oracle_support(d, chi.dominant_terms())


@pytest.mark.parametrize("series,rank,lam", [
    # (1,0,1) and (0,1): the support holds 4k + 1 weights, the zero weight last
    ("A", 3, (1, 0, 1)), ("G", 2, (0, 1)), ("B", 2, (1, 1)), ("D", 4, (3, 1, 2, 0)),
    ("A", 2, (4, 4)),
    # here the cone cap fires first: 3 dominant weights, 5 in the support
    ("A", 1, (4,)),
])
def test_weyl_character_support_cap_is_exact(series, rank, lam):
    full = ch.weyl_character(datum(series, rank), lam)
    cone = len(full.dominant_terms())
    least = max(cone, -(-len(full) // 4))  # the smallest cap that returns full
    if cone == least:
        message = f"dominant cone below {lam} exceeds cap {least - 1}"
    else:
        message = f"character support exceeds cap {4 * (least - 1)}"
    # the first call on a fresh datum misses the cache, the second hits
    # it when the first stored a result
    d = capped(series, rank, cone_cap=least - 1)
    for _ in range(2):
        with pytest.raises(ResourceCap, match=re.escape(message) + "$"):
            ch.weyl_character(d, lam)
    d = capped(series, rank, cone_cap=least)
    for _ in range(2):
        assert ch.weyl_character(d, lam) == full


WEYL_TERMS_CASES = [
    ("A", 1, [(0,), (1,), (5,)]),
    ("A", 2, [(0, 0), (1, 0), (2, 1), (3, 3)]),
    ("A", 3, [(1, 0, 0), (1, 0, 1), (2, 1, 2)]),
    ("B", 2, [(1, 0), (0, 1), (2, 3)]),
    ("B", 3, [(0, 0, 1), (1, 0, 1), (2, 2, 2)]),
    ("C", 3, [(1, 0, 0), (0, 1, 1), (2, 1, 1)]),
    ("D", 4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)]),
    ("G", 2, [(1, 0), (0, 1), (3, 2)]),
    ("F", 4, [(1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1)]),
    ("E", 6, [(1, 0, 0, 0, 0, 0)]),
]


@pytest.mark.parametrize("series,rank,lams", WEYL_TERMS_CASES)
def test_weyl_terms_match_the_two_pass_route(series, rank, lams):
    # same terms in the same insertion order, and the same exact support cap
    d = datum(series, rank)
    for lam in lams:
        cap = 4 * d.cone_cap
        want = weyl_terms_two_pass(d, lam, cap)
        got = ch._weyl_terms(d, lam, cap)
        assert list(got.items()) == list(want.items()), lam
        size = len(want)
        message = re.escape(f"character support exceeds cap {size - 1}") + "$"
        for route in (ch._weyl_terms, weyl_terms_two_pass):
            with pytest.raises(ResourceCap, match=message):
                route(d, lam, size - 1)
            assert route(d, lam, size) == want


def test_weyl_terms_stop_at_the_first_orbit_past_the_cap(monkeypatch):
    # the cap is checked as the table grows: with room for lam's orbit
    # only, one multiplicity is computed before the next orbit overflows
    d = datum("B", 3)
    lam = (2, 2, 2)
    orbit = len(rootsys.weyl_orbit(d, lam))
    real = ch.root_lattice_coords
    calls = []
    monkeypatch.setattr(
        ch, "root_lattice_coords", lambda d, v: calls.append(v) or real(d, v)
    )
    with pytest.raises(ResourceCap, match=f"character support exceeds cap {orbit}$"):
        ch._weyl_terms(d, lam, orbit)
    assert len(calls) == 1


def test_cold_weyl_character_never_straightens(monkeypatch):
    # Freudenthal reads m(mu + k alpha) from the orbit table it builds
    d = capped("B", 3)
    calls = []
    for module in (ch, rootsys):
        real = module.to_dominant
        monkeypatch.setattr(
            module,
            "to_dominant",
            lambda d, mu, dot=False, real=real: calls.append(mu) or real(d, mu, dot),
        )
    chi = ch.weyl_character(d, (2, 2, 2))
    assert calls == []
    assert chi == ch.alternating_character_oracle(d, (2, 2, 2))


@pytest.mark.parametrize("series,rank", [("G", 2), ("B", 3)])
def test_rho_offsets_cap_is_exact(series, rank):
    d = datum(series, rank)
    size = len(ch._rho_offsets(d))
    message = re.escape(f"orbit of {d.rho} exceeds cap {size - 1}") + "$"
    d = capped(series, rank, orbit_cap=size - 1)
    for _ in range(2):
        with pytest.raises(OrbitTooLarge, match=message):
            ch._rho_offsets(d)
    d = capped(series, rank, orbit_cap=size)
    for _ in range(2):
        assert len(ch._rho_offsets(d)) == size


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("B", 3)])
def test_weyl_denominator_is_built_once_per_datum(series, rank, monkeypatch):
    d = capped(series, rank)
    den = ch._weyl_denominator(d)
    want = orbit_with_dets(d, d.rho)
    assert list(den.terms.items()) == want
    assert ch._weyl_denominator(d) is den
    # the oracle now walks only its numerator's orbit
    walked = []
    real = ch.orbit_with_dets
    monkeypatch.setattr(ch, "orbit_with_dets", lambda d, tau: walked.append(tau) or real(d, tau))
    lam = (1,) * rank
    assert ch.alternating_character_oracle(d, lam) == ch.weyl_character(d, lam)
    assert walked == [(2,) * rank]


def test_char_mul_term_cap(monkeypatch):
    a, b = ch.weyl_character(A2, (2, 1)), ch.orbit_sum(A2, (1, 1))
    full = ch.char_mul(a, b)
    # non-negative terms never cancel, so no row's support passes the product's
    monkeypatch.setattr(ch, "MAX_PRODUCT_TERMS", len(full))
    assert ch.char_mul(a, b) == full
    monkeypatch.setattr(ch, "MAX_PRODUCT_TERMS", len(full) - 1)
    with pytest.raises(ResourceCap, match=f"product support exceeds cap {len(full) - 1}"):
        ch.char_mul(a, b)


def test_char_mul_factor_past_the_cap(monkeypatch):
    big, small = ch.weyl_character(A2, (2, 1)), ch.e(A2, (1, 0)) - ch.e(A2, (0, 0))
    monkeypatch.setattr(ch, "MAX_PRODUCT_TERMS", len(big) - 1)
    for a, b in ((big, small), (small, big)):
        with pytest.raises(ResourceCap, match=f"product support exceeds cap {len(big) - 1}$"):
            ch.char_mul(a, b)
        assert ch.char_mul(a, ch.zero(A2)) == ch.zero(A2)
        assert ch.char_mul(ch.zero(A2), b) == ch.zero(A2)


# ------------------------------------------------------- property testing

def weights(rank, lo=-4, hi=4):
    return st.tuples(*(st.integers(lo, hi) for _ in range(rank)))


def sparse_chars(d, max_terms=5):
    return st.dictionaries(
        weights(d.rank), st.integers(-9, 9).filter(bool), max_size=max_terms
    ).map(lambda t: ch.FormalCharacter(d, t))


def nonzero_chars(d, min_terms=1):
    return st.dictionaries(
        weights(d.rank), st.integers(-9, 9).filter(bool),
        min_size=min_terms, max_size=5,
    ).map(lambda t: ch.FormalCharacter(d, t))


RANK2 = st.sampled_from([A2, B2, G2])


def _division_outcome(divide, phi, delta):
    try:
        return "quotient", divide(phi, delta)
    except (NotDivisible, ResourceCap) as exc:
        return type(exc).__name__, str(exc)


# packed keys size their radix from the box of phi and delta: vary the rank
DIVISION_DATA = st.sampled_from([A1, A2, B2, G2, datum("A", 3), datum("B", 3), datum("D", 4)])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_divide_exact_recovers_factor(data):
    d = data.draw(DIVISION_DATA)
    a, b = data.draw(sparse_chars(d)), data.draw(nonzero_chars(d))
    prod = ch.char_mul(a, b)
    fast = _division_outcome(ch.divide_exact, prod, b)
    assert fast == ("quotient", a)
    assert fast == _division_outcome(divide_exact_maxscan, prod, b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_divide_exact_rejects_non_multiples(data):
    # a divisor with two or more terms divides no monomial, so a*b + k e(mu)
    # is never a multiple of b
    d = data.draw(DIVISION_DATA)
    a, b = data.draw(sparse_chars(d)), data.draw(nonzero_chars(d, min_terms=2))
    mono = ch.scale(ch.e(d, data.draw(weights(d.rank))), data.draw(st.integers(-9, 9).filter(bool)))
    phi = ch.char_mul(a, b) + mono
    fast = _division_outcome(ch.divide_exact, phi, b)
    assert fast[0] == "NotDivisible"
    assert fast == _division_outcome(divide_exact_maxscan, phi, b)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_divide_exact_step_cap_matches_oracle(data):
    # the same outcome and message under a small budget of term updates,
    # up to eight quotient terms' worth, pins the order of the steps
    d = data.draw(DIVISION_DATA)
    a, b = data.draw(sparse_chars(d)), data.draw(nonzero_chars(d))
    phi = ch.char_mul(a, b) + data.draw(sparse_chars(d, max_terms=2))
    k = data.draw(st.integers(1, 8 * len(b)))
    with mock.patch.object(ch, "MAX_DIVISION_UPDATES", k):
        assert _division_outcome(ch.divide_exact, phi, b) == _division_outcome(
            divide_exact_maxscan, phi, b
        )


A3, B3, D4 = datum("A", 3), datum("B", 3), datum("D", 4)


@pytest.mark.parametrize("d,a,b", [
    # a one-term divisor, and a one-term dividend
    (A2, {(1, -2): 2, (0, 3): -1, (-4, 4): 5}, {(2, -1): 3}),
    (A2, {(1, 1): -2}, {(-1, 0): 3}),
    # every weight of phi has coordinate 1 equal to 5: a zero span
    (A3, {(1, 5, 0): 2, (-1, 5, 3): 1, (0, 5, -2): -3}, {(0, 0, 1): 1, (2, 0, -1): -1}),
    # every weight of phi has a negative scaled height
    (B3, {(-3, -2, -1): 1, (-1, -4, -2): -2}, {(-1, -1, -1): 1, (-2, 0, -3): 4, (0, -1, 0): -1}),
    # coordinates near +-1000
    (D4, {(1000, -999, 3, -1000): 1, (-1000, 1000, 0, 999): 2},
     {(999, 1, -1000, 0): 1, (0, 0, 0, 0): -1, (-998, 1000, 1, 2): 3}),
])
def test_divide_exact_packing_edge_boxes(d, a, b, monkeypatch):
    a, b = ch.FormalCharacter(d, a), ch.FormalCharacter(d, b)
    prod = ch.char_mul(a, b)
    assert ch.divide_exact(prod, b) == a
    assert divide_exact_maxscan(prod, b) == a
    # non-multiples: a term added at each corner of phi's box and past it
    columns = list(zip(*prod.terms))
    lo, hi = tuple(min(c) for c in columns), tuple(max(c) for c in columns)
    past = tuple(x + 1 for x in hi)
    budgets = (1, len(b), len(a) * len(b), ch.MAX_DIVISION_UPDATES)
    for mu in (lo, hi, past):
        # 7 e(mu) is no multiple of b: b has two terms or leads with 3
        phi = prod + ch.scale(ch.e(d, mu), 7)
        for k in budgets:
            monkeypatch.setattr(ch, "MAX_DIVISION_UPDATES", k)
            fast = _division_outcome(ch.divide_exact, phi, b)
            assert fast[0] != "quotient"
            assert fast == _division_outcome(divide_exact_maxscan, phi, b)


@given(sparse_chars(A2), sparse_chars(A2), sparse_chars(A2))
@settings(max_examples=60, deadline=None)
def test_ring_laws_a2(a, b, c):
    assert ch.char_add(a, b) == ch.char_add(b, a)
    assert ch.char_mul(a, b) == ch.char_mul(b, a)
    assert ch.char_add(ch.char_add(a, b), c) == ch.char_add(a, ch.char_add(b, c))
    assert ch.char_mul(ch.char_mul(a, b), c) == ch.char_mul(a, ch.char_mul(b, c))
    assert ch.char_mul(a, ch.char_add(b, c)) == ch.char_add(
        ch.char_mul(a, b), ch.char_mul(a, c)
    )
    assert ch.char_mul(a, ch.one(A2)) == a


@given(sparse_chars(B2), sparse_chars(B2), st.sampled_from([2, 3, 5]), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_twist_is_ring_hom(a, b, p, j):
    tw = lambda x: ch.frobenius_twist(x, p, j)
    assert tw(ch.char_mul(a, b)) == ch.char_mul(tw(a), tw(b))
    assert tw(ch.char_add(a, b)) == ch.char_add(tw(a), tw(b))


def dominant_weights(rank, hi=3):
    return st.tuples(*(st.integers(0, hi) for _ in range(rank)))


def invariant_chars(d, hi=3, max_terms=4):
    return st.dictionaries(
        dominant_weights(d.rank, hi),
        st.integers(-5, 5).filter(bool),
        min_size=0,
        max_size=max_terms,
    ).map(
        lambda coeffs: _assemble_orbit_combo(d, coeffs)
    )


def _assemble_orbit_combo(d, coeffs):
    phi = ch.zero(d)
    for nu, c in coeffs.items():
        phi = ch.char_add(phi, ch.scale(ch.orbit_sum(d, nu), c))
    return phi


@given(invariant_chars(B2))
@settings(max_examples=50, deadline=None)
def test_orbit_expansion_roundtrip_b2(phi):
    coeffs = ch.expand_in_orbit_sums(phi)
    back = _assemble_orbit_combo(B2, coeffs)
    assert back == phi


@given(invariant_chars(G2, hi=2, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_weyl_expansion_roundtrip_g2(phi):
    coeffs = ch.expand_in_weyl_chars(phi)
    back = ch.zero(G2)
    for nu, c in coeffs.items():
        back = ch.char_add(back, ch.scale(ch.weyl_character(G2, nu), c))
    assert back == phi
    assert coeffs == expand_in_weyl_chars_subtractive(phi)


@given(invariant_chars(A2, hi=2, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_twist_preserves_w_invariance(phi):
    assert ch.frobenius_twist(phi, 2, 1).is_w_invariant()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_w_invariance_marks_hold_term_by_term(data):
    # every result marked W-invariant by how it was built passes the check
    # with the mark reset; a product with an unmarked factor stays unmarked
    d = data.draw(RANK2)
    dom = dominant_weights(d.rank, 2)
    p, j = data.draw(st.sampled_from([2, 3])), data.draw(st.integers(0, 2))
    orb = ch.orbit_sum(d, data.draw(dom))
    chi = ch.weyl_character(d, data.draw(dom))
    twisted = ch.frobenius_twist(orb, p, j)
    built = [ch.one(d), orb, twisted, ch.char_mul(chi, twisted), ch.char_mul(ch.one(d), orb)]
    for phi in built:
        assert phi._w_inv is True
        assert ch.FormalCharacter(d, phi.terms).is_w_invariant()
    loose = ch.e(d, data.draw(weights(d.rank)))
    for phi in (ch.char_mul(orb, loose), ch.char_mul(loose, chi), ch.frobenius_twist(loose, p, 1)):
        assert phi._w_inv is None


@given(st.dictionaries(dominant_weights(1, 3), st.integers(-4, 4).filter(bool), max_size=3))
@settings(max_examples=40, deadline=None)
def test_sr_expansion_roundtrip_a1(coeffs):
    p, r = 2, 2
    phi = ch.zero(A1)
    for nu, c in coeffs.items():
        phi = ch.char_add(phi, ch.scale(ch.s_r_character(A1, p, r, nu), c))
    got = ch.expand_in_sr(phi, p, r)
    assert got == {nu: c for nu, c in coeffs.items()}


def _sr_outcome(expand, phi, p, r):
    try:
        return "coefficients", expand(phi, p, r)
    except TermNotRestricted as exc:
        return "TermNotRestricted", str(exc)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_expand_in_sr_matches_maxscan(data):
    d = data.draw(RANK2)
    p, r = data.draw(st.sampled_from([2, 3])), data.draw(st.sampled_from([1, 2]))
    top = p**r - 1
    coeffs = data.draw(st.dictionaries(
        dominant_weights(d.rank, top), st.integers(-4, 4).filter(bool), max_size=3
    ))
    phi = ch.zero(d)
    for nu, c in coeffs.items():
        phi = phi + ch.scale(ch.s_r_character(d, p, r, nu), c)
    # an orbit sum that may reach past the restricted box
    extra = data.draw(st.dictionaries(
        dominant_weights(d.rank, top + 1), st.integers(-4, 4).filter(bool), max_size=1
    ))
    phi = phi + _assemble_orbit_combo(d, extra)
    fast = _sr_outcome(ch.expand_in_sr, phi, p, r)
    assert fast == _sr_outcome(expand_in_sr_maxscan, phi, p, r)
    if not extra:
        assert fast == ("coefficients", coeffs)


def test_expand_in_sr_unrestricted_below_the_top():
    # chi(2,2) at p=3: s_1(2,2) is peeled, then (3,0) leaves X_1
    phi = ch.weyl_character(A2, (2, 2))
    for expand in (ch.expand_in_sr, expand_in_sr_maxscan):
        with pytest.raises(TermNotRestricted, match=r"^dominant term \(3, 0\) is outside X_1 for p=3$"):
            expand(phi, 3, 1)


# ------------------------------------------------------------------- JSON

def test_json_round_trip():
    phi = ch.char_mul(ch.weyl_character(A2, (1, 1)), ch.orbit_sum(A2, (1, 0)))
    blob = json.dumps(phi.to_json_dict())
    back = ch.from_json_dict(json.loads(blob))
    assert back == phi
    assert json.dumps(back.to_json_dict()) == blob


def test_json_shape():
    obj = ch.orbit_sum(A2, (1, 0)).to_json_dict()
    assert obj["type"] == "A" and obj["rank"] == 2
    assert obj["terms"] == [
        {"w": [-1, 1], "m": 1},
        {"w": [0, -1], "m": 1},
        {"w": [1, 0], "m": 1},
    ]
    with pytest.raises(ValueError):
        ch.from_json_dict({"type": "A", "rank": 1, "terms": [{"w": [1], "m": 0}]})


# ---------------------------------------------------- streamed JSON output

def streamed(phi):
    out = io.StringIO()
    phi.write_json(out)
    return out.getvalue()


def assert_streams_as_dumps(phi):
    text = streamed(phi)
    assert text == json.dumps(phi.to_json_dict()) + "\n"
    back = ch.from_json_dict(json.loads(text), phi.datum)
    assert back == phi


def chunk_sized(d, n):
    # n distinct weights with multiplicities of both signs
    return ch.FormalCharacter(
        d, {(i % 97 - 48, i // 97 - 40): (i % 11) - 5 or 7 for i in range(n)}
    )


def test_write_json_edge_cases():
    assert streamed(ch.zero(A2)) == '{"type": "A", "rank": 2, "terms": []}\n'
    assert_streams_as_dumps(ch.zero(A2))
    assert_streams_as_dumps(ch.weyl_character(A1, (5,)))
    a, b = ch.weyl_character(B2, (1, 1)), ch.orbit_sum(B2, (2, 1))
    assert_streams_as_dumps(a - b)
    assert_streams_as_dumps(ch.scale(ch.weyl_character(G2, (1, 1)), -10**30))
    for n in (ch.JSON_CHUNK_TERMS, ch.JSON_CHUNK_TERMS + 1):
        phi = chunk_sized(A2, n)
        assert len(phi) == n
        assert_streams_as_dumps(phi)


@given(RANK2.flatmap(lambda d: st.dictionaries(
    weights(d.rank, -30, 30), st.integers(-10**6, 10**6).filter(bool), max_size=40,
).map(lambda t: ch.FormalCharacter(d, t))), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_write_json_matches_dumps(phi, chunk):
    with mock.patch.object(ch, "JSON_CHUNK_TERMS", chunk):
        assert_streams_as_dumps(phi)


class _Discard:
    def write(self, text):
        pass


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_json_builds_no_object_per_term():
    phi = chunk_sized(A2, 25_000)
    streaming = _peak_bytes(lambda: phi.write_json(_Discard()))
    building = _peak_bytes(phi.to_json_dict)
    assert streaming * 5 < building, (streaming, building)
