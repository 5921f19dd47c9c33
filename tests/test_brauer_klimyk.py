"""Brauer-Klimyk chi-vectors against full convolution, the oracle route."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tiltchar.errors import InternalMismatch, NotWInvariant
from tiltchar import charring as ch
from tiltchar import minuscule as mn
from tiltchar import tilting as tl
from tiltchar.rootsys import datum

A2 = datum("A", 2)
A3 = datum("A", 3)
B2 = datum("B", 2)
G2 = datum("G", 2)


def by_convolution(d, chi_vec, phi):
    """Expand sum c_a chi(a) * phi, built as a full product, in the chi-basis."""
    full = ch.zero(d)
    for a, c in chi_vec.items():
        full = full + ch.scale(ch.char_mul(ch.weyl_character(d, a), phi), c)
    return ch.expand_in_weyl_chars(full)


def dominant(rank, hi):
    return st.tuples(*(st.integers(0, hi) for _ in range(rank)))


def invariant_factor(d, hi):
    """A Weyl character, an orbit sum or an s_r character of a small weight."""
    weyl = dominant(d.rank, hi).map(lambda lam: ch.weyl_character(d, lam))
    orbit = dominant(d.rank, hi).map(lambda lam: ch.orbit_sum(d, lam))
    # every weight of the box below 3 is restricted for both (p, r)
    s_r = st.tuples(dominant(d.rank, 2), st.sampled_from([(2, 2), (3, 1)])).map(
        lambda t: ch.s_r_character(d, t[1][0], t[1][1], t[0])
    )
    return st.one_of(weyl, orbit, s_r)


@pytest.mark.parametrize(
    "d, a_hi, v_hi, n",
    [(A2, 4, 3, 40), (B2, 4, 3, 40), (G2, 3, 2, 30), (A3, 2, 1, 15)],
    ids=["A2", "B2", "G2", "A3"],
)
def test_brauer_klimyk_matches_convolution(d, a_hi, v_hi, n):
    @given(dominant(d.rank, a_hi), invariant_factor(d, v_hi))
    @settings(max_examples=n, deadline=None)
    def check(a, phi):
        assert ch.brauer_klimyk(d, {a: 1}, phi) == by_convolution(d, {a: 1}, phi)

    check()


@pytest.mark.parametrize("d", [A2, B2], ids=["A2", "B2"])
def test_brauer_klimyk_exhaustive_slice(d):
    box = list(itertools.product(range(3), repeat=d.rank))
    for a, lam in itertools.product(box, box):
        for phi in (ch.weyl_character(d, lam), ch.orbit_sum(d, lam)):
            assert ch.brauer_klimyk(d, {a: 1}, phi) == by_convolution(d, {a: 1}, phi)


def test_brauer_klimyk_is_linear_in_the_chi_vector():
    vec = {(2, 1): 3, (0, 0): -2, (1, 1): 1}
    phi = ch.s_r_character(A2, 2, 2, (3, 1))
    assert ch.brauer_klimyk(A2, vec, phi) == by_convolution(A2, vec, phi)
    assert ch.brauer_klimyk(A2, {}, phi) == {}
    assert ch.brauer_klimyk(A2, vec, ch.zero(A2)) == {}


def test_brauer_klimyk_rejects_non_invariant():
    with pytest.raises(NotWInvariant):
        ch.brauer_klimyk(A2, {(1, 1): 1}, ch.e(A2, (1, 0)))
    with pytest.raises(NotWInvariant):
        ch.brauer_klimyk(B2, {(0, 0): 1}, ch.e(B2, (0, 0)) + ch.e(B2, (1, 0)))


@pytest.mark.parametrize("d", [A2, B2], ids=["A2", "B2"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_tilting_chi_pr_matches_full_oracle(d, p, r):
    for nu in mn.enumerate_class(d, p, r, "pr_minuscule"):
        want = ch.expand_in_weyl_chars(tl.tilting_char_pr(d, p, r, nu))
        assert tl.tilting_chi_pr(d, p, r, nu) == want


def test_tilting_chi_pr_returns_a_copy():
    d = datum("A", 2)
    vec = tl.tilting_chi_pr(d, 2, 2, (1, 1))
    vec.clear()
    assert tl.tilting_chi_pr(d, 2, 2, (1, 1))


def test_tilting_chi_pr_compares_two_routes(monkeypatch):
    d = datum("A", 2)
    monkeypatch.setattr(tl, "tilting_char_p", lambda *args: ch.one(d))
    with pytest.raises(InternalMismatch):
        tl.tilting_chi_pr(d, 2, 2, (3, 3))


def test_decompose_str_reassembly_is_checked(monkeypatch):
    d = datum("A", 2)
    monkeypatch.setattr(tl, "tilting_chi_pr", lambda *args: {(0, 0): 1})
    with pytest.raises(InternalMismatch):
        tl.decompose_str_tensor(d, 3, 1, (1, 1))


def test_decompose_st_reassembly_is_checked(monkeypatch):
    d = datum("A", 2)
    real = ch.orbit_sum
    monkeypatch.setattr(
        ch, "orbit_sum", lambda d_, nu, *rest: real(d_, nu) + real(d_, nu)
    )
    with pytest.raises(InternalMismatch):
        tl.decompose_st_tensor(d, 3, (1, 1), ch.weyl_character(d, (1, 1)))


def test_decompositions_stay_independent():
    assert tl.decompose_st_tensor(
        A2, 3, (1, 1), ch.weyl_character(A2, (1, 1))
    ).mode == "independent"
    dec = tl.decompose_str_tensor(B2, 2, 2, (2, 1))
    assert dec.mode == "independent" and dec.verified


def test_remark_check_certificate():
    holds, cert = tl.remark_check(B2, 3, (0, 1))
    assert holds
    assert cert == ch.expand_in_weyl_chars(tl.tilting_char_p(B2, 3, (0, 1)))
    assert all(c > 0 for c in cert.values())


def test_remark_check_catches_a_faulty_product(monkeypatch):
    # the two sides share no product, so a fault in char_mul shows
    d = datum("A", 2)
    real = ch.char_mul
    monkeypatch.setattr(ch, "char_mul", lambda a, b: real(a, b) + ch.one(d))
    holds, _ = tl.remark_check(d, 3, (1, 0))
    assert not holds
