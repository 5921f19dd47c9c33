"""Brauer-Klimyk chi-vectors against full convolution, the oracle route."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tiltchar.errors import InternalMismatch, NotWInvariant, ProviderUndetermined
from tiltchar import charring as ch
from tiltchar import minuscule as mn
from tiltchar import suites
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


@pytest.mark.parametrize("d, hi", [(A2, 4), (B2, 3), (G2, 2)], ids=["A2", "B2", "G2"])
def test_from_weyl_chars_round_trip(d, hi):
    chi_vectors = st.dictionaries(
        dominant(d.rank, hi), st.integers(-3, 3).filter(bool), max_size=4
    )

    @given(chi_vectors)
    @settings(max_examples=30, deadline=None)
    def check(vec):
        assert ch.expand_in_weyl_chars(ch.from_weyl_chars(d, vec)) == vec

    check()


def provider_by_full_characters(d, p, trace, mu):
    """ch T(mu) built as a full character along the provider's trace."""
    head, *rest = trace
    if head in ("minuscule", "lowest_alcove"):
        return ch.weyl_character(d, mu)
    r = int(head[head.index("=") + 1 : -1])
    q = p**r
    shifted = tuple(x - (q - 1) for x in mu)
    if head.startswith("pr_shift"):
        return tl.tilting_char_pr(d, p, r, shifted)
    lam = tuple(x % q for x in shifted)
    inner = tuple(x // q for x in shifted)
    return ch.char_mul(
        tl.tilting_char_pr(d, p, r, lam),
        ch.frobenius_twist(provider_by_full_characters(d, p, rest, inner), p, r),
    )


@pytest.mark.parametrize(
    "d, p, top, strategies",
    [
        (A2, 2, 6, {"minuscule", "pr_shift", "product"}),
        (A2, 3, 12, {"minuscule", "pr_shift", "product"}),
        (B2, 2, 6, {"minuscule", "pr_shift", "product"}),
        (B2, 3, 12, {"minuscule", "pr_shift", "product"}),
        (G2, 2, 6, {"minuscule", "pr_shift"}),
        (G2, 3, 12, {"minuscule", "pr_shift"}),
        # no weight of A2, B2 or G2 is in the lowest alcove but not minuscule at p <= 3
        (A2, 5, 3, {"minuscule", "lowest_alcove"}),
        (B2, 5, 3, {"minuscule", "lowest_alcove"}),
        (G2, 7, 2, {"minuscule", "lowest_alcove"}),
    ],
    ids=lambda v: getattr(v, "spec", None) and str(v.spec),
)
def test_tilting_provider_matches_full_characters(d, p, top, strategies):
    seen = set()
    for mu in itertools.product(range(top), repeat=d.rank):
        try:
            vec, _, trace = tl.TiltingCharProvider().resolve(d, mu, p)
        except ProviderUndetermined:
            continue
        seen.add(trace[0].split("(")[0])
        full = provider_by_full_characters(d, p, trace, mu)
        assert ch.from_weyl_chars(d, vec) == full, mu
    assert seen == strategies


def test_tilting_identities_catch_a_wrong_tilting_vector(monkeypatch):
    d = datum("A", 2)
    monkeypatch.setattr(tl, "tilting_chi_pr", lambda d_, *args: {(0,) * d_.rank: 1})
    # T(3,3) at p=2 resolves by pr_shift(r=2)
    assert not tl.verify_lemma1a(d, 2, 1, (1, 1))["holds"]
    # T(6,2) at p=3 resolves by product(r=1) over tilting_chi_pr
    assert not tl.verify_prop2_corollary(d, 3, 1, (1, 0), (1, 0))["main"]["holds"]
    for report in suites.run_suites(d, ["lemma1a", "prop1", "prop2"], ps=(2,), rs=(1,)):
        assert report.failed > 0, report.suite
