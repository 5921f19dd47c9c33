"""Brauer-Klimyk chi-vectors against full convolution, the oracle route."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tiltchar.errors import InternalMismatch, NotWInvariant, ProviderUndetermined
from tiltchar import charring as ch
from tiltchar import minuscule as mn
from tiltchar import suites
from tiltchar import tilting as tl
from tiltchar.rootsys import RootSystemSpec, build_root_datum, datum
from tiltchar.simplechar import SimpleCharProvider

from oracles import tilting_char_pr_convolution, tilting_chi_pr_by_digit_tiltings

A1 = datum("A", 1)
A2 = datum("A", 2)
A3 = datum("A", 3)
B2 = datum("B", 2)
C2 = datum("C", 2)
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
        want = ch.expand_in_weyl_chars(tilting_char_pr_convolution(d, p, r, nu))
        assert tl.tilting_chi_pr(d, p, r, nu) == want


@pytest.mark.parametrize(
    "d", [A1, A2, B2, C2, G2], ids=["A1", "A2", "B2", "C2", "G2"]
)
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_tilting_char_pr_matches_full_oracle(d, p, r):
    for nu in mn.enumerate_class(d, p, r, "pr_minuscule"):
        assert tl.tilting_char_pr(d, p, r, nu) == tilting_char_pr_convolution(d, p, r, nu)


@pytest.mark.parametrize(
    "d,p,r",
    [(d, p, r) for d in (A2, B2, G2) for p in (2, 3) for r in (1, 2)]
    + [(A3, 2, 1), (A3, 2, 2), (A3, 3, 1), (A2, 2, 3)],
)
def test_tilting_chi_pr_matches_digit_tilting_folds(d, p, r):
    # tilting_chi_pr raises unless its digit route agrees with the direct
    # one, so equality here ties the St^[j], s(lam^j)^[j] folds to the
    # folds against the twisted full T_p(lam^j)^[j]
    for nu in mn.enumerate_class(d, p, r, "pr_minuscule"):
        assert tl.tilting_chi_pr(d, p, r, nu) == tilting_chi_pr_by_digit_tiltings(
            d, p, r, nu
        )


def _fault_twisted_steinberg(monkeypatch):
    """Give the St = chi((p-1)rho) that the digit route twists an extra e(0)."""
    real = tl.steinberg_character
    monkeypatch.setattr(
        tl, "steinberg_character", lambda d, p, r: real(d, p, r) + ch.one(d)
    )


def test_tilting_char_pr_is_checked(monkeypatch):
    _fault_twisted_steinberg(monkeypatch)
    with pytest.raises(InternalMismatch):
        tl.tilting_char_pr(datum("A", 2), 2, 2, (3, 3))


def test_tilting_char_pr_output_is_tied_to_its_chi_vector(monkeypatch):
    # the chi-vector is cached first, so only the returned product is faulty
    d = datum("A", 2)
    tl.tilting_chi_pr(d, 2, 2, (3, 3))
    mul = ch.char_mul
    monkeypatch.setattr(ch, "char_mul", lambda a, b: mul(a, b) + ch.one(d))
    with pytest.raises(InternalMismatch, match="checked chi-vector"):
        tl.tilting_char_pr(d, 2, 2, (3, 3))


def test_tilting_chi_pr_returns_a_copy():
    d = datum("A", 2)
    vec = tl.tilting_chi_pr(d, 2, 2, (1, 1))
    vec.clear()
    assert tl.tilting_chi_pr(d, 2, 2, (1, 1))


def test_tilting_chi_pr_compares_two_routes(monkeypatch):
    # the fault is in the chi(a) * St^[1] fold, which the direct route skips
    _fault_twisted_steinberg(monkeypatch)
    with pytest.raises(InternalMismatch, match="forms disagree"):
        tl.tilting_chi_pr(datum("A", 2), 2, 2, (3, 3))


@pytest.mark.parametrize("r", [1, 2])
def test_tilting_chi_pr_folds_once_at_r_1(monkeypatch, r):
    # s_1(lam) = s(lam), so at r = 1 the digit product would repeat the
    # direct fold; at r >= 2 the direct fold is compared with r orbit-sum
    # folds, after folding each chi(a) * St^[1] once per datum
    d = datum("A", 2)
    st1 = ch.frobenius_twist(tl.steinberg_character(d, 3, 1), 3, 1)
    folds = {"orbit": 0, "steinberg": 0}
    fold = ch.brauer_klimyk

    def counted(d_, vec, phi):
        folds["steinberg" if phi == st1 else "orbit"] += 1
        return fold(d_, vec, phi)

    monkeypatch.setattr(ch, "brauer_klimyk", counted)
    lams = mn.enumerate_class(d, 3, r, "pr_minuscule")
    for lam in lams:
        tl.tilting_chi_pr(d, 3, r, lam)
    assert lams and folds["orbit"] == len(lams) * (1 if r == 1 else 1 + r)
    assert folds["steinberg"] == len(d._cache.get("st_twist", ()))
    assert (folds["steinberg"] > 0) == (r > 1)


@pytest.mark.parametrize(
    "series,rank,p,r",
    [("A", 2, 2, 1), ("A", 2, 3, 2), ("A", 2, 5, 2), ("A", 2, 2, 3), ("B", 2, 2, 2),
     ("B", 2, 3, 2), ("G", 2, 2, 2), ("G", 2, 3, 2), ("A", 3, 2, 2)],
)
def test_steinberg_fold_bucket_stays_in_its_cone(series, rank, p, r):
    # every key (p, j, a) has a dominant and 2(p^j-1)rho - a a non-negative
    # rational sum of simple roots (adjugate coordinates, det(C) > 0)
    d = datum(series, rank)
    for lam in mn.enumerate_class(d, p, r, "pr_minuscule"):
        tl.tilting_chi_pr(d, p, r, lam)
    keys = d._cache.get("st_twist", {})
    assert (len(keys) > 0) == (r > 1)
    for key_p, j, a in keys:
        assert key_p == p and 1 <= j < r and min(a) >= 0
        gap = [2 * (p**j - 1) - x for x in a]
        for row in d.adjugate:
            assert sum(c * g for c, g in zip(row, gap)) >= 0, (j, a)


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
    assert tl.remark_check(B2, 3, (0, 1)) == (True, "")
    cert = ch.expand_in_weyl_chars(tl.tilting_char_p(B2, 3, (0, 1)))
    assert all(c > 0 for c in cert.values())


def test_remark_check_catches_a_faulty_product(monkeypatch):
    # the Brauer-Klimyk route forms no product, so a fault in char_mul
    # shows in the builder's comparison, directly and as a failed case
    d = datum("A", 2)
    real = ch.char_mul
    monkeypatch.setattr(ch, "char_mul", lambda a, b: real(a, b) + ch.one(d))
    with pytest.raises(InternalMismatch, match="checked chi-vector"):
        tl.remark_check(d, 3, (1, 0))
    (report,) = suites.run_suites(d, ["remark"], ps=(3,), rs=(1,))
    assert report.cases and report.failed == len(report.cases)
    assert all(c.detail.startswith("InternalMismatch: ") for c in report.cases)


def test_remark_expands_each_product_once(monkeypatch):
    # the builder's check is the remark's comparison: no second expansion
    d = datum("A", 2)
    expanded = []
    real = ch.expand_in_weyl_chars
    monkeypatch.setattr(
        ch, "expand_in_weyl_chars", lambda phi: expanded.append(phi) or real(phi)
    )
    (report,) = suites.run_suites(d, ["remark"], ps=(2, 3), rs=(1,))
    assert report.passed == len(report.cases) == 4
    assert len(expanded) == len(report.cases)
    assert tl.remark_check(d, 3, (1, 0)) == (True, "")
    assert len(expanded) == len(report.cases)


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


def test_from_weyl_chars_reads_the_cache_and_never_fills_it(monkeypatch):
    # a chi-vector's summands are not kept, so long vectors do not pile up
    d = build_root_datum(RootSystemSpec("B", 2))
    cached = ch.weyl_character(d, (1, 1))
    built = []
    real = ch._weyl_terms
    monkeypatch.setattr(ch, "_weyl_terms", lambda d, lam, cap: built.append(lam) or real(d, lam, cap))
    vec = {(1, 1): 2, (2, 1): -1, (0, 3): 1}
    phi = ch.from_weyl_chars(d, vec)
    assert built == [(2, 1), (0, 3)]
    assert list(d._cache["weyl_char"]) == [(1, 1)]
    want = ch.scale(cached, 2) - ch.weyl_character(B2, (2, 1)) + ch.weyl_character(B2, (0, 3))
    assert phi == want


def provider_by_full_characters(d, p, trace, mu):
    """ch T(mu) built as a full character along the provider's trace."""
    head, *rest = trace
    if head in ("minuscule", "lowest_alcove"):
        return ch.weyl_character(d, mu)
    r = int(head[head.index("=") + 1 : -1])
    q = p**r
    shifted = tuple(x - (q - 1) for x in mu)
    if head.startswith("pr_shift"):
        return tilting_char_pr_convolution(d, p, r, shifted)
    lam = tuple(x % q for x in shifted)
    inner = tuple(x // q for x in shifted)
    return ch.char_mul(
        tilting_char_pr_convolution(d, p, r, lam),
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
    holds, _ = tl.verify_lemma1a(d, 2, 1, (1, 1))
    assert not holds
    # T(6,2) at p=3 resolves by product(r=1) over tilting_chi_pr
    holds, _ = tl.verify_prop2_corollary(d, 3, 1, (1, 0), (1, 0))
    assert not holds
    for report in suites.run_suites(d, ["lemma1a", "prop1", "prop2"], ps=(2,), rs=(1,)):
        assert report.failed > 0, report.suite


def _fault_at(monkeypatch, provider, weight, fault):
    """Make provider.resolve apply fault to the character it gives at weight."""
    real = provider.resolve

    def resolve(self, d, mu, p):
        got = real(self, d, mu, p)
        return (fault(got[0]),) + got[1:] if tuple(mu) == weight else got

    monkeypatch.setattr(provider, "resolve", resolve)


def test_prop2_corollary_parts_a_and_b_are_live(monkeypatch):
    # A1 at p=2 with lam = mu = 1: only part (a) resolves T(3) = T(p rho + p mu),
    # and only part (b) resolves L(3) = L(lam + p mu), T(1) being certified simple
    args = (A1, 2, 1, (1,), (1,))
    assert tl.verify_prop2_corollary(*args) == (True, "independent")
    with monkeypatch.context() as m:
        _fault_at(m, tl.TiltingCharProvider, (3,), lambda vec: {**vec, (0,): 1})
        assert tl.verify_prop2_corollary(*args) == (False, "independent")
    with monkeypatch.context() as m:
        _fault_at(m, SimpleCharProvider, (3,), lambda phi: phi + ch.one(A1))
        assert tl.verify_prop2_corollary(*args) == (False, "independent")


def test_lemma1b_catches_a_wrong_quotient(monkeypatch):
    # s(lam) + e(0) is W-invariant with the same unique maximal term lam:
    # only the comparison with s(lam) refutes it
    d = datum("A", 2)
    real = ch.divide_exact
    monkeypatch.setattr(
        ch, "divide_exact", lambda phi, delta: real(phi, delta) + ch.one(phi.datum)
    )
    assert tl.verify_lemma1b_character(d, 3, (1, 0)) == (False, "")
    (report,) = suites.run_suites(d, ["lemma1b"], ps=(2,), rs=(1,))
    assert report.cases and report.failed == len(report.cases)


def test_remark_check_refutes_negative_chi_coefficients(monkeypatch):
    # both routes agree on a vector that no good filtration has
    d = datum("A", 2)
    bad = {(1, 0): 1, (0, 0): -1}
    monkeypatch.setattr(ch, "brauer_klimyk", lambda *args: dict(bad))
    monkeypatch.setattr(ch, "expand_in_weyl_chars", lambda *args: dict(bad))
    assert tl.remark_check(d, 3, (1, 0)) == (
        False, f"negative chi coefficients: {bad}"
    )
