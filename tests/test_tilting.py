import itertools

import pytest

from tiltchar.errors import (
    HypothesisViolated,
    NegativeCoefficient,
    ProviderUndetermined,
    Undetermined,
)
from tiltchar import charring as ch
from tiltchar import minuscule as mn
from tiltchar import tilting as tl
from tiltchar.rootsys import datum
from tiltchar.simplechar import SimpleCharProvider

A1 = datum("A", 1)
A2 = datum("A", 2)
A3 = datum("A", 3)
B2 = datum("B", 2)
C2 = datum("C", 2)
G2 = datum("G", 2)


# -------------------------------------------------------------- steinberg

def test_steinberg_examples():
    assert dict(tl.steinberg_character(A1, 2, 1).terms) == {(1,): 1, (-1,): 1}
    assert tl.steinberg_character(A2, 2, 1).dimension() == 8
    assert tl.steinberg_character(A1, 2, 2) == ch.weyl_character(A1, (3,))
    assert tl.steinberg_character(A1, 2, 2).dimension() == 4
    with pytest.raises(HypothesisViolated):
        tl.steinberg_character(A1, 2, 0)


@pytest.mark.parametrize("d", [A1, A2, B2, G2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_steinberg_dimension_rank2(d, p, r):
    npos = len(d.positive_roots)
    assert tl.steinberg_character(d, p, r).dimension() == p ** (r * npos)


# ---------------------------------------------------------- tilting chars

def test_tilting_char_p_examples():
    assert tl.tilting_char_p(A1, 2, (0,)) == tl.steinberg_character(A1, 2, 1)
    t2 = tl.tilting_char_p(A1, 2, (1,))
    assert dict(t2.terms) == {(2,): 1, (0,): 2, (-2,): 1}
    t = tl.tilting_char_p(A2, 2, (1, 1))
    assert t.dimension() == 48


def test_tilting_char_p_hypotheses():
    with pytest.raises(HypothesisViolated):
        tl.tilting_char_p(A1, 2, (2,))  # p-minuscule but not restricted
    with pytest.raises(HypothesisViolated):
        tl.tilting_char_p(G2, 2, (0, 1))  # restricted but not p-minuscule
    with pytest.raises(HypothesisViolated):
        tl.tilting_char_p(A1, 2, (-1,))


def test_tilting_char_p_is_the_cached_builder_at_r_1():
    d = datum("B", 2)
    lams = mn.enumerate_class(d, 3, 1, "pr_minuscule")
    for lam in lams:
        assert tl.tilting_char_p(d, 3, lam) is tl.tilting_char_pr(d, 3, 1, lam)
    assert set(d._cache["tilt_pr"]) == {(3, 1, lam) for lam in lams}
    assert "st_orbit" not in d._cache


def test_tilting_char_pr_examples():
    assert tl.tilting_char_pr(A1, 2, 1, (1,)) == tl.tilting_char_p(A1, 2, (1,))
    tpr = tl.tilting_char_pr(A1, 2, 2, (3,))
    assert tpr.dimension() == 16
    assert tpr == ch.char_mul(
        tl.steinberg_character(A1, 2, 2), ch.s_r_character(A1, 2, 2, (3,))
    )
    assert tl.tilting_char_pr(A2, 3, 2, (0, 0)) == tl.steinberg_character(A2, 3, 2)
    with pytest.raises(HypothesisViolated):
        tl.tilting_char_pr(A1, 2, 2, (4,))


@pytest.mark.parametrize("d", [A1, A2, B2, G2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_tilting_char_pr_cross_form_sweep(d, p, r):
    # the internal cross-check raises InternalMismatch on disagreement,
    # so a clean sweep certifies product-of-twists == chi * s_r
    for lam in itertools.product(range(p**r), repeat=d.rank):
        if mn.is_pr_minuscule(d, lam, p, r):
            char = tl.tilting_char_pr(d, p, r, lam)
            assert char.multiplicity(
                tuple((p**r - 1) + x for x in lam)
            ) == 1


# ------------------------------------------------------------- theorem 1

def test_decompose_st_golden_instance():
    dec = tl.decompose_st_tensor(A1, 2, (2,), ch.weyl_character(A1, (2,)))
    assert dec.shift == (1,)
    assert dec.summands == (((0,), 1), ((2,), 1))
    assert dec.highest_weights() == [((1,), 1), ((3,), 1)]
    assert dec.verified and dec.mode == "independent"


def test_decompose_st_trivial_and_minuscule():
    assert tl.decompose_st_tensor(A1, 2, (0,), ch.one(A1)).summands == (((0,), 1),)
    for d, p, lam in [(A2, 3, (1, 0)), (B2, 2, (0, 1)), (A3, 5, (0, 1, 0))]:
        dec = tl.decompose_st_tensor(d, p, lam, ch.orbit_sum(d, lam))
        assert dec.summands == ((lam, 1),)


def test_decompose_st_hypotheses():
    with pytest.raises(HypothesisViolated):
        tl.decompose_st_tensor(A1, 2, (3,), ch.weyl_character(A1, (3,)))
    with pytest.raises(HypothesisViolated):
        tl.decompose_st_tensor(A1, 2, (2,), ch.weyl_character(A1, (4,)))
    with pytest.raises(HypothesisViolated):
        tl.decompose_st_tensor(A1, 2, (2,), ch.one(A2))


def test_decompose_st_negative_coefficient():
    bad = ch.char_add(
        ch.orbit_sum(A1, (2,)), ch.scale(ch.orbit_sum(A1, (0,)), -1)
    )
    with pytest.raises(NegativeCoefficient):
        tl.decompose_st_tensor(A1, 2, (2,), bad)


def test_decompose_st_delta_equals_nabla():
    # same character in, same decomposition out
    for d, p, lam in [(A1, 2, (2,)), (A2, 2, (1, 1)), (B2, 3, (1, 1))]:
        chi = ch.weyl_character(d, lam)
        dec_nabla = tl.decompose_st_tensor(d, p, lam, chi)
        dec_delta = tl.decompose_st_tensor(d, p, lam, chi)
        assert dec_nabla == dec_delta


@pytest.mark.parametrize("d", [A1, A2, B2, C2, G2])
@pytest.mark.parametrize("p", [2, 3])
def test_theorem1_sweep_nabla(d, p):
    for lam in mn.enumerate_class(d, p, 1, "pr_minuscule"):
        dec = tl.decompose_st_tensor(d, p, lam, ch.weyl_character(d, lam))
        assert all(m > 0 for _, m in dec.summands)
        assert dec.verified


# ------------------------------------------------------------- theorem 2

def test_decompose_str_golden_instance():
    dec = tl.decompose_str_tensor(A1, 2, 2, (3,))
    assert dec.shift == (3,)
    assert dec.summands == (((3,), 1),)
    assert dec.highest_weights() == [((6,), 1)]


def test_decompose_str_small_cases():
    assert tl.decompose_str_tensor(A1, 2, 1, (0,)).summands == (((0,), 1),)
    dec = tl.decompose_str_tensor(A2, 2, 1, (1, 0))
    assert dec.summands == (((1, 0), 1),)
    # L((1,1)) at p=2 is the Steinberg module, whose zero weight has
    # multiplicity 2: St (x) St = T(2rho) + 2 T(rho), dims 48 + 16 = 64
    dec2 = tl.decompose_str_tensor(A2, 2, 1, (1, 1))
    assert dec2.summands == (((0, 0), 2), ((1, 1), 1))


def test_decompose_str_nontrivial_carriers():
    # G2, p=2, lam=(1,0): ch L = chi - 1projection has two orbit carriers
    dec = tl.decompose_str_tensor(G2, 2, 1, (1, 0))
    assert all(m > 0 for _, m in dec.summands)
    total = ch.zero(G2)
    for nu, m in dec.summands:
        total = ch.char_add(total, ch.scale(ch.s_r_character(G2, 2, 1, nu), m))
    prov = SimpleCharProvider()
    assert total == prov.resolve(G2, (1, 0), 2)[0]


def test_decompose_str_hypotheses_and_undetermined():
    with pytest.raises(HypothesisViolated):
        tl.decompose_str_tensor(A1, 2, 2, (4,))
    with pytest.raises(HypothesisViolated):
        tl.decompose_str_tensor(G2, 3, 1, (1, 1))  # not p-minuscule
    # a provider restricted to one strategy leaves valid cases unresolved
    narrow = SimpleCharProvider(strategy="minuscule")
    with pytest.raises(Undetermined):
        tl.decompose_str_tensor(G2, 2, 1, (1, 0), narrow)


# -------------------------------------------------------------- verifiers

def test_verify_remark_examples():
    assert tl.verify_remark(A1, 2, (0,))
    assert tl.verify_remark(A2, 3, (1, 0))
    assert tl.verify_remark(A3, 2, (0, 1, 0))
    with pytest.raises(HypothesisViolated):
        tl.verify_remark(A1, 2, (2,))


def test_verify_lemma1a():
    holds, _ = tl.verify_lemma1a(A1, 3, 2, (0,))
    assert holds
    assert tl.verify_lemma1a(A1, 2, 1, (1,)) == (True, "independent")
    assert tl.verify_lemma1a(A2, 2, 1, (1, 1)) == (True, "independent")
    # T((5,2)) at p=3 only resolves by peeling off the twisted factor,
    # which is the identity under test: flagged, never reported as evidence
    assert tl.verify_lemma1a(A2, 3, 1, (1, 0)) == (True, "definitional")


def test_verify_lemma1a_unresolvable():
    with pytest.raises(ProviderUndetermined):
        tl.verify_lemma1a(B2, 2, 1, (2, 0))
    with pytest.raises(ProviderUndetermined):
        tl.verify_lemma1a(G2, 2, 1, (0, 2))


def test_verify_prop2_corollary_cases():
    # holds needs main, (a) and the certified (b); mode is main's
    assert tl.verify_prop2_corollary(A1, 2, 1, (1,), (1,)) == (True, "independent")
    assert tl.verify_prop2_corollary(A2, 3, 1, (1, 0), (1, 0)) == (True, "definitional")
    # mu = 0 reduces to the shifted form
    holds, _ = tl.verify_prop2_corollary(A1, 2, 2, (3,), (0,))
    assert holds
    with pytest.raises(HypothesisViolated):
        tl.verify_prop2_corollary(A1, 2, 1, (2,), (0,))  # not r-minuscule


def test_verify_lemma1b():
    for d, p, lam in [
        (A1, 2, (0,)),
        (A1, 2, (1,)),
        (A2, 2, (1, 0)),
        (A2, 5, (0, 1)),
        (B2, 3, (0, 1)),
    ]:
        assert tl.verify_lemma1b_character(d, p, lam) == (True, ""), (d, p, lam)
    with pytest.raises(HypothesisViolated):
        tl.verify_lemma1b_character(A1, 2, (2,))


def test_good_filtration_examples():
    chi = ch.weyl_character(A2, (1, 1))
    ok, cert = tl.good_filtration_consistent(chi)
    assert ok and cert == {(1, 1): 1}
    prod = ch.char_mul(ch.weyl_character(A1, (1,)), ch.weyl_character(A1, (2,)))
    ok, cert = tl.good_filtration_consistent(prod)
    assert ok and cert == {(3,): 1, (1,): 1}
    ok, cert = tl.good_filtration_consistent(ch.orbit_sum(A1, (2,)))
    assert not ok and cert == {(2,): 1, (0,): -1}


def test_decomposition_json():
    dec = tl.decompose_st_tensor(A1, 2, (2,), ch.weyl_character(A1, (2,)))
    assert dec.to_json_dict() == {
        "shift": [1],
        "summands": [{"nu": [0], "mult": 1}, {"nu": [2], "mult": 1}],
        "verified": True,
        "mode": "independent",
    }
