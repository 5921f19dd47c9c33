import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tiltchar.errors import NotDominant, NotPMinuscule, NotRestricted, TiltcharError
from tiltchar import charring as ch
from tiltchar import minuscule as mn
from tiltchar.rootsys import datum, dominance_leq, weyl_orbit

from oracles import (
    in_lowest_alcove_scan,
    is_minuscule_scan,
    is_p_minuscule_scan,
    is_pr_minuscule_scan,
    is_r_minuscule_scan,
    is_restricted_scan,
    p_digits_divmod,
)

A1 = datum("A", 1)
A2 = datum("A", 2)
A3 = datum("A", 3)
B2 = datum("B", 2)
B3 = datum("B", 3)
C2 = datum("C", 2)
C3 = datum("C", 3)
D4 = datum("D", 4)
G2 = datum("G", 2)

RANK2 = [A1, A2, B2, C2, G2]


def test_is_restricted_boundary():
    for p, r in [(2, 1), (2, 2), (3, 1), (5, 2)]:
        assert mn.is_restricted(A1, (0,), p, r)
        assert mn.is_restricted(A1, (p**r - 1,), p, r)
        assert not mn.is_restricted(A1, (p**r,), p, r)
    assert mn.is_restricted(A2, (1, 1), 2, 1)
    with pytest.raises(NotDominant):
        mn.is_restricted(A2, (-1, 0), 2, 1)


def test_p_digits_examples():
    assert mn.p_digits(A2, (0, 0), 3, 2) == [(0, 0), (0, 0)]
    assert mn.p_digits(A1, (3,), 2, 2) == [(1,), (1,)]
    assert mn.p_digits(A2, (4, 2), 3, 2) == [(1, 2), (1, 0)]
    with pytest.raises(NotRestricted):
        mn.p_digits(A1, (4,), 2, 2)


@pytest.mark.parametrize("d", [A1, A2, B2])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [1, 2])
def test_p_digits_reassembly_exhaustive(d, p, r):
    for lam in itertools.product(range(p**r), repeat=d.rank):
        digits = mn.p_digits(d, lam, p, r)
        assert len(digits) == r
        back = tuple(
            sum(p**j * dig[i] for j, dig in enumerate(digits))
            for i in range(d.rank)
        )
        assert back == lam
        assert all(max(dig) < p for dig in digits)


def test_minuscule_examples():
    assert mn.is_minuscule(A2, (0, 0))
    for d in (A1, A2, A3):
        n = d.rank
        for i in range(n):
            fund = tuple(int(k == i) for k in range(n))
            assert mn.is_minuscule(d, fund)
    assert not mn.is_minuscule(G2, (1, 0))
    assert not mn.is_minuscule(G2, (0, 1))
    assert not mn.is_minuscule(B2, (1, 0))
    assert mn.is_minuscule(B2, (0, 1))


@pytest.mark.parametrize("d", [A1, A2, B2, C2, G2, A3, B3])
def test_minuscule_orbit_criterion_agreement(d):
    # pairing criterion vs single-orbit criterion, coordinate sum <= 3
    for lam in itertools.product(range(4), repeat=d.rank):
        if sum(lam) > 3:
            continue
        by_orbit = set(ch.weyl_character(d, lam).terms) == set(weyl_orbit(d, lam))
        assert mn.is_minuscule(d, lam) == by_orbit, lam


def test_p_minuscule_examples():
    assert mn.is_p_minuscule(A1, (2,), 2)
    assert not mn.is_p_minuscule(A1, (3,), 2)
    assert mn.is_p_minuscule(A2, (1, 1), 2)
    # any minuscule weight is p-minuscule for every p >= 1
    for d in (A2, B2, D4):
        for lam in mn.enumerate_class(d, 2, 1, "minuscule"):
            for p in (2, 3, 5):
                assert mn.is_p_minuscule(d, lam, p)


# every series: A1-A8, B2-B8, C2-C8, D4-D8, E6-E8, F4, G2
ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(s, n) for s in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
PRIMES = (2, 3, 5, 7, 11, 13)


@functools.lru_cache(maxsize=None)
def cached_datum(series, rank):
    return datum(series, rank)


def one_pairing_outcomes(d, lam, p):
    """(library, per-root scan) for each class the highest short coroot decides."""
    return [
        (mn.is_minuscule(d, lam), is_minuscule_scan(d, lam)),
        (mn.is_p_minuscule(d, lam, p), is_p_minuscule_scan(d, lam, p)),
        (mn.in_lowest_alcove(d, lam, p), in_lowest_alcove_scan(d, lam, p)),
    ]


@st.composite
def dominant_cases(draw):
    series, rank = draw(st.sampled_from(ALL_TYPES))
    coord = st.one_of(st.integers(0, 1), st.integers(0, 12))
    lam = tuple(draw(coord) for _ in range(rank))
    return cached_datum(series, rank), lam, draw(st.sampled_from(PRIMES))


@settings(max_examples=400, deadline=None)
@given(dominant_cases())
def test_one_pairing_classes_match_the_root_scans(case):
    d, lam, p = case
    for new, old in one_pairing_outcomes(d, lam, p):
        assert new == old, (d, lam, p)


@pytest.mark.parametrize("series, rank, top", [
    ("A", 1, 16), ("A", 2, 9), ("A", 3, 6), ("B", 2, 9), ("C", 3, 6),
    ("D", 4, 4), ("F", 4, 4), ("G", 2, 9),
])
def test_one_pairing_classes_match_the_root_scans_on_a_box(series, rank, top):
    d = cached_datum(series, rank)
    seen = [set(), set(), set()]
    for lam in itertools.product(range(top), repeat=rank):
        for p in PRIMES:
            for k, (new, old) in enumerate(one_pairing_outcomes(d, lam, p)):
                assert new == old, (lam, p)
                seen[k].add(new)
    # the box holds weights on both sides of every test
    assert seen == [{True, False}] * 3


def test_classes_read_no_root_but_the_highest_short_coroot():
    d = datum("E", 8)
    d.positive_roots = None  # this datum's copy only: a per-root loop raises
    zero, rho = (0,) * 8, (1,) * 8
    assert mn.is_minuscule(d, zero) and not mn.is_minuscule(d, rho)
    assert mn.in_lowest_alcove(d, zero, 29) and not mn.in_lowest_alcove(d, zero, 23)
    assert mn.is_p_minuscule(d, rho, 29) and not mn.is_p_minuscule(d, rho, 23)
    assert mn.is_r_minuscule(d, zero, 2, 1) and not mn.is_pr_minuscule(d, rho, 2, 1)
    assert mn.classify(d, zero, 2, 1).minuscule


def test_r_vs_pr_minuscule():
    assert mn.is_r_minuscule(A1, (3,), 2, 2)  # digits [1, 1]
    assert mn.is_r_minuscule(A1, (2,), 2, 2)  # digits [0, 1]
    assert mn.is_pr_minuscule(A2, (1, 1), 2, 1)
    assert not mn.is_r_minuscule(A2, (1, 1), 2, 1)
    assert not mn.is_pr_minuscule(A1, (4,), 2, 2)  # not restricted


@pytest.mark.parametrize("d", RANK2)
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [1, 2])
def test_implication_chain_exhaustive(d, p, r):
    for lam in itertools.product(range(p**r), repeat=d.rank):
        prof = mn.classify(d, lam, p, r)
        if prof.minuscule:
            assert prof.p_minuscule
        if prof.r_minuscule:
            assert prof.pr_minuscule


def test_enumerate_class_examples():
    assert mn.enumerate_class(A2, 2, 1, "minuscule") == [(0, 0), (0, 1), (1, 0)]
    assert mn.enumerate_class(G2, 2, 1, "minuscule") == [(0, 0)]
    assert mn.enumerate_class(A1, 3, 1, "pr_minuscule") == [(0,), (1,), (2,)]
    with pytest.raises(ValueError):
        mn.enumerate_class(A1, 2, 1, "bogus")


def test_enumerate_class_b_c_d_minuscule():
    assert mn.enumerate_class(B2, 2, 1, "minuscule") == [(0, 0), (0, 1)]
    assert mn.enumerate_class(B3, 2, 1, "minuscule") == [(0, 0, 0), (0, 0, 1)]
    assert mn.enumerate_class(C2, 2, 1, "minuscule") == [(0, 0), (1, 0)]
    assert mn.enumerate_class(C3, 2, 1, "minuscule") == [(0, 0, 0), (1, 0, 0)]
    assert mn.enumerate_class(D4, 2, 1, "minuscule") == [
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (1, 0, 0, 0),
    ]


def test_lemma2_examples():
    assert mn.lemma2_check(A1, (0,), 2) == (True, None)
    assert mn.lemma2_check(A1, (2,), 2) == (True, None)
    assert mn.lemma2_check(A2, (1, 1), 2) == (True, None)
    with pytest.raises(NotPMinuscule):
        mn.lemma2_check(A1, (3,), 2)


@pytest.mark.parametrize("d", RANK2)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_lemma2_exhaustive_rank2(d, p):
    for lam in mn.enumerate_class(d, p, 1, "pr_minuscule"):
        assert mn.lemma2_check(d, lam, p) == (True, None)


@pytest.mark.parametrize("d", RANK2)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_dominant_weights_inherit_p_minuscule(d, p):
    # every dominant mu <= lam is p-minuscule when lam is, via chi support
    for lam in mn.enumerate_class(d, p, 1, "pr_minuscule"):
        for mu in ch.weyl_character(d, lam).dominant_terms():
            assert dominance_leq(d, mu, lam)
            assert mn.is_p_minuscule(d, mu, p)


def test_classify_profile_json():
    prof = mn.classify(A1, (3,), 2, 2)
    obj = prof.to_json_dict()
    assert obj == {
        "weight": [3],
        "p": 2,
        "r": 2,
        "digits": [[1], [1]],
        "flags": {
            "restricted": True,
            "minuscule": False,
            "p_minuscule": False,
            "r_minuscule": True,
            "pr_minuscule": True,
        },
    }
    prof2 = mn.classify(A1, (4,), 2, 2)
    assert not prof2.restricted and prof2.digits == ()


# every series up to rank 4
UP_TO_RANK_4 = [
    datum(series, rank)
    for series, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                         ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]
]
DIGIT_SPLIT_PAIRS = [
    (mn.is_restricted, is_restricted_scan),
    (mn.p_digits, p_digits_divmod),
    (mn.is_pr_minuscule, is_pr_minuscule_scan),
    (mn.is_r_minuscule, is_r_minuscule_scan),
]


def _outcome(fn, *args):
    """fn(*args), or the class of the library error it raised."""
    try:
        return fn(*args)
    except TiltcharError as exc:
        return type(exc)


@st.composite
def digit_cases(draw):
    """(datum, weight, p, r); coordinates run past p^r and below 0."""
    d = draw(st.sampled_from(UP_TO_RANK_4))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    r = draw(st.integers(1, 3))  # r < 1 is rejected (test_digit_split_rejects_r_below_1)
    top = p**r
    coord = st.one_of(st.integers(0, top - 1), st.integers(-2, 2 * top))
    return d, tuple(draw(coord) for _ in range(d.rank)), p, r


@settings(max_examples=400, deadline=None)
@given(digit_cases())
def test_digit_split_matches_the_scans(case):
    d, lam, p, r = case
    for new, old in DIGIT_SPLIT_PAIRS:
        assert _outcome(new, d, lam, p, r) == _outcome(old, d, lam, p, r), new.__name__
    prof = _outcome(mn.classify, d, lam, p, r)
    if min(lam) < 0:
        assert prof is NotDominant
        return
    restricted = is_restricted_scan(d, lam, p, r)
    assert prof == mn.MinusculeProfile(
        weight=lam,
        p=p,
        r=r,
        digits=tuple(p_digits_divmod(d, lam, p, r)) if restricted else (),
        restricted=restricted,
        minuscule=mn.is_minuscule(d, lam),
        p_minuscule=mn.is_p_minuscule(d, lam, p),
        r_minuscule=is_r_minuscule_scan(d, lam, p, r),
        pr_minuscule=is_pr_minuscule_scan(d, lam, p, r),
    )


@pytest.mark.parametrize(
    "fn", [new for new, _ in DIGIT_SPLIT_PAIRS] + [mn.classify], ids=lambda fn: fn.__name__
)
def test_digit_split_error_precedence(fn):
    # neither dominant nor restricted: dominance is checked first
    with pytest.raises(NotDominant):
        fn(A2, (-1, 9), 2, 1)
    for p in (1, 0, -2):
        with pytest.raises(ValueError, match="p must be at least 2"):
            fn(A2, (1, 0), p, 1)


@pytest.mark.parametrize(
    "fn", [new for new, _ in DIGIT_SPLIT_PAIRS] + [mn.classify], ids=lambda fn: fn.__name__
)
@pytest.mark.parametrize("r", [0, -1])
def test_digit_split_rejects_r_below_1(fn, r):
    # (0, 0) is restricted for every r >= 1, so only the r check can fire
    with pytest.raises(ValueError, match=f"r must be at least 1, got {r}$"):
        fn(A2, (0, 0), 2, r)


@pytest.mark.parametrize("r", [0, -1])
def test_enumerate_class_rejects_r_below_1(r):
    with pytest.raises(ValueError, match=f"r must be at least 1, got {r}$"):
        mn.enumerate_class(A2, 2, r, "pr_minuscule")
