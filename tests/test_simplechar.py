import itertools
import json
import time
from math import isqrt

import pytest

from tiltchar.errors import InternalMismatch, InvalidSpec, NotDominant, Undetermined
from tiltchar import charring as ch
from tiltchar import simplechar as sc
from tiltchar.rootsys import PRIME_TEST_LIMIT, datum, is_prime, pairing

from oracles import minus_w0

A1 = datum("A", 1)
A2 = datum("A", 2)
B2 = datum("B", 2)
G2 = datum("G", 2)


def resolve(d, lam, p, strategy="auto", table=None):
    return sc.SimpleCharProvider(strategy, table).resolve(d, lam, p)[0]


# ------------------------------------------------------------ primality

def test_is_prime_agrees_with_trial_division():
    for n in range(-3, 20000):
        assert is_prime(n) == (n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))), n


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2-7 (3,215,031,751) and to 2-37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_decides_large_primes_at_once():
    start = time.perf_counter()
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**61 - 1) * (2**17 - 1))
    assert time.perf_counter() - start < 0.5


def test_is_prime_refuses_to_guess_past_its_limit():
    limit = PRIME_TEST_LIMIT
    # the least strong pseudoprime to every base is the limit itself
    with pytest.raises(InvalidSpec, match="past the exact primality test's limit"):
        is_prime(limit)
    with pytest.raises(InvalidSpec, match="past the exact primality test's limit"):
        is_prime(2**127 - 1)
    # a factor among the bases still decides
    assert not is_prime(10**400)


# ------------------------------------------------------------ jantzen sum

def test_jantzen_lowest_alcove_vanishes():
    for lam in [(0,), (1,), (3,)]:
        assert sc.jantzen_sum(A1, lam, 5) == ch.zero(A1)
    assert sc.jantzen_sum(A2, (1, 1), 2) == ch.zero(A2)  # Steinberg weight


def test_jantzen_hand_values():
    assert sc.jantzen_sum(A1, (2,), 2) == ch.weyl_character(A1, (0,))
    assert sc.jantzen_sum(A1, (3,), 3) == ch.weyl_character(A1, (1,))
    assert sc.jantzen_sum(A2, (1, 1), 3) == ch.weyl_character(A2, (0, 0))


def test_jantzen_negative_chi_coefficient():
    # the sum is chi(1,1) - chi(0,0) = ch L(1,1): a module character whose
    # chi-expansion is not non-negative
    assert sc._jantzen_chi_coeffs(A2, (0, 3), 3) == {(1, 1): 1, (0, 0): -1}
    phi = sc.jantzen_sum(A2, (0, 3), 3)
    assert phi == ch.weyl_character(A2, (1, 1)) - ch.weyl_character(A2, (0, 0))
    assert phi.dimension() == 7 and min(phi.terms.values()) > 0


def test_jantzen_negative_multiplicity_is_typed(monkeypatch):
    monkeypatch.setattr(sc, "_jantzen_chi_coeffs", lambda *args: {(0, 0): -1})
    with pytest.raises(InternalMismatch):
        sc.jantzen_sum(A2, (0, 3), 3)


def test_jsf_negative_simple_multiplicity_is_typed(monkeypatch):
    # a layer sum whose leading known simple factor has count -1
    fake = {(1,): {}, (3,): {(1,): -1}}
    monkeypatch.setattr(sc, "_jantzen_chi_coeffs", lambda d, lam, p: fake[lam])
    with pytest.raises(InternalMismatch, match="simple multiplicity -1"):
        sc.jsf_solve(datum("A", 1), 2, (3,))  # fresh datum: cold JSF cache
    # counts all 1, but chi(4) - chi(2) - chi(0) = e(4) + e(-4) - e(0): the
    # resolver route checks the built character as jsf_solve does
    fake = {(0,): {}, (2,): {}, (4,): {(2,): 1, (0,): 1}}
    monkeypatch.setattr(sc, "_jantzen_chi_coeffs", lambda d, lam, p: fake[lam])
    with pytest.raises(InternalMismatch, match="negative multiplicities"):
        sc.SimpleCharProvider("jsf").resolve(datum("A", 1), (4,), 2)


def test_jantzen_requires_dominant_and_prime():
    with pytest.raises(NotDominant):
        sc.jantzen_sum(A1, (-1,), 2)
    with pytest.raises(ValueError):
        sc.jantzen_sum(A1, (2,), 4)


# -------------------------------------------------------------- jsf solve

def test_jsf_solve_a1_p2():
    table = sc.jsf_solve(A1, 2, (4,))
    got = {k[2]: char for k, (char, _) in table.entries().items()}
    assert dict(got[(2,)].terms) == {(2,): 1, (-2,): 1}
    assert got[(0,)] == ch.one(A1)
    # lambda = 4 has a doubled layer multiplicity; conservatively skipped
    assert ("A", 1, (4,), 2) in table.undetermined


def test_jsf_low_weights_are_weyl():
    for p in (2, 3, 5):
        table = sc.jsf_solve(A1, p, (p - 1,))
        for k, (char, _) in table.entries().items():
            assert char == ch.weyl_character(A1, k[2])


def test_jsf_known_modular_dimensions():
    # standard small-characteristic simple dimensions, recomputed
    cases = [
        (G2, 2, (1, 0), 6),
        (G2, 3, (1, 0), 7),
        (G2, 3, (0, 1), 7),
        (B2, 2, (1, 0), 4),
        (B2, 2, (1, 1), 16),  # Steinberg
        (A2, 3, (1, 1), 7),
    ]
    for d, p, lam, dim in cases:
        table = sc.jsf_solve(d, p, lam)
        char, _ = table.get(d, lam, p)
        assert char.dimension() == dim


def test_a2_p2_steinberg_weight_is_simple_weyl():
    # J((1,1)) vanishes at p=2, so ch L((1,1)) = chi((1,1)), dimension 8
    char = resolve(A2, (1, 1), 2, "jsf")
    assert char == ch.weyl_character(A2, (1, 1))
    assert char.dimension() == 8


# -------------------------------------------------------------- strategies

def test_strategy_examples():
    assert resolve(A2, (1, 0), 5, "minuscule") == ch.orbit_sum(A2, (1, 0))
    assert resolve(A1, (3,), 5, "lowest_alcove") == ch.weyl_character(A1, (3,))
    stein = resolve(A1, (3,), 2, "steinberg")
    assert dict(stein.terms) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    assert resolve(A1, (2,), 2, "jsf") == ch.FormalCharacter(A1, {(2,): 1, (-2,): 1})


def test_strategy_not_applicable():
    with pytest.raises(Undetermined):
        resolve(A1, (2,), 2, "minuscule")
    with pytest.raises(Undetermined):
        resolve(A1, (3,), 2, "lowest_alcove")
    with pytest.raises(Undetermined):
        resolve(A1, (1,), 2, "steinberg")  # already restricted
    with pytest.raises(Undetermined):
        resolve(A1, (1,), 2, "table")  # no table given


def test_auto_failure_names_strategies():
    # G2 p=3 (1,1): restricted, not minuscule, outside the lowest alcove,
    # and the layer sum carries a doubled multiplicity, so the whole chain
    # fails and the error reports every attempted strategy
    try:
        resolve(G2, (1, 1), 3)
    except Undetermined as e:
        msg = str(e)
        for name in ("minuscule", "lowest_alcove", "steinberg", "jsf", "table"):
            assert name in msg
    else:
        pytest.fail("expected Undetermined")


def test_strategy_agreement_a1():
    for p in (2, 3, 5):
        for m in range(11):
            chars = {}
            for strat in sc.STRATEGIES:
                try:
                    chars[strat] = resolve(A1, (m,), p, strat)
                except Undetermined:
                    pass
            assert chars, (p, m)
            vals = list(chars.values())
            assert all(v == vals[0] for v in vals), (p, m, list(chars))


def test_strategy_agreement_a2():
    for p in (2, 3):
        for lam in itertools.product(range(5), repeat=2):
            if sum(lam) > 4:
                continue
            chars = {}
            for strat in sc.STRATEGIES:
                try:
                    chars[strat] = resolve(A2, lam, p, strat)
                except Undetermined:
                    pass
            vals = list(chars.values())
            assert all(v == vals[0] for v in vals), (p, lam, list(chars))


def test_result_invariants_rank2():
    for d in (A1, A2, B2, G2):
        for p in (2, 3):
            for lam in itertools.product(range(p), repeat=d.rank):
                try:
                    char = resolve(d, lam, p)
                except Undetermined:
                    continue
                assert char.is_w_invariant()
                assert char.multiplicity(lam) == 1
                chi_dim = ch.weyl_character(d, lam).dimension()
                assert char.dimension() <= chi_dim
                lam_rho = tuple(x + 1 for x in lam)
                in_alcove = all(
                    pairing(d, lam_rho, i) <= p
                    for i in range(len(d.positive_roots))
                )
                if in_alcove:
                    assert char.dimension() == chi_dim


def test_dual_symmetry():
    for d, p, lam in [
        (A2, 2, (1, 0)),
        (A2, 3, (2, 1)),
        (B2, 2, (1, 1)),
        (G2, 2, (1, 0)),
    ]:
        try:
            char = resolve(d, lam, p)
        except Undetermined:
            continue
        dual = resolve(d, minus_w0(d, lam), p)
        negated = ch.FormalCharacter(
            d, {tuple(-x for x in mu): m for mu, m in char.terms.items()}
        )
        assert dual == negated


# ------------------------------------------------------------------ table

def make_table():
    table = sc.SimpleCharTable()
    table.add(A1, (2,), 2, ch.FormalCharacter(A1, {(2,): 1, (-2,): 1}), "test")
    return table


def test_table_round_trip():
    table = make_table()
    blob = json.dumps(table.to_json_list())
    back = sc.SimpleCharTable.from_json_list(json.loads(blob))
    assert back.get(A1, (2,), 2)[0] == table.get(A1, (2,), 2)[0]
    assert json.dumps(back.to_json_list()) == blob


def test_table_compare_and_override():
    table = make_table()
    # matching table entry: computed result returned, no error
    assert resolve(A1, (2,), 2, table=table) == table.get(A1, (2,), 2)[0]
    wrong = sc.SimpleCharTable()
    wrong.add(A1, (2,), 2, ch.weyl_character(A1, (2,)), "bogus")
    with pytest.raises(InternalMismatch):
        resolve(A1, (2,), 2, table=wrong)
    forced = sc.SimpleCharProvider(table=wrong, override=True).resolve(A1, (2,), 2)[0]
    assert forced == ch.weyl_character(A1, (2,))


def test_table_fills_gaps():
    # A1 p=2 lambda=4 is undetermined for the computed chain; a table entry
    # resolves it (ch L(4) = ch L(1)^[2] is the true value)
    table = sc.SimpleCharTable()
    truth = ch.FormalCharacter(A1, {(4,): 1, (-4,): 1})
    table.add(A1, (4,), 2, truth, "external")
    with pytest.raises(Undetermined):
        resolve(A1, (4,), 2, "jsf")
    assert resolve(A1, (4,), 2, table=table) == truth


def test_table_validates_entries():
    table = sc.SimpleCharTable()
    with pytest.raises(ValueError):
        table.add(A1, (2,), 2, ch.e(A1, (2,)), "broken")  # not W-invariant
    with pytest.raises(ValueError):
        table.add(A1, (2,), 2, ch.scale(ch.orbit_sum(A1, (2,)), 2), "broken")


def test_request_validation():
    with pytest.raises(ValueError, match=r"^unknown strategy 'bogus'$"):
        sc.SimpleCharProvider("bogus")
    with pytest.raises(ValueError):
        resolve(A1, (1,), 6)
    with pytest.raises(NotDominant):
        resolve(A1, (-1,), 2)
