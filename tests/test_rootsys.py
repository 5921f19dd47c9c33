import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tiltchar.errors import InternalMismatch, InvalidSpec, NotDominant, OrbitTooLarge, ResourceCap
from tiltchar import rootsys
from tiltchar.rootsys import (
    RootSystemSpec,
    build_root_datum,
    cartan_matrix,
    datum,
    dominance_leq,
    dominant_below,
    pairing,
    to_dominant,
    weyl_orbit,
)

from oracles import (
    apply_matrix,
    dominant_below_boxscan,
    invert_integer_matrix_fraction,
    minus_w0,
    orbit_with_dets_dfs,
    symmetrizer_fraction,
    weyl_group_matrices,
    weyl_group_order,
    weyl_orbit_dfs,
)

ALL_SMALL = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
    ("C", 2), ("C", 3), ("D", 4), ("G", 2), ("F", 4),
]

# classical positive-root counts, recomputed from the standard formulas
def classical_positive_count(series, rank):
    if series == "A":
        return rank * (rank + 1) // 2
    if series in ("B", "C"):
        return rank * rank
    if series == "D":
        return rank * (rank - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
            ("F", 4): 24, ("G", 2): 6}[(series, rank)]


@pytest.mark.parametrize("series,rank", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_positive_root_count(series, rank):
    d = datum(series, rank)
    assert len(d.positive_roots) == classical_positive_count(series, rank)


@pytest.mark.parametrize("series,rank,h", [
    ("A", 1, 2), ("A", 2, 3), ("A", 3, 4), ("B", 2, 4), ("B", 3, 6),
    ("C", 3, 6), ("D", 4, 6), ("G", 2, 6), ("F", 4, 12), ("E", 6, 12),
])
def test_coxeter_number(series, rank, h):
    assert datum(series, rank).coxeter_number == h


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_rho_pairings(series, rank):
    d = datum(series, rank)
    n_simple = 0
    for i, r in enumerate(d.positive_roots):
        val = pairing(d, d.rho, i)
        assert val >= 1
        if val == 1:
            assert r.height == 1
            n_simple += 1
        if r.height == 1:
            assert val == 1
    assert n_simple == rank


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_coxeter_via_highest_short_coroot(series, rank):
    # type-uniform identity: <rho, beta0^v> + 1 = h for the highest short root
    d = datum(series, rank)
    assert pairing(d, d.rho, d.highest_short_root) + 1 == d.coxeter_number


def test_highest_short_root_g2():
    d = datum("G", 2)
    assert d.highest_short_root != d.highest_root
    # highest root is long, highest short root is short
    assert d.positive_roots[d.highest_root].length == 3
    assert d.positive_roots[d.highest_short_root].length == 1


@pytest.mark.parametrize("series,rank", [("A", 2), ("A", 3), ("D", 4), ("E", 6)])
def test_simply_laced_short_is_highest(series, rank):
    d = datum(series, rank)
    assert d.highest_short_root == d.highest_root


def test_invalid_specs():
    for series, rank in [("D", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3),
                         ("G", 3), ("B", 1), ("A", 0), ("X", 2)]:
        with pytest.raises(InvalidSpec):
            build_root_datum(RootSystemSpec(series, rank))
    with pytest.raises(InvalidSpec, match=r"^D3 is rejected; use A3 \(same Dynkin diagram\)$"):
        RootSystemSpec(series="D", rank=3)


def test_rank_past_max_rank_is_invalid():
    # building a datum is polynomial in the rank, and each generated kernel's
    # source grows as its square, so the rank is bounded up front
    assert RootSystemSpec("D", rootsys.MAX_RANK).rank == rootsys.MAX_RANK
    message = f"^rank {rootsys.MAX_RANK + 1} exceeds the largest supported rank {rootsys.MAX_RANK}$"
    for series in "ABCD":
        with pytest.raises(InvalidSpec, match=message):
            RootSystemSpec(series, rootsys.MAX_RANK + 1)
    with pytest.raises(InvalidSpec, match="^rank 9 is not valid for series E$"):
        RootSystemSpec("E", 9)


# every valid type up to rank 8
UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)]
    + [(s, n) for s in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", UP_TO_RANK_8)
def test_integer_cartan_data_match_fraction_oracles(series, rank):
    C = cartan_matrix(RootSystemSpec(series, rank))
    assert rootsys._symmetrizer(C, rank) == symmetrizer_fraction(C, rank)
    assert rootsys._invert_integer_matrix(C, rank) == invert_integer_matrix_fraction(C, rank)


def test_cartan_times_adjugate_is_checked(monkeypatch):
    # a wrong adjugate entry breaks C . adj == det . I, and the build says so
    invert = rootsys._invert_integer_matrix

    def faulty(C, n):
        det, adj = invert(C, n)
        return det, ((adj[0][0] + 1,) + adj[0][1:],) + adj[1:]

    monkeypatch.setattr(rootsys, "_invert_integer_matrix", faulty)
    with pytest.raises(InternalMismatch, match="Cartan matrix times adjugate"):
        build_root_datum(RootSystemSpec("B", 3))


def test_a1_basics():
    d = datum("A", 1)
    assert len(d.positive_roots) == 1
    assert d.coxeter_number == 2
    assert d.rho == (1,)


def test_a2_closure():
    d = datum("A", 2)
    roots = {r.root for r in d.positive_roots}
    assert roots == {(1, 0), (0, 1), (1, 1)}


def test_pairing_examples():
    d = datum("A", 2)
    # simple pairings of rho are 1, zero weight pairs to 0
    for i in range(len(d.positive_roots)):
        assert pairing(d, (0, 0), i) == 0
    # highest (short) root of A2 has coroot alpha1^v + alpha2^v
    assert pairing(d, (1, 0), d.highest_short_root) == 1


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_positive_roots_nonneg_and_unique(series, rank):
    d = datum(series, rank)
    seen = set()
    for r in d.positive_roots:
        assert min(r.root) >= 0
        assert r.root not in seen
        seen.add(r.root)


def test_weyl_orbit_small():
    d1 = datum("A", 1)
    assert weyl_orbit(d1, (0,)) == [(0,)]
    assert weyl_orbit(d1, (3,)) == [(-3,), (3,)]
    d2 = datum("A", 2)
    assert len(weyl_orbit(d2, (1, 0))) == 3
    assert len(weyl_orbit(d2, (1, 1))) == 6


def capped(series, rank, **caps):
    return build_root_datum(RootSystemSpec(series, rank), **caps)


def test_weyl_orbit_cap():
    d = capped("B", 3, orbit_cap=10)
    with pytest.raises(OrbitTooLarge):
        weyl_orbit(d, (1, 1, 1))


def test_caps_are_not_part_of_equality():
    d = capped("B", 3, orbit_cap=10, cone_cap=5)
    assert (d.orbit_cap, d.cone_cap) == (10, 5)
    default = datum("B", 3)
    assert (default.orbit_cap, default.cone_cap) == (
        rootsys.DEFAULT_ORBIT_CAP, rootsys.DEFAULT_CONE_CAP
    )
    assert d == default and hash(d) == hash(default)


def test_to_dominant_plain_and_dot():
    d = datum("A", 1)
    assert to_dominant(d, (5,)) == ((5,), 1)
    assert to_dominant(d, (-5,)) == ((5,), 1)
    # dot action examples
    assert to_dominant(d, (-1,), dot=True)[1] == 0
    assert to_dominant(d, (-3,), dot=True) == ((1,), -1)
    d2 = datum("A", 2)
    lam, sign = to_dominant(d2, (-2, 1), dot=True)
    # s1.(-2,1) = s1((-1,2)) - rho = (1,1) - rho = (0,0)
    assert (lam, sign) == ((0, 0), -1)


@pytest.mark.parametrize("series,rank,top", [
    ("A", 1, 6), ("A", 2, 5), ("A", 3, 3), ("B", 2, 5), ("B", 3, 3),
    ("C", 3, 3), ("G", 2, 5),
])
def test_to_dominant_dot_matches_weyl_group(series, rank, top):
    # w.mu = w(mu + rho) - rho is dominant for the w with w(mu + rho)
    # dominant; that w is unique, with sign det(w), when mu + rho is regular
    d = datum(series, rank)
    group = weyl_group_matrices(d)
    for mu in itertools.product(range(-top, top + 1), repeat=rank):
        shifted = tuple(x + 1 for x in mu)
        hits = [(v, s) for v, s in ((apply_matrix(m, shifted), s) for m, s in group)
                if min(v) >= 0]
        lam = hits[0][0]
        if min(lam) > 0:
            assert len(hits) == 1
            sign = hits[0][1]
        else:
            sign = 0
        assert to_dominant(d, mu, dot=True) == (tuple(x - 1 for x in lam), sign)


def test_minus_w0():
    d = datum("A", 2)
    assert minus_w0(d, (1, 0)) == (0, 1)
    assert minus_w0(d, (2, 5)) == (5, 2)
    assert minus_w0(d, (0, 0)) == (0, 0)
    assert datum("A", 1).w0_perm == (0,)


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_w0_perm_pattern(series, rank):
    d = datum(series, rank)
    perm = d.w0_perm
    assert all(perm[perm[i]] == i for i in range(rank))
    if series in ("B", "C", "G", "F") or (series == "D" and rank % 2 == 0):
        assert perm == tuple(range(rank))
    if series == "A":
        assert perm == tuple(range(rank - 1, -1, -1))


def test_w0_perm_d5_and_e6():
    assert datum("D", 5).w0_perm == (0, 1, 2, 4, 3)
    assert datum("E", 6).w0_perm == (5, 1, 4, 3, 2, 0)


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_orbit_stabilizer(series, rank):
    import itertools

    d = datum(series, rank)
    order = weyl_group_order(d)
    elements = weyl_group_matrices(d)
    assert len(elements) == order
    for lam in itertools.product(range(5), repeat=rank):
        if sum(lam) > 4:
            continue
        orbit = weyl_orbit(d, lam)
        stab = sum(1 for m, _ in elements if apply_matrix(m, lam) == lam)
        assert len(orbit) * stab == order


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_orbit_members_straighten_back(series, rank):
    d = datum(series, rank)
    for lam in [(1, 0), (1, 1), (2, 1)]:
        for mu in weyl_orbit(d, lam):
            assert to_dominant(d, mu)[0] == lam


def signed_orbit(d, tau):
    """[(w(tau), det(w))] for regular dominant tau, sorted by weight: the
    orbit walk's table with sign -1."""
    return sorted(rootsys._orbit_table(d, tau, -1).items())


def test_orbit_with_dets_matches_bruteforce():
    d = datum("B", 2)
    by_weight = {}
    for m, s in weyl_group_matrices(d):
        w = apply_matrix(m, d.rho)
        assert by_weight.setdefault(w, s) == s
    assert sorted(by_weight.items()) == signed_orbit(d, d.rho)


def test_dominant_below_a2():
    d = datum("A", 2)
    below = dominant_below(d, (1, 1))
    assert below == ((1, 1), (0, 0))
    # (2,2) - a1 = (0,3); - a2 = (3,0); - a1 - a2 = (1,1); - 2a1 - 2a2 = (0,0)
    assert dominant_below(d, (2, 2)) == ((2, 2), (0, 3), (3, 0), (1, 1), (0, 0))


# Every type of rank <= 4, with the largest weight coordinate compared for
# orbits (top) and for cones (cone_top): at coordinate 3 the box scan of B4,
# C4 and F4 walks millions of points, and every F4 orbit of lam + rho holds
# 1,152 weights.
RANK_LE_4 = [
    ("A", 1, 3, 3), ("A", 2, 3, 3), ("A", 3, 3, 3), ("A", 4, 3, 3),
    ("B", 2, 3, 3), ("B", 3, 3, 3), ("B", 4, 3, 2), ("C", 2, 3, 3),
    ("C", 3, 3, 3), ("C", 4, 3, 2), ("D", 4, 3, 3), ("F", 4, 2, 1),
    ("G", 2, 3, 3),
]


@pytest.mark.parametrize("series,rank,top,cone_top", RANK_LE_4)
def test_walks_match_oracles(series, rank, top, cone_top):
    d = datum(series, rank)
    for lam in itertools.product(range(top + 1), repeat=rank):
        assert weyl_orbit(d, lam) == weyl_orbit_dfs(d, lam)
        tau = tuple(x + 1 for x in lam)
        assert signed_orbit(d, tau) == orbit_with_dets_dfs(d, tau)
        if max(lam) <= cone_top:
            assert dominant_below(d, lam) == dominant_below_boxscan(d, lam)


# Fundamental weights each oracle is run on, by 0-based index (index i is
# w(i+1)).  The box scan is left out where its root-coordinate box is large
# (E7 w4: 1,146,600 points; E8 w1 to w7: 2,494,800 and more), and the
# seen-set DFS for E8 w4 and w5, whose orbits hold 483,840 and 241,920
# weights.
E_ORACLE_CASES = {
    6: (range(6), range(6)),
    7: (range(7), (0, 1, 2, 4, 5, 6)),
    8: ((0, 1, 2, 5, 6, 7), (7,)),
}


@pytest.mark.parametrize("rank", sorted(E_ORACLE_CASES))
def test_e_fundamental_walks_match_oracles(rank):
    d = datum("E", rank)
    orbit_cases, cone_cases = E_ORACLE_CASES[rank]
    for i in range(rank):
        lam = tuple(int(k == i) for k in range(rank))
        if i in orbit_cases:
            assert weyl_orbit(d, lam) == weyl_orbit_dfs(d, lam)
        if i in cone_cases:
            assert dominant_below(d, lam) == dominant_below_boxscan(d, lam)
    if rank == 6:
        assert signed_orbit(d, d.rho) == orbit_with_dets_dfs(d, d.rho)


@pytest.mark.parametrize("series,rank,lam", [
    ("A", 3, (1, 0, 1)), ("B", 3, (1, 1, 1)), ("G", 2, (0, 1)),
    ("E", 6, (0, 0, 0, 1, 0, 0)),
])
def test_orbit_caps_are_exact(series, rank, lam):
    tau = tuple(x + 1 for x in lam)
    for fn, arg in ((weyl_orbit, lam), (signed_orbit, tau)):
        size = len(fn(datum(series, rank), arg))
        d = capped(series, rank, orbit_cap=size - 1)
        for _ in range(2):
            with pytest.raises(OrbitTooLarge, match=rf"exceeds cap {size - 1}$"):
                fn(d, arg)
        d = capped(series, rank, orbit_cap=size)
        for _ in range(2):
            assert len(fn(d, arg)) == size


@pytest.mark.parametrize("series,rank,lam", [
    ("A", 2, (2, 2)), ("D", 4, (3, 1, 2, 0)), ("E", 7, (1, 0, 0, 0, 0, 0, 1)),
    ("A", 2, (0, 0)), ("A", 2, (4, 4)),
])
def test_cone_cap_counts_dominant_weights(series, rank, lam):
    cone = dominant_below(datum(series, rank), lam)
    # the first call on a fresh datum misses the cache, the second hits
    # it when the first stored a result
    d = capped(series, rank, cone_cap=len(cone) - 1)
    for _ in range(2):
        with pytest.raises(ResourceCap, match=rf"exceeds cap {len(cone) - 1}$"):
            dominant_below(d, lam)
    d = capped(series, rank, cone_cap=len(cone))
    for _ in range(2):
        assert dominant_below(d, lam) == cone


def test_dominance_leq():
    d = datum("A", 2)
    assert dominance_leq(d, (0, 0), (1, 1))
    assert not dominance_leq(d, (1, 0), (1, 1))  # difference not in root lattice
    assert not dominance_leq(d, (1, 1), (0, 0))
    assert dominance_leq(d, (1, 1), (1, 1))


# E fundamental weights (0-based) whose orbits hold at most 20,000 weights
E_SMALL_ORBIT_NODES = {6: range(6), 7: range(7), 8: (0, 1, 6, 7)}


@st.composite
def orbit_walk_inputs(draw):
    series, rank = draw(st.sampled_from(ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)]))
    if series == "E":
        i = draw(st.sampled_from(E_SMALL_ORBIT_NODES[rank]))
        k = draw(st.integers(0, 3000))
        lam = tuple(k * (j == i) for j in range(rank))
    else:
        lam = tuple(draw(st.integers(0, 5)) for _ in range(rank))
        lam = tuple(x * draw(st.sampled_from([1, 7, 400])) for x in lam)
    return datum(series, rank), lam


@given(orbit_walk_inputs())
@settings(max_examples=100, deadline=None)
def test_orbit_coordinates_are_bounded_by_the_highest_coroot(case):
    # the bound that sizes the negation table of _fill_orbit: every
    # coordinate of w(lam) lies within <lam, theta_s^v>, which is the largest
    # <lam, beta^v>; it is reached, since theta_s^v is W-conjugate to a
    # simple coroot
    d, lam = case
    bound = max(pairing(d, lam, i) for i in range(len(d.positive_roots)))
    assert bound == sum(a * b for a, b in zip(lam, d.highest_coroot))
    orbit = rootsys._orbit_table(d, lam)
    assert max(abs(x) for mu in orbit for x in mu) == bound


@pytest.mark.parametrize("series,rank,lam", [
    ("A", 1, (5000,)), ("A", 2, (600, 600)), ("G", 2, (300, 700)),
    ("B", 3, (0, 0, 1500)),
])
def test_orbits_past_the_negation_table_match_the_oracle(series, rank, lam):
    # coordinates past the shared table come from a range, as fresh ints
    d = datum(series, rank)
    assert sum(a * b for a, b in zip(lam, d.highest_coroot)) >= len(rootsys._NEG)
    assert weyl_orbit(d, lam) == weyl_orbit_dfs(d, lam)


@st.composite
def small_weight(draw, rank, lo=-6, hi=6):
    return tuple(draw(st.integers(lo, hi)) for _ in range(rank))


@given(small_weight(rank=2))
@settings(max_examples=200)
def test_minus_w0_involution_b2(mu):
    d = datum("B", 2)
    assert minus_w0(d, minus_w0(d, mu)) == mu


@given(small_weight(rank=2))
@settings(max_examples=200)
def test_to_dominant_idempotent_g2(mu):
    d = datum("G", 2)
    dom, _ = to_dominant(d, mu)
    assert min(dom) >= 0
    assert to_dominant(d, dom) == (dom, 1)
    assert dom in weyl_orbit(d, mu)


@given(small_weight(rank=3, lo=0, hi=3))
@settings(max_examples=50)
def test_minus_w0_preserves_orbit_a3(lam):
    d = datum("A", 3)
    star = minus_w0(d, lam)
    assert to_dominant(d, tuple(-x for x in lam))[0] == star
