"""Tilting character formulas, Steinberg-tensor decompositions, verifiers.

The central objects are characters of the form chi((p^r-1)rho) * s_r(lam)
for digit-wise p-minuscule restricted lam: these are the characters of
the indecomposable tilting modules T((p^r-1)rho + lam), and products of
the Steinberg character with suitable module characters decompose
exactly into them.  The chi-vector of T((p^r-1)rho + lam) comes from
tilting_chi_pr, and its full character from tilting_char_pr, which checks
it against that vector and caches it; the remark's case r = 1 is
tilting_char_p.  Both Steinberg decompositions are verified by one exact
reassembly in the chi-basis before they are returned.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import (
    CarrierNotPrMinuscule,
    HypothesisViolated,
    InternalMismatch,
    NegativeCoefficient,
    ProviderUndetermined,
)
from . import charring as ch
from .charring import FormalCharacter
from .minuscule import (
    in_lowest_alcove,
    is_minuscule,
    is_p_minuscule,
    is_pr_minuscule,
    is_r_minuscule,
    p_digits,
)
from .rootsys import RootDatum, Weight, dominance_leq
from .simplechar import SimpleCharProvider, _require_prime


class Decomposition(NamedTuple):
    """Multiset of tilting summands T(shift + nu) with multiplicities."""

    shift: Weight
    summands: tuple  # ((nu, mult), ...) in lex order, mult >= 1
    verified: bool
    mode: str  # "independent" or "definitional"

    def to_json_dict(self):
        return {
            "shift": list(self.shift),
            "summands": [
                {"nu": list(nu), "mult": m} for nu, m in self.summands
            ],
            "verified": self.verified,
            "mode": self.mode,
        }

    def highest_weights(self):
        """The actual highest weights shift + nu of the summands."""
        return [
            (tuple(s + x for s, x in zip(self.shift, nu)), m)
            for nu, m in self.summands
        ]


def _require_pr_minuscule(d: RootDatum, lam, p: int, r: int):
    if min(lam) < 0 or not is_pr_minuscule(d, lam, p, r):
        raise HypothesisViolated(f"{lam} is not (p, r)-minuscule for p={p}, r={r}")


def _require_minuscule(d: RootDatum, lam):
    if min(lam) < 0 or not is_minuscule(d, lam):
        raise HypothesisViolated(f"{lam} is not minuscule")


def _steinberg_weight(d: RootDatum, p: int, r: int) -> Weight:
    return tuple((p**r - 1) for _ in range(d.rank))


def _steinberg_chi(d: RootDatum, p: int, r: int) -> dict:
    """{(p^r - 1) rho: 1}, the chi-vector of the r-th Steinberg module."""
    if r < 1:
        raise HypothesisViolated(f"r must be at least 1, got {r}")
    _require_prime(p)
    return {_steinberg_weight(d, p, r): 1}


def steinberg_character(d: RootDatum, p: int, r: int) -> FormalCharacter:
    """chi((p^r - 1) rho), the character of the r-th Steinberg module."""
    (shift,) = _steinberg_chi(d, p, r)
    return ch.weyl_character(d, shift)


def tilting_char_p(d: RootDatum, p: int, lam) -> FormalCharacter:
    """ch T((p-1)rho + lam) = chi((p-1)rho) * s(lam): tilting_char_pr at r = 1."""
    return tilting_char_pr(d, p, 1, lam)


def tilting_char_pr(d: RootDatum, p: int, r: int, lam) -> FormalCharacter:
    """ch T((p^r-1)rho + lam) = chi((p^r-1)rho) * s_r(lam), (p, r)-minuscule lam.

    The product is one full convolution, kept per datum in the tilt_pr
    bucket under (p, r, lam).  Before it is kept, its Weyl-character
    expansion must equal tilting_chi_pr, the chi-vector Brauer-Klimyk
    gives (for r >= 2 compared with the digit-product form), or it is an
    internal error.  The two-way full convolution is the oracle in the
    tests.
    """
    lam = tuple(lam)
    cache = d._cache.setdefault("tilt_pr", {})
    key = (p, r, lam)
    phi = cache.get(key)
    if phi is None:
        vec = tilting_chi_pr(d, p, r, lam)
        phi = ch.char_mul(steinberg_character(d, p, r), ch.s_r_character(d, p, r, lam))
        if ch.expand_in_weyl_chars(phi) != vec:
            raise InternalMismatch(
                f"tilting character is not its checked chi-vector for {lam}, p={p}, r={r}"
            )
        cache[key] = phi
    return phi


def tilting_chi_pr(d: RootDatum, p: int, r: int, lam) -> dict:
    """The chi-vector of ch T((p^r-1)rho + lam) for (p, r)-minuscule lam.

    Computed by Brauer-Klimyk as chi((p^r-1)rho) times s_r(lam).  For
    r >= 2 it is compared with the digit product, associated as
    ((St s(lam^0)) St^[1]) s(lam^1)^[1] ... with St = chi((p-1)rho) from
    Freudenthal's recursion: each digit j >= 1 multiplies the chi-vector
    by St^[j] (see _times_twisted_steinberg) and then folds in the
    twisted orbit sum s(lam^j)^[j].  The two routes share no fold, and
    the digit route tests St St^[1] ... St^[r-1] = St_r as it goes;
    disagreement is an internal error.  At r = 1 the two routes are one
    call, since s_1(lam) = s(lam).
    """
    lam = tuple(lam)
    _require_pr_minuscule(d, lam, p, r)
    cache = d._cache.setdefault("tilt_chi_pr", {})
    key = (p, r, lam)
    vec = cache.get(key)
    if vec is not None:
        return dict(vec)
    direct = ch.brauer_klimyk(
        d, _steinberg_chi(d, p, r), ch.s_r_character(d, p, r, lam)
    )
    if r > 1:
        digits = p_digits(d, lam, p, r)
        product = ch.brauer_klimyk(
            d, _steinberg_chi(d, p, 1), ch.orbit_sum(d, digits[0])
        )
        for j in range(1, r):
            product = ch.brauer_klimyk(
                d,
                _times_twisted_steinberg(d, product, p, j),
                ch.frobenius_twist(ch.orbit_sum(d, digits[j]), p, j),
            )
        if direct != product:
            raise InternalMismatch(
                f"tilting chi-vector forms disagree for {lam}, p={p}, r={r}"
            )
    cache[key] = direct
    return dict(direct)


def _times_twisted_steinberg(d: RootDatum, vec: dict, p: int, j: int) -> dict:
    """The chi-vector of vec times St^[j], St = chi((p-1)rho) by Freudenthal.

    chi(a) * St^[j] is folded once per datum and kept in the st_twist
    bucket under (p, j, a).  Here vec is the chi-vector of
    T((p^j-1)rho + nu) with nu in the restricted box X_j, so every a is
    at most (p^j-1)rho + nu and 2(p^j-1)rho - a is a non-negative
    rational sum of simple roots: for each (p, j) the keys lie in that
    finite cone, and the bucket needs no cap.
    """
    cache = d._cache.setdefault("st_twist", {})
    st = None
    out = {}
    for a, c in vec.items():
        fold = cache.get((p, j, a))
        if fold is None:
            if st is None:
                st = ch.frobenius_twist(steinberg_character(d, p, 1), p, j)
            fold = cache[(p, j, a)] = ch.brauer_klimyk(d, {a: 1}, st)
        ch._add_into(out, fold, c)
    return out


def _times_twisted(d: RootDatum, vec: dict, t: dict, p: int, r: int) -> dict:
    """The chi-vector of vec times the r-th Frobenius twist of chi-vector t."""
    return ch.brauer_klimyk(d, vec, ch.frobenius_twist(ch.from_weyl_chars(d, t), p, r))


def _reassembled(d: RootDatum, p: int, r: int, phi: FormalCharacter, coeffs, carrier_chi):
    """The verified Decomposition of St_r tensor phi with these coefficients.

    coeffs maps each carrier nu to its multiplicity, and carrier_chi(nu)
    is the chi-vector of T((p^r-1)rho + nu).  The chi-vector of
    chi((p^r-1)rho) * phi by Brauer-Klimyk must equal
    sum_nu coeffs[nu] carrier_chi(nu), or it is an internal error.
    """
    lhs = ch.brauer_klimyk(d, _steinberg_chi(d, p, r), phi)
    rhs = {}
    for nu in sorted(coeffs):
        ch._add_into(rhs, carrier_chi(nu), coeffs[nu])
    if lhs != rhs:
        raise InternalMismatch("Steinberg tensor reassembly failed")
    return Decomposition(
        shift=_steinberg_weight(d, p, r),
        summands=tuple(sorted(coeffs.items())),
        verified=True,
        mode="independent",
    )


def decompose_st_tensor(
    d: RootDatum, p: int, lam, phi_v: FormalCharacter
) -> Decomposition:
    """Decompose St tensor V into tilting characters T((p-1)rho + nu).

    Hypotheses: lam p-minuscule and every weight of phi_v at most lam in
    dominance order.  The coefficients are the orbit-sum coefficients of
    ch V; they must be non-negative for a genuine module character.  The
    identity chi((p-1)rho) * ch V = sum a_nu chi((p-1)rho) s(nu) is
    reassembled exactly in the Weyl-character basis before returning.
    """
    lam = tuple(lam)
    _require_prime(p)
    if min(lam) < 0 or not is_p_minuscule(d, lam, p):
        raise HypothesisViolated(f"{lam} is not p-minuscule for p={p}")
    if phi_v.datum != d:
        raise HypothesisViolated("character belongs to a different root datum")
    for mu in phi_v.terms:
        if not dominance_leq(d, mu, lam):
            raise HypothesisViolated(
                f"support weight {mu} is not below {lam} in dominance order"
            )
    coeffs = ch.expand_in_orbit_sums(phi_v)
    for nu in sorted(coeffs):
        if coeffs[nu] < 0:
            raise NegativeCoefficient(
                f"orbit-sum coefficient of {nu} is {coeffs[nu]}", nu
            )
        if not is_p_minuscule(d, nu, p):
            raise InternalMismatch(
                f"carrier {nu} below p-minuscule {lam} is not p-minuscule"
            )
    st = _steinberg_chi(d, p, 1)
    # carriers nu <= lam are p-minuscule but need not be restricted;
    # the product form is the tilting character either way
    return _reassembled(
        d, p, 1, phi_v, coeffs, lambda nu: ch.brauer_klimyk(d, st, ch.orbit_sum(d, nu)),
    )


def decompose_str_tensor(
    d: RootDatum,
    p: int,
    r: int,
    lam,
    provider: SimpleCharProvider | None = None,
) -> Decomposition:
    """Decompose St_r tensor L(lam) into tilting characters T((p^r-1)rho + nu).

    The coefficients expand ch L(lam) in the twisted-orbit-sum basis; all
    must be non-negative with restricted (p, r)-minuscule carriers, and
    the product is reassembled exactly in the Weyl-character basis.
    """
    lam = tuple(lam)
    _require_prime(p)
    _require_pr_minuscule(d, lam, p, r)
    if provider is None:
        provider = SimpleCharProvider()
    simple = provider.resolve(d, lam, p)[0]
    coeffs = ch.expand_in_sr(simple, p, r)
    for nu in sorted(coeffs):
        if coeffs[nu] < 0:
            raise NegativeCoefficient(
                f"coefficient of carrier {nu} is {coeffs[nu]}", nu
            )
        if not is_pr_minuscule(d, nu, p, r):
            raise CarrierNotPrMinuscule(
                f"carrier {nu} is not (p, r)-minuscule for p={p}, r={r}"
            )
    return _reassembled(d, p, r, simple, coeffs, lambda nu: tilting_chi_pr(d, p, r, nu))


def remark_check(d: RootDatum, p: int, lam):
    """(ok, detail) for the remark: St tensor L(lam) = T((p-1)rho + lam).

    For minuscule lam, L(lam) = s(lam), so St tensor L(lam) has the
    chi-vector tilting_chi_pr(lam) at r = 1, by Brauer-Klimyk.
    tilting_char_pr checks the expansion of the full tilting character
    chi((p-1)rho) * s(lam) against it, and raises InternalMismatch when
    the two independent routes disagree.  The vector is also the
    good-filtration certificate of the tilting character, so a negative
    coefficient fails the check.
    """
    lam = tuple(lam)
    _require_minuscule(d, lam)
    tilting_char_pr(d, p, 1, lam)
    coeffs = tilting_chi_pr(d, p, 1, lam)
    if any(c < 0 for c in coeffs.values()):
        return False, f"negative chi coefficients: {coeffs}"
    return True, ""


def verify_remark(d: RootDatum, p: int, lam) -> bool:
    """St tensor L(lam) has the tilting character for minuscule lam."""
    return remark_check(d, p, lam)[0]


_PROVIDER_MAX_R = 4  # largest Steinberg exponent r the provider tries


class TiltingCharProvider:
    """Strategy chain resolving the chi-vector of ch T(mu) for the verifiers.

    Strategies, in order: minuscule (a single orbit is simple tilting),
    lowest-alcove (T(mu) is the simple Weyl module), the shifted
    restricted form ch T((p^r-1)rho + nu) for digit-wise p-minuscule nu,
    and the tilting-times-twist product peeled off the weight (marked
    definitional, since the product identity is what the verifiers test).
    """

    def resolve(self, d: RootDatum, mu, p: int):
        """Returns (chi-vector, mode, trace); raises ProviderUndetermined."""
        mu = tuple(mu)
        if min(mu) < 0:
            raise ProviderUndetermined(f"{mu} is not dominant")
        if is_minuscule(d, mu):
            # single W-orbit: Weyl, dual Weyl, simple and tilting coincide
            return {mu: 1}, "independent", ["minuscule"]
        if in_lowest_alcove(d, mu, p):
            return {mu: 1}, "independent", ["lowest_alcove"]
        for r in range(1, _PROVIDER_MAX_R + 1):
            shift = _steinberg_weight(d, p, r)
            nu = tuple(x - s for x, s in zip(mu, shift))
            if min(nu) >= 0 and is_pr_minuscule(d, nu, p, r):
                return (
                    tilting_chi_pr(d, p, r, nu),
                    "independent",
                    [f"pr_shift(r={r})"],
                )
        for r in range(1, _PROVIDER_MAX_R + 1):
            # peel mu = (p^r-1)rho + lam + p^r mu' with lam the digit part;
            # valid when lam is digit-wise p-minuscule, but definitional:
            # it is the tensor identity the verifiers are testing
            shift = _steinberg_weight(d, p, r)
            q = p**r
            rest = tuple(x - s for x, s in zip(mu, shift))
            if min(rest) < 0:
                continue
            lam = tuple(x % q for x in rest)
            inner = tuple(x // q for x in rest)
            if any(inner) and is_pr_minuscule(d, lam, p, r):
                vec, _, trace = self.resolve(d, inner, p)
                product = _times_twisted(d, tilting_chi_pr(d, p, r, lam), vec, p, r)
                return product, "definitional", [f"product(r={r})"] + trace
        raise ProviderUndetermined(f"ch T({mu}) at p={p} is not resolvable")


def verify_lemma1a(d: RootDatum, p: int, r: int, mu):
    """(holds, mode) for chi((p^r-1)rho) * ch T(mu)^[r] = ch T((p^r-1)rho + p^r mu).

    Both sides are compared as chi-vectors, the left one by Brauer-Klimyk.
    The right side comes from the provider, and mode is its mode: when
    only the product form resolves it, the check is definitional rather
    than independent, so a tautology is never reported as evidence.
    """
    mu = tuple(mu)
    provider = TiltingCharProvider()
    t_mu, _, _ = provider.resolve(d, mu, p)
    lhs = _times_twisted(d, _steinberg_chi(d, p, r), t_mu, p, r)
    q = p**r
    target = tuple((q - 1) + q * x for x in mu)
    rhs, rhs_mode, _ = provider.resolve(d, target, p)
    return lhs == rhs, rhs_mode


def verify_prop2_corollary(d: RootDatum, p: int, r: int, lam, mu):
    """(holds, mode) for the shifted factorization and its corollary.

    For r-minuscule lam and dominant mu:
      main:  St_r (x) L(lam) (x) T(mu)^[r]  has the character of
             T((p^r-1)rho + lam + p^r mu);
      (a):   T((p^r-1)rho + p^r mu) (x) L(lam) has the same character;
      (b):   when T(mu) is certified simple, L(lam) (x) L(mu)^[r] has the
             character of L(lam + p^r mu).
    The tilting identities (main, (a)) are compared as chi-vectors by
    Brauer-Klimyk; (b) compares simple characters as full characters.
    Every part is computed, so an undetermined character in any of them
    makes the whole case undetermined.  holds needs main and (a), and (b)
    when it is certified; mode is that of main's right side.
    """
    lam, mu = tuple(lam), tuple(mu)
    if min(lam) < 0 or not is_r_minuscule(d, lam, p, r):
        raise HypothesisViolated(f"{lam} is not r-minuscule for p={p}, r={r}")
    if min(mu) < 0:
        raise HypothesisViolated(f"{mu} is not dominant")
    tilt_provider = TiltingCharProvider()
    simple_provider = SimpleCharProvider()

    ch_l, _ = simple_provider.resolve(d, lam, p)
    t_mu, _, _ = tilt_provider.resolve(d, mu, p)
    q = p**r
    target = tuple((q - 1) + x + q * y for x, y in zip(lam, mu))
    t_target, mode, _ = tilt_provider.resolve(d, target, p)

    st_l = ch.brauer_klimyk(d, _steinberg_chi(d, p, r), ch_l)
    holds_main = _times_twisted(d, st_l, t_mu, p, r) == t_target

    shifted = tuple((q - 1) + q * y for y in mu)
    t_shifted, _, _ = tilt_provider.resolve(d, shifted, p)
    holds_a = ch.brauer_klimyk(d, t_shifted, ch_l) == t_target

    # corollary (b): certify T(mu) simple via the lowest-alcove criterion
    # together with dim L(mu) = dim chi(mu)
    holds_b = True
    if in_lowest_alcove(d, mu, p):
        ch_mu, _ = simple_provider.resolve(d, mu, p)
        if ch_mu.dimension() == ch.weyl_character(d, mu).dimension():
            combined = tuple(x + q * y for x, y in zip(lam, mu))
            ch_combined, _ = simple_provider.resolve(d, combined, p)
            lhs_b = ch.char_mul(ch_l, ch.frobenius_twist(ch_mu, p, r))
            holds_b = lhs_b == ch_combined
    return holds_main and holds_a and holds_b, mode


def verify_lemma1b_character(d: RootDatum, p: int, lam):
    """(holds, "") for Lemma 1(b)'s character-division argument, lam minuscule.

    Takes the checked, cached chi((p-1)rho) * s(lam) from tilting_char_p
    (a minuscule lam is restricted and p-minuscule for every prime),
    divides it exactly by the Steinberg character, and compares the
    quotient with s(lam).  The lemma's other conclusions need no test of
    their own: s(lam) is W-invariant, and its unique maximal dominant
    term is lam with multiplicity one, so a quotient equal to s(lam) has
    both.
    """
    lam = tuple(lam)
    _require_minuscule(d, lam)
    st = steinberg_character(d, p, 1)
    psi = ch.divide_exact(tilting_char_p(d, p, lam), st)
    return psi == ch.orbit_sum(d, lam), ""


def good_filtration_consistent(phi: FormalCharacter):
    """Non-negative Weyl-basis expansion: the character shadow of tilting-ness.

    Returns (ok, certificate) where the certificate maps highest weights
    to their chi-coefficients.  Negative coefficients refute; non-negative
    coefficients are consistent-only.
    """
    coeffs = ch.expand_in_weyl_chars(phi)
    ok = all(c >= 0 for c in coeffs.values())
    return ok, coeffs
