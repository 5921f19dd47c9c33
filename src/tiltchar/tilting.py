"""Tilting character formulas, Steinberg-tensor decompositions, verifiers.

The central objects are characters of the form chi((p^r-1)rho) * s_r(lam)
for digit-wise p-minuscule restricted lam: these are the characters of
the indecomposable tilting modules T((p^r-1)rho + lam), and products of
the Steinberg character with suitable module characters decompose
exactly into them.  Decompositions are verified internally by exact
reassembly before being returned.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CarrierNotPrMinuscule,
    HypothesisViolated,
    InternalMismatch,
    NegativeCoefficient,
    ProviderUndetermined,
    Undetermined,
)
from . import charring as ch
from .charring import FormalCharacter
from .minuscule import (
    in_lowest_alcove,
    is_minuscule,
    is_p_minuscule,
    is_pr_minuscule,
    is_r_minuscule,
    is_restricted,
    p_digits,
)
from .rootsys import RootDatum, Weight, dominance_leq
from .simplechar import SimpleCharProvider, _require_prime


@dataclass(frozen=True)
class Decomposition:
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
    """ch T((p-1)rho + lam) for restricted p-minuscule lam, cached.

    It is the product chi((p-1)rho) * s(lam).
    """
    lam = tuple(lam)
    if min(lam) < 0 or not is_restricted(d, lam, p, 1):
        raise HypothesisViolated(f"{lam} is not restricted for p={p}")
    if not is_p_minuscule(d, lam, p):
        raise HypothesisViolated(f"{lam} is not p-minuscule for p={p}")
    cache = d._cache.setdefault("st_orbit", {})
    key = (p, lam)
    phi = cache.get(key)
    if phi is None:
        phi = ch.char_mul(steinberg_character(d, p, 1), ch.orbit_sum(d, lam))
        cache[key] = phi
    return phi


def tilting_char_pr(d: RootDatum, p: int, r: int, lam) -> FormalCharacter:
    """ch T((p^r-1)rho + lam) for (p, r)-minuscule lam.

    Computed two ways and compared: the Steinberg character times the
    twisted-orbit-sum product, and the product of the r twisted digit
    factors ch T((p-1)rho + lam^j).  Disagreement is an internal error.
    """
    lam = tuple(lam)
    _require_pr_minuscule(d, lam, p, r)
    cache = d._cache.setdefault("tilt_pr", {})
    key = (p, r, lam)
    phi = cache.get(key)
    if phi is not None:
        return phi
    direct = ch.char_mul(
        steinberg_character(d, p, r), ch.s_r_character(d, p, r, lam)
    )
    product = ch.one(d)
    for j, dig in enumerate(p_digits(d, lam, p, r)):
        product = ch.char_mul(
            product, ch.frobenius_twist(tilting_char_p(d, p, dig), p, j)
        )
    if direct != product:
        raise InternalMismatch(
            f"tilting character forms disagree for {lam}, p={p}, r={r}"
        )
    cache[key] = direct
    return direct


def tilting_chi_pr(d: RootDatum, p: int, r: int, lam) -> dict:
    """The chi-vector of ch T((p^r-1)rho + lam) for (p, r)-minuscule lam.

    Computed two ways by Brauer-Klimyk and compared: chi((p^r-1)rho)
    times s_r(lam), and the digit product T_p(lam^0) T_p(lam^1)^[1] ...,
    folding each twisted full tilting_char_p(lam^j)^[j] into the
    chi-vector of T_p(lam^0).  Disagreement is an internal error.
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
    digits = p_digits(d, lam, p, r)
    product = ch.brauer_klimyk(
        d, _steinberg_chi(d, p, 1), ch.orbit_sum(d, digits[0])
    )
    for j in range(1, r):
        product = ch.brauer_klimyk(
            d, product, ch.frobenius_twist(tilting_char_p(d, p, digits[j]), p, j)
        )
    if direct != product:
        raise InternalMismatch(
            f"tilting chi-vector forms disagree for {lam}, p={p}, r={r}"
        )
    cache[key] = direct
    return dict(direct)


def _scaled_sum(vecs) -> dict:
    """sum_i c_i v_i over (c_i, v_i) pairs of chi-vectors."""
    out = {}
    for c, vec in vecs:
        for nu, m in vec.items():
            new = out.get(nu, 0) + c * m
            if new:
                out[nu] = new
            else:
                del out[nu]
    return out


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
    lhs = ch.brauer_klimyk(d, st, phi_v)
    # carriers nu <= lam are p-minuscule but need not be restricted;
    # the product form is the tilting character either way
    rhs = _scaled_sum(
        (coeffs[nu], ch.brauer_klimyk(d, st, ch.orbit_sum(d, nu)))
        for nu in sorted(coeffs)
    )
    if lhs != rhs:
        raise InternalMismatch("Steinberg tensor reassembly failed")
    return Decomposition(
        shift=_steinberg_weight(d, p, 1),
        summands=tuple(sorted(coeffs.items())),
        verified=True,
        mode="independent",
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
    lhs = ch.brauer_klimyk(d, _steinberg_chi(d, p, r), simple)
    rhs = _scaled_sum(
        (coeffs[nu], tilting_chi_pr(d, p, r, nu)) for nu in sorted(coeffs)
    )
    if lhs != rhs:
        raise InternalMismatch("Steinberg tensor reassembly failed")
    return Decomposition(
        shift=_steinberg_weight(d, p, r),
        summands=tuple(sorted(coeffs.items())),
        verified=True,
        mode="independent",
    )


def remark_check(d: RootDatum, p: int, lam):
    """(holds, chi-coefficients) for the remark on minuscule lam.

    St tensor L(lam) = St tensor s(lam) by Brauer-Klimyk, against the
    chi-expansion of the full tilting character chi((p-1)rho) * s(lam):
    two independent routes.  The expansion is also the good-filtration
    certificate of the tilting character.
    """
    lam = tuple(lam)
    _require_minuscule(d, lam)
    lhs = ch.brauer_klimyk(d, _steinberg_chi(d, p, 1), ch.orbit_sum(d, lam))
    coeffs = ch.expand_in_weyl_chars(tilting_char_p(d, p, lam))
    return lhs == coeffs, coeffs


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
                product = ch.brauer_klimyk(
                    d,
                    tilting_chi_pr(d, p, r, lam),
                    ch.frobenius_twist(ch.from_weyl_chars(d, vec), p, r),
                )
                return product, "definitional", [f"product(r={r})"] + trace
        raise ProviderUndetermined(f"ch T({mu}) at p={p} is not resolvable")


def verify_lemma1a(d: RootDatum, p: int, r: int, mu) -> dict:
    """Check chi((p^r-1)rho) * ch T(mu)^[r] = ch T((p^r-1)rho + p^r mu).

    Both sides are compared as chi-vectors, the left one by Brauer-Klimyk.
    The right side comes from the provider; when only the product form
    resolves it, the check is flagged definitional rather than
    independent, so a tautology is never reported as evidence.
    """
    mu = tuple(mu)
    provider = TiltingCharProvider()
    t_mu, _, trace_l = provider.resolve(d, mu, p)
    lhs = ch.brauer_klimyk(
        d,
        _steinberg_chi(d, p, r),
        ch.frobenius_twist(ch.from_weyl_chars(d, t_mu), p, r),
    )
    q = p**r
    target = tuple((q - 1) + q * x for x in mu)
    rhs, rhs_mode, trace_r = provider.resolve(d, target, p)
    return {
        "identity": "lemma1a",
        "holds": lhs == rhs,
        "mode": rhs_mode,
        "case": {"p": p, "r": r, "mu": list(mu)},
        "trace": {"lhs": trace_l, "rhs": trace_r},
    }


def verify_prop2_corollary(d: RootDatum, p: int, r: int, lam, mu) -> dict:
    """Character checks for the shifted factorization and its corollary.

    For r-minuscule lam and dominant mu:
      main:  St_r (x) L(lam) (x) T(mu)^[r]  has the character of
             T((p^r-1)rho + lam + p^r mu);
      (a):   T((p^r-1)rho + p^r mu) (x) L(lam) has the same character;
      (b):   when T(mu) is certified simple, L(lam) (x) L(mu)^[r] has the
             character of L(lam + p^r mu).
    The tilting identities (main, (a)) are compared as chi-vectors by
    Brauer-Klimyk; (b) compares simple characters as full characters.
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
    t_target, target_mode, _ = tilt_provider.resolve(d, target, p)

    lhs_main = ch.brauer_klimyk(
        d,
        ch.brauer_klimyk(d, _steinberg_chi(d, p, r), ch_l),
        ch.frobenius_twist(ch.from_weyl_chars(d, t_mu), p, r),
    )
    report = {
        "identity": "prop2",
        "case": {"p": p, "r": r, "lam": list(lam), "mu": list(mu)},
        "main": {"holds": lhs_main == t_target, "mode": target_mode},
    }

    shifted = tuple((q - 1) + q * y for y in mu)
    t_shifted, shifted_mode, _ = tilt_provider.resolve(d, shifted, p)
    lhs_a = ch.brauer_klimyk(d, t_shifted, ch_l)
    report["corollary_a"] = {
        "holds": lhs_a == t_target,
        "mode": shifted_mode if target_mode == "independent" else "definitional",
    }

    # corollary (b): certify T(mu) simple via the lowest-alcove criterion
    # together with dim L(mu) = dim chi(mu)
    simple_certified = False
    if in_lowest_alcove(d, mu, p):
        try:
            ch_mu, _ = simple_provider.resolve(d, mu, p)
            simple_certified = ch_mu.dimension() == ch.weyl_character(d, mu).dimension()
        except Undetermined:
            simple_certified = False
    if simple_certified:
        combined = tuple(x + q * y for x, y in zip(lam, mu))
        ch_combined, prov_c = simple_provider.resolve(d, combined, p)
        lhs_b = ch.char_mul(ch_l, ch.frobenius_twist(ch_mu, p, r))
        report["corollary_b"] = {
            "holds": lhs_b == ch_combined,
            "mode": "definitional" if "steinberg" in prov_c else "independent",
            "certified_simple": True,
        }
    else:
        report["corollary_b"] = {"certified_simple": False}
    return report


def verify_lemma1b_character(d: RootDatum, p: int, lam) -> dict:
    """Reproduce the character-division argument for minuscule lam.

    Forms chi((p-1)rho) * s(lam) with tilting_char_p (a minuscule lam is
    restricted and p-minuscule for every prime), divides it exactly by
    the Steinberg character, and confirms the quotient is W-invariant
    with unique maximal dominant term lam of multiplicity one and equals
    s(lam).
    """
    lam = tuple(lam)
    _require_minuscule(d, lam)
    st = steinberg_character(d, p, 1)
    phi = tilting_char_p(d, p, lam)
    psi = ch.divide_exact(phi, st)
    dominants = psi.dominant_terms()
    maximal = [
        nu
        for nu in dominants
        if not any(
            nu != other and dominance_leq(d, nu, other) for other in dominants
        )
    ]
    report = {
        "identity": "lemma1b",
        "case": {"p": p, "lam": list(lam)},
        "quotient_is_orbit_sum": psi == ch.orbit_sum(d, lam),
        "quotient_w_invariant": psi.is_w_invariant(),
        "unique_maximal_term": maximal == [lam] and dominants[lam] == 1,
    }
    report["holds"] = all(
        report[k]
        for k in ("quotient_is_orbit_sum", "quotient_w_invariant", "unique_maximal_term")
    )
    return report


def good_filtration_consistent(phi: FormalCharacter):
    """Non-negative Weyl-basis expansion: the character shadow of tilting-ness.

    Returns (ok, certificate) where the certificate maps highest weights
    to their chi-coefficients.  Negative coefficients refute; non-negative
    coefficients are consistent-only.
    """
    coeffs = ch.expand_in_weyl_chars(phi)
    ok = all(c >= 0 for c in coeffs.values())
    return ok, coeffs
