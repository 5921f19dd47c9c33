"""Exact arithmetic in the integral group ring ZX(T) of a weight lattice.

A formal character is a sparse integer map weight -> multiplicity in
canonical form (no explicit zeros).  Products are convolutions,
e(mu) * e(nu) = e(mu + nu).  Weyl characters are computed by
Freudenthal's multiplicity recursion over the dominant cone and then
W-symmetrized; an independent alternating-sum route is provided for
cross-checking.  Basis expansions (orbit sums, Weyl characters, the
twisted orbit-sum products used for restricted weights) are exact and
reassemble the input bit for bit.
"""
from __future__ import annotations

from types import MappingProxyType

from .errors import (
    DatumMismatch,
    InternalMismatch,
    NotDivisible,
    NotDominant,
    NotWInvariant,
    ResourceCap,
    TermNotRestricted,
)
from .rootsys import (
    DEFAULT_CONE_CAP,
    DEFAULT_ORBIT_CAP,
    RootDatum,
    RootSystemSpec,
    build_root_datum,
    dominance_leq,
    dominant_below,
    orbit_with_dets,
    reflect,
    scaled_height,
    to_dominant,
    weyl_orbit,
)

DEFAULT_DIVISION_STEPS = 10**6


class FormalCharacter:
    """Immutable element of ZX(T) attached to a root datum."""

    __slots__ = ("datum", "_terms", "_w_inv")

    def __init__(self, datum: RootDatum, terms, _canonical=False):
        self.datum = datum
        if _canonical:
            self._terms = terms
        else:
            self._terms = {mu: m for mu, m in dict(terms).items() if m != 0}
        self._w_inv = None

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, FormalCharacter)
            and self.datum == other.datum
            and self._terms == other._terms
        )

    def __repr__(self):
        n = len(self._terms)
        return f"FormalCharacter({self.datum.spec}, {n} terms, dim {self.dimension()})"

    def __add__(self, other):
        return char_add(self, other)

    def __sub__(self, other):
        return char_add(self, scale(other, -1))

    def __neg__(self):
        return scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return scale(self, other)
        if isinstance(other, FormalCharacter):
            return char_mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return scale(self, other)
        return NotImplemented

    def dimension(self) -> int:
        return sum(self._terms.values())

    def multiplicity(self, mu) -> int:
        return self._terms.get(tuple(mu), 0)

    def is_w_invariant(self) -> bool:
        """Check multiplicity equality along every simple-reflection pair."""
        if self._w_inv is None:
            d = self.datum
            t = self._terms
            ok = True
            for mu, m in t.items():
                for i in range(d.rank):
                    if mu[i] != 0 and t.get(reflect(d, mu, i), 0) != m:
                        ok = False
                        break
                if not ok:
                    break
            self._w_inv = ok
        return self._w_inv

    def dominant_terms(self):
        """{mu: m} over the dominant weights in the support."""
        return {mu: m for mu, m in self._terms.items() if min(mu) >= 0}

    def to_json_dict(self):
        spec = self.datum.spec
        return {
            "type": spec.series,
            "rank": spec.rank,
            "terms": [
                {"w": list(mu), "m": self._terms[mu]}
                for mu in sorted(self._terms)
            ],
        }


def from_json_dict(obj, datum: RootDatum | None = None) -> FormalCharacter:
    if datum is None:
        datum = build_root_datum(RootSystemSpec(obj["type"], obj["rank"]))
    elif (datum.spec.series, datum.spec.rank) != (obj["type"], obj["rank"]):
        raise DatumMismatch(
            f"character is for {obj['type']}{obj['rank']}, datum is {datum.spec}"
        )
    terms = {}
    for entry in obj["terms"]:
        w = tuple(int(x) for x in entry["w"])
        if len(w) != datum.rank:
            raise DatumMismatch(f"weight {w} has wrong rank")
        m = int(entry["m"])
        if m == 0 or w in terms:
            raise ValueError("character JSON is not in canonical form")
        terms[w] = m
    return FormalCharacter(datum, terms, _canonical=True)


def zero(d: RootDatum) -> FormalCharacter:
    return FormalCharacter(d, {}, _canonical=True)


def e(d: RootDatum, mu) -> FormalCharacter:
    return FormalCharacter(d, {tuple(mu): 1}, _canonical=True)


def one(d: RootDatum) -> FormalCharacter:
    return e(d, (0,) * d.rank)


def _require_same_datum(a: FormalCharacter, b: FormalCharacter):
    if a.datum != b.datum:
        raise DatumMismatch(f"{a.datum.spec} vs {b.datum.spec}")


def char_add(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    _require_same_datum(a, b)
    out = dict(a._terms)
    for mu, m in b._terms.items():
        new = out.get(mu, 0) + m
        if new:
            out[mu] = new
        else:
            out.pop(mu, None)
    return FormalCharacter(a.datum, out, _canonical=True)


def scale(a: FormalCharacter, c: int) -> FormalCharacter:
    if c == 0:
        return zero(a.datum)
    return FormalCharacter(
        a.datum, {mu: c * m for mu, m in a._terms.items()}, _canonical=True
    )


def char_mul(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    """Convolution product; e(mu) e(nu) = e(mu + nu)."""
    _require_same_datum(a, b)
    big, small = (a._terms, b._terms)
    if len(big) < len(small):
        big, small = small, big
    out = {}
    get = out.get
    for nu, c in small.items():
        for mu, m in big.items():
            w = tuple(x + y for x, y in zip(mu, nu))
            new = get(w, 0) + m * c
            if new:
                out[w] = new
            else:
                del out[w]
    return FormalCharacter(a.datum, out, _canonical=True)


def dimension(a: FormalCharacter) -> int:
    """Evaluation e(mu) -> 1: the dimension of a module character."""
    return a.dimension()


def frobenius_twist(a: FormalCharacter, p: int, j: int) -> FormalCharacter:
    """Scale every exponent by p^j; multiplicities are untouched."""
    if j == 0:
        return a
    q = p**j
    return FormalCharacter(
        a.datum,
        {tuple(q * x for x in mu): m for mu, m in a._terms.items()},
        _canonical=True,
    )


def orbit_sum(d: RootDatum, lam, cap: int = DEFAULT_ORBIT_CAP) -> FormalCharacter:
    """s(lam): the sum of e(mu) over the W-orbit of dominant lam."""
    lam = tuple(lam)
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")
    return FormalCharacter(
        d, {mu: 1 for mu in weyl_orbit(d, lam, cap)}, _canonical=True
    )


def _freudenthal_dominant(d: RootDatum, lam, cap):
    """Multiplicities of the dominant weights of the Weyl module of lam."""
    doms = dominant_below(d, lam, cap)
    n = d.rank
    sym = d.symmetrizer
    # per positive root: fw coords, the vector giving (x, alpha), and (alpha, alpha)
    roots = []
    for r in d.positive_roots:
        rdv = tuple(c * dd for c, dd in zip(r.root, sym))
        aa = sum(v * f for v, f in zip(rdv, r.fw))
        roots.append((r.fw, rdv, aa))

    table = {lam: 1}
    straighten = {}
    adj = d.adjugate
    det = d.det
    for mu in doms[1:]:
        total = 0
        for fwa, rdv, aa in roots:
            base = sum(v * x for v, x in zip(rdv, mu))
            nu = mu
            k = 1
            while True:
                nu = tuple(x + y for x, y in zip(nu, fwa))
                nd = straighten.get(nu)
                if nd is None:
                    nd = to_dominant(d, nu)[0] if min(nu) < 0 else nu
                    straighten[nu] = nd
                m = table.get(nd)
                if m is None:
                    break
                total += m * (base + k * aa)
                k += 1
        if total == 0:
            continue
        # denominator (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu)
        vsum = tuple(x + y + 2 for x, y in zip(lam, mu))
        den = 0
        for i in range(n):
            ci = sum(adj[i][k2] * (lam[k2] - mu[k2]) for k2 in range(n))
            if ci % det:
                raise InternalMismatch(f"{lam} - {mu} is not in the root lattice")
            den += (ci // det) * sym[i] * vsum[i]
        q, rem = divmod(2 * total, den)
        if rem or q <= 0:
            raise InternalMismatch(
                f"Freudenthal multiplicity of {mu} in chi({lam}) is {2 * total}/{den}"
            )
        table[mu] = q
    return table


def _symmetrize(d: RootDatum, dom_mult, cap):
    """Expand dominant multiplicities to the full W-stable support."""
    out = {}
    n = d.rank
    for mu, m in dom_mult.items():
        out[mu] = m
        stack = [mu]
        while stack:
            nu = stack.pop()
            for i in range(n):
                if nu[i] > 0:
                    child = reflect(d, nu, i)
                    if child not in out:
                        if len(out) >= cap:
                            raise ResourceCap(
                                f"character support exceeds cap {cap}"
                            )
                        out[child] = m
                        stack.append(child)
    return out


def weyl_character(d: RootDatum, lam, cap: int = DEFAULT_CONE_CAP) -> FormalCharacter:
    """chi(lam) = ch of the (dual) Weyl module with highest weight lam.

    Freudenthal's recursion gives the dominant multiplicities; the result
    is W-invariant with leading term e(lam) of multiplicity 1.  Cached
    per datum.
    """
    lam = tuple(lam)
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")
    cache = d._cache.setdefault("weyl_char", {})
    phi = cache.get(lam)
    if phi is None:
        dom = _freudenthal_dominant(d, lam, cap)
        phi = FormalCharacter(d, _symmetrize(d, dom, 4 * cap), _canonical=True)
        phi._w_inv = True
        cache[lam] = phi
    return phi


def weyl_character_straightened(d: RootDatum, mu, cap: int = DEFAULT_CONE_CAP) -> FormalCharacter:
    """sign(w) chi(w . mu) for the dot-action straightening of arbitrary mu.

    Zero when mu + rho is singular.
    """
    lam, sign = to_dominant(d, tuple(mu), dot=True)
    if sign == 0:
        return zero(d)
    chi = weyl_character(d, lam, cap)
    return chi if sign == 1 else scale(chi, -1)


def alternating_character_oracle(
    d: RootDatum, lam, cap: int = DEFAULT_ORBIT_CAP
) -> FormalCharacter:
    """chi(lam) via the quotient of alternating orbit sums.

    Independent of the Freudenthal route: divides
    sum_w det(w) e(w(lam+rho)) by sum_w det(w) e(w(rho)) exactly.
    """
    lam = tuple(lam)
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")
    num = FormalCharacter(
        d, dict(orbit_with_dets(d, tuple(x + 1 for x in lam), cap)), _canonical=True
    )
    den = FormalCharacter(d, dict(orbit_with_dets(d, d.rho, cap)), _canonical=True)
    return divide_exact(num, den)


def s_r_character(d: RootDatum, p: int, r: int, lam, cap: int = DEFAULT_ORBIT_CAP) -> FormalCharacter:
    """Product of twisted orbit sums over the base-p digits of lam.

    Digit j contributes the orbit sum of lam^j with exponents scaled by
    p^j; the leading term is e(lam) with multiplicity 1.  Requires lam
    restricted for (p, r).
    """
    from .minuscule import p_digits

    phi = one(d)
    for j, dig in enumerate(p_digits(d, lam, p, r)):
        phi = char_mul(phi, frobenius_twist(orbit_sum(d, dig, cap), p, j))
    return phi


def _require_w_invariant(phi: FormalCharacter):
    if not phi.is_w_invariant():
        raise NotWInvariant("character is not W-invariant")


def brauer_klimyk(d: RootDatum, chi_vec: dict, phi: FormalCharacter) -> dict:
    """The chi-vector of (sum_a c_a chi(a)) * phi for W-invariant phi.

    Brauer-Klimyk: chi(a) * phi = sum_mu m_phi(mu) chi~(a + mu), where
    chi~ is dot-straightened (sign det(w), zero when a + mu + rho is
    singular).  Needs only the weights of phi; the full product is never
    built.  Raises NotWInvariant otherwise, where the formula is false.
    """
    if phi.datum != d:
        raise DatumMismatch(f"{phi.datum.spec} vs {d.spec}")
    _require_w_invariant(phi)
    out = {}
    get = out.get
    for a, c in chi_vec.items():
        for mu, m in phi._terms.items():
            lam = tuple(x + y for x, y in zip(a, mu))
            sign = 1  # a dominant weight is its own dot-representative
            if min(lam) < 0:
                lam, sign = to_dominant(d, lam, dot=True)
            if sign:
                new = get(lam, 0) + sign * c * m
                if new:
                    out[lam] = new
                else:
                    del out[lam]
    return out


def expand_in_orbit_sums(phi: FormalCharacter) -> dict:
    """Coefficients {nu: a_nu} with phi = sum a_nu s(nu).

    For a W-invariant character these are exactly the multiplicities at
    the dominant support weights (each orbit contains one dominant
    weight, with orbit-sum coefficient 1 there).
    """
    _require_w_invariant(phi)
    return phi.dominant_terms()


def _rho_offsets(d: RootDatum, cap):
    """[(rho - w(rho), det(w))], cached; drives the chi-basis inversion."""
    cached = d._cache.get("rho_offsets")
    if cached is None:
        rho = d.rho
        cached = tuple(
            (tuple(r - x for r, x in zip(rho, w)), s)
            for w, s in orbit_with_dets(d, rho, cap)
        )
        d._cache["rho_offsets"] = cached
    return cached


def expand_in_weyl_chars(
    phi: FormalCharacter, cap: int = DEFAULT_CONE_CAP
) -> dict:
    """Coefficients {nu: c_nu} with phi = sum c_nu chi(nu); exact, possibly negative.

    Uses the alternating inversion c_nu = sum_w det(w) m_phi(nu+rho-w(rho)),
    which is the coefficient of e(nu+rho) in phi * sum_w det(w) e(w rho);
    equivalent to triangular subtraction of leading Weyl characters but
    needs no character reassembly.  Candidates range over the dominant
    cone below the maximal dominant support weights.
    """
    _require_w_invariant(phi)
    if not phi:
        return {}
    d = phi.datum
    terms = phi._terms
    dom = sorted(
        (mu for mu in terms if min(mu) >= 0),
        key=lambda v: (-scaled_height(d, v), v),
    )
    maximals = []
    for mu in dom:
        if not any(dominance_leq(d, mu, nu) for nu in maximals):
            maximals.append(mu)
    candidates = set()
    for nu in maximals:
        candidates.update(dominant_below(d, nu, cap))
    offsets = _rho_offsets(d, 4 * cap)
    get = terms.get
    out = {}
    for mu in sorted(candidates):
        total = 0
        for off, s in offsets:
            m = get(tuple(x + y for x, y in zip(mu, off)))
            if m:
                total += s * m
        if total:
            out[mu] = total
    return out


def from_weyl_chars(d: RootDatum, vec: dict) -> FormalCharacter:
    """sum_nu c_nu chi(nu) for a chi-vector; the inverse of expand_in_weyl_chars."""
    out = {}
    get = out.get
    for nu, c in vec.items():
        for mu, m in weyl_character(d, nu)._terms.items():
            new = get(mu, 0) + c * m
            if new:
                out[mu] = new
            else:
                del out[mu]
    return FormalCharacter(d, out, _canonical=True)


def expand_in_weyl_chars_subtractive(
    phi: FormalCharacter, cap: int = DEFAULT_CONE_CAP
) -> dict:
    """Reference implementation by literal triangular subtraction.

    Slower than expand_in_weyl_chars but independent of it; kept as the
    cross-check route for the inversion formula.
    """
    _require_w_invariant(phi)
    d = phi.datum
    rem = dict(phi._terms)
    out = {}
    while rem:
        best = max(rem, key=lambda v: (scaled_height(d, v), v))
        if min(best) < 0:
            raise NotWInvariant(f"maximal term {best} is not dominant")
        c = rem[best]
        out[best] = c
        for mu, m in weyl_character(d, best, cap)._terms.items():
            new = rem.get(mu, 0) - c * m
            if new:
                rem[mu] = new
            else:
                rem.pop(mu, None)
    return out


def expand_in_sr(phi: FormalCharacter, p: int, r: int, cap: int = DEFAULT_CONE_CAP) -> dict:
    """Coefficients {nu: b_nu} with phi = sum b_nu s_r(nu), nu restricted.

    Triangular subtraction on the maximal dominant term; raises
    TermNotRestricted if a maximal term leaves the restricted box.
    """
    _require_w_invariant(phi)
    d = phi.datum
    bound = p**r
    rem = dict(phi._terms)
    out = {}
    while rem:
        best = max(rem, key=lambda v: (scaled_height(d, v), v))
        if min(best) < 0:
            raise NotWInvariant(f"maximal term {best} is not dominant")
        if max(best) >= bound:
            raise TermNotRestricted(
                f"dominant term {best} is outside X_{r} for p={p}"
            )
        c = rem[best]
        out[best] = c
        for mu, m in s_r_character(d, p, r, best, cap)._terms.items():
            new = rem.get(mu, 0) - c * m
            if new:
                rem[mu] = new
            else:
                rem.pop(mu, None)
    return out


def divide_exact(
    phi: FormalCharacter,
    delta: FormalCharacter,
    max_steps: int = DEFAULT_DIVISION_STEPS,
) -> FormalCharacter:
    """The psi with phi = delta * psi, if one exists in ZX(T).

    Long division against delta's maximal term in the canonical
    (scaled height, lex) order.  The order is translation invariant, so
    minimal terms multiply as well; a quotient exponent falling below
    min(phi) - min(delta) proves no exact quotient exists.
    """
    _require_same_datum(phi, delta)
    if not delta:
        raise ZeroDivisionError("division by the zero character")
    d = phi.datum
    if not phi:
        return zero(d)

    def key(v):
        return (scaled_height(d, v), v)

    dterms = delta._terms
    dmax = max(dterms, key=key)
    dmin = min(dterms, key=key)
    lead = dterms[dmax]
    pmin = min(phi._terms, key=key)
    floor_key = (
        scaled_height(d, pmin) - scaled_height(d, dmin),
        tuple(a - b for a, b in zip(pmin, dmin)),
    )
    rem = dict(phi._terms)
    out = {}
    steps = 0
    while rem:
        steps += 1
        if steps > max_steps:
            raise ResourceCap(f"division exceeded {max_steps} steps")
        rmax = max(rem, key=key)
        c = rem[rmax]
        q, leftover = divmod(c, lead)
        if leftover:
            raise NotDivisible(f"coefficient {c} not divisible by {lead} at {rmax}")
        qe = tuple(a - b for a, b in zip(rmax, dmax))
        if key(qe) < floor_key:
            raise NotDivisible(
                f"quotient term {qe} falls below the minimal-degree bound"
            )
        out[qe] = q
        for mu, m in dterms.items():
            w = tuple(x + y for x, y in zip(qe, mu))
            new = rem.get(w, 0) - q * m
            if new:
                rem[w] = new
            else:
                rem.pop(w, None)
    return FormalCharacter(d, out, _canonical=True)
