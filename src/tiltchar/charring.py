"""Exact arithmetic in the integral group ring ZX(T) of a weight lattice.

A formal character is a sparse integer map weight -> multiplicity in
canonical form (no explicit zeros).  Products are convolutions,
e(mu) * e(nu) = e(mu + nu).  Weyl characters are computed by
Freudenthal's multiplicity recursion over the dominant cone, each
multiplicity spread over its W-orbit as soon as it is known; an
independent alternating-sum route is kept as the tests' reference.
Basis expansions (orbit sums, Weyl characters, the twisted orbit-sum
products used for restricted weights) are exact and reassemble the
input bit for bit.
"""
from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from operator import add, mul
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
    RootDatum,
    RootSystemSpec,
    _orbit_layers,
    build_root_datum,
    dominance_leq,
    dominant_below,
    orbit_with_dets,
    reflect,
    root_lattice_coords,
    scaled_height,
    to_dominant,
    weyl_orbit,
)

# term updates (quotient terms times |supp delta|) past which divide_exact
# stops with ResourceCap
MAX_DIVISION_UPDATES = 2 * 10**6
# support size past which char_mul stops with ResourceCap
MAX_PRODUCT_TERMS = 10**6
# terms formatted per write by FormalCharacter.write_json
JSON_CHUNK_TERMS = 4096


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
        """Check multiplicity equality along every simple-reflection pair.

        The answer is kept.  one, orbit_sum and weyl_character mark their
        results W-invariant by construction, and frobenius_twist and
        char_mul carry the mark over; anything else is checked here.
        """
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

    def write_json(self, out):
        """Write json.dumps(self.to_json_dict()) and a newline to out.

        The same bytes, streamed: the sorted terms are formatted
        JSON_CHUNK_TERMS at a time, so no dict or list is built per term.
        """
        spec = self.datum.spec
        t = self._terms
        term = '{"w": [' + ", ".join(["%d"] * spec.rank) + '], "m": %d}'
        out.write(
            f'{{"type": {json.dumps(spec.series)}, "rank": {spec.rank}, "terms": ['
        )
        weights = sorted(t)
        for start in range(0, len(weights), JSON_CHUNK_TERMS):
            chunk = weights[start : start + JSON_CHUNK_TERMS]
            out.write(
                (", " if start else "")
                + ", ".join([term % (*mu, t[mu]) for mu in chunk])
            )
        out.write("]}\n")


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
    phi = e(d, (0,) * d.rank)
    phi._w_inv = True
    return phi


def _require_same_datum(a: FormalCharacter, b: FormalCharacter):
    if a.datum != b.datum:
        raise DatumMismatch(f"{a.datum.spec} vs {b.datum.spec}")


def _add_into(out: dict, terms, c: int = 1) -> dict:
    """out += c * terms in place, dropping every weight that cancels."""
    get = out.get
    for mu, m in terms.items():
        new = get(mu, 0) + c * m
        if new:
            out[mu] = new
        else:
            out.pop(mu, None)
    return out


def char_add(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    _require_same_datum(a, b)
    out = _add_into(dict(a._terms), b._terms)
    return FormalCharacter(a.datum, out, _canonical=True)


def scale(a: FormalCharacter, c: int) -> FormalCharacter:
    if c == 0:
        return zero(a.datum)
    return FormalCharacter(
        a.datum, {mu: c * m for mu, m in a._terms.items()}, _canonical=True
    )


def char_mul(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    """Convolution product; e(mu) e(nu) = e(mu + nu).

    Raises ResourceCap once the product's support passes
    MAX_PRODUCT_TERMS, checked after each row of the convolution.  The
    first row puts len(big) distinct non-zero terms into an empty
    accumulator, so a larger factor past the cap raises before any row.
    A product of two factors known to be W-invariant is marked so.
    """
    _require_same_datum(a, b)
    big, small = (a._terms, b._terms)
    if len(big) < len(small):
        big, small = small, big
    if small and len(big) > MAX_PRODUCT_TERMS:
        raise ResourceCap(f"product support exceeds cap {MAX_PRODUCT_TERMS}")
    out = {}
    get = out.get
    for nu, c in small.items():
        for mu, m in big.items():
            w = tuple(map(add, mu, nu))
            new = get(w, 0) + m * c
            if new:
                out[w] = new
            else:
                del out[w]
        if len(out) > MAX_PRODUCT_TERMS:
            raise ResourceCap(f"product support exceeds cap {MAX_PRODUCT_TERMS}")
    phi = FormalCharacter(a.datum, out, _canonical=True)
    if a._w_inv and b._w_inv:
        phi._w_inv = True
    return phi


def frobenius_twist(a: FormalCharacter, p: int, j: int) -> FormalCharacter:
    """Scale every exponent by p^j; multiplicities are untouched."""
    if j == 0:
        return a
    q = p**j
    phi = FormalCharacter(
        a.datum,
        {tuple(q * x for x in mu): m for mu, m in a._terms.items()},
        _canonical=True,
    )
    phi._w_inv = a._w_inv  # mu -> q mu commutes with W
    return phi


def orbit_sum(d: RootDatum, lam) -> FormalCharacter:
    """s(lam): the sum of e(mu) over the W-orbit of dominant lam."""
    lam = tuple(lam)
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")
    phi = FormalCharacter(d, {mu: 1 for mu in weyl_orbit(d, lam)}, _canonical=True)
    phi._w_inv = True
    return phi


def _weyl_terms(d: RootDatum, lam, cap) -> dict:
    """The terms of chi(lam), in one pass of Freudenthal's recursion.

    Walks dominant_below(d, lam) in its order and spreads each dominant
    multiplicity over its W-orbit as soon as it is known, so the table
    holds every weight of chi(lam) met so far.  The recursion for mu reads
    m(mu + k alpha) straight from it: dom(mu + k alpha) >= mu + k alpha > mu
    lies nearer lam, so it came earlier in the walk, which is by height of
    lam - mu, and its orbit is already in the table.  A missing key is
    therefore not a weight, and ends the alpha-string.  Keys are in
    insertion order: lam's orbit, then each dominant weight of non-zero
    multiplicity followed by its orbit.  Raises ResourceCap as soon as the
    table would hold more than cap weights.
    """
    doms = dominant_below(d, lam)
    sym = d.symmetrizer
    # per positive root: fw coords, the vector giving (x, alpha), and (alpha, alpha)
    roots = []
    for r in d.positive_roots:
        rdv = tuple(map(mul, r.root, sym))
        roots.append((r.fw, rdv, sum(map(mul, rdv, r.fw))))

    table = {}
    get = table.get

    def spread(mu, m):
        layers = _orbit_layers(d, mu, cap - len(table))
        if layers is None:
            raise ResourceCap(f"character support exceeds cap {cap}")
        for layer in layers:
            table.update(dict.fromkeys(layer, m))

    spread(lam, 1)
    for mu in doms[1:]:
        total = 0
        for fwa, rdv, aa in roots:
            base = sum(map(mul, rdv, mu))
            k = 1
            nu = tuple(map(add, mu, fwa))
            m = get(nu)
            while m is not None:
                total += m * (base + k * aa)
                k += 1
                nu = tuple(map(add, nu, fwa))
                m = get(nu)
        if total == 0:
            continue
        # denominator (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu)
        coords = root_lattice_coords(d, tuple(x - y for x, y in zip(lam, mu)))
        if coords is None:
            raise InternalMismatch(f"{lam} - {mu} is not in the root lattice")
        den = sum(
            ci * si * (x + y + 2) for ci, si, x, y in zip(coords, sym, lam, mu)
        )
        q, rem = divmod(2 * total, den)
        if rem or q <= 0:
            raise InternalMismatch(
                f"Freudenthal multiplicity of {mu} in chi({lam}) is {2 * total}/{den}"
            )
        spread(mu, q)
    return table


def weyl_character(d: RootDatum, lam) -> FormalCharacter:
    """chi(lam) = ch of the (dual) Weyl module with highest weight lam.

    Built by _weyl_terms; the result is W-invariant with leading term
    e(lam) of multiplicity 1.  Its support is bounded by 4 * d.cone_cap.
    Cached per datum.
    """
    lam = tuple(lam)
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")
    cache = d._cache.setdefault("weyl_char", {})
    phi = cache.get(lam)
    if phi is None:
        phi = FormalCharacter(d, _weyl_terms(d, lam, 4 * d.cone_cap), _canonical=True)
        phi._w_inv = True
        cache[lam] = phi
    return phi


def alternating_character_oracle(d: RootDatum, lam) -> FormalCharacter:
    """chi(lam) via the quotient of alternating orbit sums: a reference route.

    Independent of the Freudenthal route: divides
    sum_w det(w) e(w(lam+rho)) by sum_w det(w) e(w(rho)) exactly.  The
    tests compare weyl_character with it; the oracles suite checks the
    same identity without dividing (suites._check_weyl).
    """
    lam = tuple(lam)
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")
    num = FormalCharacter(
        d, dict(orbit_with_dets(d, tuple(x + 1 for x in lam))), _canonical=True
    )
    return divide_exact(num, _weyl_denominator(d))


def s_r_character(d: RootDatum, p: int, r: int, lam) -> FormalCharacter:
    """Product of twisted orbit sums over the base-p digits of lam.

    Digit j contributes the orbit sum of lam^j with exponents scaled by
    p^j; the leading term is e(lam) with multiplicity 1.  The product
    starts from digit 0's orbit sum, so s_1(lam) is s(lam) itself, with
    no convolution.  Requires lam restricted for (p, r).
    """
    from .minuscule import p_digits

    phi = one(d)  # the empty product, for r = 0
    for j, dig in enumerate(p_digits(d, lam, p, r)):
        twisted = frobenius_twist(orbit_sum(d, dig), p, j)
        phi = char_mul(phi, twisted) if j else twisted
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
            lam = tuple(map(add, a, mu))
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


def _rho_offsets(d: RootDatum):
    """[(rho - w(rho), det(w))], cached; drives the chi-basis inversion."""
    cached = d._cache.get("rho_offsets")
    if cached is None:
        rho = d.rho
        cached = tuple(
            (tuple(r - x for r, x in zip(rho, w)), s)
            for w, s in orbit_with_dets(d, rho)
        )
        d._cache["rho_offsets"] = cached
    return cached


def _weyl_denominator(d: RootDatum) -> FormalCharacter:
    """sum_w det(w) e(w(rho)), cached; rebuilt from the cached rho offsets."""
    den = d._cache.get("weyl_denominator")
    if den is None:
        rho = d.rho
        terms = {tuple(r - x for r, x in zip(rho, off)): s for off, s in _rho_offsets(d)}
        den = FormalCharacter(d, terms, _canonical=True)
        d._cache["weyl_denominator"] = den
    return den


def expand_in_weyl_chars(phi: FormalCharacter) -> dict:
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
        candidates.update(dominant_below(d, nu))
    offsets = _rho_offsets(d)
    get = terms.get
    out = {}
    for mu in sorted(candidates):
        total = 0
        for off, s in offsets:
            m = get(tuple(map(add, mu, off)))
            if m:
                total += s * m
        if total:
            out[mu] = total
    return out


def from_weyl_chars(d: RootDatum, vec: dict) -> FormalCharacter:
    """sum_nu c_nu chi(nu) for a chi-vector; the inverse of expand_in_weyl_chars.

    A summand already in the weyl_char bucket is read from there; any
    other is built by _weyl_terms and dropped once added, so a long
    chi-vector does not fill the bucket.
    """
    cache = d._cache.get("weyl_char", {})
    cap = 4 * d.cone_cap
    out = {}
    for nu, c in vec.items():
        phi = cache.get(nu)
        _add_into(out, _weyl_terms(d, nu, cap) if phi is None else phi._terms, c)
    return FormalCharacter(d, out, _canonical=True)


def _peel(d: RootDatum, vec: dict, basis):
    """Expand vec, a dict of dominant weights, in a unitriangular basis.

    Repeatedly takes the (scaled height, lex)-greatest remainder term nu
    and subtracts c * basis(nu), where basis(nu) gives the dominant terms
    of the basis element led by e(nu) with coefficient 1, or None to stop.
    Returns the coefficients in peel order and whether the remainder was
    used up.
    """
    rem = dict(vec)
    out = {}
    while rem:
        nu = max(rem, key=lambda v: (scaled_height(d, v), v))
        terms = basis(nu)
        if terms is None:
            return out, False
        c = out[nu] = rem[nu]
        _add_into(rem, terms, -c)
    return out, True


def expand_in_sr(phi: FormalCharacter, p: int, r: int) -> dict:
    """Coefficients {nu: b_nu} with phi = sum b_nu s_r(nu), nu restricted.

    Triangular subtraction on the maximal dominant term; raises
    TermNotRestricted if a maximal term leaves the restricted box.  phi
    and every s_r(nu) are W-invariant, so each remainder is fixed by its
    dominant terms, and only those are peeled.
    """
    _require_w_invariant(phi)
    d = phi.datum
    bound = p**r

    def basis(nu):
        if max(nu) >= bound:
            raise TermNotRestricted(
                f"dominant term {nu} is outside X_{r} for p={p}"
            )
        return s_r_character(d, p, r, nu).dominant_terms()

    return _peel(d, phi.dominant_terms(), basis)[0]


def divide_exact(phi: FormalCharacter, delta: FormalCharacter) -> FormalCharacter:
    """The psi with phi = delta * psi, if one exists in ZX(T).

    Long division against delta's maximal term in the canonical
    (scaled height, lex) order.  The order is translation invariant, so
    minimal terms multiply as well; a quotient exponent falling below
    min(phi) - min(delta) proves no exact quotient exists.  Newton
    polytopes add under products, so coordinate i of every quotient
    exponent also lies in [min_i phi - min_i delta, max_i phi - max_i delta];
    a term outside this box proves the same, and as the box is finite
    every division ends.  Raises ResourceCap once the term updates, the
    quotient terms times |supp delta|, pass MAX_DIVISION_UPDATES.

    Inside one division a weight is one int.  By the Newton-box bound,
    every remainder weight lies in phi's coordinate box [min_i phi,
    max_i phi]: it is a term of phi, or qe + mu for a term mu of delta and
    a quotient exponent qe that passed the check before it was used.  On
    the box B of phi and delta together,
    K(v) = scaled_height(v) * S + sum_i (v_i - min_i B) * s_i, shifted by
    a constant, with s the mixed radix of B (last coordinate least
    significant) and S its size.  K is one-to-one on B and ordered
    exactly like (scaled height, v), and it is linear, so the key of
    qe + mu is K(leader) - K(max delta) + K(mu): a term update is one int
    add and one dict lookup.  Leading terms come off a lazy heap of -K,
    pushed when a weight enters the remainder and skipped on pop once it
    has left.  Subtracting a multiple of delta touches only terms below
    the current leader, so the pops are exactly the successive maxima.
    Only a popped leader is unpacked to a weight, for the checks and the
    quotient; tests/oracles.py::divide_exact_maxscan is the reference on
    weight tuples.
    """
    _require_same_datum(phi, delta)
    if not delta:
        raise ZeroDivisionError("division by the zero character")
    d = phi.datum
    if not phi:
        return zero(d)
    dterms = delta._terms
    columns = list(zip(zip(*phi._terms), zip(*dterms)))
    lows = [min(a) - min(b) for a, b in columns]
    highs = [max(a) - max(b) for a, b in columns]
    # the box of phi and delta as a mixed radix, last coordinate least
    # significant: (place value s_i, least coordinate i) per coordinate
    digits = []
    size = 1
    for a, b in reversed(columns):
        least = min(min(a), min(b))
        digits.append((size, least))
        size *= max(max(a), max(b)) - least + 1
    digits.reverse()
    # K(v) = sum_i coef_i * v_i
    #      = scaled_height(v) * size + offset + sum_i (v_i - least_i) * s_i
    coef = [h * size + s for h, (s, _) in zip(d.hvec, digits)]
    offset = sum(s * b for s, b in digits)

    def unpack(k):
        h, rest = divmod(k - offset, size)
        v = []
        for s, b in digits:
            x, rest = divmod(rest, s)
            v.append(x + b)
        return h, tuple(v)

    dkeys = {sum(map(mul, coef, mu)): m for mu, m in dterms.items()}
    dlist = list(dkeys.items())
    kdmax = max(dkeys)
    hmax, dmax = unpack(kdmax)
    hmin, dmin = unpack(min(dkeys))
    lead = dkeys[kdmax]
    rem = {sum(map(mul, coef, v)): m for v, m in phi._terms.items()}
    hpmin, pmin = unpack(min(rem))
    floor_key = (hpmin - hmin, tuple(a - b for a, b in zip(pmin, dmin)))
    get = rem.get
    heap = [-k for k in rem]
    heapify(heap)
    out = {}
    updates = 0
    while rem:
        updates += len(dlist)
        if updates > MAX_DIVISION_UPDATES:
            raise ResourceCap(
                f"division exceeded {MAX_DIVISION_UPDATES} term updates"
            )
        k = -heappop(heap)
        while k not in rem:
            k = -heappop(heap)
        h, rmax = unpack(k)
        c = rem[k]
        q, leftover = divmod(c, lead)
        if leftover:
            raise NotDivisible(f"coefficient {c} not divisible by {lead} at {rmax}")
        qe = tuple(a - b for a, b in zip(rmax, dmax))
        if (h - hmax, qe) < floor_key:
            raise NotDivisible(
                f"quotient term {qe} falls below the minimal-degree bound"
            )
        if any(x < lo or x > hi for x, lo, hi in zip(qe, lows, highs)):
            raise NotDivisible(f"quotient term {qe} lies outside the Newton box")
        out[qe] = q
        kq = k - kdmax
        for kmu, m in dlist:
            w = kq + kmu
            qm = q * m
            old = get(w)
            if old is None:
                rem[w] = -qm
                heappush(heap, -w)
            elif old != qm:
                rem[w] = old - qm
            else:
                del rem[w]
    return FormalCharacter(d, out, _canonical=True)
