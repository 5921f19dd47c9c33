"""Slow reference routes that the library's fast paths are tested against.

Each function here is an independent, simpler implementation of a
library function: the tests compare the two on random and example input.
"""
import itertools
from fractions import Fraction
from operator import add, mul

from tiltchar import charring
from tiltchar.charring import (
    FormalCharacter,
    _require_same_datum,
    _require_w_invariant,
    brauer_klimyk,
    char_mul,
    frobenius_twist,
    one,
    orbit_sum,
    s_r_character,
    steinberg_character,
    weyl_character,
    zero,
)
from tiltchar.errors import (
    InternalMismatch,
    NotDivisible,
    NotDominant,
    NotRestricted,
    NotWInvariant,
    OrbitTooLarge,
    ResourceCap,
    TermNotRestricted,
)
from tiltchar.rootsys import (
    DEFAULT_CONE_CAP,
    DEFAULT_ORBIT_CAP,
    _NEG,
    RootDatum,
    Weight,
    _fill_orbit,
    dominance_leq,
    dominant_below,
    pairing,
    root_lattice_coords,
    scaled_height,
    to_dominant,
)
from tiltchar.tilting import _require_pr_minuscule


def _require_dominant(lam):
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")


def is_restricted_scan(d: RootDatum, lam, p: int, r: int) -> bool:
    """lam in X_r(T): dominant with all simple pairings < p^r."""
    lam = tuple(lam)
    _require_dominant(lam)
    bound = p**r
    return all(x < bound for x in lam)


def p_digits_divmod(d: RootDatum, lam, p: int, r: int):
    """The r base-p digits of a restricted weight, digit j at index j.

    The reference for minuscule.p_digits and the split behind the
    library's digit-wise classes.
    """
    lam = tuple(lam)
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if not is_restricted_scan(d, lam, p, r):
        raise NotRestricted(f"{lam} is not restricted for p={p}, r={r}")
    digits = []
    rest = lam
    for _ in range(r):
        digits.append(tuple(x % p for x in rest))
        rest = tuple(x // p for x in rest)
    if any(rest):
        raise InternalMismatch(f"{lam} has more than {r} base-{p} digits")
    return digits


def _root_pairings_at_most(d: RootDatum, lam, bound: int) -> bool:
    """<lam, alpha^v> <= bound for every positive root alpha, root by root."""
    return all(pairing(d, lam, i) <= bound for i in range(len(d.positive_roots)))


def is_minuscule_scan(d: RootDatum, lam) -> bool:
    """Dominant with every positive-root pairing at most 1.

    The reference for minuscule.is_minuscule, which reads the highest
    short coroot alone.
    """
    lam = tuple(lam)
    _require_dominant(lam)
    return _root_pairings_at_most(d, lam, 1)


def is_p_minuscule_scan(d: RootDatum, lam, p: int) -> bool:
    """Dominant with every positive-root pairing at most p; the reference
    for minuscule.is_p_minuscule."""
    lam = tuple(lam)
    _require_dominant(lam)
    return _root_pairings_at_most(d, lam, p)


def in_lowest_alcove_scan(d: RootDatum, lam, p: int) -> bool:
    """<lam + rho, alpha^v> <= p for every positive root alpha.

    The reference for minuscule.in_lowest_alcove, which reads the highest
    short coroot alone.
    """
    lam = tuple(lam)
    _require_dominant(lam)
    return _root_pairings_at_most(d, tuple(x + 1 for x in lam), p)


def is_pr_minuscule_scan(d: RootDatum, lam, p: int, r: int) -> bool:
    """Restricted with every base-p digit p-minuscule."""
    lam = tuple(lam)
    _require_dominant(lam)
    if not is_restricted_scan(d, lam, p, r):
        return False
    return all(is_p_minuscule_scan(d, dig, p) for dig in p_digits_divmod(d, lam, p, r))


def is_r_minuscule_scan(d: RootDatum, lam, p: int, r: int) -> bool:
    """Restricted with every base-p digit minuscule."""
    lam = tuple(lam)
    _require_dominant(lam)
    if not is_restricted_scan(d, lam, p, r):
        return False
    return all(is_minuscule_scan(d, dig) for dig in p_digits_divmod(d, lam, p, r))


def product_peel_loop(d: RootDatum, mu, p: int, max_r: int = 4):
    """The first r <= max_r at which mu peels as (p^r-1)rho + lam + p^r inner.

    The selection of TiltingCharProvider.resolve's product route when it
    tried every r: (r, lam, inner) for the least r with mu - (p^r-1)rho
    dominant, inner non-zero and lam (p, r)-minuscule, or None.  The
    provider now tries r = 1 alone.
    """
    for r in range(1, max_r + 1):
        q = p**r
        rest = tuple(x - (q - 1) for x in mu)
        if min(rest) < 0:
            continue
        lam = tuple(x % q for x in rest)
        inner = tuple(x // q for x in rest)
        if any(inner) and is_pr_minuscule_scan(d, lam, p, r):
            return r, lam, inner
    return None


def divide_exact_maxscan(phi: FormalCharacter, delta: FormalCharacter) -> FormalCharacter:
    """The psi with phi = delta * psi, if one exists in ZX(T).

    Long division against delta's maximal term in the canonical
    (scaled height, lex) order.  The order is translation invariant, so
    minimal terms multiply as well; a quotient exponent falling below
    min(phi) - min(delta) proves no exact quotient exists, and so does
    one outside the box min_i phi - min_i delta <= q_i <= max_i phi - max_i delta
    (Newton polytopes add under products).

    Rescans the whole remainder for its maximum on every step, so it is
    quadratic in the support size; the reference for charring.divide_exact,
    whose budget of term updates (quotient terms times |supp delta|),
    charring.MAX_DIVISION_UPDATES, it reads at call time.
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
    columns = list(zip(zip(*phi._terms), zip(*dterms)))
    lows = [min(a) - min(b) for a, b in columns]
    highs = [max(a) - max(b) for a, b in columns]
    rem = dict(phi._terms)
    out = {}
    updates = 0
    budget = charring.MAX_DIVISION_UPDATES
    while rem:
        updates += len(dterms)
        if updates > budget:
            raise ResourceCap(f"division exceeded {budget} term updates")
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
        if any(x < lo or x > hi for x, lo, hi in zip(qe, lows, highs)):
            raise NotDivisible(f"quotient term {qe} lies outside the Newton box")
        out[qe] = q
        for mu, m in dterms.items():
            w = tuple(x + y for x, y in zip(qe, mu))
            new = rem.get(w, 0) - q * m
            if new:
                rem[w] = new
            else:
                rem.pop(w, None)
    return FormalCharacter(d, out, _canonical=True)


def freudenthal_dominant(d: RootDatum, lam):
    """Multiplicities of the dominant weights of the Weyl module of lam.

    Freudenthal's recursion over dominant_below(d, lam) alone: each
    m(mu + k alpha) is read at the dominant conjugate, found by
    dot-straightening through a memo built afresh per call.  Zero
    multiplicities are left out.
    """
    doms = dominant_below(d, lam)
    sym = d.symmetrizer
    # per positive root: fw coords, the vector giving (x, alpha), and (alpha, alpha)
    roots = []
    for r in d.positive_roots:
        rdv = tuple(c * dd for c, dd in zip(r.root, sym))
        aa = sum(v * f for v, f in zip(rdv, r.fw))
        roots.append((r.fw, rdv, aa))

    table = {lam: 1}
    straighten = {}
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
        table[mu] = q
    return table


def weyl_terms_two_pass(d: RootDatum, lam, cap) -> dict:
    """The terms of chi(lam): freudenthal_dominant, then W-symmetrized.

    The reference for charring._weyl_terms, which does both in one pass.
    Raises ResourceCap once the support passes cap, but only after every
    dominant multiplicity is known.
    """
    out = {}
    for mu, m in freudenthal_dominant(d, lam).items():
        if not _fill_orbit(d, mu, cap - len(out), out, m):
            raise ResourceCap(f"character support exceeds cap {cap}")
    return out


def weyl_terms_loop(d: RootDatum, lam, cap) -> dict:
    """charring._weyl_terms with its recursion as a generic loop over the
    positive roots: the reference for the generated RootDatum.freudenthal.

    The same one pass, string-sum memo and orbit spread, so the same
    terms in the same insertion order, and the same ResourceCap raised
    from the same orbit walk.
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
    sums = {lam: (0,) * len(roots)}  # lam + alpha is never a weight
    prev_sums = sums.get

    def spread(mu, m):
        if not _fill_orbit(d, mu, cap - len(table), table, m):
            raise ResourceCap(f"character support exceeds cap {cap}")

    spread(lam, 1)
    for mu in doms[1:]:
        strings = []
        for i, (fwa, rdv, aa) in enumerate(roots):
            nu = tuple(map(add, mu, fwa))
            m = get(nu)
            if m is None:
                strings.append(0)
                continue
            base = sum(map(mul, rdv, mu))
            done = prev_sums(nu)
            if done is not None:
                strings.append(m * (base + aa) + done[i])
                continue
            s = 0
            k = 1
            while m is not None:
                s += m * (base + k * aa)
                k += 1
                nu = tuple(map(add, nu, fwa))
                m = get(nu)
            strings.append(s)
        sums[mu] = strings = tuple(strings)
        total = sum(strings)
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


def expand_in_weyl_chars_subtractive(phi: FormalCharacter) -> dict:
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
        for mu, m in weyl_character(d, best)._terms.items():
            new = rem.get(mu, 0) - c * m
            if new:
                rem[mu] = new
            else:
                rem.pop(mu, None)
    return out


def expand_in_weyl_chars_alternating(phi: FormalCharacter) -> dict:
    """Coefficients {nu: c_nu} with phi = sum c_nu chi(nu), by the
    alternating inversion.

    c_nu = sum_w det(w) m_phi(nu + rho - w(rho)) is the coefficient of
    e(nu + rho) in phi * sum_w det(w) e(w rho).  The candidates nu range
    over the dominant cones below the maximal dominant terms of phi, and
    the orbit of rho comes from orbit_with_dets_dfs, so no weight is
    dot-straightened; the reference for charring.expand_in_weyl_chars,
    which straightens every term.
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
    offsets = [
        (tuple(r - x for r, x in zip(d.rho, w)), s)
        for w, s in orbit_with_dets_dfs(d, d.rho)
    ]
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


def expand_in_sr_maxscan(phi: FormalCharacter, p: int, r: int) -> dict:
    """Coefficients {nu: b_nu} with phi = sum b_nu s_r(nu), nu restricted.

    Triangular subtraction on the maximal term of the whole remainder,
    rescanned on every step; the reference for charring.expand_in_sr,
    which peels dominant terms only.
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
        for mu, m in s_r_character(d, p, r, best)._terms.items():
            new = rem.get(mu, 0) - c * m
            if new:
                rem[mu] = new
            else:
                rem.pop(mu, None)
    return out


def _digit_tilting(d, p: int, dig) -> FormalCharacter:
    """ch T((p-1)rho + dig) as the full product chi((p-1)rho) * s(dig).

    Formed here, not by the library's tilting_char_p, which is a case of
    the tilting_char_pr the references below test.
    """
    return char_mul(steinberg_character(d, p, 1), orbit_sum(d, dig))


def tilting_char_pr_convolution(d, p: int, r: int, lam) -> FormalCharacter:
    """ch T((p^r-1)rho + lam) for (p, r)-minuscule lam, by full convolution.

    Computed two ways and compared: the Steinberg character times the
    twisted-orbit-sum product, and the product of the r twisted digit
    factors ch T((p-1)rho + lam^j).  Disagreement is an internal error.
    The reference for tilting.tilting_char_pr and tilting_chi_pr, which
    work in the Weyl-character basis.
    """
    lam = tuple(lam)
    _require_pr_minuscule(d, lam, p, r)
    direct = char_mul(steinberg_character(d, p, r), s_r_character(d, p, r, lam))
    product = one(d)
    for j, dig in enumerate(p_digits_divmod(d, lam, p, r)):
        product = char_mul(product, frobenius_twist(_digit_tilting(d, p, dig), p, j))
    if direct != product:
        raise InternalMismatch(
            f"tilting character forms disagree for {lam}, p={p}, r={r}"
        )
    return direct


def tilting_chi_pr_by_digit_tiltings(d, p: int, r: int, lam) -> dict:
    """The chi-vector of T((p^r-1)rho + lam) as T_p(lam^0) T_p(lam^1)^[1] ...

    Folds each twisted full ch T((p-1)rho + lam^j)^[j], j >= 1, into the
    chi-vector of T_p(lam^0) by Brauer-Klimyk.  The reference for the
    digit route of tilting.tilting_chi_pr, which folds St^[j] and
    s(lam^j)^[j] one after the other.
    """
    lam = tuple(lam)
    _require_pr_minuscule(d, lam, p, r)
    digits = p_digits_divmod(d, lam, p, r)
    product = brauer_klimyk(d, {(p - 1,) * d.rank: 1}, orbit_sum(d, digits[0]))
    for j in range(1, r):
        product = brauer_klimyk(
            d, product, frobenius_twist(_digit_tilting(d, p, digits[j]), p, j)
        )
    return product


_W_ORDER_E = {6: 51840, 7: 2903040, 8: 696729600}


def symmetrizer_fraction(C, n):
    """The d with d[i]*C[i][j] symmetric and min(d) == 1, in Fractions.

    Propagates length ratios over the Dynkin diagram; the reference for
    rootsys._symmetrizer, which stays in integers.
    """
    d = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and C[i][j] != 0 and d[j] is None:
                d[j] = d[i] * C[i][j] / C[j][i]
                queue.append(j)
    lo = min(d)
    d = [x / lo for x in d]
    if any(x.denominator != 1 for x in d):
        raise InternalMismatch(f"symmetrizer {d} is not integral")
    return tuple(int(x) for x in d)


def invert_integer_matrix_fraction(C, n):
    """(det C, adjugate of C) by Gauss-Jordan elimination over Fractions.

    The adjugate is det * C^{-1}, all integers; the reference for
    rootsys._invert_integer_matrix, which is fraction-free.
    """
    aug = [[Fraction(C[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    if det.denominator != 1:
        raise InternalMismatch(f"Cartan determinant {det} is not an integer")
    det_i = int(det)
    adj = tuple(
        tuple(int(aug[i][n + j] * det_i) for j in range(n)) for i in range(n)
    )
    if any(aug[i][n + j] * det_i != adj[i][j] for i in range(n) for j in range(n)):
        raise InternalMismatch("adjugate of the Cartan matrix is not integral")
    return det_i, adj


def weyl_group_order(d: RootDatum) -> int:
    """|W| from the classical order formulas (independent of root generation)."""
    n = d.rank
    s = d.spec.series
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    if s == "A":
        return fact * (n + 1)
    if s in ("B", "C"):
        return fact * 2**n
    if s == "D":
        return fact * 2 ** (n - 1)
    if s == "E":
        return _W_ORDER_E[n]
    if s == "F":
        return 1152
    return 12  # G2


def weyl_group_matrices(d: RootDatum, cap: int = 10**6):
    """All elements of W as matrices on fw coordinates, with determinants.

    Brute-force closure from the simple reflections; intended for oracle
    tests at small rank.  Returns a list of (matrix, det) pairs where
    matrix rows act by ``apply_matrix``.
    """
    n = d.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = []
    for i in range(n):
        rows = []
        for k in range(n):
            row = [int(k == j) for j in range(n)]
            row[i] -= d.cartan[k][i]
            rows.append(tuple(row))
        gens.append(tuple(rows))
    elements = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            s = elements[m]
            for g in gens:
                prod = tuple(
                    tuple(sum(g[i][k] * m[k][j] for k in range(n)) for j in range(n))
                    for i in range(n)
                )
                if prod not in elements:
                    if len(elements) >= cap:
                        raise OrbitTooLarge(f"Weyl group exceeds cap {cap}")
                    elements[prod] = -s
                    nxt.append(prod)
        frontier = nxt
    return list(elements.items())


def minus_w0(d: RootDatum, lam: Weight) -> Weight:
    """-w0(lam), i.e. the highest weight of the dual module.

    -w0 permutes the fundamental weights, so on coordinates it is the
    permutation the datum computed at construction time (valid for all
    weights, dominant or not, since it is a linear map).
    """
    out = [0] * d.rank
    for i, x in enumerate(lam):
        out[d.w0_perm[i]] = x
    return tuple(out)


def apply_matrix(m, mu: Weight) -> Weight:
    return tuple(sum(row[k] * mu[k] for k in range(len(mu))) for row in m)


def reflect(d: RootDatum, mu: Weight, i: int) -> Weight:
    """Simple reflection s_i(mu) = mu - <mu, alpha_i^v> alpha_i."""
    c = mu[i]
    if c == 0:
        return mu
    col = d.refl_cols[i]
    return tuple(x - c * y for x, y in zip(mu, col))


def to_dominant_loop(d: RootDatum, mu: Weight, dot: bool = False):
    """Dominant representative of mu under W (plain) or under the dot action.

    Plain mode returns ``(lam, 1)``; dot mode ``(lam, det(w))`` with
    ``w . mu = lam``, or sign 0 when mu + rho is singular.  Reflects at the
    first negative coordinate of a list until none is left; the reference
    for rootsys.to_dominant, whose loop is generated per datum.
    """
    n = d.rank
    v = [x + 1 for x in mu] if dot else list(mu)
    sign = 1
    while True:
        for i in range(n):
            if v[i] < 0:
                c = v[i]
                col = d.refl_cols[i]
                for k in range(n):
                    v[k] -= c * col[k]
                sign = -sign
                break
        else:
            break
    if not dot:
        return tuple(v), 1
    return tuple(x - 1 for x in v), 0 if 0 in v else sign


def orbit_layers_loop(d: RootDatum, lam: Weight, cap: int):
    """The W-orbit of dominant lam as layers, or None past cap weights.

    Stembridge's tree walk with the per-reflection steps read from tables:
    s_i(nu) with nu[i] > 0 is a child of nu exactly when no j < i has
    nu[j] < nu[i] * refl_cols[i][j]; the child is built as a list, patched
    and turned into a tuple, its negated coordinate read from
    rootsys._NEG (a range past the table).  The reference for
    rootsys._fill_orbit, whose walk is generated per datum: layer k holds
    the weights it stores with sign**k, in the same order, with the same
    int sharing.
    """
    n = d.rank
    # per s_i: i, the (j, refl_cols[i][j]) for j < i, and the neighbours j
    # of node i with -refl_cols[i][j] > 0, the other coordinates s_i changes
    steps = tuple(
        (
            i,
            tuple((j, col[j]) for j in range(i)),
            tuple((j, -col[j]) for j in range(n) if j != i and col[j]),
        )
        for i, col in enumerate(d.refl_cols)
    )
    bound = sum(a * b for a, b in zip(lam, d.highest_coroot))
    neg = _NEG if bound < len(_NEG) else range(0, -bound - 1, -1)
    layers = []
    layer = [lam]
    size = 0
    while layer:
        size += len(layer)
        if size > cap:
            return None
        layers.append(layer)
        nxt = []
        for nu in layer:
            for i, lower, nbrs in steps:
                c = nu[i]
                if c > 0:
                    for j, a in lower:
                        if nu[j] < c * a:
                            break
                    else:
                        child = list(nu)
                        child[i] = neg[c]
                        for j, a in nbrs:
                            child[j] += c * a
                        nxt.append(tuple(child))
        layer = nxt
    return layers


def is_w_invariant_scan(phi: FormalCharacter) -> bool:
    """m(s_i(mu)) == m(mu) for every term mu and every i with mu[i] != 0.

    Reflects term by term with reflect and neither reads nor sets phi's
    W-invariance mark; the reference for FormalCharacter.is_w_invariant,
    whose scan is generated per datum.
    """
    d = phi.datum
    t = phi._terms
    for mu, m in t.items():
        for i in range(d.rank):
            if mu[i] != 0 and t.get(reflect(d, mu, i), 0) != m:
                return False
    return True


def weyl_orbit_dfs(d: RootDatum, lam: Weight, cap: int = DEFAULT_ORBIT_CAP) -> list:
    """The full W-orbit of lam, deduplicated and lexicographically sorted.

    Depth-first closure under the simple reflections with a seen-set, so
    each weight is rebuilt once per incoming edge; the reference for
    rootsys.weyl_orbit.
    """
    start, _ = to_dominant_loop(d, lam)
    seen = {start}
    stack = [start]
    n = d.rank
    while stack:
        mu = stack.pop()
        for i in range(n):
            if mu[i] > 0:
                nu = reflect(d, mu, i)
                if nu not in seen:
                    if len(seen) >= cap:
                        raise OrbitTooLarge(
                            f"orbit of {lam} exceeds cap {cap}"
                        )
                    seen.add(nu)
                    stack.append(nu)
    return sorted(seen)


def orbit_with_dets_dfs(d: RootDatum, tau: Weight, cap: int = DEFAULT_ORBIT_CAP):
    """[(w(tau), det(w))] for regular dominant tau, sorted by weight.

    Seen-set depth-first closure; the reference for the orbit walk's
    signed table, sorted(rootsys._orbit_table(d, tau, -1).items()).
    """
    if min(tau) <= 0:
        raise NotDominant(f"{tau} is not regular dominant")
    seen = {tau: 1}
    stack = [tau]
    n = d.rank
    while stack:
        mu = stack.pop()
        s = seen[mu]
        for i in range(n):
            if mu[i] > 0:
                nu = reflect(d, mu, i)
                if nu not in seen:
                    if len(seen) >= cap:
                        raise OrbitTooLarge(f"orbit of {tau} exceeds cap {cap}")
                    seen[nu] = -s
                    stack.append(nu)
    return sorted(seen.items())


def dominant_below_boxscan(d: RootDatum, lam: Weight, cap: int = DEFAULT_CONE_CAP):
    """All dominant mu with lam - mu in the non-negative root lattice.

    Ordered by increasing height of lam - mu, ties broken lexicographically.
    Scans every point of the root-coordinate box below lam, so its cost
    grows with the box, not the cone; the reference for
    rootsys.dominant_below.  Uncached, so it never reads the library's
    per-datum cache.
    """
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")
    n = d.rank
    # mu dominant and lam - mu = sum c_i alpha_i with c_i >= 0 forces
    # c_i <= (root-basis coordinate i of lam), since dominant weights have
    # non-negative root-basis coordinates.
    bounds = []
    for i in range(n):
        num = sum(d.adjugate[i][k] * lam[k] for k in range(n))
        if num < 0:
            raise InternalMismatch(f"dominant {lam} has a negative root coordinate")
        bounds.append(num // d.det)
    size = 1
    for b in bounds:
        size *= b + 1
        if size > cap:
            raise ResourceCap(
                f"dominant cone below {lam} exceeds cap {cap}"
            )
    cols = d.refl_cols  # column i = fw coords of alpha_i
    found = []
    for c in itertools.product(*(range(b + 1) for b in bounds)):
        mu = list(lam)
        for i in range(n):
            ci = c[i]
            if ci:
                col = cols[i]
                for k in range(n):
                    mu[k] -= ci * col[k]
        if min(mu) >= 0:
            found.append((sum(c), tuple(mu)))
    found.sort()
    return tuple(mu for _, mu in found)
