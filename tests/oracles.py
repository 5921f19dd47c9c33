"""Slow reference routes that the library's fast paths are tested against.

Each function here is an independent, simpler implementation of a
library function: the tests compare the two on random and example input.
"""
import itertools
from fractions import Fraction

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
    weyl_character,
    zero,
)
from tiltchar.errors import (
    InternalMismatch,
    NotDivisible,
    NotDominant,
    NotWInvariant,
    OrbitTooLarge,
    ResourceCap,
    TermNotRestricted,
)
from tiltchar.minuscule import p_digits
from tiltchar.rootsys import (
    DEFAULT_CONE_CAP,
    DEFAULT_ORBIT_CAP,
    RootDatum,
    Weight,
    _orbit_layers,
    dominant_below,
    reflect,
    root_lattice_coords,
    scaled_height,
    to_dominant,
)
from tiltchar.tilting import _require_pr_minuscule, steinberg_character


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
        layers = _orbit_layers(d, mu, cap - len(out))
        if layers is None:
            raise ResourceCap(f"character support exceeds cap {cap}")
        for layer in layers:
            out.update(dict.fromkeys(layer, m))
    return out


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
    for j, dig in enumerate(p_digits(d, lam, p, r)):
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
    digits = p_digits(d, lam, p, r)
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


def weyl_orbit_dfs(d: RootDatum, lam: Weight, cap: int = DEFAULT_ORBIT_CAP) -> list:
    """The full W-orbit of lam, deduplicated and lexicographically sorted.

    Depth-first closure under the simple reflections with a seen-set, so
    each weight is rebuilt once per incoming edge; the reference for
    rootsys.weyl_orbit.
    """
    start, _ = to_dominant(d, lam)
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

    Seen-set depth-first closure; the reference for rootsys.orbit_with_dets.
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
