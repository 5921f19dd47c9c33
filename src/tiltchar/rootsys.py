"""Exact root-system data for the simple series A-G.

Weights are plain integer tuples in the fundamental-weight basis, so
``mu[i] == <mu, alpha_i^v>`` for the i-th simple coroot.  Every positive
root carries its coordinates in both the simple-root and simple-coroot
bases, which turns all pairings into integer dot products; no floating
point is used anywhere.

Positive roots are generated by height-graded closure from the simple
roots using root strings, so no per-type root tables are transcribed.
"""
from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import NamedTuple

from .errors import InternalMismatch, InvalidSpec, NotDominant, OrbitTooLarge, ResourceCap

Weight = tuple  # tuple[int, ...] in the fundamental-weight basis

DEFAULT_ORBIT_CAP = 10**7
DEFAULT_CONE_CAP = 4 * 10**6
# largest rank a RootSystemSpec accepts: building a datum is polynomial in
# the rank (about 0.3 s at 32), and each generated kernel's source grows as
# its square, the Freudenthal kernel's as the number of positive roots times
# the rank (about 0.5 s to generate at D32)
MAX_RANK = 32
# _NEG[c] is -c: the one int object every orbit walk uses for a negated
# coordinate c, as long as the walk's bound fits the table
_NEG = tuple(range(0, -1024, -1))

_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


# is_prime checks every characteristic p the CLI reads; it lives with the
# other input checks here, so a command that calls nothing in simplechar
# does not load it.  Miller-Rabin with the first 13 primes as bases is
# exact below PRIME_TEST_LIMIT, the least strong pseudoprime to all of
# them (Sorenson and Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Exact primality: trial division by the bases, then Miller-Rabin.

    Raises InvalidSpec for p >= PRIME_TEST_LIMIT with no factor among the
    bases, where Miller-Rabin with them no longer decides, rather than
    give a probable answer.
    """
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    if p >= PRIME_TEST_LIMIT:
        raise InvalidSpec(f"p = {p} is past the exact primality test's limit {PRIME_TEST_LIMIT}")
    # p - 1 = d * 2**s with d odd
    s = ((p - 1) & -(p - 1)).bit_length() - 1
    d = (p - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int):
    """The library's gate on a characteristic: ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


class _SpecFields(NamedTuple):
    series: str
    rank: int


class RootSystemSpec(_SpecFields):
    """A simple type: series letter and rank."""

    __slots__ = ()

    def __new__(cls, series: str, rank: int):
        s, n = series, rank
        if s == "A":
            ok = n >= 1
        elif s in ("B", "C"):
            ok = n >= 2
        elif s == "D":
            if n == 3:
                raise InvalidSpec("D3 is rejected; use A3 (same Dynkin diagram)")
            ok = n >= 4
        elif s in _EXCEPTIONAL_RANKS:
            ok = n in _EXCEPTIONAL_RANKS[s]
        else:
            raise InvalidSpec(f"unknown series {s!r}")
        if not ok:
            raise InvalidSpec(f"rank {n} is not valid for series {s}")
        if n > MAX_RANK:
            raise InvalidSpec(f"rank {n} exceeds the largest supported rank {MAX_RANK}")
        return super().__new__(cls, series, rank)

    def __str__(self):
        return f"{self.series}{self.rank}"


class PositiveRoot(NamedTuple):
    root: Weight  # coordinates in the simple-root basis
    coroot: Weight  # coordinates in the simple-coroot basis
    fw: Weight  # coordinates in the fundamental-weight basis
    length: int  # half squared length, normalized so short roots give 1
    height: int


def cartan_matrix(spec: RootSystemSpec) -> tuple:
    """Cartan matrix with C[i][j] = <alpha_j, alpha_i^v>.

    Column j holds the fundamental-weight coordinates of alpha_j.
    Node numbering follows the standard convention for each series
    (for B the last node is short, for C the last node is long, for
    D the fork is at the last two nodes, for E node 2 hangs off node 4,
    for G the first node is short).
    """
    n = spec.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    s = spec.series
    if s == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif s == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif s == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif s == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif s == "E":
        bond(0, 2)
        for i in range(2, n - 1):
            bond(i, i + 1)
        bond(1, 3)
    elif s == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif s == "G":
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in C)


def _symmetrizer(C, n):
    # d[i]*C[i][j] symmetric; propagate length ratios d[j]/d[i] =
    # C[i][j]/C[j][i] over the diagram, rescaling the lengths already set
    # so that all of them stay integers.
    d = [0] * n
    d[0] = 1
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and C[i][j] != 0 and d[j] == 0:
                di = d[i]
                d = [x * -C[j][i] for x in d]
                d[j] = di * -C[i][j]
                queue.append(j)
    lo = min(d)
    if lo <= 0 or any(x % lo for x in d):
        raise InternalMismatch(f"symmetrizer {d} is not integral")
    d = [x // lo for x in d]
    if any(d[i] * C[i][j] != d[j] * C[j][i] for i in range(n) for j in range(n)):
        raise InternalMismatch(f"symmetrizer {d} does not symmetrize the Cartan matrix")
    return tuple(d)


def _generate_positive_roots(C, n):
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    rootset = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for c in layer:
            for i in range(n):
                # alpha_i-string through c: q - r = <c, alpha_i^v>
                q = 0
                down = list(c)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in rootset:
                        break
                    q += 1
                pair = sum(c[j] * C[i][j] for j in range(n))
                if q - pair > 0:
                    up = list(c)
                    up[i] += 1
                    up = tuple(up)
                    if up not in rootset:
                        rootset.add(up)
                        nxt.append(up)
        layer = nxt
    return rootset


def _positive_roots(C, n):
    """[(simple-root coords, fundamental-weight coords)] of every positive
    root, ordered by (height, simple-root coords)."""
    return [
        (c, tuple(sum(C[k][j] * c[j] for j in range(n)) for k in range(n)))
        for c in sorted(_generate_positive_roots(C, n), key=lambda c: (sum(c), c))
    ]


def _invert_integer_matrix(C, n):
    # Fraction-free Gauss-Jordan (Bareiss) on [C | I]: after step k every
    # entry is a (k+1)-minor, so each division by the previous pivot is
    # exact and the rows end as [det' I | det' C^{-1}] with det' = +-det C
    # (the sign of the row swaps).  Returns (det, adjugate), all integers.
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(C)]
    sign = 1
    prev = 1
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        top = rows[col]
        pk = top[col]
        for r in range(n):
            if r != col:
                f = rows[r][col]
                new = [pk * a - f * b for a, b in zip(rows[r], top)]
                if any(x % prev for x in new):
                    raise InternalMismatch("fraction-free elimination of the Cartan matrix is not exact")
                rows[r] = [x // prev for x in new]
        prev = pk
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in rows)


def _exec_kernels(source: str) -> dict:
    """The functions that source defines: the one exec in tiltchar.

    Every source passed here is built by a _*_source function below from a
    datum's Cartan integers alone, so no input string ever reaches it.
    """
    namespace = {}
    exec(source, namespace)
    return namespace


def _tuple(exprs):
    # a tuple display, or assignment target, that stays a tuple at rank 1
    return "(" + "".join(f"{x}, " for x in exprs).rstrip() + ")"


def _coords(n):
    return [f"x{k}" for k in range(n)]


def _times(k, x):
    return x if k == 1 else f"{k} * {x}"


def _plus(x, a, k=None):
    # x + a, or x + a * k, as an expression; x itself when a is 0
    if not a:
        return x
    term = str(abs(a)) if k is None else _times(abs(a), k)
    return f"{x} {'-' if a < 0 else '+'} {term}"


def _linear(coeffs, xs):
    # sum(c * x) over the non-zero c
    terms = [f"{'-' if c < 0 else '+'} {_times(abs(c), x)}" for c, x in zip(coeffs, xs) if c]
    return " ".join(terms).removeprefix("+ ") or "0"


def _reflected(cols, i, new_i):
    """The coordinates of s_i(x) as expressions in x0, x1, ..., with new_i at i."""
    return [
        new_i if k == i else f"x{k} + {_times(-a, f'x{i}')}" if a else f"x{k}"
        for k, a in enumerate(cols[i])
    ]


def _orbit_walk_source(cols):
    # _fill_orbit's tree walk: s_i(nu) with nu[i] > 0 is a child of nu
    # exactly when no coordinate j < i of s_i(nu) is negative
    n = len(cols)
    lines = [
        "def walk(lam, cap, neg, table, m, sign):",
        "    if cap < 1:",
        "        return False",
        "    table[lam] = m",
        "    front = [lam]",
        "    size = 1",
        "    while front:",
        "        m *= sign",
        "        nxt = []",
        "        push = nxt.append",
        "        for nu in front:",
        f"            {_tuple(_coords(n))} = nu",
    ]
    for i in range(n):
        child = _reflected(cols, i, f"neg[x{i}]")
        test = " and ".join([f"x{i} > 0"] + [f"{child[j]} >= 0" for j in range(i)])
        lines += [
            f"            if {test}:",
            f"                w = {_tuple(child)}",
            "                table[w] = m",
            "                push(w)",
        ]
    lines += [
        "        size += len(nxt)",
        "        if size > cap:",
        "            return False",
        "        front = nxt",
        "    return True",
    ]
    return "\n".join(lines) + "\n"


def _straighten_source(cols):
    # to_dominant's loop on mu + rho: reflect at the first negative
    # coordinate until none is left, negating the sign at each step; the
    # sign is 0 when the dominant mu + rho has a zero coordinate
    xs = _coords(len(cols))
    lines = ["def dot(mu):", f"    {_tuple(xs)} = mu", *[f"    {x} += 1" for x in xs]]
    lines += ["    s = 1", "    while True:"]
    for i, col in enumerate(cols):
        lines.append(f"        {'elif' if i else 'if'} x{i} < 0:")
        lines += [
            f"            x{k} += {_times(-a, f'x{i}')}" for k, a in enumerate(col) if k != i and a
        ]
        lines += [f"            x{i} = -x{i}", "            s = -s"]
    shifted, regular = _tuple(f"{x} - 1" for x in xs), " and ".join(xs)
    lines += ["        else:", "            break", f"    return {shifted}, s if {regular} else 0"]
    return "\n".join(lines) + "\n"


def _invariance_source(cols):
    # FormalCharacter.is_w_invariant: m(s_i(nu)) == m(nu) wherever nu[i] != 0
    n = len(cols)
    lines = [
        "def invariant(terms):",
        "    get = terms.get",
        "    for nu, m in terms.items():",
        f"        {_tuple(_coords(n))} = nu",
    ]
    for i in range(n):
        image = _tuple(_reflected(cols, i, f"-x{i}"))
        lines += [f"        if x{i} and get({image}, 0) != m:", "            return False"]
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _freudenthal_source(cols):
    # _weyl_terms' recursion over the dominant weights mu below lam: per
    # positive root alpha, the sum over the alpha-string above mu of
    # m(nu)(nu, alpha), finished from the memo of mu + alpha when it has
    # one; per non-zero total, the denominator (lam+mu+2rho, lam-mu), with
    # c_i = det * (coordinate i of lam - mu in the simple roots) read off
    # the adjugate.  On a failed check it returns (mu, 2 * total, den), den
    # None when lam - mu is not in the root lattice.
    n = len(cols)
    C = [[cols[j][i] for j in range(n)] for i in range(n)]
    sym = _symmetrizer(C, n)
    det, adj = _invert_integer_matrix(C, n)
    roots = _positive_roots(C, n)
    xs = _coords(n)
    ls = [f"l{k}" for k in range(n)]
    lines = [
        "def freudenthal(lam, doms, get, sums, spread):",
        f"    {_tuple(ls)} = lam",
        *[f"    a{i} = {_linear(adj[i], ls)}" for i in range(n)],
        "    prev = sums.get",
        "    for mu in doms:",
        f"        {_tuple(xs)} = mu",
    ]
    for r, (c, fw) in enumerate(roots):
        rdv = [a * s for a, s in zip(c, sym)]  # (x, alpha) = rdv . x
        aa = sum(map(mul, rdv, fw))
        lines += [
            f"        nu = {_tuple(_plus(x, a) for x, a in zip(xs, fw))}",
            "        m = get(nu)",
            "        if m is None:",
            f"            s{r} = 0",
            "        else:",
            f"            b = {_linear(rdv, xs)}",
            "            t = prev(nu)",
            "            if t is not None:",
            f"                s{r} = m * (b + {aa}) + t[{r}]",
            "            else:",
            f"                s{r} = 0",
            "                k = 1",
            "                while m is not None:",
            f"                    s{r} += m * (b + k * {aa})",
            "                    k += 1",
            f"                    m = get({_tuple(_plus(x, a, 'k') for x, a in zip(xs, fw))})",
        ]
    strings = [f"s{r}" for r in range(len(roots))]
    lines += [
        f"        sums[mu] = {_tuple(strings)}",
        f"        total = {' + '.join(strings)}",
        "        if total:",
        *[f"            c{i} = a{i} - ({_linear(adj[i], xs)})" for i in range(n)],
    ]
    den = " + ".join(f"{_times(sym[i], f'c{i}')} * (l{i} + x{i} + 2)" for i in range(n))
    if det != 1:
        lines += [
            f"            if {' or '.join(f'c{i} % {det}' for i in range(n))}:",
            "                return mu, None, None",
        ]
        den = f"({den}) // {det}"
    lines += [
        f"            den = {den}",
        "            q, r = divmod(2 * total, den)",
        "            if r or q <= 0:",
        "                return mu, 2 * total, den",
        "            spread(mu, q)",
        "    return None",
    ]
    return "\n".join(lines) + "\n"


class RootDatum:
    """Cartan/root/coroot data for one simple type, with the caps of one run.

    Built by :func:`build_root_datum`.  The root data never change after
    construction, but its memo fills as characters are computed, and the
    generated kernels and ``w0_perm`` are made on first use, so a datum
    must not be shared by concurrent threads.  orbit_cap bounds
    every W-orbit walk and cone_cap every dominant-cone walk (and four
    times it every character support); both are fixed at construction,
    so whatever the cache holds passed this datum's caps.  Equality and
    hashing compare series and rank only: construction is deterministic,
    and the caps bound the work, not the answer.
    """

    def __init__(
        self,
        spec: RootSystemSpec,
        orbit_cap: int = DEFAULT_ORBIT_CAP,
        cone_cap: int = DEFAULT_CONE_CAP,
    ):
        n = spec.rank
        self.spec = spec
        self.orbit_cap = orbit_cap
        self.cone_cap = cone_cap
        self.rank = n
        self.cartan = cartan_matrix(spec)
        self.symmetrizer = _symmetrizer(self.cartan, n)
        # column i of the Cartan matrix = fw coordinates of alpha_i;
        # simple reflection s_i subtracts mu[i] times this column.
        self.refl_cols = tuple(
            tuple(self.cartan[k][i] for k in range(n)) for i in range(n)
        )
        self.rho = (1,) * n

        roots = []
        for c, fw in _positive_roots(self.cartan, n):
            norm2 = sum(c[i] * self.symmetrizer[i] * fw[i] for i in range(n))
            if norm2 % 2:
                raise InternalMismatch(f"root {c} has odd squared length {norm2}")
            dalpha = norm2 // 2
            cc = []
            for i in range(n):
                num = c[i] * self.symmetrizer[i]
                if num % dalpha:
                    raise InternalMismatch(f"coroot of {c} is not integral")
                cc.append(num // dalpha)
            roots.append(
                PositiveRoot(c, tuple(cc), fw, dalpha, sum(c))
            )
        self.positive_roots = tuple(roots)

        heights = [r.height for r in roots]
        top = max(heights)
        if heights.count(top) != 1:
            raise InternalMismatch(f"{spec} has {heights.count(top)} highest roots")
        self.highest_root = heights.index(top)
        self.coxeter_number = top + 1

        short = min(r.length for r in roots)
        dominant_short = [
            i for i, r in enumerate(roots)
            if r.length == short and min(r.fw) >= 0
        ]
        if len(dominant_short) != 1:
            raise InternalMismatch(
                f"{spec} has {len(dominant_short)} dominant short roots"
            )
        self.highest_short_root = dominant_short[0]
        # theta_s^v, the highest root of the dual system: <lam, theta_s^v>
        # bounds every |<lam, beta^v>|, so every coordinate of w(lam)
        self.highest_coroot = roots[self.highest_short_root].coroot
        for r in roots:
            if any(a > b for a, b in zip(r.coroot, self.highest_coroot)):
                raise InternalMismatch(f"coroot of {r.root} is not below the highest coroot")

        self.det, self.adjugate = _invert_integer_matrix(self.cartan, n)
        if self.det <= 0:
            raise InternalMismatch(f"Cartan determinant {self.det} is not positive")
        for i in range(n):
            for j in range(n):
                got = sum(self.cartan[i][k] * self.adjugate[k][j] for k in range(n))
                if got != (self.det if i == j else 0):
                    raise InternalMismatch(
                        f"Cartan matrix times adjugate is not {self.det} I at ({i}, {j})"
                    )
        # column sums of the adjugate: scaled_height(v) = hvec . v
        self.hvec = tuple(
            sum(self.adjugate[i][k] for i in range(n)) for k in range(n)
        )

        self._cache = {}

    @cached_property
    def w0_perm(self):
        """The permutation of the fundamental weights by -w0, 0-based.

        Found on first use, so building a datum generates no kernel.
        """
        n = self.rank
        perm = []
        for i in range(n):
            neg = tuple(-1 if k == i else 0 for k in range(n))
            dom, _ = to_dominant(self, neg)
            if sum(dom) != 1 or not set(dom) <= {0, 1}:
                raise InternalMismatch(f"-w0 maps fundamental weight {i} to {dom}")
            perm.append(dom.index(1))
        if sorted(perm) != list(range(n)) or any(perm[perm[i]] != i for i in range(n)):
            raise InternalMismatch(f"-w0 permutation {perm} is not an involution")
        return tuple(perm)

    # The per-datum kernels, each generated from refl_cols on first use and
    # then kept: the one loop of each hot per-weight routine, unrolled over
    # the rank with the Cartan integers written in.

    @cached_property
    def orbit_walk(self):
        """walk(lam, cap, neg, table, m, sign): _fill_orbit's walk."""
        return _exec_kernels(_orbit_walk_source(self.refl_cols))["walk"]

    @cached_property
    def straighten(self):
        """dot(mu): to_dominant's loop, on mu + rho, as (w . mu, det(w) or 0)."""
        return _exec_kernels(_straighten_source(self.refl_cols))["dot"]

    @cached_property
    def invariance_check(self):
        """invariant(terms): FormalCharacter.is_w_invariant on a term dict."""
        return _exec_kernels(_invariance_source(self.refl_cols))["invariant"]

    @cached_property
    def freudenthal(self):
        """freudenthal(lam, doms, get, sums, spread): _weyl_terms' recursion."""
        return _exec_kernels(_freudenthal_source(self.refl_cols))["freudenthal"]

    def memo(self, bucket: str, key, build):
        """self._cache[bucket][key], made by build() on a miss: the one cache home.

        Stored only once build() returns, so a build that raises leaves no
        bucket and no entry.  Each bucket, key: value; its bound:
        - dominant_below, lam: dominant_below(lam); none (cone_cap per entry).
        - weyl_char, lam: chi(lam); none, though from_weyl_chars only peeks.
        - weyl_denominator, rho: sum_w det(w) e(w(rho)); one entry.
        - s_r, (p, r, nu): the dominant terms of s_r(nu); nu is checked in X_r,
          so at most p^(r * rank) keys per (p, r).
        - tilt_pr, tilt_chi_pr, (p, r, lam): ch T((p^r-1)rho + lam) and its
          chi-vector; lam is checked (p, r)-minuscule, so in X_r too.
        - st_twist, (p, j, a): the chi-vector of chi(a) St^[j]; 2(p^j-1)rho - a
          is a non-negative rational sum of simple roots, a finite cone.
        - jsf, p: the Jantzen-sum solver's {lam: chi-vector or None}, which
          it fills in place; one table per p, each unbounded.
        """
        try:
            return self._cache[bucket][key]
        except KeyError:
            pass
        value = build()
        self._cache.setdefault(bucket, {})[key] = value
        return value

    def peek(self, bucket: str, key):
        """The memo entry under (bucket, key), or None; never stores."""
        return self._cache.get(bucket, {}).get(key)

    def __eq__(self, other):
        return isinstance(other, RootDatum) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"RootDatum({self.spec})"


def build_root_datum(
    spec: RootSystemSpec,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    cone_cap: int = DEFAULT_CONE_CAP,
) -> RootDatum:
    """Construct the full root datum with its caps; raises InvalidSpec for bad ranks."""
    return RootDatum(spec, orbit_cap, cone_cap)


def datum(series: str, rank: int) -> RootDatum:
    """Shorthand for build_root_datum(RootSystemSpec(series, rank))."""
    return build_root_datum(RootSystemSpec(series, rank))


def require_dominant(lam) -> Weight:
    """lam as a tuple; raises NotDominant unless no coordinate is negative."""
    lam = tuple(lam)
    if min(lam) < 0:
        raise NotDominant(f"{lam} is not dominant")
    return lam


def pairing(d: RootDatum, lam: Weight, alpha: int) -> int:
    """<lam, alpha^v> for the positive root with index alpha."""
    cc = d.positive_roots[alpha].coroot
    return sum(a * b for a, b in zip(cc, lam))


def to_dominant(d: RootDatum, mu: Weight, dot: bool = False):
    """Dominant representative of mu under W (plain) or under the dot action.

    Plain mode returns ``(lam, 1)`` with lam the unique dominant conjugate.
    Dot mode returns ``(lam, det(w))`` with ``w . mu = lam`` when mu + rho
    is regular, and sign 0 when mu + rho is singular (meaning the
    straightened Weyl character vanishes).  The loop, which reflects at the
    first negative coordinate until none is left, is d.straighten, run on
    mu + rho; plain mode hands it mu - rho, so it reflects mu, and shifts back.
    """
    if dot:
        return d.straighten(mu)
    lam, _ = d.straighten(tuple(x - 1 for x in mu))
    return tuple(x + 1 for x in lam), 1


def _fill_orbit(d: RootDatum, lam: Weight, cap: int, table: dict, m, sign=1) -> bool:
    """Store m * sign**k at every weight w(lam) of dominant lam's W-orbit.

    Walks the orbit as a tree (Stembridge 2001): the parent of a
    non-dominant weight is its reflection at its first negative
    coordinate, so s_i(nu) with nu[i] > 0 is a child of nu exactly when
    no j < i has nu[j] < nu[i] * refl_cols[i][j].  The walk is breadth
    first and builds each weight once: k is the length of the shortest w,
    so sign -1 stores det(w) when lam is regular.  The weights go into
    table, the caller's dict, in the walk's order.  Returns False once the
    orbit would hold more than cap weights, True when it is complete; on
    False, table holds part of the orbit and the caller must raise.  The
    walk is d.orbit_walk, with each reflection's child test and child
    written out as expressions in the coordinates.

    A child's negated coordinate -c is read from the shared table _NEG,
    so equal negated coordinates are one int object across every orbit
    (less memory, and tuple comparison in the callers' sorts meets the
    identity fast path).  Every coordinate of w(lam) lies within
    <lam, theta_s^v> (d.highest_coroot) of zero; past the table's length
    the walk indexes a range instead, which makes a fresh int each time.
    """
    bound = sum(map(mul, lam, d.highest_coroot))
    neg = _NEG if bound < len(_NEG) else range(0, -bound - 1, -1)
    return d.orbit_walk(lam, cap, neg, table, m, sign)


def _orbit_table(d: RootDatum, lam: Weight, sign=1, dom=None) -> dict:
    """The W-orbit of lam as a new dict, filled by _fill_orbit from dom.

    dom is lam's dominant conjugate, lam itself when None; w(dom) maps to
    sign**k, k the length of the shortest w.  Raises OrbitTooLarge, naming
    lam, once the orbit passes d.orbit_cap: the one raise site of that
    message for every orbit of a weight.
    """
    table = {}
    if not _fill_orbit(d, lam if dom is None else dom, d.orbit_cap, table, 1, sign):
        raise OrbitTooLarge(f"orbit of {lam} exceeds cap {d.orbit_cap}")
    return table


def weyl_orbit(d: RootDatum, lam: Weight) -> list:
    """The full W-orbit of lam, deduplicated and lexicographically sorted.

    The sorted keys of the table the orbit walk fills from lam's dominant
    conjugate.
    """
    return sorted(_orbit_table(d, lam, dom=to_dominant(d, lam)[0]))


def root_lattice_coords(d: RootDatum, v: Weight):
    """Coordinates of v in the simple-root basis, or None if not in Q."""
    n = d.rank
    out = []
    for i in range(n):
        num = sum(d.adjugate[i][k] * v[k] for k in range(n))
        q, r = divmod(num, d.det)
        if r != 0:
            return None
        out.append(q)
    return tuple(out)


def dominance_leq(d: RootDatum, mu: Weight, lam: Weight) -> bool:
    """mu <= lam iff lam - mu is a non-negative integer sum of simple roots."""
    diff = tuple(a - b for a, b in zip(lam, mu))
    c = root_lattice_coords(d, diff)
    return c is not None and min(c) >= 0


def scaled_height(d: RootDatum, v: Weight) -> int:
    """det(C) times the sum of root-basis coordinates of v.

    A linear functional that is positive on positive roots; used to refine
    dominance order into a deterministic total order (ties broken lex).
    """
    return sum(a * b for a, b in zip(d.hvec, v))


def dominant_below(d: RootDatum, lam: Weight):
    """All dominant mu with lam - mu in the non-negative root lattice.

    Ordered by increasing height of lam - mu (so lam itself comes first),
    ties broken lexicographically.  Raises ResourceCap once more than
    d.cone_cap dominant weights are found.
    """
    lam = require_dominant(lam)
    return d.memo("dominant_below", lam, lambda: _dominant_cone(d, lam))


def _dominant_cone(d: RootDatum, lam: Weight):
    cap = d.cone_cap
    # Every dominant mu <= lam is reached from lam by subtracting positive
    # roots without leaving the dominant chamber (Stembridge 1998).  mu - alpha
    # is dominant iff mu[k] >= alpha[k] wherever alpha's coordinate is positive.
    steps = [
        (r.fw, tuple((k, a) for k, a in enumerate(r.fw) if a > 0), r.height)
        for r in d.positive_roots
    ]
    depth = {lam: 0}  # height of lam - mu
    stack = [lam]
    while stack:
        # checked per pop, lam included: the last weight added is popped too
        if len(depth) > cap:
            raise ResourceCap(f"dominant cone below {lam} exceeds cap {cap}")
        mu = stack.pop()
        h = depth[mu]
        for fw, need, height in steps:
            for k, a in need:
                if mu[k] < a:
                    break
            else:
                nu = tuple([x - y for x, y in zip(mu, fw)])
                if nu not in depth:
                    depth[nu] = h + height
                    stack.append(nu)
    return tuple(sorted(depth, key=lambda mu: (depth[mu], mu)))
