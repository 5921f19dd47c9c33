"""Resolution of simple characters ch L(lambda) in characteristic p.

No closed formula is assumed.  A strategy chain resolves each request:

* minuscule      -- the orbit sum is already simple;
* lowest_alcove  -- <lam+rho, alpha^v> <= p for all positive alpha makes
                    the Weyl module simple (empty Jantzen sum);
* steinberg      -- tensor factorization over base-p digits;
* jsf            -- a Jantzen-sum-formula solver for restricted weights,
                    sound but deliberately conservative: a weight is
                    recorded only when the sum is multiplicity free in
                    the already-known simple characters;
* table          -- externally supplied characters, cross-checked against
                    computed values unless explicitly told to override.

Failure is a first-class outcome (Undetermined), never a silent guess.
"""
from __future__ import annotations

from .errors import InternalMismatch, Undetermined
from . import charring as ch
from .charring import FormalCharacter
from .minuscule import in_lowest_alcove, is_minuscule, p_digits
from .rootsys import (
    RootDatum,
    RootSystemSpec,
    build_root_datum,
    dominant_below,
    is_prime,
    require_dominant,
    to_dominant,
)

STRATEGIES = ("minuscule", "lowest_alcove", "steinberg", "jsf", "table")


def _require_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


class SimpleCharTable:
    """Cache of resolved simple characters with per-entry provenance."""

    def __init__(self):
        self._entries = {}  # (series, rank, weight, p) -> (char, provenance)
        self.undetermined = []  # (series, rank, weight, p) left unresolved

    @staticmethod
    def _key(d, lam, p):
        return (d.spec.series, d.spec.rank, tuple(lam), p)

    def add(self, d, lam, p, char: FormalCharacter, provenance: str):
        lam = tuple(lam)
        if not char.is_w_invariant():
            raise ValueError(f"table entry for {lam} is not W-invariant")
        if char.multiplicity(lam) != 1:
            raise ValueError(f"table entry for {lam} lacks leading term 1")
        self._entries[self._key(d, lam, p)] = (char, provenance)

    def get(self, d, lam, p):
        return self._entries.get(self._key(d, lam, p))

    def __len__(self):
        return len(self._entries)

    def entries(self):
        return dict(self._entries)

    def to_json_list(self):
        out = []
        for (series, rank, lam, p), (char, prov) in sorted(self._entries.items()):
            out.append(
                {
                    "type": series,
                    "rank": rank,
                    "p": p,
                    "weight": list(lam),
                    "character": char.to_json_dict(),
                    "provenance": prov,
                }
            )
        return out

    @classmethod
    def from_json_list(cls, data, provenance: str = "table"):
        table = cls()
        data_by_spec = {}
        for entry in data:
            key = (entry["type"], entry["rank"])
            if key not in data_by_spec:
                data_by_spec[key] = build_root_datum(RootSystemSpec(*key))
            d = data_by_spec[key]
            char = ch.from_json_dict(entry["character"], d)
            table.add(
                d,
                tuple(entry["weight"]),
                entry["p"],
                char,
                entry.get("provenance", provenance),
            )
        return table


def p_adic_valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _jantzen_chi_coeffs(d: RootDatum, lam, p: int) -> dict:
    """Chi-basis coefficients of the Jantzen layer sum for the Weyl module.

    sum_{alpha>0} sum_{0<mp<<lam+rho,alpha^v>} v_p(mp) chi~(lam - (<lam+rho,alpha^v> - mp) alpha)
    accumulated through dot-action straightening; singular terms vanish.
    """
    lam = tuple(lam)
    acc = {}
    lam_rho = tuple(x + 1 for x in lam)
    for root in d.positive_roots:
        val = sum(a * b for a, b in zip(root.coroot, lam_rho))
        for mp in range(p, val, p):
            weight = tuple(
                x - (val - mp) * f for x, f in zip(lam, root.fw)
            )
            dom, sign = to_dominant(d, weight, dot=True)
            if sign == 0:
                continue
            v = p_adic_valuation(mp, p)
            new = acc.get(dom, 0) + sign * v
            if new:
                acc[dom] = new
            else:
                del acc[dom]
    return acc


def jantzen_sum(d: RootDatum, lam, p: int) -> FormalCharacter:
    """The summed Jantzen filtration character of the Weyl module of lam.

    Zero exactly when the Weyl module is simple.  The sum is the character
    of a module, so its multiplicities must be non-negative; that is
    checked, not assumed.  Its chi-coefficients may be negative: for A2,
    (0,3) and p=3 the sum is chi(1,1) - chi(0,0) = ch L(1,1).
    """
    lam = require_dominant(lam)
    _require_prime(p)
    vec = _jantzen_chi_coeffs(d, lam, p)
    return _nonnegative_character(d, vec, f"Jantzen sum for {lam} at p={p}")


def _nonnegative_character(d: RootDatum, vec: dict, what: str) -> FormalCharacter:
    """The character with chi-vector vec, checked to be a module's.

    Every character the Jantzen-sum solver builds is a module's, so a
    negative multiplicity is an internal error, never a result.
    """
    char = ch.from_weyl_chars(d, vec)
    if char and min(char.terms.values()) < 0:
        raise InternalMismatch(f"{what} has negative multiplicities")
    return char


def _jsf_state(d: RootDatum, p: int):
    return d._cache.setdefault("jsf", {}).setdefault(p, {})


def _jsf_attempt(d: RootDatum, lam, p: int, state) -> dict | None:
    """Chi-coefficient vector of ch L(lam), or None if undetermined.

    Requires every dominant weight strictly below lam to have been
    attempted already (the solver always works in increasing height).
    """
    if lam in state:
        return state[lam]
    # expand the layer sum in the known simple characters, greedily from
    # the maximal dominant term; i-weighted multiplicities n_mu result
    counts, complete = ch._peel(d, _jantzen_chi_coeffs(d, lam, p), state.get)
    for nu, n in counts.items():
        if n <= 0:
            raise InternalMismatch(
                f"non-positive simple multiplicity {n} at {nu} for {lam}"
            )
    if not complete or any(n > 1 for n in counts.values()):
        # a factor counted in several layers cannot be split soundly
        state[lam] = None
        return None
    vec = {lam: 1}
    for nu in counts:
        ch._add_into(vec, state[nu], -1)
    state[lam] = vec
    return vec


def jsf_solve(d: RootDatum, p: int, bound) -> SimpleCharTable:
    """Solve for simple characters of all dominant weights below bound.

    Processes the dominant cone in increasing height, recording a weight
    only when its layer sum is uniquely accounted for by known simple
    characters (all i-weighted multiplicities equal one, or an empty sum).
    Undetermined weights are reported on the result, not raised.
    """
    bound = require_dominant(bound)
    _require_prime(p)
    state = _jsf_state(d, p)
    table = SimpleCharTable()
    for lam in reversed(dominant_below(d, bound)):
        vec = _jsf_attempt(d, lam, p, state)
        if vec is None:
            table.undetermined.append(SimpleCharTable._key(d, lam, p))
        else:
            char = _nonnegative_character(d, vec, f"JSF character for {lam} at p={p}")
            table.add(d, lam, p, char, "jsf")
    return table


def _resolve_minuscule(d, lam, p, table, override):
    if is_minuscule(d, lam):
        return ch.orbit_sum(d, lam), "minuscule"
    return None


def _resolve_lowest_alcove(d, lam, p, table, override):
    if in_lowest_alcove(d, lam, p):
        return ch.weyl_character(d, lam), "lowest_alcove"
    return None


def _resolve_steinberg(d, lam, p, table, override):
    r = 1
    top = max(lam) if lam else 0
    while p**r <= top:
        r += 1
    if r == 1:
        return None  # restricted already; no factorization to apply
    provs = []

    def digit_characters():
        for dig in p_digits(d, lam, p, r):
            sub, prov = _resolve(d, dig, p, "auto", table, override)
            provs.append(prov)
            yield sub

    phi = ch.twisted_product(d, p, digit_characters())
    return phi, "steinberg[" + ",".join(provs) + "]"


def _resolve_jsf(d, lam, p, table, override):
    state = _jsf_state(d, p)
    for mu in reversed(dominant_below(d, lam)):
        _jsf_attempt(d, mu, p, state)
    vec = state.get(lam)
    if vec is None:
        return None
    return _nonnegative_character(d, vec, f"JSF character for {lam} at p={p}"), "jsf"


def _resolve_table(d, lam, p, table, override):
    if table is None:
        return None
    hit = table.get(d, lam, p)
    if hit is None:
        return None
    char, prov = hit
    return char, f"table({prov})"


_RESOLVERS = {
    "minuscule": _resolve_minuscule,
    "lowest_alcove": _resolve_lowest_alcove,
    "steinberg": _resolve_steinberg,
    "jsf": _resolve_jsf,
    "table": _resolve_table,
}


def _resolve(d, lam, p, strategy, table, override):
    """(ch L(lam), provenance) by one strategy, or by the chain under "auto".

    Under "auto" a table entry is compared with the computed character,
    and a disagreement is an InternalMismatch, unless override is set:
    then the entry wins.  Steinberg digits are resolved the same way.
    """
    lam = require_dominant(lam)
    _require_prime(p)
    if strategy != "auto":
        got = _RESOLVERS[strategy](d, lam, p, table, override)
        if got is None:
            raise Undetermined(
                f"strategy {strategy} does not apply to {lam} at p={p}"
            )
        return got
    failed = []
    computed = None
    for name in ("minuscule", "lowest_alcove", "steinberg", "jsf"):
        got = _RESOLVERS[name](d, lam, p, table, override)
        if got is not None:
            computed = got
            break
        failed.append(name)
    hit = _resolve_table(d, lam, p, table, override)
    if computed is not None:
        if hit is not None and override:
            return hit
        if hit is not None and hit[0] != computed[0]:
            raise InternalMismatch(
                f"table entry for {lam} at p={p} disagrees with computed "
                f"character ({computed[1]})"
            )
        return computed
    if hit is not None:
        return hit
    failed.append("table")
    raise Undetermined(
        f"ch L({lam}) at p={p} unresolved; failed strategies: {', '.join(failed)}"
    )


class SimpleCharProvider:
    """The one entry point for ch L(lambda): a strategy, a table and its policy.

    strategy is "auto" (the chain) or one of STRATEGIES; table entries are
    checked against computed characters unless override is set.  A mutable
    record: equal when the three fields are, and unhashable.
    """

    def __init__(
        self,
        strategy: str = "auto",
        table: SimpleCharTable | None = None,
        override: bool = False,
    ):
        if strategy != "auto" and strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.table = table
        self.override = override

    def __eq__(self, other):  # defining it leaves __hash__ None
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strategy, self.table, self.override) == (
            other.strategy, other.table, other.override
        )

    def __repr__(self):
        return (
            f"SimpleCharProvider(strategy={self.strategy!r}, "
            f"table={self.table!r}, override={self.override!r})"
        )

    def resolve(self, d: RootDatum, lam, p: int):
        """Returns (character, provenance); raises Undetermined on failure."""
        return _resolve(d, lam, p, self.strategy, self.table, self.override)
