"""Weight classification: restricted, minuscule and digit-wise variants.

Each class is one pairing with theta_s^v, the highest short coroot
(Doty): dominant lam is p-minuscule when <lam, theta_s^v> <= p, minuscule
when it is <= 1.  That decides every per-root test: RootDatum checks that
each positive coroot beta^v lies coordinatewise below theta_s^v, so for
dominant lam, <lam, beta^v> <= <lam, theta_s^v>.  The digit-wise classes
test the base-p digits of a restricted weight.
"""
from __future__ import annotations

import itertools
from operator import mul
from typing import NamedTuple

from .errors import InternalMismatch, NotPMinuscule, NotRestricted
from .rootsys import RootDatum, Weight, require_dominant
from . import charring


class MinusculeProfile(NamedTuple):
    """Full classification report for one (weight, p, r)."""

    weight: Weight
    p: int
    r: int
    digits: tuple  # r weights, empty when not restricted
    restricted: bool
    minuscule: bool
    p_minuscule: bool
    r_minuscule: bool
    pr_minuscule: bool

    def to_json_dict(self):
        return {
            "weight": list(self.weight),
            "p": self.p,
            "r": self.r,
            "digits": [list(dig) for dig in self.digits],
            "flags": {
                "restricted": self.restricted,
                "minuscule": self.minuscule,
                "p_minuscule": self.p_minuscule,
                "r_minuscule": self.r_minuscule,
                "pr_minuscule": self.pr_minuscule,
            },
        }


def _box(p: int, r: int) -> int:
    """p^r, the bound of the restricted box X_r; ValueError unless p >= 2 and r >= 1."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    return p**r


def _digits(lam: Weight, p: int, r: int):
    """The r base-p digits lam^j of dominant lam = sum_j p^j lam^j, at
    index j; None when lam is not restricted (a coordinate is >= p^r)."""
    bound = _box(p, r)
    if any(x >= bound for x in lam):
        return None
    digits = []
    rest = lam
    for _ in range(r):
        digits.append(tuple(x % p for x in rest))
        rest = tuple(x // p for x in rest)
    if any(rest):
        raise InternalMismatch(f"{lam} has more than {r} base-{p} digits")
    return digits


def _p_minuscule(d: RootDatum, lam: Weight, p: int) -> bool:
    return sum(map(mul, lam, d.highest_coroot)) <= p


def is_restricted(d: RootDatum, lam, p: int, r: int) -> bool:
    """lam in X_r(T): dominant with all simple pairings < p^r."""
    return _digits(require_dominant(lam), p, r) is not None


def p_digits(d: RootDatum, lam, p: int, r: int):
    """The r coordinate-wise base-p digits of a restricted weight.

    The unique decomposition lam = sum_j p^j lam^j with every digit in
    X_1(T); digit j is returned at index j.
    """
    lam = require_dominant(lam)
    digits = _digits(lam, p, r)
    if digits is None:
        raise NotRestricted(f"{lam} is not restricted for p={p}, r={r}")
    return digits


def is_minuscule(d: RootDatum, lam) -> bool:
    """All root pairings of lam lie in {-1, 0, 1}: <lam, theta_s^v> <= 1."""
    return _p_minuscule(d, require_dominant(lam), 1)


def is_p_minuscule(d: RootDatum, lam, p: int) -> bool:
    """Pairing with the highest short coroot is at most p."""
    return _p_minuscule(d, require_dominant(lam), p)


def in_lowest_alcove(d: RootDatum, lam, p: int) -> bool:
    """<lam + rho, alpha^v> <= p for every alpha > 0: the closed bottom alcove.

    lam + rho is dominant, so this is <lam + rho, theta_s^v> <= p (Jantzen
    II.6.2).  The Weyl module of such a weight is simple (its Jantzen sum
    is empty), so it is also the tilting module of that highest weight.
    """
    return _p_minuscule(d, tuple(x + 1 for x in require_dominant(lam)), p)


def is_pr_minuscule(d: RootDatum, lam, p: int, r: int) -> bool:
    """Restricted with every base-p digit p-minuscule."""
    digits = _digits(require_dominant(lam), p, r)
    return digits is not None and all(_p_minuscule(d, dig, p) for dig in digits)


def is_r_minuscule(d: RootDatum, lam, p: int, r: int) -> bool:
    """Restricted with every base-p digit minuscule."""
    digits = _digits(require_dominant(lam), p, r)
    return digits is not None and all(_p_minuscule(d, dig, 1) for dig in digits)


def classify(d: RootDatum, lam, p: int, r: int) -> MinusculeProfile:
    lam = require_dominant(lam)
    digits = _digits(lam, p, r)
    restricted = digits is not None
    return MinusculeProfile(
        weight=lam,
        p=p,
        r=r,
        digits=tuple(digits or ()),
        restricted=restricted,
        minuscule=_p_minuscule(d, lam, 1),
        p_minuscule=_p_minuscule(d, lam, p),
        r_minuscule=restricted and all(_p_minuscule(d, dig, 1) for dig in digits),
        pr_minuscule=restricted and all(_p_minuscule(d, dig, p) for dig in digits),
    )


CLASS_NAMES = ("minuscule", "pr_minuscule")


def enumerate_class(d: RootDatum, p: int, r: int, cls: str):
    """Complete lex-ordered list of the dominant weights in a finite class.

    minuscule weights have all coordinates at most 1, and (p, r)-minuscule
    weights are restricted, so they live in the box of coordinates below
    p^r; a box scan with the defining filter is exhaustive.
    """
    n = d.rank
    if cls == "minuscule":
        box = itertools.product(range(2), repeat=n)
        return [lam for lam in box if is_minuscule(d, lam)]
    if cls == "pr_minuscule":
        box = itertools.product(range(_box(p, r)), repeat=n)
        return [lam for lam in box if is_pr_minuscule(d, lam, p, r)]
    raise ValueError(f"unknown class {cls!r}; expected one of {CLASS_NAMES}")


def lemma2_check(d: RootDatum, lam, p: int):
    """Whether p*rho + mu is dominant for every weight mu of the Weyl module.

    Only claimed for p-minuscule lam; returns (True, None) on success and
    (False, violating mu) otherwise.
    """
    lam = require_dominant(lam)
    if not _p_minuscule(d, lam, p):
        raise NotPMinuscule(f"{lam} is not p-minuscule for p={p}")
    for mu in charring.weyl_character(d, lam).sorted_weights():
        shifted = tuple(p + x for x in mu)
        if min(shifted) < 0:
            return False, mu
    return True, None
