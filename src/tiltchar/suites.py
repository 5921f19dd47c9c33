"""Verification sweeps over (type, rank, p, r) grids.

Each suite runs a family of identity checks and reports one result per
case: pass, fail, or undetermined (a needed character could not be
resolved, or a resource cap was hit, which downgrades coverage without
failing the suite).  Cases are reported in canonical (sorted) order.

A suite is a generator of (case id, check, args) over its grid.  A check
returns (ok, detail); an exception it raises sets the case's status.
"""
from __future__ import annotations

import itertools
from math import gcd
from typing import NamedTuple

from .errors import ResourceCap, TiltcharError, Undetermined
from . import charring as ch
from . import minuscule as mn
from . import tilting as tl
from .rootsys import RootDatum, dominance_leq, pairing

DEFAULT_PRIMES = (2, 3, 5)
DEFAULT_RS = (1, 2)


class CaseResult(NamedTuple):
    suite: str
    case: str
    status: str  # "pass" | "fail" | "undetermined"
    detail: str = ""

    def to_json_dict(self):
        out = {"suite": self.suite, "case": self.case, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        return out


class SuiteReport(NamedTuple):
    suite: str
    cases: tuple

    @property
    def passed(self):
        return sum(1 for c in self.cases if c.status == "pass")

    @property
    def failed(self):
        return sum(1 for c in self.cases if c.status == "fail")

    @property
    def undetermined(self):
        return sum(1 for c in self.cases if c.status == "undetermined")

    @property
    def ok(self):
        return self.failed == 0

    def to_json_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "undetermined": self.undetermined,
            "cases": [c.to_json_dict() for c in self.cases],
        }


def _run_one(suite: str, case_id: str, check, args) -> CaseResult:
    try:
        ok, detail = check(*args)
    except Undetermined as exc:
        return CaseResult(suite, case_id, "undetermined", str(exc))
    except ResourceCap as exc:  # a cap hit decides nothing
        return CaseResult(suite, case_id, "undetermined", f"{type(exc).__name__}: {exc}")
    except TiltcharError as exc:
        return CaseResult(suite, case_id, "fail", f"{type(exc).__name__}: {exc}")
    return CaseResult(suite, case_id, "pass" if ok else "fail", detail)


def _fmt(lam):
    return ",".join(str(x) for x in lam)


_ORACLE_TOP = {1: 10, 2: 5, 3: 3}  # coordinate-sum bound by rank; 2 above
_LEMMA1A_MU_TOP = 2
_PROP2_MU_TOP = 1


def _coordsum_grid(rank: int, top: int):
    """Dominant weights with coordinate sum at most top."""
    box = itertools.product(range(top + 1), repeat=rank)
    return [lam for lam in box if sum(lam) <= top]


def _p_minuscule_all(d: RootDatum, p: int):
    """All dominant p-minuscule weights (coordinate sum is at most p)."""
    return [lam for lam in _coordsum_grid(d.rank, p) if mn.is_p_minuscule(d, lam, p)]


# Checks: each returns (ok, detail), as do the verifiers in tilting.


def _check_weyl(d, lam):
    """Weyl's character formula, dimension formula and leading term.

    Weyl's formula is checked as the product identity chi(lam) * Delta =
    A(lam + rho), where Delta = A(rho) and A(tau) = sum_w det(w) e(w tau),
    without dividing.  The check reads Freudenthal's terms through a fresh
    character, so the W-invariance mark set at construction is not
    trusted, and tests W-invariance term by term.  For W-invariant phi
    the product phi * Delta is alternating, so its coefficients at the
    strictly dominant weights fix it.  At nu + rho, nu dominant, that
    coefficient sums det(w) m_phi(mu) over the pairs (mu, w) with
    mu + w(rho) = nu + rho.  Put mu = w(mu'): the pairs become the (mu', w)
    with w . mu' = nu (dot action), and m_phi(mu) = m_phi(mu') by
    W-invariance.  Each mu' with mu' + rho regular has exactly one w with
    w . mu' dominant, and one with mu' + rho singular has none, so the
    sum adds det(w) m_phi(mu') over the weights mu' that dot-straighten
    to nu, which is expand_in_weyl_chars(phi)[nu].
    The only strictly dominant term of A(lam + rho) is e(lam + rho), so
    phi * Delta = A(lam + rho) holds exactly when phi is W-invariant and
    expand_in_weyl_chars(phi) == {lam: 1}.  Freudenthal's recursion
    straightens no weight, so this check of it does not rest on the
    straightening kernel's own output, and it is that kernel's check too.
    """
    freud = ch.weyl_character(d, lam)
    view = ch.FormalCharacter(d, freud._terms, _canonical=True)
    if not view.is_w_invariant() or ch.expand_in_weyl_chars(view) != {lam: 1}:
        return False, "Freudenthal disagrees with alternating-sum oracle"
    # Weyl's dimension formula: prod <lam+rho, a^v> / prod <rho, a^v>
    shifted = tuple(x + 1 for x in lam)
    num = den = 1
    for i in range(len(d.positive_roots)):
        num *= pairing(d, shifted, i)
        den *= pairing(d, d.rho, i)
    dim, rem = divmod(num, den)
    if rem or freud.dimension() != dim:
        g = gcd(num, den)
        want = f"{num // g}/{den // g}" if rem else dim
        return False, f"dimension {freud.dimension()} != {want}"
    if freud.multiplicity(lam) != 1:
        return False, "leading multiplicity is not 1"
    return True, ""


def _check_stdim(d, p, r):
    got = ch.steinberg_character(d, p, r).dimension()
    want = p ** (r * len(d.positive_roots))
    return got == want, "" if got == want else f"{got} != {want}"


def _check_lemma2(d, p, lam):
    """Dominance of p*rho + mu over all weights of the Weyl module."""
    ok, witness = mn.lemma2_check(d, lam, p)
    return ok, "" if ok else f"violating weight {witness}"


def _check_prop1(d, p, r, lam):
    """Cross-form tilting character: leading term once, no negative chi."""
    vec = tl.tilting_chi_pr(d, p, r, lam)  # internal cross-check
    top = ch._steinberg_weight(d, p, r, lam)
    # chi(top) once and every chi(nu) below top: multiplicity 1 at top
    if vec.get(top) != 1 or not all(dominance_leq(d, nu, top) for nu in vec):
        return False, f"leading multiplicity at {top} is not 1"
    bad = {k: v for k, v in sorted(vec.items()) if v < 0}
    if bad:
        return False, f"negative chi coefficients: {bad}"
    return True, ""


def _check_thm1(d, p, lam):
    """St (x) nabla(lam) decomposes; decompose_st_tensor raises otherwise."""
    # chi(lam) is the character of both the Weyl and the dual Weyl module
    tl.decompose_st_tensor(d, p, lam, ch.weyl_character(d, lam))
    return True, ""


def _check_thm2(d, p, r, lam):
    """St_r (x) L(lam) decomposes; decompose_str_tensor raises otherwise."""
    tl.decompose_str_tensor(d, p, r, lam)
    return True, ""


# Suites: each yields (case id, check, args) over its grid, in run order.


def _oracles(d, ps, rs):
    for lam in _coordsum_grid(d.rank, _ORACLE_TOP.get(d.rank, 2)):
        yield f"{d.spec}:weylchar:lam={_fmt(lam)}", _check_weyl, (d, lam)
    for p, r in itertools.product(ps, rs):
        yield f"{d.spec}:stdim:p={p}:r={r}", _check_stdim, (d, p, r)


def _remark(d, ps, rs):
    for p in ps:
        for lam in mn.enumerate_class(d, p, 1, "minuscule"):
            if any(lam):
                yield f"{d.spec}:p={p}:lam={_fmt(lam)}", tl.remark_check, (d, p, lam)


def _lemma1a(d, ps, rs):
    grid = _coordsum_grid(d.rank, _LEMMA1A_MU_TOP)
    for p, r, mu in itertools.product(ps, rs, grid):
        yield f"{d.spec}:p={p}:r={r}:mu={_fmt(mu)}", tl.verify_lemma1a, (d, p, r, mu)


def _lemma1b(d, ps, rs):
    for p in ps:
        for lam in mn.enumerate_class(d, p, 1, "minuscule"):
            case_id = f"{d.spec}:p={p}:lam={_fmt(lam)}"
            yield case_id, tl.verify_lemma1b_character, (d, p, lam)


def _lemma2(d, ps, rs):
    for p in ps:
        for lam in _p_minuscule_all(d, p):
            yield f"{d.spec}:p={p}:lam={_fmt(lam)}", _check_lemma2, (d, p, lam)


def _prop1(d, ps, rs):
    for p, r in itertools.product(ps, rs):
        for lam in mn.enumerate_class(d, p, r, "pr_minuscule"):
            case_id = f"{d.spec}:p={p}:r={r}:lam={_fmt(lam)}"
            yield case_id, _check_prop1, (d, p, r, lam)


def _prop2(d, ps, rs):
    mus = _coordsum_grid(d.rank, _PROP2_MU_TOP)
    for p, r in itertools.product(ps, rs):
        for lam in mn.enumerate_class(d, p, r, "pr_minuscule"):
            if not mn.is_r_minuscule(d, lam, p, r):
                continue
            for mu in mus:
                case_id = f"{d.spec}:p={p}:r={r}:lam={_fmt(lam)}:mu={_fmt(mu)}"
                yield case_id, tl.verify_prop2_corollary, (d, p, r, lam, mu)


def _thm1(d, ps, rs):
    for p in ps:
        for lam in _p_minuscule_all(d, p):
            yield f"{d.spec}:p={p}:lam={_fmt(lam)}", _check_thm1, (d, p, lam)


def _thm2(d, ps, rs):
    for p, r in itertools.product(ps, rs):
        for lam in mn.enumerate_class(d, p, r, "pr_minuscule"):
            case_id = f"{d.spec}:p={p}:r={r}:lam={_fmt(lam)}"
            yield case_id, _check_thm2, (d, p, r, lam)


_SUITES = {
    "oracles": _oracles,
    "remark": _remark,
    "lemma1a": _lemma1a,
    "lemma1b": _lemma1b,
    "lemma2": _lemma2,
    "prop1": _prop1,
    "prop2": _prop2,
    "thm1": _thm1,
    "thm2": _thm2,
}
SUITE_NAMES = tuple(_SUITES)


def suite_names(names) -> list:
    """The suite names that `names` ("all", one name or a list) stands for.

    Raises ValueError for a name that is not a suite.
    """
    if names == "all" or names == ["all"]:
        return list(SUITE_NAMES)
    if isinstance(names, str):
        names = [names]
    for name in names:
        if name not in _SUITES:
            raise ValueError(
                f"unknown suite {name!r}; expected 'all' or some of "
                + ", ".join(SUITE_NAMES)
            )
    return list(names)


def run_suites(d, names, ps=DEFAULT_PRIMES, rs=DEFAULT_RS):
    """Run the named suites (or all of them); each report's cases sorted by id."""
    reports = []
    for name in suite_names(names):
        results = [_run_one(name, *case) for case in _SUITES[name](d, ps, rs)]
        cases = tuple(sorted(results, key=lambda c: c.case))
        reports.append(SuiteReport(name, cases))
    return reports
