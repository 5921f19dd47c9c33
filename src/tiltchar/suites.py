"""Verification sweeps over (type, rank, p, r) grids.

Each suite runs a family of identity checks and reports one result per
case: pass, fail, or undetermined (a needed character could not be
resolved, which downgrades coverage without failing the suite).  Cases
may run in a thread pool; reports are aggregated order-independently and
then canonically sorted, so the output is identical for any pool size.
"""
from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import ProviderUndetermined, TiltcharError, Undetermined
from . import charring as ch
from . import minuscule as mn
from . import tilting as tl
from .rootsys import RootDatum, weyl_orbit
from .simplechar import SimpleCharProvider

SUITE_NAMES = (
    "oracles",
    "remark",
    "lemma1a",
    "lemma1b",
    "lemma2",
    "prop1",
    "prop2",
    "thm1",
    "thm2",
)

DEFAULT_PRIMES = (2, 3, 5)
DEFAULT_RS = (1, 2)


@dataclass(frozen=True)
class CaseResult:
    suite: str
    case: str
    status: str  # "pass" | "fail" | "undetermined"
    detail: str = ""

    def to_json_dict(self):
        out = {"suite": self.suite, "case": self.case, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class SuiteReport:
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


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get("TILTCHAR_THREADS", "1")))
    except ValueError:
        return 1


def _run(suite: str, jobs, workers: int) -> SuiteReport:
    """Execute (case_id, thunk) pairs; exceptions map to case statuses."""

    def run_one(job):
        case_id, thunk = job
        try:
            ok, detail = thunk()
        except (Undetermined, ProviderUndetermined) as exc:
            return CaseResult(suite, case_id, "undetermined", str(exc))
        except TiltcharError as exc:
            return CaseResult(
                suite, case_id, "fail", f"{type(exc).__name__}: {exc}"
            )
        return CaseResult(suite, case_id, "pass" if ok else "fail", detail)

    jobs = list(jobs)
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(job) for job in jobs]
    return SuiteReport(suite, tuple(sorted(results, key=lambda c: c.case)))


def _fmt(lam):
    return ",".join(str(x) for x in lam)


def _p_minuscule_all(d: RootDatum, p: int):
    """All dominant p-minuscule weights (coordinate sum is at most p)."""
    box = itertools.product(range(p + 1), repeat=d.rank)
    return [lam for lam in box if sum(lam) <= p and mn.is_p_minuscule(d, lam, p)]


def _oracle_top(rank: int) -> int:
    return {1: 10, 2: 5, 3: 3}.get(rank, 2)


def suite_oracles(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1, top=None):
    """Freudenthal vs alternating-sum, dimension formula, Steinberg dims."""
    from fractions import Fraction

    from .rootsys import pairing

    if top is None:
        top = _oracle_top(d.rank)
    jobs = []
    grid = [
        lam
        for lam in itertools.product(range(top + 1), repeat=d.rank)
        if sum(lam) <= top
    ]

    def check_weyl(lam):
        freud = ch.weyl_character(d, lam)
        alt = ch.alternating_character_oracle(d, lam)
        if freud != alt:
            return False, "Freudenthal disagrees with alternating-sum oracle"
        dim = Fraction(1)
        for i in range(len(d.positive_roots)):
            dim *= Fraction(
                pairing(d, tuple(x + 1 for x in lam), i), pairing(d, d.rho, i)
            )
        if freud.dimension() != dim:
            return False, f"dimension {freud.dimension()} != {dim}"
        if freud.multiplicity(lam) != 1:
            return False, "leading multiplicity is not 1"
        return True, ""

    for lam in grid:
        jobs.append((f"{d.spec}:weylchar:lam={_fmt(lam)}", _bind(check_weyl, lam)))

    def check_st(p, r):
        got = tl.steinberg_character(d, p, r).dimension()
        want = p ** (r * len(d.positive_roots))
        return got == want, "" if got == want else f"{got} != {want}"

    for p in ps:
        for r in rs:
            jobs.append((f"{d.spec}:stdim:p={p}:r={r}", _bind(check_st, p, r)))
    return _run("oracles", jobs, workers)


def _bind(fn, *args):
    return lambda: fn(*args)


def suite_remark(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1):
    """Minuscule tensor factors: single tilting summand, consistent filtration."""
    jobs = []

    def check(p, lam):
        holds, cert = tl.remark_check(d, p, lam)
        if not holds:
            return False, "product form disagrees with tilting character"
        # the chi-expansion is the good_filtration_consistent certificate
        if any(c < 0 for c in cert.values()):
            return False, f"negative chi coefficients: {cert}"
        dec = tl.decompose_st_tensor(d, p, lam, ch.orbit_sum(d, lam))
        if dec.summands != ((lam, 1),):
            return False, f"expected single summand, got {dec.summands}"
        return True, ""

    for p in ps:
        for lam in mn.enumerate_class(d, p, 1, "minuscule"):
            if not any(lam):
                continue
            jobs.append((f"{d.spec}:p={p}:lam={_fmt(lam)}", _bind(check, p, lam)))
    return _run("remark", jobs, workers)


def suite_lemma1a(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1, mu_top=2):
    jobs = []
    provider = tl.TiltingCharProvider()

    def check(p, r, mu):
        rep = tl.verify_lemma1a(d, p, r, mu, provider)
        return rep["holds"], rep["mode"]

    grid = [
        mu
        for mu in itertools.product(range(mu_top + 1), repeat=d.rank)
        if sum(mu) <= mu_top
    ]
    for p in ps:
        for r in rs:
            for mu in grid:
                jobs.append(
                    (f"{d.spec}:p={p}:r={r}:mu={_fmt(mu)}", _bind(check, p, r, mu))
                )
    return _run("lemma1a", jobs, workers)


def suite_lemma1b(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1):
    jobs = []

    def check(p, lam):
        rep = tl.verify_lemma1b_character(d, p, lam)
        return rep["holds"], ""

    for p in ps:
        for lam in mn.enumerate_class(d, p, 1, "minuscule"):
            jobs.append((f"{d.spec}:p={p}:lam={_fmt(lam)}", _bind(check, p, lam)))
    return _run("lemma1b", jobs, workers)


def suite_lemma2(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1):
    """Dominance of p*rho + mu over all weights of the Weyl module."""
    jobs = []

    def check(p, lam):
        ok, witness = mn.lemma2_check(d, lam, p)
        return ok, "" if ok else f"violating weight {witness}"

    for p in ps:
        for lam in _p_minuscule_all(d, p):
            jobs.append((f"{d.spec}:p={p}:lam={_fmt(lam)}", _bind(check, p, lam)))
    return _run("lemma2", jobs, workers)


def suite_prop1(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1):
    """Cross-form tilting characters and filtration consistency."""
    jobs = []

    def check(p, r, lam):
        char = tl.tilting_char_pr(d, p, r, lam)  # internal cross-check
        top = tuple((p**r - 1) + x for x in lam)
        if char.multiplicity(top) != 1:
            return False, f"leading multiplicity at {top} is not 1"
        ok, cert = tl.good_filtration_consistent(char)
        if not ok:
            bad = {k: v for k, v in cert.items() if v < 0}
            return False, f"negative chi coefficients: {bad}"
        return True, ""

    for p in ps:
        for r in rs:
            for lam in mn.enumerate_class(d, p, r, "pr_minuscule"):
                jobs.append(
                    (
                        f"{d.spec}:p={p}:r={r}:lam={_fmt(lam)}",
                        _bind(check, p, r, lam),
                    )
                )
    return _run("prop1", jobs, workers)


def suite_prop2(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1, mu_top=1):
    jobs = []

    def check(p, r, lam, mu):
        rep = tl.verify_prop2_corollary(d, p, r, lam, mu)
        ok = rep["main"]["holds"] and rep["corollary_a"]["holds"]
        if rep["corollary_b"].get("certified_simple"):
            ok = ok and rep["corollary_b"]["holds"]
        return ok, rep["main"]["mode"]

    mus = [
        mu
        for mu in itertools.product(range(mu_top + 1), repeat=d.rank)
        if sum(mu) <= mu_top
    ]
    for p in ps:
        for r in rs:
            seen = set()
            for lam in mn.enumerate_class(d, p, r, "pr_minuscule"):
                if not mn.is_r_minuscule(d, lam, p, r) or lam in seen:
                    continue
                seen.add(lam)
                for mu in mus:
                    jobs.append(
                        (
                            f"{d.spec}:p={p}:r={r}:lam={_fmt(lam)}:mu={_fmt(mu)}",
                            _bind(check, p, r, lam, mu),
                        )
                    )
    return _run("prop2", jobs, workers)


def suite_thm1(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1):
    """Steinberg tensor dual-Weyl decompositions over all p-minuscule weights."""
    jobs = []

    def check(p, lam):
        chi = ch.weyl_character(d, lam)
        dec = tl.decompose_st_tensor(d, p, lam, chi)
        if not dec.verified:
            return False, "reassembly failed"
        if any(m <= 0 for _, m in dec.summands):
            return False, f"non-positive multiplicity in {dec.summands}"
        # same character for the Weyl and dual Weyl module: equal output
        if tl.decompose_st_tensor(d, p, lam, chi) != dec:
            return False, "Weyl/dual-Weyl decompositions differ"
        return True, ""

    for p in ps:
        for lam in _p_minuscule_all(d, p):
            jobs.append((f"{d.spec}:p={p}:lam={_fmt(lam)}", _bind(check, p, lam)))
    return _run("thm1", jobs, workers)


def suite_thm2(d, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1, provider=None):
    """Steinberg tensor simple-module decompositions; coverage reported."""
    jobs = []
    if provider is None:
        provider = SimpleCharProvider()

    def check(p, r, lam):
        dec = tl.decompose_str_tensor(d, p, r, lam, provider)
        if any(m <= 0 for _, m in dec.summands):
            return False, f"non-positive multiplicity in {dec.summands}"
        bound = p**r
        if any(max(nu) >= bound for nu, _ in dec.summands):
            return False, f"carrier outside X_r in {dec.summands}"
        return True, ""

    for p in ps:
        for r in rs:
            for lam in mn.enumerate_class(d, p, r, "pr_minuscule"):
                jobs.append(
                    (
                        f"{d.spec}:p={p}:r={r}:lam={_fmt(lam)}",
                        _bind(check, p, r, lam),
                    )
                )
    return _run("thm2", jobs, workers)


_SUITES = {
    "oracles": suite_oracles,
    "remark": suite_remark,
    "lemma1a": suite_lemma1a,
    "lemma1b": suite_lemma1b,
    "lemma2": suite_lemma2,
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
}


def run_suites(d, names, ps=DEFAULT_PRIMES, rs=DEFAULT_RS, workers=1):
    """Run the named suites (or all of them) and return reports in order."""
    if names == "all" or names == ["all"]:
        names = list(SUITE_NAMES)
    elif isinstance(names, str):
        names = [names]
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; expected {SUITE_NAMES}")
    return [_SUITES[name](d, ps=ps, rs=rs, workers=workers) for name in names]
