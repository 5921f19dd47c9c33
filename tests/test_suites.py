import pytest

from tiltchar import charring as ch, suites
from tiltchar.errors import Undetermined
from tiltchar.rootsys import RootSystemSpec, build_root_datum, datum

A1 = datum("A", 1)
B2 = datum("B", 2)


def test_run_suites_all_names():
    reports = suites.run_suites(A1, "all", ps=(2,), rs=(1,))
    assert [r.suite for r in reports] == list(suites.SUITE_NAMES)
    assert all(r.ok for r in reports)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        suites.run_suites(A1, ["nope"])


def test_report_counts_and_json():
    rep = suites.run_suites(B2, "lemma2", ps=(2,), rs=(1,))[0]
    assert rep.passed == len(rep.cases) and rep.failed == 0
    obj = rep.to_json_dict()
    assert obj["suite"] == "lemma2"
    assert obj["passed"] == rep.passed
    assert all(c["status"] == "pass" for c in obj["cases"])


def test_undetermined_counted_not_failed():
    # B2 lemma1a at p=2 has provider gaps; they must not fail the suite
    rep = suites.run_suites(B2, "lemma1a", ps=(2,), rs=(1,))[0]
    assert rep.failed == 0
    assert rep.undetermined > 0
    assert rep.ok


def test_cases_sorted_canonically():
    rep = suites.run_suites(B2, "thm1", ps=(2, 3), rs=(1,))[0]
    ids = [c.case for c in rep.cases]
    assert ids == sorted(ids)


@pytest.mark.parametrize("caps,prefix", [
    ({"cone_cap": 1}, "ResourceCap: dominant cone below"),
    ({"orbit_cap": 2}, "OrbitTooLarge: orbit of"),
])
def test_resource_cap_is_undetermined_not_failed(caps, prefix):
    # a cap hit decides nothing, so the case is undetermined and names the cap
    d = build_root_datum(RootSystemSpec("A", 2), **caps)
    reports = suites.run_suites(d, "all", ps=(2,), rs=(1,))
    assert all(rep.ok for rep in reports)
    hit = [c for rep in reports for c in rep.cases if c.detail.startswith(prefix)]
    assert hit
    (cap,) = caps.values()
    for case in hit:
        assert case.status == "undetermined"
        assert case.detail.endswith(f"exceeds cap {cap}")


def test_every_check_returns_an_ok_detail_pair():
    # one check shape for every suite: no report dicts, no bare booleans
    d = datum("A", 2)
    for name, suite in suites._SUITES.items():
        verdicts = []
        for case_id, check, args in suite(d, (2,), (1,)):
            try:
                verdicts.append((case_id, check(*args)))
            except Undetermined:
                continue
        assert verdicts, name
        for case_id, verdict in verdicts:
            assert type(verdict) is tuple and len(verdict) == 2, (case_id, verdict)
            assert type(verdict[0]) is bool, (case_id, verdict)
            assert type(verdict[1]) is str, (case_id, verdict)


def test_division_budget_is_undetermined_not_failed(monkeypatch):
    # lemma1b divides chi((p-1)rho) * s(0) by the Steinberg character, 31
    # terms in G2 at p=2 and 109 at p=3: a budget of 100 updates lets p=2
    # through and stops p=3
    monkeypatch.setattr(ch, "MAX_DIVISION_UPDATES", 100)
    (rep,) = suites.run_suites(datum("G", 2), "lemma1b", ps=(2, 3), rs=(1,))
    assert rep.ok
    by_case = {c.case: c.status for c in rep.cases}
    assert by_case["G2:p=2:lam=0,0"] == "pass"
    over = [c for c in rep.cases if c.status == "undetermined"]
    assert "G2:p=3:lam=0,0" in [c.case for c in over]
    for case in over:
        assert case.detail == "ResourceCap: division exceeded 100 term updates"


def test_oracles_suite_does_not_divide(monkeypatch):
    # Weyl's formula is checked on the dominant chamber, not by division
    calls = []
    real = ch.divide_exact
    monkeypatch.setattr(
        ch, "divide_exact", lambda *args: calls.append(args) or real(*args)
    )
    for series, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        (rep,) = suites.run_suites(datum(series, rank), "oracles", ps=(2,), rs=(1,))
        assert rep.passed == len(rep.cases)
    assert calls == []


def _cache_corrupted_weyl(d, lam, bump):
    """Cache chi(lam) + bump in place of chi(lam), still marked W-invariant."""
    terms = ch._add_into(dict(ch.weyl_character(d, lam).terms), bump)
    bad = ch.FormalCharacter(d, terms, _canonical=True)
    bad._w_inv = True  # the mark Freudenthal's output carries; not to be trusted
    d._cache["weyl_char"][lam] = bad


_WEYL_FAIL = (False, "Freudenthal disagrees with alternating-sum oracle")


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_weyl_check_catches_a_single_term_corruption(series, rank, monkeypatch):
    # one weight off its orbit's multiplicity: W-invariance fails before
    # any expansion is made
    monkeypatch.setattr(
        ch, "expand_in_weyl_chars", lambda phi: pytest.fail("expanded before the check")
    )
    for lam in suites._coordsum_grid(rank, 2):
        for mu in ch.weyl_character(datum(series, rank), lam).terms:
            if min(mu) < 0:
                d = datum(series, rank)
                _cache_corrupted_weyl(d, lam, {mu: 1})
                assert suites._check_weyl(d, lam) == _WEYL_FAIL, (lam, mu)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_weyl_check_catches_an_orbit_consistent_corruption(series, rank):
    # +-1 on a whole orbit keeps the character W-invariant; the expansion
    # in Weyl characters is no longer {lam: 1}
    caught = 0
    for lam in suites._coordsum_grid(rank, 2):
        dominant = ch.weyl_character(datum(series, rank), lam).dominant_terms()
        for mu in dominant:
            for sign in (1, -1):
                d = datum(series, rank)
                orbit = ch.orbit_sum(d, mu)
                _cache_corrupted_weyl(d, lam, ch.scale(orbit, sign).terms)
                bad = ch.weyl_character(d, lam)
                view = ch.FormalCharacter(d, bad.terms, _canonical=True)
                assert view.is_w_invariant()
                assert suites._check_weyl(d, lam) == _WEYL_FAIL, (lam, mu, sign)
                caught += 1
    assert caught


@pytest.mark.parametrize("lam,detail", [
    ((1,), "dimension 2 != 3/2"),  # (2+1)/(1+1): not an integer
    ((2,), "dimension 3 != 2"),  # (3+1)/(1+1): the wrong integer
])
def test_weyl_dimension_mismatch_fails(lam, detail, monkeypatch):
    # every pairing one too large: Weyl's formula no longer gives dim chi(lam)
    real = suites.pairing
    monkeypatch.setattr(suites, "pairing", lambda d, v, i: real(d, v, i) + 1)
    assert suites._check_weyl(A1, lam) == (False, detail)
    monkeypatch.undo()
    assert suites._check_weyl(A1, lam) == (True, "")


def test_oracles_suite_catches_a_wrong_freudenthal_multiplicity(monkeypatch):
    # a kernel that miscounts one weight must fail every weylchar case
    real = ch._weyl_terms

    def miscounted(d, lam, cap):
        terms = real(d, lam, cap)
        last = next(reversed(terms))
        terms[last] += 1
        return terms

    monkeypatch.setattr(ch, "_weyl_terms", miscounted)
    d = build_root_datum(RootSystemSpec("A", 2))
    (rep,) = suites.run_suites(d, "oracles", ps=(2,), rs=(1,))
    weyl = [c for c in rep.cases if ":weylchar:" in c.case]
    assert weyl and not rep.ok
    for case in weyl:
        assert (case.status, case.detail) == (
            "fail", "Freudenthal disagrees with alternating-sum oracle"
        )
