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
    # the alternating oracle divides by the Weyl denominator, |W| = 12 terms
    # in G2: a budget of 100 updates lets chi(0) through and stops chi(1,1)
    monkeypatch.setattr(ch, "MAX_DIVISION_UPDATES", 100)
    (rep,) = suites.run_suites(datum("G", 2), "oracles", ps=(2,), rs=(1,))
    assert rep.ok
    by_case = {c.case: c.status for c in rep.cases}
    assert by_case["G2:weylchar:lam=0,0"] == "pass"
    over = [c for c in rep.cases if c.status == "undetermined"]
    assert "G2:weylchar:lam=1,1" in [c.case for c in over]
    for case in over:
        assert case.detail == "ResourceCap: division exceeded 100 term updates"


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
