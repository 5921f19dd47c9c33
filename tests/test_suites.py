import pytest

from tiltchar import suites
from tiltchar.rootsys import datum

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
