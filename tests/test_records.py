"""The library's record types: repr, equality, hashing and immutability.

The repr strings are the ones the records have always printed; equal
records hash alike, and the frozen ones hash as the tuple of their fields.
"""
import pytest

from tiltchar.minuscule import MinusculeProfile, classify
from tiltchar.rootsys import RootSystemSpec, datum
from tiltchar.simplechar import SimpleCharProvider
from tiltchar.suites import CaseResult, SuiteReport
from tiltchar.tilting import Decomposition

PASS = CaseResult("oracles", "A1:weylchar:lam=0", "pass")

FROZEN = [
    (
        lambda: RootSystemSpec("A", 2),
        lambda: RootSystemSpec("A", 3),
        "RootSystemSpec(series='A', rank=2)",
    ),
    (
        lambda: classify(datum("A", 1), (3,), 2, 2),
        lambda: classify(datum("A", 1), (4,), 2, 2),
        "MinusculeProfile(weight=(3,), p=2, r=2, digits=((1,), (1,)), restricted=True, "
        "minuscule=False, p_minuscule=False, r_minuscule=True, pr_minuscule=True)",
    ),
    (
        lambda: Decomposition((1, 0), (((0, 0), 1), ((1, 1), 2)), True, "independent"),
        lambda: Decomposition((1, 0), (((0, 0), 1), ((1, 1), 2)), True, "definitional"),
        "Decomposition(shift=(1, 0), summands=(((0, 0), 1), ((1, 1), 2)), "
        "verified=True, mode='independent')",
    ),
    (
        lambda: CaseResult("oracles", "A1:weylchar:lam=0", "pass"),
        lambda: CaseResult("oracles", "A1:weylchar:lam=0", "pass", "note"),
        "CaseResult(suite='oracles', case='A1:weylchar:lam=0', status='pass', detail='')",
    ),
    (
        lambda: SuiteReport("oracles", (PASS,)),
        lambda: SuiteReport("oracles", ()),
        "SuiteReport(suite='oracles', cases=(CaseResult(suite='oracles', "
        "case='A1:weylchar:lam=0', status='pass', detail=''),))",
    ),
]


@pytest.mark.parametrize("make,make_other,text", FROZEN)
def test_frozen_record(make, make_other, text):
    rec, other = make(), make_other()
    assert repr(rec) == text
    assert rec == make() and hash(rec) == hash(make())
    assert rec != other
    fields = rec._fields
    assert hash(rec) == hash(tuple(getattr(rec, f) for f in fields))
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)


def test_record_keyword_construction_and_defaults():
    assert RootSystemSpec(series="B", rank=2) == RootSystemSpec("B", 2)
    assert str(RootSystemSpec("E", 6)) == "E6"
    assert CaseResult(suite="s", case="c", status="fail").detail == ""
    assert MinusculeProfile._fields == (
        "weight", "p", "r", "digits", "restricted", "minuscule",
        "p_minuscule", "r_minuscule", "pr_minuscule",
    )


def test_simple_char_provider_is_a_mutable_record():
    prov = SimpleCharProvider()
    assert repr(prov) == "SimpleCharProvider(strategy='auto', table=None, override=False)"
    assert repr(SimpleCharProvider("jsf", None, True)) == (
        "SimpleCharProvider(strategy='jsf', table=None, override=True)"
    )
    assert prov == SimpleCharProvider(strategy="auto", table=None, override=False)
    assert prov != SimpleCharProvider("jsf")
    assert prov != ("auto", None, False)
    with pytest.raises(TypeError, match="unhashable"):
        hash(prov)
    prov.override = True
    assert prov == SimpleCharProvider(override=True)
