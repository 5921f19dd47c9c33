import json
import os
import subprocess
import sys

import pytest

from tiltchar import cli
from tiltchar.errors import InternalMismatch, NegativeCoefficient, NotDivisible


def run_cli(*args):
    return cli.main(list(args))


def run_proc(*args):
    return subprocess.run(
        [sys.executable, "-m", "tiltchar.cli", *args], capture_output=True, text=True
    )


# ------------------------------------------------------------ rootsys info

def test_rootsys_info_g2(capsys):
    assert run_cli("rootsys", "info", "--type", "G", "--rank", "2", "--format", "text") == 0
    out = capsys.readouterr().out
    assert "h=6" in out and "6 positive roots" in out


def test_rootsys_info_a1_json(capsys):
    assert run_cli("rootsys", "info", "--type", "A", "--rank", "1") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["coxeter_number"] == 2
    assert obj["positive_roots"] == 1


def test_rootsys_info_invalid(capsys):
    assert run_cli("rootsys", "info", "--type", "D", "--rank", "2") == 2


# -------------------------------------------------------------------- char

def test_char_weyl_summary(capsys):
    assert run_cli("char", "weyl", "--type", "A", "--rank", "2", "--weight", "1,1") == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["type"] == "A" and obj["rank"] == 2
    assert sum(t["m"] for t in obj["terms"]) == 8
    assert "dimension 8" in captured.err


def test_char_simple_four_terms(capsys):
    assert run_cli(
        "char", "simple", "--type", "A", "--rank", "1", "--p", "2", "--weight", "3"
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["terms"]) == 4


def test_char_weyl_not_dominant(capsys):
    assert run_cli("char", "weyl", "--type", "A", "--rank", "2", "--weight", "-1,0") == 3


def test_char_undetermined_exit(capsys):
    rc = run_cli("char", "simple", "--type", "G", "--rank", "2", "--p", "3", "--weight", "1,1")
    assert rc == 4


def test_char_steinberg_and_tilt(capsys):
    assert run_cli(
        "char", "steinberg", "--type", "A", "--rank", "1", "--p", "2", "--r", "2"
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sum(t["m"] for t in obj["terms"]) == 4
    assert run_cli(
        "char", "tiltpr", "--type", "A", "--rank", "1", "--p", "2", "--r", "2",
        "--weight", "3",
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sum(t["m"] for t in obj["terms"]) == 16
    assert run_cli(
        "char", "tiltp", "--type", "A", "--rank", "1", "--p", "2", "--weight", "2"
    ) == 3  # not restricted


def test_char_bad_p(capsys):
    assert run_cli(
        "char", "simple", "--type", "A", "--rank", "1", "--p", "4", "--weight", "1"
    ) == 2


# --------------------------------------------------------------- decompose

def test_decompose_st_golden(capsys):
    rc = run_cli(
        "decompose", "st", "--type", "A", "--rank", "1", "--p", "2",
        "--lambda", "2", "--module", "nabla",
    )
    assert rc == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj == {
        "shift": [1],
        "summands": [{"nu": [0], "mult": 1}, {"nu": [2], "mult": 1}],
        "verified": True,
        "mode": "independent",
    }
    assert "1*T(1) + 1*T(3)" in captured.err


def test_decompose_str_golden(capsys):
    rc = run_cli(
        "decompose", "str", "--type", "A", "--rank", "1", "--p", "2", "--r", "2",
        "--lambda", "3",
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["shift"] == [3]
    assert obj["summands"] == [{"nu": [3], "mult": 1}]


def test_decompose_st_hypothesis_exit(capsys):
    rc = run_cli(
        "decompose", "st", "--type", "A", "--rank", "1", "--p", "2", "--lambda", "3"
    )
    assert rc == 3


SRC = os.path.join(os.path.dirname(__file__), "..", "src")

OPTIMIZE_CASES = [
    ("st", "A", "3", "--lambda", "1,1"),
    ("st", "A", "2", "--lambda", "2,0", "--module", "simple"),
    ("st", "B", "3", "--lambda", "1,1", "--module", "delta"),
    ("st", "A", "2", "--lambda", "2,1"),  # not p-minuscule: exit 3
    ("str", "A", "3", "--r", "2", "--lambda", "4,2"),
    ("str", "B", "2", "--r", "2", "--lambda", "2,1"),
    ("str", "B", "3", "--lambda", "2,2"),  # not (p, r)-minuscule: exit 3
    ("verify", "B", "2", "--suite", "lemma1b,thm1,prop1"),
    ("verify", "A", "3", "--r", "1", "--suite", "oracles,thm2"),  # Freudenthal, JSF
    # root-datum construction, one type of each series; the third field is the rank
    ("info", "A", "3"), ("info", "B", "3"), ("info", "C", "3"), ("info", "D", "4"),
    ("info", "E", "6"), ("info", "F", "4"), ("info", "G", "2"),
]


@pytest.mark.parametrize("case", OPTIMIZE_CASES, ids=lambda c: "-".join(c[:3]))
def test_decompose_same_under_optimize(case):
    """Checks guarding decompose, verify and root data must not be asserts -O strips."""
    command, series, p_or_rank, *rest = case
    if command == "info":
        args = ["rootsys", "info", "--type", series, "--rank", p_or_rank]
    else:
        group = ["verify"] if command == "verify" else ["decompose", command]
        args = [*group, "--type", series, "--rank", "2", "--p", p_or_rank, *rest]
    argv = ["-m", "tiltchar.cli", *args]
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = [
        subprocess.run(
            [sys.executable, *flags, *argv], capture_output=True, text=True, env=env
        )
        for flags in ([], ["-O"])
    ]
    plain, optimized = runs
    assert plain.returncode in (0, 3), plain.stderr
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_decompose_negative_coefficient_exit(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NegativeCoefficient("forced", (0,))

    monkeypatch.setattr(cli.tl, "decompose_st_tensor", boom)
    rc = run_cli(
        "decompose", "st", "--type", "A", "--rank", "1", "--p", "2", "--lambda", "2"
    )
    assert rc == 5


@pytest.mark.parametrize("error", [InternalMismatch, NotDivisible])
def test_internal_cross_check_failure_exit(monkeypatch, capsys, error):
    def boom(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(cli.tl, "decompose_st_tensor", boom)
    rc = run_cli(
        "decompose", "st", "--type", "A", "--rank", "1", "--p", "2", "--lambda", "2"
    )
    assert rc == 1
    assert f"verification failure: {error.__name__}: forced" in capsys.readouterr().err


def test_decompose_delta_nabla_agree(capsys):
    outs = []
    for module in ("nabla", "delta"):
        assert run_cli(
            "decompose", "st", "--type", "B", "--rank", "2", "--p", "3",
            "--lambda", "1,1", "--module", module,
        ) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------- classify

def test_classify(capsys):
    assert run_cli(
        "classify", "--type", "A", "--rank", "1", "--p", "2", "--r", "2",
        "--weight", "3",
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["digits"] == [[1], [1]]
    assert obj["flags"]["r_minuscule"] is True


# ------------------------------------------------------------------ verify

def test_verify_lemma2(capsys):
    rc = run_cli("verify", "--suite", "lemma2", "--type", "B", "--rank", "2", "--p", "2")
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True
    assert obj["suites"][0]["failed"] == 0
    assert obj["suites"][0]["passed"] >= 4


def test_verify_all_small(capsys):
    rc = run_cli(
        "verify", "--suite", "all", "--type", "A", "--rank", "2", "--p", "3", "--r", "2"
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True
    assert [s["suite"] for s in obj["suites"]] == list(
        ("oracles", "remark", "lemma1a", "lemma1b", "lemma2",
         "prop1", "prop2", "thm1", "thm2")
    )


def test_verify_oracles_text(capsys):
    rc = run_cli(
        "verify", "--suite", "oracles", "--type", "A", "--rank", "1",
        "--format", "text",
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS oracles:A1:weylchar:lam=10" in out
    assert "0 failed" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(ValueError):
        run_cli("verify", "--suite", "bogus", "--type", "A", "--rank", "1")


def test_removed_flags_are_usage_errors():
    # no thread pool; caps only where a command enumerates orbits or cones
    for args in [
        ("verify", "--threads", "2", "--suite", "lemma2", "--type", "A", "--rank", "1"),
        ("decompose", "str", "--type", "A", "--rank", "1", "--p", "2",
         "--lambda", "1", "--cap-orbit", "5"),
        ("char", "steinberg", "--type", "A", "--rank", "1", "--p", "2",
         "--cap-cone", "5"),
    ]:
        proc = run_proc(*args)
        assert proc.returncode == 2, args
        assert "unrecognized arguments" in proc.stderr


# ------------------------------------------------------------- determinism

def test_char_json_byte_identical_runs():
    args = ("char", "weyl", "--type", "G", "--rank", "2", "--weight", "1,1")
    a = run_proc(*args)
    b = run_proc(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


# ------------------------------------------------------------------- table

def test_simple_char_table_file(tmp_path, capsys):
    from tiltchar.rootsys import datum
    from tiltchar import charring as ch
    from tiltchar.simplechar import SimpleCharTable

    A1 = datum("A", 1)
    table = SimpleCharTable()
    table.add(A1, (4,), 2, ch.FormalCharacter(A1, {(4,): 1, (-4,): 1}), "external")
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_list()))

    rc = run_cli(
        "char", "simple", "--type", "A", "--rank", "1", "--p", "2",
        "--weight", "4", "--table", str(path),
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["terms"] == [{"w": [-4], "m": 1}, {"w": [4], "m": 1}]
