import json
import os
import subprocess
import sys

import pytest

from tiltchar import cli
from tiltchar.errors import NegativeCoefficient


def run_cli(*args):
    return cli.main(list(args))


def run_proc(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tiltchar.cli", *args],
        capture_output=True,
        text=True,
        env=env,
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

DECOMPOSE_CASES = [
    ("st", "A", "3", "--lambda", "1,1"),
    ("st", "A", "2", "--lambda", "2,0", "--module", "simple"),
    ("st", "B", "3", "--lambda", "1,1", "--module", "delta"),
    ("st", "A", "2", "--lambda", "2,1"),  # not p-minuscule: exit 3
    ("str", "A", "3", "--r", "2", "--lambda", "4,2"),
    ("str", "B", "2", "--r", "2", "--lambda", "2,1"),
    ("str", "B", "3", "--lambda", "2,2"),  # not (p, r)-minuscule: exit 3
]


@pytest.mark.parametrize("case", DECOMPOSE_CASES, ids=lambda c: "-".join(c[:3]))
def test_decompose_same_under_optimize(case):
    """Checks guarding decompose must not be asserts that -O strips."""
    command, series, p, *rest = case
    argv = [
        "-m", "tiltchar.cli", "decompose", command, "--type", series,
        "--rank", "2", "--p", p, *rest,
    ]
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


# ------------------------------------------------- determinism across pools

def test_thread_count_does_not_change_output():
    args = (
        "verify", "--suite", "thm1,prop1", "--type", "B", "--rank", "2", "--p", "2"
    )
    one = run_proc(*args, env_extra={"TILTCHAR_THREADS": "1"})
    four = run_proc(*args, env_extra={"TILTCHAR_THREADS": "4"})
    assert one.returncode == 0 and four.returncode == 0
    assert one.stdout == four.stdout


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
