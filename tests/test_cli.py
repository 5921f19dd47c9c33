import hashlib
import json
import os
import subprocess
import sys

import pytest

from tiltchar import cli
from tiltchar.errors import (
    CarrierNotPrMinuscule,
    DatumMismatch,
    InternalMismatch,
    NegativeCoefficient,
    NotDivisible,
    NotDominant,
    NotPMinuscule,
    NotRestricted,
    NotWInvariant,
    TermNotRestricted,
)
from tiltchar.rootsys import MAX_RANK


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


def test_rootsys_info_past_max_rank(capsys):
    assert run_cli("rootsys", "info", "--type", "A", "--rank", str(MAX_RANK)) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == MAX_RANK
    assert run_cli("rootsys", "info", "--type", "A", "--rank", str(MAX_RANK + 1)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rank {MAX_RANK + 1} exceeds the largest supported rank {MAX_RANK}" in captured.err


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


@pytest.mark.parametrize(
    "cls",
    [NotDominant, NotRestricted, NotPMinuscule, NotWInvariant, DatumMismatch,
     TermNotRestricted, CarrierNotPrMinuscule],
    ids=lambda cls: cls.__name__,
)
def test_every_hypothesis_error_exits_3(monkeypatch, capsys, cls):
    def violated(args):
        raise cls(f"a {cls.__name__} case")

    monkeypatch.setattr(cli, "_datum", violated)
    assert run_cli("char", "weyl", "--type", "A", "--rank", "2", "--weight", "1,0") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hypothesis violated: a {cls.__name__} case\n"


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


def test_cone_cap_counts_dominant_weights_not_a_box(capsys):
    # E7 w1+w7: 3 dominant weights below it, in a root-coordinate box of
    # 69,120 points
    args = ("char", "weyl", "--type", "E", "--rank", "7", "--weight", "1,0,0,0,0,0,1")
    assert run_cli(*args) == 0
    default = capsys.readouterr().out
    assert run_cli(*args, "--cap-cone", "1000") == 0
    assert capsys.readouterr().out == default
    assert run_cli(*args, "--cap-cone", "2") == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource cap: dominant cone below (1, 0, 0, 0, 0, 0, 1) exceeds cap 2" in captured.err


def test_char_bad_p(capsys):
    assert run_cli(
        "char", "simple", "--type", "A", "--rank", "1", "--p", "4", "--weight", "1"
    ) == 2


def test_char_p_past_float_range_is_invalid(capsys):
    # the primality test stays in integers: 10**400 has no float square root
    rc = run_cli("char", "steinberg", "--type", "A", "--rank", "1", "--p", str(10**400))
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p must be prime")


def test_char_large_prime_p_returns_promptly():
    # 2**61 - 1 is prime; trial division up to its square root never ended
    proc = subprocess.run(
        [sys.executable, "-m", "tiltchar.cli", "char", "sr", "--type", "A", "--rank", "1",
         "--p", str(2**61 - 1), "--r", "1", "--weight", "1"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["terms"] == [{"w": [-1], "m": 1}, {"w": [1], "m": 1}]


def test_char_p_past_the_primality_limit_is_invalid(capsys):
    rc = run_cli("char", "sr", "--type", "A", "--rank", "1", "--p", str(2**127 - 1),
                 "--r", "1", "--weight", "1")
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p = 170141183460469231731687303715884105727 is past")


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


def test_decompose_st_caps_bound_the_whole_run(capsys):
    # the caps are the run datum's, so --cap-orbit also bounds the orbit
    # sums of the carriers: the orbit of (2, 1) has 6 weights
    args = ("decompose", "st", "--type", "A", "--rank", "2", "--p", "3",
            "--lambda", "2,1", "--module", "nabla")
    assert run_cli(*args) == 0
    default = capsys.readouterr().out
    assert run_cli(*args, "--cap-orbit", "6") == 0
    assert capsys.readouterr().out == default
    assert run_cli(*args, "--cap-orbit", "3") == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource cap: orbit of (2, 1) exceeds cap 3" in captured.err


def test_char_mul_cap_exit(monkeypatch, capsys):
    monkeypatch.setattr(cli.ch, "MAX_PRODUCT_TERMS", 10)
    rc = run_cli(
        "char", "tiltp", "--type", "A", "--rank", "2", "--p", "3", "--weight", "1,0"
    )
    assert rc == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource cap: product support exceeds cap 10" in captured.err


def test_char_tiltp_checks_its_product(monkeypatch, capsys):
    # the full product is compared with its Brauer-Klimyk chi-vector
    real = cli.ch.char_mul
    monkeypatch.setattr(cli.ch, "char_mul", lambda a, b: real(a, b) + cli.ch.one(a.datum))
    rc = run_cli(
        "char", "tiltp", "--type", "A", "--rank", "2", "--p", "3", "--weight", "1,0"
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failure: InternalMismatch: " in captured.err


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
    assert run_cli("verify", "--suite", "bogus", "--type", "A", "--rank", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unknown suite 'bogus'" in captured.err


def recorded_ops(group):
    """The operations of perfbench/expected.json in one group, with exit and digest."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "expected.json")
    with open(path, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    return {argv: rec for argv, rec in ops.items() if argv.startswith(group + " ")}


def assert_replays_recorded(capsys, group, count):
    ops = recorded_ops(group)
    assert len(ops) == count
    for argv, rec in ops.items():
        rc = run_cli(*argv.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (rc, digest) == (rec["exit"], rec["sha256"]), argv


def test_verify_output_matches_recorded_digests(capsys):
    assert_replays_recorded(capsys, "verify", 22)


def test_char_output_matches_recorded_digests(capsys):
    # streamed JSON: the writer must find the captured sys.stdout at call time
    assert_replays_recorded(capsys, "char", 16)


def test_decompose_str_output_matches_recorded_digests(capsys):
    # every orbit sum, s_r and tilting chi-vector on this path comes from
    # the orbit walk filling its caller's table
    assert_replays_recorded(capsys, "decompose str", 361)


# every command that takes a weight, on A2 at p=3
WEIGHT_COMMANDS = [
    ("char", "weyl", "--weight"),
    ("char", "orbit", "--weight"),
    ("char", "sr", "--p", "3", "--weight"),
    ("char", "simple", "--p", "3", "--weight"),
    ("char", "tiltp", "--p", "3", "--weight"),
    ("char", "tiltpr", "--p", "3", "--weight"),
    ("decompose", "st", "--p", "3", "--lambda"),
    ("decompose", "str", "--p", "3", "--lambda"),
    ("classify", "--p", "3", "--weight"),
]


@pytest.mark.parametrize("weight", ["1", "1,0,0"], ids=["short", "long"])
@pytest.mark.parametrize("command", WEIGHT_COMMANDS, ids=lambda c: "-".join(c[:2]))
def test_wrong_rank_weight_is_invalid(capsys, command, weight):
    rc = run_cli(*command, weight, "--type", "A", "--rank", "2")
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs 2 coordinates" in captured.err


@pytest.mark.parametrize(
    "command", [("char", "simple", "--weight"), ("decompose", "str", "--lambda")]
)
def test_unknown_strategy_is_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "1", "--type", "A", "--rank", "1", "--p", "2", "--strategy", "bogus")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'bogus'" in captured.err


def test_unreadable_table_is_invalid(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    no_fields = tmp_path / "no_fields.json"
    no_fields.write_text("[{}]")
    for path in (tmp_path / "missing.json", bad_json, no_fields):
        for args in [
            ("char", "simple", "--type", "A", "--rank", "1", "--p", "2", "--weight", "1"),
            # read although a nabla module resolves no simple character
            ("decompose", "st", "--type", "A", "--rank", "1", "--p", "2",
             "--lambda", "2", "--module", "nabla"),
        ]:
            rc = run_cli(*args, "--table", str(path))
            assert rc == 2, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: cannot read table {path}" in captured.err


def test_removed_flags_are_usage_errors():
    # no thread pool; only char weyl, char orbit, char sr and decompose st
    # take cap flags, and each only the caps its walks reach
    for args in [
        ("verify", "--threads", "2", "--suite", "lemma2", "--type", "A", "--rank", "1"),
        ("decompose", "str", "--type", "A", "--rank", "1", "--p", "2",
         "--lambda", "1", "--cap-orbit", "5"),
        ("char", "steinberg", "--type", "A", "--rank", "1", "--p", "2",
         "--cap-cone", "5"),
        ("char", "weyl", "--type", "A", "--rank", "2", "--weight", "1,1",
         "--cap-orbit", "1"),
        ("char", "orbit", "--type", "A", "--rank", "2", "--weight", "1,1",
         "--cap-cone", "1"),
        ("char", "sr", "--type", "A", "--rank", "2", "--p", "2", "--r", "2",
         "--weight", "1,1", "--cap-cone", "1"),
    ]:
        proc = run_proc(*args)
        assert proc.returncode == 2, args
        assert "unrecognized arguments" in proc.stderr


def test_usage_output_is_the_recorded_one(monkeypatch, capsys):
    # -h of every parser and five usage errors (no group, bad group, bad
    # leaf, missing option, ambiguous abbreviation), recorded from the
    # eagerly built parser under Python 3.11's argparse: a parser filled
    # on first parse must print the same bytes
    monkeypatch.setenv("COLUMNS", "80")
    path = os.path.join(os.path.dirname(__file__), "cli_usage.json")
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    assert len(records) == 21
    for rec in records:
        with pytest.raises(SystemExit) as exc:
            run_cli(*rec["argv"])
        captured = capsys.readouterr()
        got = (exc.value.code, captured.out, captured.err)
        assert got == (rec["exit"], rec["stdout"], rec["stderr"]), rec["argv"]


# ------------------------------------------------------------- determinism

def test_char_json_byte_identical_runs():
    args = ("char", "weyl", "--type", "G", "--rank", "2", "--weight", "1,1")
    a = run_proc(*args)
    b = run_proc(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


# ----------------------------------------------------------- closed stdout

CLOSED_STDOUT = "error: stdout closed before the output was complete\n"


def test_stdout_closed_after_the_first_bytes():
    # 1,489,853 bytes of JSON, far more than a pipe holds
    with subprocess.Popen(
        [sys.executable, "-m", "tiltchar.cli", "char", "steinberg", "--type", "B",
         "--rank", "3", "--p", "3", "--r", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.wait(timeout=120)
    assert head.startswith(b'{"type": "B", "rank": 3, "terms": [')
    assert proc.returncode == cli.EXIT_STDOUT_CLOSED == 141
    assert err == CLOSED_STDOUT


def test_stdout_closed_before_a_small_output():
    # the whole output fits the stdout buffer, so the pipe breaks at the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tiltchar.cli", "char", "weyl", "--type", "A",
             "--rank", "2", "--weight", "1,1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_STDOUT_CLOSED
    assert proc.stderr == CLOSED_STDOUT


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


def test_table_override_reaches_steinberg_digits(tmp_path, capsys):
    from tiltchar.rootsys import datum
    from tiltchar import charring as ch
    from tiltchar.simplechar import SimpleCharTable

    # ch L(2) at p=3 is chi(2) (lowest alcove); the entry e(2) + e(-2) is
    # wrong but well formed, and 5 has the base-3 digits (2) and (1)
    A1 = datum("A", 1)
    table = SimpleCharTable()
    table.add(A1, (2,), 3, ch.orbit_sum(A1, (2,)), "wrong")
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_list()))
    args = ("char", "simple", "--type", "A", "--rank", "1", "--p", "3",
            "--weight", "5", "--table", str(path))

    assert run_cli(*args, "--table-override") == 0
    obj = json.loads(capsys.readouterr().out)
    # (e(2) + e(-2)) (e(1) + e(-1))^[3]
    assert obj["terms"] == [{"w": [w], "m": 1} for w in (-5, -1, 1, 5)]
    assert run_cli(*args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "InternalMismatch" in captured.err


A1_L1 = {"type": "A", "rank": 1, "p": 2, "weight": [1], "character": {
    "type": "A", "rank": 1, "terms": [{"w": [-1], "m": 1}, {"w": [1], "m": 1}]}}


def _entry(**changes):
    """A1_L1 with some fields replaced; character fields under their own key."""
    entry = json.loads(json.dumps(A1_L1))
    for key, value in changes.items():
        if key in ("char_rank", "char_type", "terms"):
            entry["character"][key.removeprefix("char_")] = value
        else:
            entry[key] = value
    return entry


@pytest.mark.parametrize("entry, reason", [
    (_entry(terms=[{"w": [-1], "m": 1.9}, {"w": [1], "m": 1.9}]), "1.9 is not an integer"),
    (_entry(terms=[{"w": [-1], "m": True}, {"w": [1], "m": True}]), "True is not an integer"),
    (_entry(terms=[{"w": [-1], "m": 1}, {"w": [0.7], "m": 1}, {"w": [1], "m": 1}]),
     "0.7 is not an integer"),
    (_entry(weight=[1.0]), "1.0 is not an integer"),
    (_entry(p=4), "p must be prime, got 4"),
    (_entry(char_type="B", char_rank=2, terms=[{"w": [0, 0], "m": 1}]),
     "character is for B2, datum is A1"),
    (_entry(terms=[{"w": [1, 0], "m": 1}]), "weight (1, 0) has wrong rank"),
], ids=["float m", "bool m", "float w", "float weight", "p not prime",
        "other datum", "weight length"])
def test_malformed_table_entry_is_invalid(tmp_path, capsys, entry, reason):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([entry]))
    for strategy in ("auto", "table"):
        rc = run_cli("char", "simple", "--type", "A", "--rank", "1", "--p", "2",
                     "--weight", "1", "--strategy", strategy, "--table", str(path))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read table {path}: {reason}\n"


def test_well_formed_table_entry_is_read(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([A1_L1]))
    rc = run_cli("char", "simple", "--type", "A", "--rank", "1", "--p", "2",
                 "--weight", "1", "--strategy", "table", "--table", str(path))
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == A1_L1["character"]


def test_decompose_str_errors_print_their_messages(tmp_path, capsys):
    from tiltchar.rootsys import datum
    from tiltchar import charring as ch
    from tiltchar.simplechar import SimpleCharTable

    # overriding entries that make decompose str fail: L(3) := e(3) + e(-3)
    # for A1 at p=2, r=2 has the coefficient -1 at carrier (1,), and
    # L(1,0) := s(1,0) + s(1,1) for B2 at p=2 the carrier (1,1)
    A1, B2 = datum("A", 1), datum("B", 2)
    for d, lam, char, argv, code, err in [
        (A1, (3,), ch.orbit_sum(A1, (3,)), ("--r", "2", "--lambda", "3"), 5,
         "negative coefficient: coefficient of carrier (1,) is -1"),
        (B2, (1, 0), ch.char_add(ch.orbit_sum(B2, (1, 0)), ch.orbit_sum(B2, (1, 1))),
         ("--r", "1", "--lambda", "1,0"), 3,
         "hypothesis violated: carrier (1, 1) is not (p, r)-minuscule for p=2, r=1"),
    ]:
        table = SimpleCharTable()
        table.add(d, lam, 2, char, "forced")
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json_list()))
        rc = run_cli("decompose", "str", "--type", d.spec.series, "--rank", str(d.rank),
                     "--p", "2", *argv, "--table", str(path), "--table-override")
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err + "\n"


# ------------------------------------------------------------------ README

def readme_examples():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line.split() for line in block.splitlines() if line.strip()]


def test_readme_examples(capsys):
    examples = readme_examples()
    assert examples
    for argv in examples:
        assert argv[0] == "tiltchar"
        assert cli.main(argv[1:]) == 0, argv
