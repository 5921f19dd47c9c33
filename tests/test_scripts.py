import hashlib
import json
import os
import subprocess
import sys

import pytest

from tiltchar import cli

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _sweep(*args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "run_identity_sweeps.py"), *args],
        capture_output=True,
        text=True,
    )


def test_identity_sweeps_smoke():
    proc = _sweep("--types", "A1", "--p", "2", "--r", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "A1 thm2" in proc.stdout
    assert "\ncoverage: complete, no undetermined cases" in proc.stdout


@pytest.mark.parametrize("args,message", [
    (("--suites", "bogus"), "unknown suite 'bogus'"),
    (("--types", "X9"), "unknown series 'X'"),
    (("--types", "A"), "bad type 'A'"),
    (("--types", "D3"), "D3 is rejected"),
    (("--p", "4"), "p must be prime, got 4"),
    (("--p", "x"), "bad list 'x'"),
    (("--r", "-1"), "r must be at least 1, got -1"),
    (("--r", "0"), "r must be at least 1, got 0"),
    (("--r", "1,0"), "r must be at least 1, got 0"),
])
def test_identity_sweeps_rejects_bad_input(args, message):
    proc = _sweep(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def _build_table(*args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "build_simple_char_table.py"), *args],
        capture_output=True,
        text=True,
    )


def test_build_simple_char_table_feeds_the_cli(tmp_path, capsys):
    table = tmp_path / "a2_p3.json"
    proc = _build_table("--type", "A", "--rank", "2", "--p", "3", "--bound", "4,4",
                        "-o", str(table))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert f"wrote 7 entries to {table}" in proc.stderr
    assert "6 undetermined weights:" in proc.stderr
    query = ["char", "simple", "--type", "A", "--rank", "2", "--p", "3", "--weight", "2,2"]
    assert cli.main(query) == 0
    plain = capsys.readouterr().out
    assert cli.main(query + ["--table", str(table)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("args,message", [
    (("--type", "A", "--rank", "2", "--p", "3", "--bound", "4"), "needs 2 coordinates"),
    (("--type", "A", "--rank", "2", "--p", "4", "--bound", "4,4"), "p must be prime"),
    (("--type", "A", "--rank", "2", "--p", "3", "--bound", "x,1"), "bad weight syntax"),
    (("--type", "D", "--rank", "3", "--p", "3", "--bound", "1,1,1"), "D3 is rejected"),
    (("--type", "A", "--rank", "2", "--p", "3", "--bound=-1,0"), "is not dominant"),
])
def test_build_simple_char_table_rejects_bad_input(args, message):
    proc = _build_table(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def _peak_rss(*args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "peak_rss.py"), *args],
        capture_output=True,
        text=True,
    )


def test_peak_rss_reports_the_command_itself(capsys):
    query = ["char", "weyl", "--type", "A", "--rank", "2", "--weight", "2,1"]
    proc = _peak_rss(*query)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == " ".join(query)
    assert report["exit_code"] == 0
    assert report["rss_source"] in ("VmHWM", "ru_maxrss")
    assert 0 < report["peak_rss_mb"] < 1000
    assert 0 < report["cpu_s"] and 0 < report["wall_s"]
    assert cli.main(query) == 0
    plain = capsys.readouterr().out.encode()
    assert report["stdout_bytes"] == len(plain)
    assert report["stdout_sha256"] == hashlib.sha256(plain).hexdigest()
    # char weyl calls nothing past charring
    assert report["modules"] == [
        "tiltchar", "tiltchar.charring", "tiltchar.cli", "tiltchar.errors", "tiltchar.rootsys"
    ]


def test_peak_rss_passes_the_exit_code_through():
    proc = _peak_rss("char", "weyl", "--type", "A", "--rank", "2", "--weight", "1,-1")
    assert proc.returncode == 3
    assert "is not dominant" in proc.stderr
    assert json.loads(proc.stdout)["exit_code"] == 3
