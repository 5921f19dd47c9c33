import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_identity_sweeps_smoke():
    proc = subprocess.run(
        [
            sys.executable, os.path.join(SCRIPTS, "run_identity_sweeps.py"),
            "--types", "A1", "--p", "2", "--r", "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "A1 thm2" in proc.stdout
    assert "\ncoverage: complete, no undetermined cases" in proc.stdout
