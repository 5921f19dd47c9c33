"""What `import tiltchar.cli` costs at start-up: every CLI run pays it.

Compared in a fresh interpreter against the modules already loaded before
the import, so whatever site loads does not count.
"""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

PROBE = """
import sys
before = set(sys.modules)
import tiltchar.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""

# the generated code of dataclasses, and the exact rationals of fractions
# (with decimal and numbers), do no mathematics the CLI needs
FORBIDDEN = ("dataclasses", "fractions", "decimal", "inspect")


def added_by_cli_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_cli_import_leaves_out_heavy_stdlib_modules():
    added = added_by_cli_import()
    assert not added & set(FORBIDDEN), sorted(added & set(FORBIDDEN))
    # perfbench/tracer.py wraps tiltchar.suites right after importing the CLI
    assert "tiltchar.suites" in added
