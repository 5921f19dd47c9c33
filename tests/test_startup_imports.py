"""What `import tiltchar.cli` costs at start-up: every CLI run pays it.

Compared in a fresh interpreter against the modules already loaded before
the import, so whatever site loads does not count.  `tiltchar` registers
its heavier modules lazily, so a module can be in sys.modules without
having run: it has run once its type is plain `types.ModuleType`, a test
that does not itself trigger the load.  perfbench/tracer.py relies on
every module it wraps being registered after `import tiltchar.cli`, not
on its having run.
"""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# the probe imports json for its report only after taking both snapshots
PROBE = """
import contextlib, io, sys, types
before = set(sys.modules)
import tiltchar.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = tiltchar.cli.main(sys.argv[1:])
added = set(sys.modules) - before
ran = [n for n in added if n.startswith("tiltchar") and type(sys.modules[n]) is types.ModuleType]
import json
print(json.dumps({"code": code, "added": sorted(added), "ran": sorted(ran)}))
"""

# the generated code of dataclasses, and the exact rationals of fractions
# (with decimal and numbers), do no mathematics the CLI needs; json is
# imported only where the CLI encodes or decodes a JSON object, not to
# stream a character
FORBIDDEN = ("dataclasses", "fractions", "decimal", "inspect", "json")

LAZY = ("charring", "minuscule", "simplechar", "tilting", "suites")


def probe(*argv):
    """(modules the import and the command added, tiltchar modules that ran)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout)
    assert report["code"] == 0
    return set(report["added"]), {n.removeprefix("tiltchar.") for n in report["ran"]}


def test_cli_import_leaves_out_heavy_stdlib_modules():
    added, _ = probe()
    assert not added & set(FORBIDDEN), sorted(added & set(FORBIDDEN))
    # perfbench/tracer.py wraps tiltchar.suites right after importing the CLI
    assert "tiltchar.suites" in added


def test_cli_import_runs_only_the_datum_layer():
    added, ran = probe()
    assert ran == {"tiltchar", "cli", "errors", "rootsys"}
    assert {f"tiltchar.{name}" for name in LAZY} <= added


def test_a_command_runs_only_the_modules_it_calls():
    _, ran = probe("rootsys", "info", "--type", "A", "--rank", "2")
    assert ran == {"tiltchar", "cli", "errors", "rootsys"}
    added, ran = probe("char", "weyl", "--type", "A", "--rank", "2", "--weight", "2,1")
    assert ran == {"tiltchar", "cli", "errors", "rootsys", "charring"}
    assert "json" not in added
    # St_r is a Weyl character: charring builds it, with no tilting
    added, ran = probe("char", "steinberg", "--type", "A", "--rank", "2", "--p", "3")
    assert ran == {"tiltchar", "cli", "errors", "rootsys", "charring"}
    assert "json" not in added
    # --p is checked by rootsys.is_prime, and classify reads only minuscule
    _, ran = probe("classify", "--type", "A", "--rank", "2", "--p", "2", "--weight", "1,0")
    assert ran == {"tiltchar", "cli", "errors", "rootsys", "minuscule"}
    _, ran = probe("decompose", "str", "--type", "A", "--rank", "1", "--p", "2", "--lambda", "1")
    assert "suites" not in ran and "tilting" in ran
