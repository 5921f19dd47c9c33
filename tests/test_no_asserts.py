"""Invariants must survive python -O, which strips assert statements."""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tiltchar"


def test_library_has_no_assert_statements():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"use a TiltcharError instead of assert: {found}"
