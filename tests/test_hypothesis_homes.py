"""Each weight hypothesis has one home in the library.

Dominance is raised by rootsys.require_dominant alone, every tilting
theorem gate by tilting._require, the r >= 1 check of the Steinberg
chi-vector by charring._steinberg_chi, and the Steinberg shift
(p^r-1)rho + lam is formed by charring._steinberg_weight alone.  St_r is
a Weyl character, so both Steinberg homes sit in charring, beside
s_r_character.
"""
import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tiltchar")


def _sites(match):
    """(module, enclosing function) for every node of src/ that match accepts."""
    found = []

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((name, scope))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(name, child, inner)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                visit(name, ast.parse(fh.read()), None)
    return found


def _raises(cls_name):
    def match(node):
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        return (
            isinstance(exc, ast.Call)
            and isinstance(exc.func, ast.Name)
            and exc.func.id == cls_name
        )

    return match


def _steinberg_shift(node):
    # p**r - 1, or q - 1 with q = p**r
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
        and (
            (isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Pow))
            or (isinstance(node.left, ast.Name) and node.left.id == "q")
        )
    )


def test_not_dominant_is_raised_in_one_home():
    assert _sites(_raises("NotDominant")) == [
        ("rootsys.py", "require_dominant"),
    ]


def test_hypothesis_violated_is_raised_in_one_home():
    assert _sites(_raises("HypothesisViolated")) == [
        ("charring.py", "_steinberg_chi"),
        ("tilting.py", "_require"),
    ]


def test_steinberg_shift_is_formed_in_one_home():
    assert _sites(_steinberg_shift) == [("charring.py", "_steinberg_weight")]
