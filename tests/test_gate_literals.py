"""Numerical gates live in ``tolerances``: no new gate literal hides in a module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affinity_discord"
SMALL = 1e-6
# (module, enclosing function, value): the small literals that are not gates.
ALLOWED = {
    # snaps a round-off-negative radicand to 0 before the square root
    ("families.py", "_safe_sqrt", 1e-13),
    # matches a grid point of np.linspace to the sweep's endpoints, not a tolerance
    ("verification.py", "check_fig1_werner_sweep", 1e-12),
    # keeps a relative residual finite for an all-zero matrix
    ("verification.py", "check_numerical_substrate", 1e-300),
}


def _small_literals(tree):
    """Yield (enclosing function or None, value) for each float literal below SMALL."""

    def walk(node, func):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == "DEFAULT_CHECK_TOLERANCES" for t in targets):
                return  # the verify checks' own tolerance table
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and type(node.value) is float:
            if 0.0 < abs(node.value) < SMALL:
                yield func, node.value
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    yield from walk(tree, None)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p.name != "tolerances.py"),
    ids=lambda p: p.name,
)
def test_small_float_literals_are_in_tolerances(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stray = [
        (func, value)
        for func, value in _small_literals(tree)
        if (path.name, func, value) not in ALLOWED
    ]
    assert stray == [], f"{path.name}: move these gates into tolerances: {stray}"
