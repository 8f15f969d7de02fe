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


ORDERINGS = (ast.Lt, ast.Gt, ast.LtE, ast.GtE)


def _nan_blind_gates(tree):
    """Yield the line of each ``if`` that raises on a plain ordering against a ``tolerances`` name.

    NaN fails every comparison, so ``if x > GATE: raise`` lets a NaN through; the
    negated form ``if not x <= GATE: raise`` refuses it. A comparison under an odd
    number of ``not`` is the negated form.
    """
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "tolerances"
        for alias in node.names
    }

    def plain(node, negated):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            negated = not negated
        if isinstance(node, ast.Compare) and not negated:
            ordered = any(isinstance(op, ORDERINGS) for op in node.ops)
            if ordered and any(getattr(n, "id", None) in names for n in ast.walk(node)):
                return True
        return any(plain(child, negated) for child in ast.iter_child_nodes(node))

    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
            if plain(node.test, False):
                yield node.lineno


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("if abs(t - 1.0) > UNIT_TRACE:\n    raise E", True),
        ("if w.size and w[0] < -PSD_EPSILON:\n    raise E", True),
        ("if not abs(t - 1.0) <= UNIT_TRACE:\n    raise E", False),
        ("if w.size and not w[0] >= -PSD_EPSILON:\n    raise E", False),
        ("if not all(x >= -PSD_EPSILON for x in w):\n    raise E", False),
        ("if abs(t - 1.0) > UNIT_TRACE:\n    t = 1.0", False),  # not a gate: nothing raised
        ("if abs(t - 1.0) > 1.0:\n    raise E", False),  # no tolerance involved
    ],
)
def test_nan_blind_gate_scan(source, flagged):
    tree = ast.parse("from .tolerances import PSD_EPSILON, UNIT_TRACE\n" + source)
    assert bool(list(_nan_blind_gates(tree))) is flagged


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_tolerance_gates_refuse_nan(path):
    lines = sorted(_nan_blind_gates(ast.parse(path.read_text(encoding="utf-8"))))
    assert lines == [], f"{path.name}: write these gates as `if not x <= GATE: raise`: {lines}"
