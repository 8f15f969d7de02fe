"""The optimizer is deterministic: ``measures`` draws nothing at random and takes no seed."""

import ast
import inspect
from pathlib import Path

import pytest

from affinity_discord import measures

MEASURES = Path(__file__).resolve().parents[1] / "src" / "affinity_discord" / "measures.py"
# (enclosing function, name under np.random): the seed rule's type check, which draws nothing
ALLOWED = {("_require_seed", "SeedSequence")}


def _random_uses(tree):
    """Yield (enclosing function or None, name) for each ``np.random.<name>`` and random import."""

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute):
            inner = node.value
            if isinstance(inner, ast.Attribute) and inner.attr == "random":
                if getattr(inner.value, "id", None) in ("np", "numpy"):
                    yield func, node.attr
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("random", "numpy.random"):
                    yield func, alias.name
        if isinstance(node, ast.ImportFrom):
            if node.module in ("random", "numpy.random") or any(
                a.name == "random" for a in node.names
            ):
                yield func, node.module
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    yield from walk(tree, None)


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("def f(s):\n    return np.random.default_rng(s).standard_normal(3)", True),
        ("def f():\n    return numpy.random.rand()", True),
        ("import numpy.random", True),
        ("from numpy import random", True),
        ("def _require_seed(seed):\n    return isinstance(seed, np.random.SeedSequence)", False),
        ("def f(x):\n    return np.linalg.eigh(x)", False),
    ],
)
def test_random_use_scan(source, flagged):
    uses = [use for use in _random_uses(ast.parse(source)) if use not in ALLOWED]
    assert bool(uses) is flagged


def test_measures_draws_nothing_at_random():
    uses = list(_random_uses(ast.parse(MEASURES.read_text(encoding="utf-8"))))
    stray = [use for use in uses if use not in ALLOWED]
    assert stray == [], f"measures.py must stay deterministic: {stray}"


@pytest.mark.parametrize(
    "optimizer",
    [measures.optimize_affinity_discord, measures.optimize_hs_discord, measures.remedied_hs_discord],
    ids=lambda f: f.__name__,
)
def test_optimizers_take_no_seed(optimizer):
    assert list(inspect.signature(optimizer).parameters) == ["state", "budget"]
