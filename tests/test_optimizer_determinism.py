"""The optimizer is deterministic: ``measures`` draws nothing at random and takes no seed,
and its starts are read from the kernel K alone."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from affinity_discord import measures
from affinity_discord.states import BipartiteState, random_state

MEASURES = Path(__file__).resolve().parents[1] / "src" / "affinity_discord" / "measures.py"
# (enclosing function, name under np.random) pairs that draw nothing: none today
ALLOWED = set()


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
        ("def _require_seed(seed):\n    return isinstance(seed, np.random.SeedSequence)", True),
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


@pytest.mark.parametrize("dim_a", [1, 2, 3, 5])
def test_starts_are_read_from_k_alone(monkeypatch, dim_a):
    # the computational basis for dim_a <= 2, the spectral starts of K above; no marginal
    def refuse(*args, **kwargs):
        raise AssertionError("the optimizer read the marginal")

    monkeypatch.setattr(BipartiteState, "marginal", refuse)
    seen = []
    maximize = measures._maximize

    def record(k, starts, budget):
        seen.append((k, starts))
        return maximize(k, starts, budget)

    monkeypatch.setattr(measures, "_maximize", record)
    state = random_state(dim_a, 2, seed=dim_a)
    for optimizer in (measures.optimize_affinity_discord, measures.optimize_hs_discord):
        optimizer(state)
    for k, starts in seen:
        expected = np.eye(dim_a)[None] if dim_a <= 2 else measures._spectral_starts(k, dim_a)
        assert np.array_equal(starts, expected)
    assert len(seen) == 2
