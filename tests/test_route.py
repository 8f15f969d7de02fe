"""One owner for the route decision: ``correlation.discord`` picks the route, and
``compute`` prints what it picked.

The route table pins which method each state and measure takes, and that
``compute --method auto`` reports the library's result bit for bit. The AST scan
keeps ``cli.py`` from naming any piece of the route, so the decision cannot drift
back into the CLI.
"""

import ast
import json
from pathlib import Path

import pytest

from affinity_discord import cli
from affinity_discord.correlation import discord, lower_bound
from affinity_discord.errors import OutOfRangeError, UnknownFamilyError, UnsupportedDimensionError
from affinity_discord.measures import MEASURES
from affinity_discord.states import random_pure_state, random_state, save_state

CLI = Path(__file__).resolve().parents[1] / "src" / "affinity_discord" / "cli.py"
ROUTE_PIECES = {
    "pure_discord",
    "closed_form_2xn",
    "MAX_OPT_DIM",
    "PureState",
    "optimize_affinity_discord",
    "optimize_hs_discord",
    "remedied_hs_discord",
}

STATES = {
    "pure3x2": lambda: random_pure_state(3, 2, seed=3).to_density(),
    "2x3": lambda: random_state(2, 3, seed=1),
    "3x3": lambda: random_state(3, 3, seed=0),
    "9x2": lambda: random_state(9, 2, seed=0),
}
# (state, measure) -> method; the HS measure always optimizes
ROUTES = {
    ("pure3x2", "affinity"): "closed-pure",
    ("pure3x2", "remedied"): "closed-pure",
    ("pure3x2", "hs"): "optimized-local",
    ("2x3", "affinity"): "closed-2xn",
    ("2x3", "remedied"): "closed-2xn",
    ("2x3", "hs"): "optimized-local",
    ("3x3", "affinity"): "optimized-local",
    ("3x3", "remedied"): "optimized-local",
    ("3x3", "hs"): "optimized-local",
    ("9x2", "affinity"): "bound",
    ("9x2", "remedied"): "bound",
}


def _compute_entry(tmp_path, state, measure) -> dict:
    path, out = tmp_path / "state.json", tmp_path / "out.json"
    save_state(state, path)
    argv = ["compute", "--state", str(path), "--measure", measure, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    return json.loads(out.read_text(encoding="utf-8"))["measures"][measure]


@pytest.mark.parametrize("name, measure", sorted(ROUTES), ids="-".join)
def test_route_table(tmp_path, name, measure):
    state = STATES[name]()
    result = discord(state, measure)
    assert result.method == ROUTES[name, measure]
    entry = _compute_entry(tmp_path, state, measure)
    assert entry["value"] == float(result.value)
    assert entry["method"] == result.method
    assert entry["evaluations"] == result.evaluations
    if result.method == "bound":
        assert result.bound == lower_bound(state)
        assert result.value == max(0.0, result.bound)
        assert result.evaluations == 0
        assert result.optimal_measurement is None
        assert entry["bound"] == result.bound
    else:
        assert result.bound is None
        assert result.optimal_measurement is not None


def test_hs_above_the_cap_is_unsupported():
    with pytest.raises(UnsupportedDimensionError):
        discord(STATES["9x2"](), "hs")


@pytest.mark.parametrize("measure", ["ghz", "all", "HS", ""])
def test_unknown_measure_is_refused(measure):
    with pytest.raises(UnknownFamilyError):
        discord(STATES["2x3"](), measure)


def test_route_table_covers_every_measure():
    assert {measure for _, measure in ROUTES} == set(MEASURES)


def test_budget_is_checked_on_every_route():
    # a closed route never spends the budget, but it refuses a bad one like the optimizer
    for name in ("pure3x2", "2x3", "9x2"):
        with pytest.raises(OutOfRangeError):
            discord(STATES[name](), budget=0)
    assert discord(STATES["3x3"](), budget=1).evaluations == 1


def _names(tree):
    """Every identifier the source names: variables, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("from .measures import MAX_OPT_DIM", True),
        ("from .correlation import closed_form_2xn as closed", True),
        ("def f(s):\n    return measures.pure_discord(s)", True),
        ("x = {'hs': optimize_hs_discord}", True),
        ("def f(s: PureState):\n    pass", True),
        ("from .correlation import discord, lower_bound", False),
        ("def f(s, m):\n    return _optimizer(m)(s)", False),
    ],
)
def test_route_piece_scan(source, flagged):
    assert bool(set(_names(ast.parse(source))) & ROUTE_PIECES) is flagged


def test_cli_names_no_piece_of_the_route():
    named = set(_names(ast.parse(CLI.read_text(encoding="utf-8"))))
    assert sorted(named & ROUTE_PIECES) == [], "cli.py must leave the route to correlation.discord"
