"""One owner for the route decision: ``correlation.discord`` picks the route, and
``compute`` prints what it picked.

The route table pins which method each state and measure takes, and that
``compute --method auto`` reports the library's result bit for bit. The AST scan
keeps ``cli.py`` from naming any piece of the route, so the decision cannot drift
back into the CLI, and keeps the measure -> (S, offset) rule in ``measures``.
"""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from affinity_discord import cli, linalg, measures
from affinity_discord.correlation import discord
from affinity_discord.errors import OutOfRangeError, UnknownFamilyError, UnsupportedDimensionError
from affinity_discord.measures import MEASURES, DiscordResult
from affinity_discord.states import random_pure_state, random_state, save_state

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affinity_discord"
CLI = PACKAGE / "cli.py"
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
    "pure9x2": lambda: random_pure_state(9, 2, seed=3).to_density(),
    "2x3": lambda: random_state(2, 3, seed=1),
    "3x3": lambda: random_state(3, 3, seed=0),
    "9x2": lambda: random_state(9, 2, seed=0),
}
# (state, measure) -> method; a pure state takes its closed form under every measure, a
# mixed one under HS always optimizes, and None marks a state above the optimizer's cap
# that no route takes: every measure raises and compute exits 3
ROUTES = {
    ("pure3x2", "affinity"): "closed-pure",
    ("pure3x2", "remedied"): "closed-pure",
    ("pure3x2", "hs"): "closed-pure",
    ("pure9x2", "affinity"): "closed-pure",
    ("pure9x2", "remedied"): "closed-pure",
    ("pure9x2", "hs"): "closed-pure",
    ("2x3", "affinity"): "closed-2xn",
    ("2x3", "remedied"): "closed-2xn",
    ("2x3", "hs"): "optimized-local",
    ("3x3", "affinity"): "optimized-local",
    ("3x3", "remedied"): "optimized-local",
    ("3x3", "hs"): "optimized-local",
    ("9x2", "affinity"): None,
    ("9x2", "remedied"): None,
    ("9x2", "hs"): None,
}


def _compute(tmp_path, capsys, state, measure) -> tuple[int, str, str]:
    path = tmp_path / "state.json"
    save_state(state, path)
    code = cli.main(["compute", "--state", str(path), "--measure", measure])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name, measure", sorted(ROUTES), ids=str)
def test_route_table(tmp_path, capsys, name, measure):
    state = STATES[name]()
    if ROUTES[name, measure] is None:
        with pytest.raises(UnsupportedDimensionError):
            discord(state, measure)
        code, out, err = _compute(tmp_path, capsys, state, measure)
        assert (code, out) == (cli.EXIT_UNSUPPORTED, "")
        assert json.loads(err)["error"] == "UnsupportedDimensionError"
        return
    result = discord(state, measure)
    assert result.method == ROUTES[name, measure]
    code, out, err = _compute(tmp_path, capsys, state, measure)
    assert code == cli.EXIT_OK, err
    entry = json.loads(out)["measures"][measure]
    assert entry["value"] == float(result.value)
    assert entry["method"] == result.method
    assert entry["evaluations"] == result.evaluations
    assert np.array_equal(_vectors(entry), result.optimal_measurement.vectors)


def _vectors(entry) -> np.ndarray:
    cells = entry["optimal_measurement"]["vectors"]
    return np.array([[z["re"] + 1j * z["im"] for z in row] for row in cells])


def test_every_result_carries_a_basis():
    # no route reports a value without the measurement that reaches it
    fields = {f.name: f for f in dataclasses.fields(DiscordResult)}
    assert list(fields) == ["value", "method", "optimal_measurement", "parameters", "evaluations"]
    assert fields["optimal_measurement"].default is dataclasses.MISSING


@pytest.mark.parametrize("measure", ["ghz", "all", "HS", ""])
def test_unknown_measure_is_refused(measure):
    with pytest.raises(UnknownFamilyError):
        discord(STATES["2x3"](), measure)


def test_route_table_covers_every_measure():
    assert {measure for _, measure in ROUTES} == set(MEASURES)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 16])
def test_a_pure_state_takes_one_closed_form_under_every_measure(m, n):
    # sqrt(rho) = rho and Tr rho^2 = 1 give every measure the same K and offset, at any size
    state = random_pure_state(m, n, seed=m * n).to_density()
    results = [discord(state, measure) for measure in MEASURES]
    assert [r.method for r in results] == ["closed-pure"] * len(MEASURES)
    assert len({r.value for r in results}) == 1
    if m <= measures.MAX_OPT_DIM:
        assert abs(results[0].value - measures.optimize_hs_discord(state).value) <= 1e-12


def test_budget_is_checked_on_every_route():
    # a closed route never spends the budget, and the budget is checked before a state
    # above the cap is refused, so every route refuses a bad one like the optimizer
    for name in ("pure3x2", "pure9x2", "2x3", "9x2"):
        with pytest.raises(OutOfRangeError):
            discord(STATES[name](), budget=0)
    assert discord(STATES["3x3"](), budget=1).evaluations == 1


def test_a_refused_request_takes_no_square_root(monkeypatch):
    # the budget and the cap are checked before measures._kernel roots the state
    above_cap, below_cap = STATES["9x2"](), STATES["3x3"]()
    calls = []
    sqrt = linalg.matrix_sqrt_psd
    monkeypatch.setattr(linalg, "matrix_sqrt_psd", lambda *a: calls.append(1) or sqrt(*a))
    for measure in MEASURES:
        with pytest.raises(UnsupportedDimensionError):
            discord(above_cap, measure)
        with pytest.raises(OutOfRangeError):
            measures._optimizer(measure)(below_cap, budget=0)
    assert calls == []


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


@pytest.mark.parametrize("module", ["cli.py", "correlation.py"])
def test_no_measure_is_singled_out_outside_measures(module):
    # which measures take S = sqrt(rho) is read from measures, never spelt as "hs" here
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert "hs" not in literals, f"{module} must read the measure rule from measures"
