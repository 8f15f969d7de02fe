"""The benchmark tracer's function table must match the package.

``perfbench/tracing.py`` wraps public functions by rebinding module names; a
refactor that drops a traced name, or that calls one through a reference the
tracer cannot rebind, breaks the benchmark's call-count check.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from affinity_discord import cli, correlation
from affinity_discord.states import random_state, save_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _tracing_module():
    return _load("tracing")


def test_traced_functions_resolve():
    tracing = _tracing_module()
    for mod_name, fn_name in tracing.TRACED:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        fn = getattr(module, fn_name, None)
        assert callable(fn), f"{mod_name}.{fn_name} is missing"
        assert fn.__module__ == module.__name__, f"{mod_name}.{fn_name} is not defined there"


@pytest.mark.parametrize("method", ["optimize", "auto"])
def test_compute_optimizers_are_traced(tmp_path, method):
    # a mixed 3x2 state takes the optimizer on both methods, so the route's
    # optimizer lookup must go through names the tracer rebinds
    path = tmp_path / "state.json"
    save_state(random_state(3, 2, seed=5), path)
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["compute", "--state", str(path), "--method", method, "--measure", "all",
             "--budget", "300", "--out", str(tmp_path / "out.json")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    calls = tracer.per_item()[None]["calls"]
    for name in ("optimize_affinity_discord", "optimize_hs_discord", "remedied_hs_discord"):
        assert calls[f"measures.{name}"] == 1, name


def test_sweep_items_match_expected_call_counts(tmp_path):
    # one werner2 and one belldiag item of the sweep workload, counted as a
    # --trace run counts them, against the workload's own table
    tracing = _tracing_module()
    workload = _load("workloads").SweepFig1(seed=1, workdir=str(tmp_path))
    items = workload.build()
    picked = [next(it for it in items if it.kind == kind) for kind in ("werner2", "belldiag")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index, item in enumerate(picked):
            tracer.item = index
            workload.call(item)
    finally:
        tracer.uninstall()
    kinds = {index: item.kind for index, item in enumerate(picked)}
    assert tracing.check_call_counts(tracer.per_item(), kinds, workload.expected_calls) == []


def _compute_call_misses(workload) -> list:
    """Run one item of each kind in the compute workload's table, counted as a
    --trace run counts it; return the counts that differ from the table."""
    tracing = _tracing_module()
    items = workload.build()
    every_kind = list(workload.expected_calls)
    assert {it.kind for it in items} == set(every_kind)
    picked = [next(it for it in items if it.kind == kind) for kind in every_kind]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index, item in enumerate(picked):
            tracer.item = index
            assert workload.call(item) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    kinds = {index: item.kind for index, item in enumerate(picked)}
    return tracing.check_call_counts(tracer.per_item(), kinds, workload.expected_calls)


def test_compute_items_match_expected_call_counts(tmp_path):
    # pure, mixed, belldiag, belldiag+ancilla: the closed-pure and closed-2xn
    # routes, with the bound, call what the workload's table says
    workload = _load("workloads").ComputeQubit(seed=1, workdir=str(tmp_path))
    assert _compute_call_misses(workload) == []


def test_qudit_items_match_expected_call_counts(tmp_path):
    # cq, isotropic+ancilla, random: --method optimize --measure all runs each
    # optimizer once, and the bound twice, as the workload's table says
    workload = _load("workloads").ComputeQudit(seed=1, workdir=str(tmp_path))
    assert _compute_call_misses(workload) == []


def test_a_second_compute_pass_builds_no_gell_mann_table(tmp_path):
    # every table a compute_qubit pass asks for (dim_b 2 to 32, with the
    # ancillas) is built once per process: after a warm pass, none is rebuilt
    workload = _load("workloads").ComputeQubit(seed=1, workdir=str(tmp_path))
    items = workload.build()
    for item in items:
        assert workload.call(item) == cli.EXIT_OK
    before = correlation.gell_mann_basis.cache_info()
    for item in items:
        assert workload.call(item) == cli.EXIT_OK
    after = correlation.gell_mann_basis.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == sum(
        workload.expected_calls[item.kind]["correlation.gell_mann_basis"] for item in items
    )
