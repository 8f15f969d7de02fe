"""The benchmark tracer's function table must match the package.

``perfbench/tracing.py`` wraps public functions by rebinding module names; a
refactor that drops a traced name, or that calls one through a reference the
tracer cannot rebind, breaks the benchmark's call-count check.
"""

import importlib
import importlib.util
from pathlib import Path

from affinity_discord import cli
from affinity_discord.states import random_state, save_state

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _tracing_module()
    for mod_name, fn_name in tracing.TRACED:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        fn = getattr(module, fn_name, None)
        assert callable(fn), f"{mod_name}.{fn_name} is missing"
        assert fn.__module__ == module.__name__, f"{mod_name}.{fn_name} is not defined there"


def test_compute_optimizers_are_traced(tmp_path):
    path = tmp_path / "state.json"
    save_state(random_state(3, 2, seed=5), path)
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["compute", "--state", str(path), "--method", "optimize", "--measure", "all",
             "--budget", "300", "--out", str(tmp_path / "out.json")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    calls = tracer.per_item()[None]["calls"]
    for name in ("optimize_affinity_discord", "optimize_hs_discord", "remedied_hs_discord"):
        assert calls[f"measures.{name}"] == 1, name
