"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affinity_discord.cli import build_parser, main
from affinity_discord.correlation import closed_form_2xn
from affinity_discord.families import sweep, werner_general_discords
from affinity_discord.states import (
    bell_state,
    load_state,
    product_state,
    random_density,
    random_pure_state,
    random_state,
    save_state,
    state_to_json,
    validate,
    werner_general,
    werner_two_qubit,
)
from affinity_discord.verification import DEFAULT_CHECK_TOLERANCES

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _src_env():
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(bell_state(0, 0).to_density(), path)
    return str(path)


def test_compute_bell_state(bell_file, capsys):
    code, out, _ = run_cli(capsys, "compute", "--state", bell_file)
    assert code == 0
    report = json.loads(out)
    entry = report["measures"]["affinity"]
    assert entry["value"] == pytest.approx(0.5, abs=1e-10)
    assert entry["method"] == "closed-pure"  # rank-1 wins the auto resolution
    assert entry["bound"] == pytest.approx(0.5, abs=1e-10)
    assert report["diagnostics"]["schmidt_spectrum"] == pytest.approx([0.5, 0.5], abs=1e-10)


def test_compute_auto_agrees_with_optimize_on_pure_state(bell_file, capsys):
    _, out_auto, _ = run_cli(capsys, "compute", "--state", bell_file, "--method", "auto")
    _, out_opt, _ = run_cli(capsys, "compute", "--state", bell_file, "--method", "optimize")
    auto = json.loads(out_auto)["measures"]["affinity"]["value"]
    opt = json.loads(out_opt)["measures"]["affinity"]["value"]
    assert abs(auto - opt) < 1e-5


def test_compute_mixed_state_uses_closed_2xn(tmp_path, capsys):
    path = tmp_path / "werner.json"
    save_state(werner_two_qubit(0.6), path)
    code, out, _ = run_cli(capsys, "compute", "--state", str(path), "--measure", "all")
    assert code == 0
    report = json.loads(out)
    assert report["measures"]["affinity"]["method"] == "closed-2xn"
    assert report["measures"]["hs"]["method"] == "optimized-local"
    assert report["measures"]["hs"]["value"] == pytest.approx(0.18, abs=1e-12)
    # remedied optimum coincides with the affinity optimum
    assert report["measures"]["remedied"]["value"] == pytest.approx(
        report["measures"]["affinity"]["value"], abs=1e-5
    )


@pytest.mark.parametrize("dim_b", [2, 32])
def test_compute_nearly_pure_state_takes_the_2xn_closed_form(tmp_path, capsys, dim_b):
    # the purity stays above 1 - 1e-8, the prefilter, but the admixed
    # eigenvalues survive the square root's snap: the Schmidt route would miss
    # by ~1e-5
    rho = random_pure_state(2, dim_b, seed=3).to_density().rho
    mixed = (1.0 - 4e-9) * rho + 4e-9 * np.eye(2 * dim_b) / (2 * dim_b)
    path = tmp_path / "nearly_pure.json"
    save_state(validate(mixed, 2, dim_b), path)
    code, out, err = run_cli(capsys, "compute", "--state", str(path))
    assert code == 0, err
    report = json.loads(out)
    entry = report["measures"]["affinity"]
    assert entry["method"] == "closed-2xn"
    assert report["diagnostics"]["schmidt_spectrum"] is None
    exact = closed_form_2xn(load_state(path)).value
    assert abs(entry["value"] - exact) < DEFAULT_CHECK_TOLERANCES["lu_closed"]


def test_compute_product_state_is_zero(tmp_path, capsys):
    path = tmp_path / "product.json"
    save_state(product_state(random_density(2, seed=1), random_density(3, seed=2)), path)
    code, out, _ = run_cli(capsys, "compute", "--state", str(path))
    assert code == 0
    value = json.loads(out)["measures"]["affinity"]["value"]
    assert abs(value) < 1e-9


def test_compute_three_level_werner_optimizes(tmp_path, capsys):
    path = tmp_path / "werner3.json"
    save_state(werner_general(3, 0.9), path)
    code, out, _ = run_cli(
        capsys,
        "compute", "--state", str(path), "--method", "optimize", "--budget", "4800",
    )
    assert code == 0
    entry = json.loads(out)["measures"]["affinity"]
    assert entry["method"] == "optimized-local"
    assert entry["value"] == pytest.approx(werner_general_discords(3, 0.9)[0], abs=1e-4)


def test_compute_bound_method(tmp_path, capsys):
    path = tmp_path / "werner.json"
    save_state(werner_two_qubit(0.8), path)
    code, out, _ = run_cli(capsys, "compute", "--state", str(path), "--method", "bound")
    assert code == 0
    entry = json.loads(out)["measures"]["affinity"]
    assert entry["method"] == "bound"
    assert entry["value"] <= entry["bound_clamped"] + 1e-12


def test_compute_invalid_state_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim_a": 2, "dim_b": 2, "matrix": "nope"}')
    code, _, err = run_cli(capsys, "compute", "--state", str(path))
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("cell", ["NaN", "Infinity"])
def test_compute_non_finite_state_exits_2(tmp_path, capsys, cell):
    text = state_to_json(validate(np.eye(4) / 4.0, 2, 2))
    path = tmp_path / "nonfinite.json"
    path.write_text(text.replace('"re": 0.25', f'"re": {cell}', 1))
    code, _, err = run_cli(capsys, "compute", "--state", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


def test_compute_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "compute", "--state", "/does/not/exist.json")
    assert code == 2


@pytest.mark.parametrize("method", ["auto", "optimize"])
@pytest.mark.parametrize("dim_a", [2, 3])
def test_compute_one_dimensional_b_is_zero(tmp_path, capsys, dim_a, method):
    # with a one-dimensional B nothing is correlated: every measure is 0
    path = tmp_path / "mx1.json"
    save_state(random_state(dim_a, 1, seed=dim_a), path)
    code, out, err = run_cli(
        capsys, "compute", "--state", str(path), "--measure", "all", "--method", method
    )
    assert code == 0, err
    for entry in json.loads(out)["measures"].values():
        assert abs(entry["value"]) < 1e-12
        assert abs(entry.get("bound", 0.0)) < 1e-12


def test_compute_unsupported_dimension_exits_3(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_state(validate(np.eye(9) / 9.0, 9, 1), path)
    code, _, err = run_cli(capsys, "compute", "--state", str(path), "--method", "optimize")
    assert code == 3
    assert json.loads(err)["error"] == "UnsupportedDimensionError"


def test_sweep_werner2_fig_data(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--family", "werner2", "--from", "-0.3333", "--to", "1",
        "--steps", "41", "--measure", "all", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "family,param,measure,analytic,optimized,gap"
    assert len(lines) == 1 + 82
    last_aff = lines[-2].split(",")
    assert last_aff[2] == "affinity"
    assert float(last_aff[3]) == pytest.approx(0.5, abs=1e-9)
    assert float(last_aff[5]) < 1e-5


def test_sweep_bad_grid_exits_2(capsys):
    code, _, _ = run_cli(
        capsys,
        "sweep", "--family", "werner2", "--from", "0", "--to", "1", "--steps", "0",
    )
    assert code == 2


def test_sweep_json_rows_are_the_library_rows(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--family", "isotropic", "--dim", "3", "--from", "0", "--to", "1",
        "--steps", "3", "--format", "json", "--seed", "4",
    )
    assert code == 0, err
    rows = sweep("isotropic", np.linspace(0.0, 1.0, 3), dim=3, seed=4)
    assert json.loads(out) == [dataclasses.asdict(row) for row in rows]


def test_sweep_without_dim_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--family", "werner", "--from", "0", "--to", "1", "--steps", "2"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRangeError"


def test_sweep_deterministic(capsys):
    args = [
        "sweep", "--family", "werner2", "--from", "0", "--to", "1",
        "--steps", "3", "--measure", "affinity", "--seed", "7",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_subset_passes_and_is_deterministic(capsys):
    args = [
        "verify", "--seed", "7",
        "--checks", "family_zeros_asymptotics,numerical_substrate",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        assert json.loads(line)["passed"] is True


def test_verify_injected_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--checks", "numerical_substrate", "--tol-key", "sqrt_residual=1e-30",
    )
    assert code == 1
    assert json.loads(out.strip())["passed"] is False


_COMPUTE_ARGV = ["compute", "--state", "state.json"]
_SWEEP_ARGV = ["sweep", "--family", "werner2", "--from", "0", "--to", "1", "--steps", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (_COMPUTE_ARGV, ["--tol-key", "psd_epsilon=1"]),
        (_SWEEP_ARGV, ["--tol-key", "psd_epsilon=1"]),
        (["verify"], ["--budget", "1"]),
        (_COMPUTE_ARGV, ["--strategy", "hybrid"]),
        (_SWEEP_ARGV, ["--strategy", "hybrid"]),
        (["verify"], ["--strategy", "hybrid"]),
        (_COMPUTE_ARGV, ["--format", "json"]),
    ],
    ids=[
        "compute-tol-key", "sweep-tol-key", "verify-budget",
        "compute-strategy", "sweep-strategy", "verify-strategy", "compute-format",
    ],
)
def test_unused_flag_exits_2(argv, flag, capsys):
    # a subcommand has only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_compute_budget_below_one_exits_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(random_state(4, 2, seed=3), path)
    code, out, err = run_cli(
        capsys, "compute", "--state", str(path), "--method", "optimize", "--budget", "0"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRangeError"


def _readme_cli_lines():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line.split("#")[0].split() for block in blocks for line in block.splitlines()]
    return [words[1:] for words in lines if words[:1] == ["affinity-discord"]]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_lines_parse(argv):
    build_parser().parse_args(argv)


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_unknown_check_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "--checks", "nonsense")
    assert code == 2


@pytest.mark.parametrize("module", ["affinity_discord.cli", "affinity_discord"])
def test_python_dash_m_runs_the_cli(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", "--checks", "numerical_substrate", "--seed", "7"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip())["passed"] is True


_SCIPY_PROBE = """
import json, sys
import affinity_discord.cli
from affinity_discord import closed_form_2xn, sweep, werner_two_qubit
from affinity_discord.measures import _maximize_grid, _overlap_kernel
rows = sweep("werner2", [0.5])
loaded = "scipy.optimize" in sys.modules
state = werner_two_qubit(0.5)
value = 1.0 - _maximize_grid(_overlap_kernel(state.sqrt(), 2, 2))
print(json.dumps({
    "loaded_after_sweep": loaded,
    "sweep_gap": max(row.gap for row in rows),
    "grid_gap": abs(value - closed_form_2xn(state).value),
    "loaded_after_grid": "scipy.optimize" in sys.modules,
}))
"""


def test_scipy_optimize_loads_only_for_the_grid():
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded_after_sweep"] is False
    assert report["sweep_gap"] < 1e-12
    assert report["grid_gap"] < 1e-9
    assert report["loaded_after_grid"] is True
