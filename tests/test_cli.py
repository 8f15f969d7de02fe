"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from affinity_discord.cli import main
from affinity_discord.families import werner_general_discords
from affinity_discord.states import (
    bell_state,
    product_state,
    random_density,
    save_state,
    state_to_json,
    validate,
    werner_general,
    werner_two_qubit,
)


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
    assert report["measures"]["hs"]["method"] == "optimized-grid"
    assert report["measures"]["hs"]["value"] == pytest.approx(0.18, abs=1e-5)
    # remedied optimum coincides with the affinity optimum
    assert report["measures"]["remedied"]["value"] == pytest.approx(
        report["measures"]["affinity"]["value"], abs=1e-5
    )


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


def test_verify_unknown_check_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "--checks", "nonsense")
    assert code == 2
