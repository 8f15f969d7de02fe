"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affinity_discord import cli, families, verification
from affinity_discord.cli import build_parser, main
from affinity_discord.correlation import closed_form_2xn
from affinity_discord.errors import OutOfRangeError, ValidationError
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
from affinity_discord.verification import DEFAULT_CHECK_TOLERANCES, run_checks

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
LEGACY_STATE = ROOT / "tests" / "data" / "state_2x3_legacy.json"


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
    assert report["diagnostics"]["marginal_spectrum_a"] == pytest.approx([0.5, 0.5], abs=1e-10)


def test_compute_pure_state_takes_one_svd(tmp_path, capsys, monkeypatch):
    # pure_discord's SVD gives the value; the report prints no second copy of the spectrum
    path = tmp_path / "pure.json"
    save_state(random_pure_state(2, 32, seed=5).to_density(), path)
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    code, _, err = run_cli(capsys, "compute", "--state", str(path))
    assert code == 0, err
    assert calls == [(2, 32)]


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


@pytest.mark.parametrize("dim_b,has_bound", [(32, True), (33, False)])
def test_compute_reports_the_bound_up_to_dimension_64(tmp_path, capsys, dim_b, has_bound):
    path = tmp_path / "state.json"
    save_state(random_state(2, dim_b, rank=2, seed=dim_b), path)
    code, out, _ = run_cli(capsys, "compute", "--state", str(path))
    assert code == 0
    entry = json.loads(out)["measures"]["affinity"]
    assert entry["method"] == "closed-2xn"
    assert ("bound" in entry) == has_bound
    assert "bound_clamped" not in entry


@pytest.mark.parametrize("measure", ["affinity", "remedied", "hs", "all"])
@pytest.mark.parametrize("method", ["auto", "optimize"])
def test_compute_exits_3_above_the_optimizer_cap(tmp_path, capsys, method, measure):
    # above dim_a = 8 a mixed state has no route for any measure: one JSON line, no report
    path = tmp_path / "state.json"
    save_state(random_state(9, 2, seed=0), path)
    argv = ["compute", "--state", str(path), "--measure", measure, "--method", method]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    [line] = err.splitlines()
    assert json.loads(line) == {
        "error": "UnsupportedDimensionError",
        "message": "optimization supports dim_a <= 8, got 9",
    }


def test_compute_invalid_state_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim_a": 2, "dim_b": 2, "matrix": "nope"}')
    code, _, err = run_cli(capsys, "compute", "--state", str(path))
    assert code == 2
    assert "error" in json.loads(err)


def _with_first_real_part(token):
    """A valid state file in each layout, the real part of its first entry replaced by a raw token."""
    files = {
        "dense": state_to_json(validate(np.eye(4) / 4.0, 2, 2)),
        "legacy": LEGACY_STATE.read_text(),
    }
    bad = {
        "dense": files["dense"].replace('"re": [\n    [0.25,', f'"re": [\n    [{token},', 1),
        "legacy": re.sub(r'"re": [^,]+,', f'"re": {token},', files["legacy"], count=1),
    }
    assert all(bad[k] != files[k] for k in files)  # the replacement matched in each layout
    return bad


def _compute_errors(tmp_path, capsys, files):
    """Each file's exit code and error name under ``compute``."""
    results = {}
    for layout, text in files.items():
        path = tmp_path / f"{layout}.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "compute", "--state", str(path))
        results[layout] = (code, json.loads(err)["error"] if err else None)
    return results


@pytest.mark.parametrize("cell", ["NaN", "Infinity"])
def test_compute_non_finite_state_exits_2(tmp_path, capsys, cell):
    results = _compute_errors(tmp_path, capsys, _with_first_real_part(cell))
    assert results == {k: (2, "ValidationError") for k in ("dense", "legacy")}


def test_compute_overflowing_number_exits_2(tmp_path, capsys):
    # a 400-digit integer is valid JSON but overflows the float cast (1e400 reads as inf)
    results = _compute_errors(tmp_path, capsys, _with_first_real_part("1" + "0" * 400))
    assert results == {k: (2, "ValidationError") for k in ("dense", "legacy")}


@pytest.mark.parametrize(
    "parts",
    [
        '"re": [[true, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]',
        '"re": [[0.5, 0, 0], [0.5]], "im": [[0, 0], [0, 0]]',
        '"re": [[[0.5], [0]], [[0], [0.5]]], "im": [[0, 0], [0, 0]]',
        '"re": [[0.5, 0], [0, 0.5]], "im": [[0, 0, 0], [0, 0, 0]]',
        '"re": [[0.5, 0], [0, 0.5]]',
        '"re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]], "matrix": [[{"re": 0.5, "im": 0}]]',
    ],
    ids=["boolean", "ragged", "3-D", "shapes", "no-im", "both-layouts"],
)
def test_compute_malformed_dense_state_exits_2(tmp_path, capsys, parts):
    files = {"dense": '{"dim_a": 1, "dim_b": 2, %s}' % parts}
    assert _compute_errors(tmp_path, capsys, files) == {"dense": (2, "ValidationError")}


def test_compute_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "compute", "--state", "/does/not/exist.json")
    assert code == 2


def test_compute_state_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "compute", "--state", str(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "IsADirectoryError"


def test_compute_non_utf8_state_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dim_a": 1, "dim_b": 1, "matrix": "\xe9"}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "compute", "--state", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"


def test_compute_deeply_nested_state_exits_2_with_one_json_line(tmp_path):
    # a separate process, so a traceback would reach stderr: json.loads raises
    # RecursionError on this nesting, which the reader turns into a ValidationError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "affinity_discord", "compute", "--state", str(path)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "ValidationError"
    assert "Traceback" not in proc.stderr


def test_compute_out_directory_exits_2(bell_file, tmp_path, capsys):
    code, out, err = run_cli(capsys, "compute", "--state", bell_file, "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "IsADirectoryError"


@pytest.mark.parametrize(
    "bad_out,error",
    [
        ("", "IsADirectoryError"),
        ("missing/", "IsADirectoryError"),
        ("missing/out.json", "FileNotFound"),
        ("file.txt/out.json", "NotADirectoryError"),
    ],
)
@pytest.mark.parametrize("command", ["compute", "sweep", "verify"])
def test_bad_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, bad_out, error):
    # the error names are the ones open(out, "w") would raise after the work
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("load_state", "sweep", "run_checks"):
        monkeypatch.setattr(cli, name, refuse)
    (tmp_path / "file.txt").write_text("kept")
    argv = {
        "compute": ["compute", "--state", str(tmp_path / "state.json")],
        "sweep": ["sweep", "--family", "werner2", "--from", "0", "--to", "1", "--steps", "2"],
        "verify": ["verify", "--seed", "7"],
    }[command]
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path) + os.sep + bad_out)
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"] == error
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]
    assert (tmp_path / "file.txt").read_text() == "kept"


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    path = tmp_path / "state.json"
    save_state(random_state(3, 2, seed=3), path)
    argv = {
        "compute": ["compute", "--state", str(path)],
        "verify": ["verify", "--checks", "numerical_substrate"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--seed", "-3")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRangeError"


@pytest.mark.parametrize("method", ["auto", "optimize"])
@pytest.mark.parametrize(
    "dim_a,dim_b",
    [pytest.param(2, 1, id="2"), pytest.param(3, 1, id="3"), pytest.param(1, 3, id="1x3")],
)
def test_compute_one_dimensional_b_is_zero(tmp_path, capsys, dim_a, dim_b, method):
    # with a one-dimensional party nothing is correlated: every measure is 0, and a
    # one-level A takes the optimizer with 0 pair steps
    path = tmp_path / "state.json"
    save_state(random_state(dim_a, dim_b, seed=dim_a), path)
    code, out, err = run_cli(
        capsys, "compute", "--state", str(path), "--measure", "all", "--method", method
    )
    assert code == 0, err
    for entry in json.loads(out)["measures"].values():
        assert abs(entry["value"]) < 1e-12
        assert abs(entry.get("bound", 0.0)) < 1e-12


def test_compute_unsupported_dimension_exits_3(tmp_path, capsys):
    # a one-level B changes nothing: a mixed state above the cap has no route
    path = tmp_path / "big.json"
    save_state(validate(np.eye(9) / 9.0, 9, 1), path)
    for flag in ([], ["--method", "optimize"], ["--measure", "hs"]):
        code, out, err = run_cli(capsys, "compute", "--state", str(path), *flag)
        assert code == 3
        assert out == ""
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
    code, _, err = run_cli(
        capsys,
        "sweep", "--family", "werner2", "--from", "0", "--to", "1", "--steps", "0",
    )
    assert code == 2
    assert json.loads(err) == {
        "error": "OutOfRangeError", "message": "--steps must be at least 1, got 0"
    }


@pytest.mark.parametrize("flag, value", [("--to", "inf"), ("--from", "-inf"), ("--from", "nan")])
def test_sweep_non_finite_grid_end_exits_2_with_one_json_line(flag, value):
    # a separate process, so a numpy warning would reach stderr: the flag is refused
    # before linspace, which warned and then blamed p=nan
    grid = {"--from": "0", "--to": "1", flag: value}
    argv = ["sweep", "--family", "werner2", "--steps", "1", *(f"{k}={v}" for k, v in grid.items())]
    proc = subprocess.run(
        [sys.executable, "-m", "affinity_discord", *argv],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert json.loads(line) == {
        "error": "OutOfRangeError", "message": f"{flag} must be finite, got {float(value)}"
    }


def test_sweep_json_rows_are_the_library_rows(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--family", "isotropic", "--dim", "3", "--from", "0", "--to", "1",
        "--steps", "3", "--format", "json",
    )
    assert code == 0, err
    rows = sweep("isotropic", np.linspace(0.0, 1.0, 3), dim=3)
    assert json.loads(out) == [dataclasses.asdict(row) for row in rows]


def test_sweep_without_dim_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--family", "werner", "--from", "0", "--to", "1", "--steps", "2"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRangeError"


def test_sweep_two_qubit_family_with_dim_exits_2(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--family", "werner2", "--dim", "5", "--from", "0", "--to", "1", "--steps", "2",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRangeError"


def test_sweep_deterministic(capsys):
    args = [
        "sweep", "--family", "werner2", "--from", "0", "--to", "1",
        "--steps", "3", "--measure", "affinity",
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
    # each check's wall time is the one field that may differ between runs
    rows1, rows2 = ([json.loads(line) for line in out.strip().split("\n")] for out in (out1, out2))
    for row in rows1 + rows2:
        del row["runtime_s"]
    assert rows1 == rows2
    assert len(rows1) == 2
    for row in rows1:
        assert row["passed"] is True


def test_verify_reports_runtime_per_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert len(lines) == 10
    tolerances = {}
    for line in lines:
        runtime = line["runtime_s"]
        assert isinstance(runtime, float) and math.isfinite(runtime) and runtime >= 0.0
        tolerances.update(line["tolerances"])
    # every tolerance in the table gates some check, at the value the table holds
    assert tolerances == DEFAULT_CHECK_TOLERANCES


def test_verify_injected_tolerance_fails(capsys, monkeypatch):
    monkeypatch.setitem(DEFAULT_CHECK_TOLERANCES, "sqrt_residual", 1e-30)
    code, out, _ = run_cli(capsys, "verify", "--checks", "numerical_substrate")
    assert code == 1
    assert json.loads(out.strip())["passed"] is False


_COMPUTE_ARGV = ["compute", "--state", "state.json"]
_SWEEP_ARGV = ["sweep", "--family", "werner2", "--from", "0", "--to", "1", "--steps", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (_COMPUTE_ARGV, ["--tol-key", "psd_epsilon=1"]),
        (_SWEEP_ARGV, ["--tol-key", "psd_epsilon=1"]),
        (["verify"], ["--tol-key", "m3_gap=1"]),
        (["verify"], ["--budget", "1"]),
        (_COMPUTE_ARGV, ["--strategy", "hybrid"]),
        (_SWEEP_ARGV, ["--strategy", "hybrid"]),
        (["verify"], ["--strategy", "hybrid"]),
        (_COMPUTE_ARGV, ["--format", "json"]),
        (_SWEEP_ARGV, ["--seed", "3"]),
        (_SWEEP_ARGV, ["--budget", "5"]),
        (_COMPUTE_ARGV, ["--method", "closed"]),
        (_COMPUTE_ARGV, ["--method", "bound"]),
    ],
    ids=[
        "compute-tol-key", "sweep-tol-key", "verify-tol-key", "verify-budget",
        "compute-strategy", "sweep-strategy", "verify-strategy", "compute-format",
        "sweep-seed", "sweep-budget", "compute-method-closed", "compute-method-bound",
    ],
)
def test_unused_flag_exits_2(argv, flag, capsys):
    # a subcommand has only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_compute_huge_budget_runs(tmp_path, capsys):
    # the budget caps pair steps; it sets no number of starts to allocate
    path = tmp_path / "state.json"
    save_state(random_state(3, 2, seed=3), path)
    code, out, err = run_cli(
        capsys, "compute", "--state", str(path), "--method", "optimize", "--budget", str(10**15)
    )
    assert code == 0, err
    assert json.loads(out)["measures"]["affinity"]["method"] == "optimized-local"


def test_compute_budget_below_one_exits_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(random_state(4, 2, seed=3), path)
    code, out, err = run_cli(
        capsys, "compute", "--state", str(path), "--method", "optimize", "--budget", "0"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRangeError"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--state", "state.json", "--budget", "-5"],
    ],
    ids=["compute-closed"],
)
def test_budget_below_one_exits_2_before_any_state_is_read(capsys, monkeypatch, argv):
    # the closed-form routes never run the optimizer, which also refuses it
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --budget was checked")

    monkeypatch.setattr(cli, "load_state", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "OutOfRangeError",
        "message": f"budget must be at least 1, got {argv[-1]}",
    }


@pytest.mark.parametrize("dim", [9, 32])
@pytest.mark.parametrize("family", ["werner", "isotropic"])
def test_sweep_refuses_a_dim_above_the_optimizer_cap_before_any_state(
    capsys, monkeypatch, family, dim
):
    def refuse(*args, **kwargs):
        raise AssertionError("a state was built before --dim was checked")

    for name in ("werner_general", "isotropic"):
        monkeypatch.setattr(families, name, refuse)
    argv = ["sweep", "--family", family, "--dim", str(dim), "--from", "0", "--to", "1"]
    code, out, err = run_cli(capsys, *argv, "--steps", "3")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "UnsupportedDimensionError",
        "message": f"optimization supports dim_a <= 8, got {dim}",
    }


def test_parser_reuse_restores_defaults(tmp_path, capsys):
    # main parses with one parser per process: a flag given once must not
    # stick, and a refused flag must not spoil the next parse
    path = tmp_path / "state.json"
    save_state(random_state(3, 2, seed=3), path)
    argv = ["compute", "--state", str(path), "--method", "optimize"]
    evaluations = []
    for extra in (["--budget", "5"], []):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        evaluations.append(json.loads(out)["measures"]["affinity"]["evaluations"])
    assert evaluations[0] <= 5 < evaluations[1]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "five"])
    assert exc.value.code == 2
    assert cli._parser().parse_args(argv).budget is None


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
    code, out, err = run_cli(capsys, "verify", "--checks", "nonsense")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValidationError", "message": "unknown checks: nonsense"}


@pytest.mark.parametrize(
    "checks", ["family_zeros_asymptotics,", ""], ids=["trailing-comma", "empty"]
)
def test_verify_empty_check_name_exits_2(capsys, checks):
    code, out, err = run_cli(capsys, "verify", "--checks", checks)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValidationError", "message": "unknown checks: ''"}


@pytest.mark.parametrize(
    "seed, error",
    [(-1, OutOfRangeError), (1.5, ValidationError), (True, ValidationError), ("7", ValidationError)],
)
def test_run_checks_refuses_a_seed_that_verify_refuses(seed, error):
    with pytest.raises(error, match="seed"):
        run_checks(seed, names=["family_zeros_asymptotics"])


def test_run_checks_takes_a_numpy_integer_seed():
    (res,) = run_checks(np.int64(3), names=["family_zeros_asymptotics"])
    assert res.passed


def test_ancilla_invariance_optimizes_each_reference_once(monkeypatch):
    # three Werner states, each optimized once as it is and once per ancilla, per measure
    calls = []
    for name in ("optimize_affinity_discord", "optimize_hs_discord"):
        optimizer = getattr(verification, name)
        monkeypatch.setattr(
            verification, name, lambda s, optimizer=optimizer: calls.append(s.dim) or optimizer(s)
        )
    (res,) = run_checks(7, ["ancilla_invariance"])
    assert res.passed
    assert sorted(calls) == [4] * 6 + [8] * 18


def test_run_checks_refuses_a_bare_names_string_by_its_whole_name():
    with pytest.raises(ValidationError, match="'fig1_werner_sweep'"):
        run_checks(names="fig1_werner_sweep")


@pytest.mark.parametrize("module", ["affinity_discord.cli", "affinity_discord"])
def test_python_dash_m_runs_the_cli(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", "--checks", "numerical_substrate", "--seed", "7"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip())["passed"] is True


_IMPORT_PROBE = """
import json, sys
from affinity_discord import cli
print(json.dumps({
    "scipy": sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy.")),
    "parsers_built": cli._parser.cache_info().currsize,
}))
"""


def test_importing_the_cli_builds_nothing():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"scipy": [], "parsers_built": 0}


_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))

import affinity_discord.cli
at_import = scipy_modules()
from affinity_discord import closed_form_2xn, sweep, werner_two_qubit
from affinity_discord.measures import _overlap_kernel, _two_level_oracle
rows = sweep("werner2", [0.5])
after_sweep = scipy_modules()
state = werner_two_qubit(0.5)
value = 1.0 - _two_level_oracle(_overlap_kernel(state.sqrt(), 2, 2))
print(json.dumps({
    "at_import": at_import,
    "after_sweep": after_sweep,
    "sweep_gap": max(row.gap for row in rows),
    "oracle_gap": abs(value - closed_form_2xn(state).value),
    "after_oracle": scipy_modules(),
}))
"""


def test_no_scipy_module_loads_even_for_the_oracle():
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["at_import"] == report["after_sweep"] == report["after_oracle"] == []
    assert report["sweep_gap"] < 1e-12
    assert report["oracle_gap"] < 1e-9
