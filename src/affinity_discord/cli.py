"""Command-line interface: compute measures for state files, run family sweeps, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 unsupported dimension.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys

import numpy as np

from .correlation import discord, lower_bound
from .errors import OutOfRangeError, UnsupportedDimensionError, ValidationError, _require_int
from .families import SWEEP_MEASURES, sweep, sweep_to_csv
from .measures import (
    BUDGET_DEFAULT,
    MEASURES,
    _SQRT_MEASURES,
    _optimizer,
    _require_budget,
)
from .states import _as_pure, load_state, schmidt_spectrum
from .verification import CHECK_NAMES, run_checks

_BOUND_MAX_DIM = 64  # larger systems get no bound: its Gell-Mann tables grow as d^4

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_UNSUPPORTED = 3


def _complex_cells(matrix: np.ndarray) -> list:
    return [
        [{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(matrix)
    ]


def _measurement_payload(result):
    payload = {"vectors": _complex_cells(result.optimal_measurement.vectors)}
    if result.parameters is not None:
        payload["parameters"] = [float(x) for x in np.asarray(result.parameters).ravel()]
    return payload


def _measure_entry(state, measure, method, budget) -> dict:
    """One measure's entry: ``auto`` is ``discord``'s route, ``optimize`` the optimizer. The
    bound comes after the result, so a dimension the result refuses exits 3 first."""
    if method == "auto":
        result = discord(state, measure, budget)
    else:
        result = _optimizer(measure)(state, budget=budget)
    entry = {
        "value": float(result.value),
        "method": result.method,
        "evaluations": int(result.evaluations),
        "optimal_measurement": _measurement_payload(result),
    }
    if measure in _SQRT_MEASURES and state.dim <= _BOUND_MAX_DIM:
        bound = lower_bound(state)
        entry["bound"] = bound
        entry["bound_clamped"] = max(0.0, bound)
    return entry


def cmd_compute(args) -> int:
    state = load_state(args.state)
    psi = _as_pure(state)
    measures = MEASURES if args.measure == "all" else [args.measure]
    entries = {m: _measure_entry(state, m, args.method, args.budget) for m in measures}
    diagnostics = {
        "purity": state.purity(),
        "marginal_spectrum_a": [float(x) for x in np.linalg.eigvalsh(state.marginal("a"))],
        "marginal_spectrum_b": [float(x) for x in np.linalg.eigvalsh(state.marginal("b"))],
        "schmidt_spectrum": (
            None if psi is None else [float(x) for x in schmidt_spectrum(psi)]
        ),
    }
    report = {
        "command": "compute",
        "input": args.state,
        "dim_a": state.dim_a,
        "dim_b": state.dim_b,
        "seed": args.seed,
        "measures": entries,
        "diagnostics": diagnostics,
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _require_int(args.steps, "--steps", 1)
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not np.isfinite(value):
            raise OutOfRangeError(f"{flag} must be finite, got {value}")
    if args.start > args.stop:
        raise ValidationError(f"--from {args.start} exceeds --to {args.stop}")
    params = np.linspace(args.start, args.stop, args.steps)
    measures = SWEEP_MEASURES if args.measure == "all" else (args.measure,)
    rows = sweep(args.family, params, measures=measures, dim=args.dim)
    if args.format == "json":
        payload = [dataclasses.asdict(row) for row in rows]
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(sweep_to_csv(rows), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None if args.checks is None else args.checks.split(",")
    results = run_checks(seed=args.seed, names=names)
    lines = [json.dumps(res.to_dict(), sort_keys=True) for res in results]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY_FAILED


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(out: str) -> None:
    """Refuse, before any work, an --out path that ``open(out, "w")`` would refuse
    for its directory part, with the error ``open`` would raise."""
    parent = os.path.dirname(out.rstrip(os.sep)) or "."
    if not os.path.isdir(parent):
        os.stat(parent)  # FileNotFoundError, or NotADirectoryError below the parent
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)
    if out.endswith(os.sep) or os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinity-discord",
        description="Affinity-based geometric discord of bipartite quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=int, default=0, help="seed of verify's random states (compute echoes it)"
    )

    p_compute = sub.add_parser(
        "compute", parents=[common, seeded], help="compute measures for a state file"
    )
    p_compute.add_argument("--state", required=True, help="path to a JSON state file")
    p_compute.add_argument("--measure", choices=[*MEASURES, "all"], default="affinity")
    p_compute.add_argument("--method", choices=["auto", "optimize"], default="auto")
    p_compute.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"cap on the pair steps of all starts, at least 1 (default {BUDGET_DEFAULT}): "
        "dim_a starts for dim_a >= 3, one start for dim_a <= 2",
    )
    p_compute.set_defaults(fn=cmd_compute)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="tabulate a family over a parameter grid"
    )
    p_sweep.add_argument("--family", choices=["werner2", "werner", "isotropic"], required=True)
    p_sweep.add_argument("--dim", type=int, default=None, help="subsystem dimension m")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--measure", choices=[*SWEEP_MEASURES, "all"], default="all")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", parents=[common, seeded], help="run the verification checks"
    )
    p_verify.add_argument(
        "--checks",
        default=None,
        help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}",
    )
    p_verify.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _require_int(vars(args).get("seed", 0), "seed", 0)  # compute and verify
        _require_budget(vars(args).get("budget"))  # compute only; None is the default
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (ValidationError, UnsupportedDimensionError, OSError) as exc:
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
        unsupported = isinstance(exc, UnsupportedDimensionError)
        return EXIT_UNSUPPORTED if unsupported else EXIT_INVALID_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
