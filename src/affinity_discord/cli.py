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

from . import linalg
from .correlation import closed_form_2xn, lower_bound
from .errors import UnsupportedDimensionError, ValidationError, _require_int
from .families import MEASURES, sweep, sweep_to_csv
from .measures import (
    BUDGET_DEFAULT,
    MAX_OPT_DIM,
    DiscordResult,
    _require_budget,
    _require_seed,
    optimize_affinity_discord,
    optimize_hs_discord,
    pure_discord,
    remedied_hs_discord,
)
from .states import BipartiteState, PureState, load_state, schmidt_spectrum
from .verification import CHECK_NAMES, run_checks

_BOUND_MAX_DIM = 64  # larger systems get the bound only as the value above MAX_OPT_DIM

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_UNSUPPORTED = 3


def _complex_cells(matrix: np.ndarray) -> list:
    return [
        [{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(matrix)
    ]


def _measurement_payload(result: DiscordResult):
    if result.optimal_measurement is None:
        return None
    payload = {"vectors": _complex_cells(result.optimal_measurement.vectors)}
    if result.parameters is not None:
        payload["parameters"] = [float(x) for x in np.asarray(result.parameters).ravel()]
    return payload


def _as_pure(state: BipartiteState) -> PureState | None:
    """The state as a pure state when one eigenvalue survives the square root's snap, else None.

    Reads the eigendecomposition that the loaded state keeps.
    """
    w, v = state.eigh
    if np.count_nonzero(linalg.snap_spectrum(w)) != 1:
        return None
    amps = v[:, -1]
    return PureState(state.dim_a, state.dim_b, amps / np.linalg.norm(amps))


def _measure_entry(state, psi, measure, method, budget) -> dict:
    """Run one measure; ``psi`` is the state as a pure state, or None.

    ``auto`` takes, for the affinity and remedied measures, the pure closed
    form, then the two-level closed form, then the optimizer up to
    ``MAX_OPT_DIM``, and above it the spectral bound alone. The HS measure and
    ``optimize`` always optimize, so a dim_a above the cap exits 3 there. On
    every other route the spectral bound is computed after the result, so a
    dimension the result rejects exits 3 before the bound sees it.
    """
    closed = method == "auto" and measure != "hs"
    raw_bound = None
    if closed and psi is not None:
        result = pure_discord(psi)
    elif closed and state.dim_a == 2:
        result = closed_form_2xn(state)
    elif closed and state.dim_a > MAX_OPT_DIM:
        raw_bound = lower_bound(state)
        result = DiscordResult(max(raw_bound, 0.0), "bound")
    else:
        # looked up per call, so a rebinding of these names (perfbench's tracer) takes effect
        optimizer = {
            "affinity": optimize_affinity_discord,
            "hs": optimize_hs_discord,
            "remedied": remedied_hs_discord,
        }[measure]
        result = optimizer(state, budget=budget)

    entry = {
        "value": float(result.value),
        "method": result.method,
        "evaluations": int(result.evaluations),
        "optimal_measurement": _measurement_payload(result),
    }
    if raw_bound is None and measure != "hs" and state.dim <= _BOUND_MAX_DIM:
        raw_bound = lower_bound(state)
    if raw_bound is not None:
        entry["bound"] = float(raw_bound)
        entry["bound_clamped"] = max(0.0, float(raw_bound))
    return entry


def cmd_compute(args) -> int:
    state = load_state(args.state)
    psi = _as_pure(state)
    measures = ["affinity", "hs", "remedied"] if args.measure == "all" else [args.measure]
    entries = {m: _measure_entry(state, psi, m, args.method, args.budget) for m in measures}
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
    if args.start > args.stop:
        raise ValidationError(f"--from {args.start} exceeds --to {args.stop}")
    params = np.linspace(args.start, args.stop, args.steps)
    measures = MEASURES if args.measure == "all" else (args.measure,)
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
    p_compute.add_argument(
        "--measure", choices=["affinity", "hs", "remedied", "all"], default="affinity"
    )
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
    p_sweep.add_argument("--measure", choices=[*MEASURES, "all"], default="all")
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
        _require_seed(vars(args).get("seed", 0))  # compute and verify
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
