"""Command-line interface: compute measures for state files, run family sweeps, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 unsupported dimension.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import linalg
from .correlation import closed_form_2xn, lower_bound
from .errors import UnsupportedDimensionError, ValidationError
from .families import MEASURES, sweep, sweep_to_csv
from .measures import (
    MULTISTART_DEFAULT,
    PAIR_STEPS_PER_START,
    DiscordResult,
    optimize_affinity_discord,
    optimize_hs_discord,
    pure_discord,
    remedied_hs_discord,
)
from .states import BipartiteState, PureState, load_state, schmidt_spectrum
from .verification import CHECK_NAMES, run_checks

_PURITY_PREFILTER = 1e-8
_BOUND_MAX_DIM = 64  # skip the spectral bound for larger composite systems

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_UNSUPPORTED = 3


def _parse_overrides(pairs: list[str] | None) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"tolerance override {pair!r} is not NAME=VALUE")
        key, _, value = pair.partition("=")
        try:
            overrides[key.strip()] = float(value)
        except ValueError as exc:
            raise ValidationError(f"tolerance override {pair!r}: {exc}") from exc
    return overrides


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
    """The state as a pure state when one eigenvalue survives the square root's snap, else None."""
    # One surviving eigenvalue forces purity >= (1 - 2 d^2 eps) Tr(rho)^2, above
    # this cut for d <= 4096, so the purity test is a necessary condition that
    # spares mixed states the eigh.
    if state.purity() < 1.0 - _PURITY_PREFILTER:
        return None
    w, v = np.linalg.eigh(state.rho)
    if np.count_nonzero(linalg.snap_spectrum(w)) != 1:
        return None
    amps = v[:, -1]
    return PureState(state.dim_a, state.dim_b, amps / np.linalg.norm(amps))


def _measure_entry(state, psi, measure, method, budget, seed) -> dict:
    """Run one measure by one method; ``psi`` is the state as a pure state, or None.

    ``auto`` takes the closed forms (pure, then two-level A) for the affinity
    and remedied measures, and optimizes otherwise. The spectral bound is
    computed after the result, so a dimension the result rejects exits 3
    before the bound sees it.
    """
    if method == "auto":
        closed = measure != "hs" and (psi is not None or state.dim_a == 2)
        method = "closed" if closed else "optimize"
    if measure == "hs" and method != "optimize":
        raise ValidationError(f"no {method} path for the Hilbert-Schmidt measure")

    raw_bound = None
    if method == "optimize":
        # looked up per call, so a rebinding of these names (perfbench's tracer) takes effect
        optimizer = {
            "affinity": optimize_affinity_discord,
            "hs": optimize_hs_discord,
            "remedied": remedied_hs_discord,
        }[measure]
        result = optimizer(state, budget=budget, seed=seed)
    elif method == "bound":
        raw_bound = lower_bound(state)
        result = DiscordResult(max(raw_bound, 0.0), "bound")
    elif psi is not None:
        result = pure_discord(psi)
    elif state.dim_a == 2:
        result = closed_form_2xn(state)
    else:
        raise UnsupportedDimensionError("closed form requires dim_a = 2")

    entry = {
        "value": float(result.value),
        "method": result.method,
        "evaluations": int(result.evaluations),
        "optimal_measurement": _measurement_payload(result),
    }
    if measure != "hs" and state.dim <= _BOUND_MAX_DIM:
        if raw_bound is None:
            raw_bound = lower_bound(state)
        entry["bound"] = float(raw_bound)
        entry["bound_clamped"] = max(0.0, float(raw_bound))
    return entry


def cmd_compute(args) -> int:
    state = load_state(args.state)
    psi = _as_pure(state)
    measures = ["affinity", "hs", "remedied"] if args.measure == "all" else [args.measure]
    entries = {
        m: _measure_entry(state, psi, m, args.method, args.budget, args.seed)
        for m in measures
    }
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
    if args.steps < 1:
        raise ValidationError(f"--steps must be positive, got {args.steps}")
    if args.start > args.stop:
        raise ValidationError(f"--from {args.start} exceeds --to {args.stop}")
    params = np.linspace(args.start, args.stop, args.steps)
    measures = MEASURES if args.measure == "all" else (args.measure,)
    rows = sweep(
        args.family,
        params,
        measures=measures,
        dim=args.dim,
        budget=args.budget,
        seed=args.seed,
    )
    if args.format == "json":
        payload = [dataclasses.asdict(row) for row in rows]
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(sweep_to_csv(rows), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks else None
    try:
        results = run_checks(
            seed=args.seed,
            tolerance_overrides=_parse_overrides(args.tol_key),
            names=names,
        )
    except KeyError as exc:
        raise ValidationError(str(exc)) from exc
    lines = [json.dumps(res.to_dict(), sort_keys=True) for res in results]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY_FAILED


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinity-discord",
        description="Affinity-based geometric discord of bipartite quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    common.add_argument("--out", default=None, help="write output to this path")
    optimizing = argparse.ArgumentParser(add_help=False)
    optimizing.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"pair steps for dim_a >= 3, at least 1: budget // {PAIR_STEPS_PER_START} starts, "
        f"at least one ({MULTISTART_DEFAULT} without it); a two-level A takes one exact pair "
        "step whatever the budget",
    )

    p_compute = sub.add_parser(
        "compute", parents=[common, optimizing], help="compute measures for a state file"
    )
    p_compute.add_argument("--state", required=True, help="path to a JSON state file")
    p_compute.add_argument(
        "--measure", choices=["affinity", "hs", "remedied", "all"], default="affinity"
    )
    p_compute.add_argument(
        "--method", choices=["auto", "closed", "bound", "optimize"], default="auto"
    )
    p_compute.set_defaults(fn=cmd_compute)

    p_sweep = sub.add_parser(
        "sweep", parents=[common, optimizing], help="tabulate a family over a parameter grid"
    )
    p_sweep.add_argument("--family", choices=["werner2", "werner", "isotropic"], required=True)
    p_sweep.add_argument("--dim", type=int, default=None, help="subsystem dimension m")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--measure", choices=[*MEASURES, "all"], default="all")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[common], help="run the verification checks")
    p_verify.add_argument(
        "--checks",
        default=None,
        help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}",
    )
    p_verify.add_argument(
        "--tol-key",
        action="append",
        metavar="NAME=VALUE",
        help="override a check tolerance (repeatable)",
    )
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, UnsupportedDimensionError, FileNotFoundError) as exc:
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
        unsupported = isinstance(exc, UnsupportedDimensionError)
        return EXIT_UNSUPPORTED if unsupported else EXIT_INVALID_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
