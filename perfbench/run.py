"""Benchmark of the affinity-discord library: one workload per run.

    python3 perfbench/run.py --workload compute_qubit --seed 1 --seconds 60 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``.
Load is a closed loop in one process: one item at a time, no worker
threads, BLAS pinned to one thread. ``--trace 0`` times the items and prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
over the items, prints the per-layer metrics and the tracing overhead, and
runs the default-thread BLAS diagnostic. Every output is checked against its
reference. The last stdout line is the JSON result; the lines before it
name every metric with its unit. See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

import blasinfo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "perfbench", ".work")
SEEDS = {"baseline": 1, "held_out": 2}
SETUP_REPEATS = 7
TIMED_PASSES = 2
TAIL_BEYOND = 10
IMPORT_TIMEOUT_S = 120
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import affinity_discord.cli; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "max_ref_gap": "discord",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}
# On the result line. The tail needs more than TAIL_BEYOND items and
# compute_qudit times eight; the accuracy metrics are 0 on workloads whose
# outputs all meet their references. All are reported above the result line.
GATED = ("setup_s", "items_per_s", "item_p50_ms", "peak_rss_mb")


def _tail(latencies: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its value."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None, None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


def _run_items(workload, items, stop, tracer=None, between=None, first=0):
    """Closed loop over the items in order; item k of the loop is items[k % len(items)].

    ``between(elapsed)``, if given, runs after each item, outside its timing.
    Traced items are numbered from ``first``.
    """
    from workloads import Outcome

    latencies, outcomes = [], []
    start = time.perf_counter()
    while not stop(len(latencies), time.perf_counter() - start):
        if between is not None and latencies:
            between(time.perf_counter() - start)
        index = len(latencies)
        item = items[index % len(items)]
        if tracer is not None:
            tracer.item = first + index
        t0 = time.perf_counter()
        try:
            raw = workload.call(item)
        except Exception:  # an item that raises is a failed item, not a dead run
            latencies.append(time.perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            outcomes.append(Outcome(ok=False, sound=False, gap=math.inf, misses=["raised"]))
        else:
            latencies.append(time.perf_counter() - t0)
            outcomes.append(workload.check(item, raw))
        if not outcomes[-1].ok:
            sys.stderr.write(f"{workload.name} {item.label}: {'; '.join(outcomes[-1].misses)}\n")
    return latencies, outcomes


def _until(seconds: float, min_items: int):
    return lambda n, elapsed: n >= min_items and elapsed >= seconds


def _fastest(latencies: list[float], n_distinct: int) -> list[float]:
    """Each distinct item's fastest latency over its passes."""
    return [min(latencies[i::n_distinct]) for i in range(min(len(latencies), n_distinct))]


def _alternate_traced(workload, items, seconds: float, tracer):
    """Untraced and traced passes in turn: at least one pair, and no pair that
    would end after ``seconds`` if it took as long as the one before.

    Alternating puts both sides of the overhead in the same host phases.
    Returns the untraced latencies, the traced ones and the traced outcomes.
    """
    untraced, traced, outcomes = [], [], []
    one_pass = _until(0.0, len(items))
    start = now = time.perf_counter()
    last_pair = 0.0
    while not traced or now - start + last_pair < seconds:
        untraced += _run_items(workload, items, one_pass)[0]
        tracer.install()
        try:
            lat, out = _run_items(workload, items, one_pass, tracer, first=len(traced))
        finally:
            tracer.uninstall()
        traced += lat
        outcomes += out
        end = time.perf_counter()
        last_pair, now = end - now, end
    return untraced, traced, outcomes


def _import_seconds() -> float:
    """Package import time in a fresh interpreter (the same work a user's first call pays)."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC],
        capture_output=True,
        text=True,
        timeout=IMPORT_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class _ImportSampler:
    """SETUP_REPEATS package imports, each in a fresh interpreter, spread over a run.

    The first is taken at once. ``maybe`` takes the next one each time another
    1/SETUP_REPEATS of the run's seconds has passed, and ``finish`` takes any
    left. So their median covers the host's fast and slow phases over the
    whole run, not the one moment the run started in.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.samples = [_import_seconds()]

    def maybe(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_REPEATS and elapsed >= self.seconds * len(self.samples) / SETUP_REPEATS:
            self.samples.append(_import_seconds())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(_import_seconds())
        return self.samples


def _setup(workload_cls, seed: int, scratch: str):
    """Generate inputs, write files and warm up, SETUP_REPEATS times."""
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workload_cls(seed, scratch)
        items = workload.build()
        workload.warm_up(items)
        builds.append(time.perf_counter() - t0)
    return workload, items, builds


def _summary(latencies, outcomes, n_distinct: int) -> dict:
    """Latency and accuracy figures of one loop.

    ``items_per_s`` and ``item_p50_ms`` use each distinct item's fastest
    pass: the host this was tuned on has phases, seconds to over a minute
    long, in which the same code runs up to 1.4x slower, in CPU time as well
    as wall time.
    The raw figures over every pass are kept beside them.
    """
    n = len(latencies)
    best = _fastest(latencies, n_distinct)
    pct, tail = _tail(latencies)
    failed = sum(not o.ok for o in outcomes)
    return {
        "items": n,
        "items_per_s": len(best) / sum(best),
        "item_p50_ms": statistics.median(best) * 1e3,
        "item_tail_ms": None if tail is None else tail * 1e3,
        "item_tail_pct": pct,
        "items_per_s_all_passes": n / sum(latencies),
        "item_p50_ms_all_passes": statistics.median(latencies) * 1e3,
        "max_ref_gap": max(o.gap for o in outcomes),
        "failed": failed,
        "fail_frac": failed / n,
        "sound": all(o.sound for o in outcomes),
        "brackets": [b for o in outcomes for b in o.brackets],
        "misses": sorted({m for o in outcomes for m in o.misses}),
        "routes": dict(Counter(m for o in outcomes for m in o.methods)),
    }


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:28s} {values.get(name)!r:>24} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["compute_qubit", "compute_qudit", "sweep_fig1"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affinity_discord", "__init__.py")):
        sys.stderr.write(f"perfbench: no package at {SRC}/affinity_discord\n")
        return 2

    blasinfo.pin_one_thread()
    sys.path.insert(0, SRC)
    import affinity_discord.cli  # noqa: F401  (after the BLAS pin)

    if not os.path.abspath(affinity_discord.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported {affinity_discord.__file__}, not the checkout\n")
        return 2

    import tracing
    from workloads import WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORKDIR)
    try:
        return _bench(args, WORKLOADS[args.workload], scratch, tracing)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _bench(args, workload_cls, scratch, tracing) -> int:
    imports = _ImportSampler(args.seconds)
    workload, items, builds = _setup(workload_cls, args.seed, scratch)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": SEEDS,
        "seconds": args.seconds,
        "items_per_pass": len(items),
        "blas": blasinfo.blas_info(),
        "tolerances": workload.tol,
    }
    if args.trace == 0:
        min_items = TIMED_PASSES * len(items)
        lat, outcomes = _run_items(workload, items, _until(args.seconds, min_items), between=imports.maybe)
        summary = _summary(lat, outcomes, len(items))
        summary["setup_s"] = statistics.median(imports.finish()) + statistics.median(builds)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: summary[k] for k in GATED}
        units = END_TO_END_UNITS
    else:
        tracer = tracing.Tracer()
        lat_u, lat, outcomes = _alternate_traced(workload, items, args.seconds, tracer)
        n = len(lat)
        summary = _summary(lat, outcomes, len(items))
        per_item = tracer.per_item()
        kinds = {k: items[k % len(items)].kind for k in range(n)}
        errors = tracing.check_call_counts(per_item, kinds, workload.expected_calls)
        if errors:
            sys.stderr.write("perfbench: traced call counts differ from the workload's table:\n")
            sys.stderr.write("\n".join(errors[:20]) + "\n")
            return 3
        metrics = tracing.layer_metrics(per_item, n, summary["brackets"])
        fast_u, fast_t = _fastest(lat_u, len(items)), _fastest(lat, len(items))
        metrics["trace.overhead_pct"] = (sum(fast_t) / sum(fast_u) - 1.0) * 100.0
        report["trace_overhead"] = {
            "untraced_fastest_ms_per_item": sum(fast_u) * 1e3 / len(fast_u),
            "traced_fastest_ms_per_item": sum(fast_t) * 1e3 / len(fast_t),
        }
        trace_path = os.path.join(WORKDIR, f"trace_{args.workload}_seed{args.seed}.jsonl")
        tracer.write(trace_path)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
        report["per_layer"] = metrics
        report["blas_default_threads_sqrt32"] = blasinfo.default_thread_diagnostic(SRC)
        units = tracing.PER_LAYER_UNITS

    summary.pop("brackets")
    report["setup"] = {"import_s": imports.finish(), "generate_write_warm_s": builds}
    report["loop"] = summary

    if args.trace == 0:
        _print_metrics(f"{args.workload} seed {args.seed}: end-to-end", summary, END_TO_END_UNITS)
    else:
        _print_metrics(f"{args.workload} seed {args.seed}: per layer, per item", metrics, units)
    print(json.dumps({"report": report}))
    result = {
        "correct": summary["sound"],
        "attempted": summary["items"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
