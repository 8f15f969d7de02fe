"""In-memory span tracing around the library's public functions.

The tracer wraps functions from the benchmark's side only: every module of
the package that holds a reference to a traced function gets the wrapper, so
``cli.lower_bound`` and ``correlation.lower_bound`` are both traced. Spans
are ``(name, start, end, parent, item)``; a span's self time is its duration
minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "affinity_discord"

# (defining module, function): span name is "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("states", "state_from_json"),
    ("states", "validate"),
    ("linalg", "matrix_sqrt_psd"),
    ("correlation", "gell_mann_basis"),
    ("correlation", "correlation_matrix"),
    ("correlation", "closed_form_2xn"),
    ("correlation", "lower_bound"),
    ("measures", "pure_discord"),
    ("measures", "optimize_affinity_discord"),
    ("measures", "optimize_hs_discord"),
    ("measures", "remedied_hs_discord"),
    ("families", "sweep"),
    ("families", "werner_two_qubit_discords"),
    ("families", "werner_general_discords"),
    ("families", "bell_diagonal_discord"),
    ("families", "bell_diagonal_hs_discord"),
    ("families", "isotropic_discords"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
OPTIMIZERS = ("measures.optimize_affinity_discord", "measures.optimize_hs_discord", "measures.remedied_hs_discord")
ANALYTIC = tuple(n for n in SPAN_NAMES if n.startswith("families.") and n != "families.sweep")

# Per-layer metrics: name -> unit. Times are self times, everything per item.
PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "states.from_json_ms": "ms",
    "states.validate_ms": "ms",
    "states.validate_calls": "count",
    "linalg.sqrt_ms": "ms",
    "linalg.sqrt_calls": "count",
    "correlation.gell_mann_ms": "ms",
    "correlation.gell_mann_calls": "count",
    "correlation.gamma_ms": "ms",
    "correlation.gamma_calls": "count",
    "correlation.closed_ms": "ms",
    "correlation.bound_ms": "ms",
    "measures.pure_ms": "ms",
    "measures.grid_ms": "ms",
    "measures.local_ms": "ms",
    "measures.optimize_calls": "count",
    "measures.evals": "count",
    "measures.us_per_eval": "us",
    "measures.bracket_max": "discord",
    "families.analytic_us": "us",
    "families.sweep_self_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item, info]
        self.item: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name in OPTIMIZERS:
                span[5] = (result.method, int(result.evaluations))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, fn_name in TRACED:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def per_item(self) -> dict[int, dict]:
        """Call counts, self times and optimizer info for each item."""
        child_time = defaultdict(float)
        for name, start, end, parent, item, info in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        items: dict[int, dict] = defaultdict(
            lambda: {"calls": defaultdict(int), "self": defaultdict(float), "grid": 0.0, "local": 0.0, "evals": 0}
        )
        for idx, (name, start, end, parent, item, info) in enumerate(self.spans):
            rec = items[item]
            own = end - start - child_time[idx]
            rec["calls"][name] += 1
            rec["self"][name] += own
            if info is not None:
                method, evals = info
                rec["grid" if method == "optimized-grid" else "local"] += own
                rec["evals"] += evals
        return items

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span[:5]))) + "\n")


def check_call_counts(per_item: dict[int, dict], kinds: dict[int, str], expected: dict[str, dict]) -> list[str]:
    """Every traced name's per-item count must equal the workload's table (absent means 0)."""
    errors = []
    for item, kind in kinds.items():
        calls = per_item[item]["calls"] if item in per_item else {}
        for name in SPAN_NAMES:
            want = expected[kind].get(name, 0)
            got = calls.get(name, 0)
            if got != want:
                errors.append(f"item {item} ({kind}): {name} called {got} times, expected {want}")
    return errors


def layer_metrics(per_item: dict[int, dict], n_items: int, brackets: list[float]) -> dict[str, float]:
    total_calls = defaultdict(int)
    total_self = defaultdict(float)
    grid = local = 0.0
    evals = 0
    for rec in per_item.values():
        for name, count in rec["calls"].items():
            total_calls[name] += count
        for name, own in rec["self"].items():
            total_self[name] += own
        grid += rec["grid"]
        local += rec["local"]
        evals += rec["evals"]

    def ms(name):
        return total_self[name] * 1e3 / n_items

    def per(name):
        return total_calls[name] / n_items

    return {
        "cli.self_ms": ms("cli.main"),
        "states.from_json_ms": ms("states.state_from_json"),
        "states.validate_ms": ms("states.validate"),
        "states.validate_calls": per("states.validate"),
        "linalg.sqrt_ms": ms("linalg.matrix_sqrt_psd"),
        "linalg.sqrt_calls": per("linalg.matrix_sqrt_psd"),
        "correlation.gell_mann_ms": ms("correlation.gell_mann_basis"),
        "correlation.gell_mann_calls": per("correlation.gell_mann_basis"),
        "correlation.gamma_ms": ms("correlation.correlation_matrix"),
        "correlation.gamma_calls": per("correlation.correlation_matrix"),
        "correlation.closed_ms": ms("correlation.closed_form_2xn"),
        "correlation.bound_ms": ms("correlation.lower_bound"),
        "measures.pure_ms": ms("measures.pure_discord"),
        "measures.grid_ms": grid * 1e3 / n_items,
        "measures.local_ms": local * 1e3 / n_items,
        "measures.optimize_calls": sum(total_calls[n] for n in OPTIMIZERS) / n_items,
        "measures.evals": evals / n_items,
        "measures.us_per_eval": (grid + local) * 1e6 / evals if evals else 0.0,
        "measures.bracket_max": max(brackets, default=0.0),
        "families.analytic_us": sum(total_self[n] for n in ANALYTIC) * 1e6 / n_items,
        "families.sweep_self_ms": ms("families.sweep"),
    }
