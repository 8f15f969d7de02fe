"""Self-test of the benchmark: every workload at its smallest size, both modes.

    python3 perfbench/selftest.py

Each workload keeps one item of each of its smallest kinds and runs with
``--seconds 0`` (two passes timed, or one pass untraced plus one traced).
The test checks the result line against ``BENCHMARK.json``: exactly the
contract's keys, and every end-to-end (trace 0) or per-layer (trace 1)
metric with its unit and a finite value. It also checks that the benchmark
refuses to run, without printing a result, when the package is missing.
Prints each failure and exits non-zero if there was any.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import blasinfo
import run

# Smallest items per workload: their labels in the full item list.
SMALLEST = {
    "compute_qubit": ("2x2_rank1", "2x2_rank2", "belldiag0", "belldiag0_anc2"),
    "compute_qudit": ("cq4x2",),
    "sweep_fig1": ("werner2_p-0.3333", "belldiag0"),
}


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _shrunk(cls, labels):
    class Smallest(cls):
        def build(self):
            items = [it for it in super().build() if it.label in labels]
            if len(items) != len(labels):
                raise SystemExit(f"selftest: {cls.name} lacks items {labels}")
            return items

    return Smallest


def _check_result(line: str, expected: dict, context: str) -> list[str]:
    errors = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{context}: result keys {sorted(result)}")
        return errors
    if not isinstance(result["correct"], bool):
        errors.append(f"{context}: correct is not a bool")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{context}: attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        errors.append(f"{context}: failed {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{context}: metrics {sorted(metrics)} != {sorted(expected)}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            errors.append(f"{context}: {name} unit {entry.get('unit')!r} != {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{context}: {name} value {value!r}")
    return errors


def _refuses_without_package() -> list[str]:
    """In a directory holding only BENCHMARK.json and perfbench/, the run must fail."""
    bare = tempfile.mkdtemp(prefix="bare_", dir=run.WORKDIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(run.ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns(".work", "__pycache__"),
        )
        command = _spec()["command"]
        proc = subprocess.run(
            [*command, "--workload", "compute_qubit", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
            check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    blasinfo.pin_one_thread()
    sys.path.insert(0, run.SRC)
    import workloads

    spec = _spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    os.makedirs(run.WORKDIR, exist_ok=True)
    errors = _refuses_without_package()
    for name, labels in SMALLEST.items():
        workloads.WORKLOADS[name] = _shrunk(workloads.WORKLOADS[name], labels)
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
            lines = out.getvalue().strip().splitlines()
            context = f"{name} trace {trace}"
            before = len(errors)
            if code != 0:
                errors.append(f"{context}: exit {code}")
            else:
                errors += _check_result(lines[-1], expected[trace], context)
                report = json.loads(lines[-2])["report"]
                missing = set(run.END_TO_END_UNITS) - set(report["loop"]) - {"setup_s", "peak_rss_mb"}
                if missing:
                    errors.append(f"{context}: report lacks {sorted(missing)}")
                if trace == 1 and not report["blas_default_threads_sqrt32"]["processes"]:
                    errors.append(f"{context}: no default-thread diagnostic")
            for err in errors[before:]:
                print("FAIL", err, flush=True)
            if len(errors) == before:
                print(f"{context}: ok", flush=True)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
