"""BLAS identification, thread pinning, and the default-thread square-root diagnostic.

Run as a script, this file is the diagnostic child: it times a 32x32
``matrix_sqrt_psd`` in a fresh process at whatever BLAS thread count the
environment gives it and prints one JSON line.
"""

from __future__ import annotations

import ctypes
import json
import os
import statistics
import subprocess
import sys
import time

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
_THREAD_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)
DIAG_DIM = 32
DIAG_REPEATS = 25
DIAG_PROCESSES = 5
DIAG_TIMEOUT_S = 60


def pin_one_thread() -> None:
    """Give every BLAS pool one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _loaded_blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if line.rstrip().endswith(".so") or ".so." in line}
    except OSError:
        return []
    return sorted(p for p in paths if "blas" in p.lower() or "mkl" in p.lower())


def blas_info() -> dict:
    """Vendor from numpy's build record, and the live thread count of each loaded BLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pools = []
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                pools.append({"library": os.path.basename(path), "threads": int(getter())})
                break
    return {
        "vendor": blas.get("name"),
        "version": blas.get("version"),
        "pools": pools,
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def default_thread_diagnostic(src: str) -> dict:
    """Median 32x32 square-root time in several fresh processes at the default thread count.

    Not gated: it keeps visible the process-to-process swings that a
    multi-threaded BLAS pool shows on small matrices.
    """
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    runs = []
    for _ in range(DIAG_PROCESSES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), src],
            env=env,
            capture_output=True,
            text=True,
            timeout=DIAG_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            runs.append({"error": proc.stderr.strip().splitlines()[-1:]})
            continue
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {"dim": DIAG_DIM, "repeats": DIAG_REPEATS, "processes": runs}


def _diagnostic_child(src: str) -> None:
    sys.path.insert(0, src)
    from affinity_discord import linalg, random_density

    rho = random_density(DIAG_DIM, seed=0)
    linalg.matrix_sqrt_psd(rho)
    times = []
    for _ in range(DIAG_REPEATS):
        t0 = time.perf_counter()
        linalg.matrix_sqrt_psd(rho)
        times.append(time.perf_counter() - t0)
    pools = blas_info()["pools"]
    print(
        json.dumps(
            {
                "median_ms": statistics.median(times) * 1e3,
                "max_ms": max(times) * 1e3,
                "threads": [p["threads"] for p in pools],
            }
        )
    )


if __name__ == "__main__":
    _diagnostic_child(sys.argv[1])
