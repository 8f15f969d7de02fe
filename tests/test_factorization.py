"""One eigendecomposition per state.

``BipartiteState`` checks and factors the symmetrized matrix once when it is
made and keeps ``(w, v)`` on the state; the square root and ``compute``'s
pure-state test read it. There is no unchecked way to build a state.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from affinity_discord import cli
from affinity_discord.errors import (
    NonHermitianError,
    NotPSDError,
    NotUnitTraceError,
    ValidationError,
)
from affinity_discord.linalg import matrix_sqrt_psd
from affinity_discord.states import BipartiteState, load_state, random_density, random_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["pure", "mixed", "belldiag", "belldiag+ancilla"])
def test_compute_factors_the_state_once(tmp_path, monkeypatch, kind):
    # one compute_qubit item of each kind, taken as tests/test_tracing_contract.py takes them
    workload = _workloads().ComputeQubit(seed=1, workdir=str(tmp_path))
    item = next(it for it in workload.build() if it.kind == kind)
    argv = item.call[1]
    state = load_state(argv[argv.index("--state") + 1])
    calls = []

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            if np.shape(a) == (state.dim, state.dim):
                calls.append(fn.__name__)
            return fn(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    assert workload.call(item) == cli.EXIT_OK
    assert calls == ["eigh"]


@pytest.mark.parametrize("dim_b", [1, 2, 8, 32])
@pytest.mark.parametrize("rank", ["1", "2", "full"])
def test_kept_decomposition_gives_the_same_square_root(dim_b, rank):
    dim = 2 * dim_b
    state = random_state(2, dim_b, rank={"1": 1, "2": 2, "full": dim}[rank], seed=dim_b)
    direct = matrix_sqrt_psd(np.array(state.rho))
    assert state.sqrt().tobytes() == direct.tobytes()


_SKEW = np.array([[0.5, 0.1], [0.3, 0.5]])
_NAN = np.full((4, 4), np.nan)


@pytest.mark.parametrize(
    "dims,rho,error",
    [
        ((2, 1), _SKEW, NonHermitianError),
        ((2, 1), np.diag([1.5, -0.5]), NotPSDError),
        ((2, 2), np.eye(4), NotUnitTraceError),  # its affinity discord would read -3
        ((2, 2), _NAN, ValidationError),
        ((2.0, 2), np.eye(4) / 4.0, ValidationError),
    ],
    ids=["skew", "indefinite", "trace4", "nan", "float-dim"],
)
def test_direct_construction_checks_the_state(dims, rho, error):
    with pytest.raises(error):
        BipartiteState(*dims, rho)


def test_direct_construction_keeps_a_read_only_decomposition():
    rho = random_density(4, seed=3)
    state = BipartiteState(2, 2, rho)
    w, v = state.eigh
    for arr in (state.rho, w, v):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    ref_w, ref_v = np.linalg.eigh(state.rho)  # the factors of the stored matrix
    assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()
    assert np.allclose(BipartiteState(2, 1, np.eye(2) / 2.0).sqrt(), np.eye(2) / np.sqrt(2.0))
