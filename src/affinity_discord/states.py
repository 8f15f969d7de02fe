"""Bipartite density matrices: validation, named families, serialization.

A ``BipartiteState`` is a density matrix tagged with its subsystem
dimensions ``(dim_a, dim_b)``. It checks itself when it is made, so every
state object in circulation is finite, Hermitian, unit trace, and positive
semidefinite within the fixed gates of ``tolerances``; there is no unchecked
way to build one. It factors the matrix once and keeps the eigendecomposition,
where the square root and the pure-state test read it. The constructors here
make their states through :func:`validate`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidBlochVectorError,
    InvalidProbabilitiesError,
    NotPSDError,
    NotUnitTraceError,
    OutOfRangeError,
    ValidationError,
    _require_int,
)
from .tolerances import DOMAIN_SLACK, PSD_EPSILON, STATE_HERMITICITY, UNIT_NORM, UNIT_TRACE


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on a dim_a x dim_b bipartite system, checked when it is made.

    ``__post_init__`` checks the integer dimensions, a square matrix of size
    dim_a * dim_b, finiteness, Hermiticity, positivity and unit trace, and stores
    the symmetrized matrix read-only. Eigenvalues in ``[-PSD_EPSILON, 0)`` are
    tolerated and clamped wherever a square root is taken. The stored matrix is
    exactly Hermitian, so its eigendecomposition, kept read-only as ``eigh`` =
    ``(w, v)``, is the one that ``matrix_sqrt_psd`` would compute from it.
    """

    dim_a: int
    dim_b: int
    rho: np.ndarray
    eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim_a, dim_b = _require_int(self.dim_a, "dim_a", 1), _require_int(self.dim_b, "dim_b", 1)
        arr = linalg.as_matrix(self.rho)
        if arr.shape[0] != dim_a * dim_b:
            raise DimensionMismatchError(
                f"matrix of size {arr.shape[0]} does not factor as {dim_a} x {dim_b}"
            )
        sym, w, v = _require_density(arr, what="state")
        for a in (sym, w, v):
            a.setflags(write=False)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        object.__setattr__(self, "rho", sym)
        object.__setattr__(self, "eigh", (w, v))

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def purity(self) -> float:
        """Tr(rho^2)."""
        return linalg.frobenius_norm_sq(self.rho)

    def marginal(self, keep: str = "a") -> np.ndarray:
        """Reduced density matrix of one party."""
        return linalg.partial_trace(self.rho, self.dim_a, self.dim_b, keep=keep)

    def sqrt(self) -> np.ndarray:
        """Hermitian square root of the density matrix, from the kept ``eigh``."""
        return linalg.matrix_sqrt_psd(self.rho, self.eigh)


@dataclass(frozen=True)
class PureState:
    """Bipartite pure state as a unit-norm amplitude vector of length dim_a * dim_b."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).ravel()
        if amps.size != _require_int(self.dim_a, "dim_a", 1) * _require_int(self.dim_b, "dim_b", 1):
            raise DimensionMismatchError(
                f"amplitude vector of length {amps.size} does not factor as "
                f"{self.dim_a} x {self.dim_b}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= UNIT_NORM:  # a NaN norm is refused too
            raise ValidationError(f"amplitudes have norm {norm!r}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> BipartiteState:
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return validate(rho, self.dim_a, self.dim_b)


def _require_density(mat, what: str = "matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate an arbitrary matrix as a density matrix; returns the symmetrized array and its eigh."""
    arr = linalg.as_matrix(mat)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} has non-finite (NaN or Inf) entries")
    sym = linalg.require_hermitian(arr, STATE_HERMITICITY)
    w, v = np.linalg.eigh(sym)
    if w.size and not w[0] >= -PSD_EPSILON:
        raise NotPSDError(f"{what} has eigenvalue {w[0]:.3e} below -{PSD_EPSILON:.1e}")
    trace = float(np.real(np.trace(sym)))
    if not abs(trace - 1.0) <= UNIT_TRACE:
        raise NotUnitTraceError(f"{what} has trace {trace!r}, expected 1")
    return sym, w, v


def validate(rho, dim_a: int, dim_b: int) -> BipartiteState:
    """The checked state of ``rho`` on dim_a x dim_b; see :class:`BipartiteState`."""
    return BipartiteState(dim_a, dim_b, rho)


def bell_state(a: int, b: int) -> PureState:
    """Two-qubit Bell state (|0,b> + (-1)^a |1, 1 xor b>) / sqrt(2)."""
    if a not in (0, 1) or b not in (0, 1):
        raise OutOfRangeError("Bell-state labels must be 0 or 1")
    amps = np.zeros(4, dtype=np.complex128)
    amps[b] = 1.0 / np.sqrt(2.0)
    amps[2 + (1 - b)] = (-1.0) ** a / np.sqrt(2.0)
    return PureState(2, 2, amps)


def bell_diagonal_weights(c1: float, c2: float, c3: float) -> np.ndarray:
    """The triple's Bell-basis weights (00, 01, 10, 11), each checked against -DOMAIN_SLACK."""
    lams = [
        (1 + c1 - c2 + c3) / 4.0,
        (1 + c1 + c2 - c3) / 4.0,
        (1 - c1 + c2 + c3) / 4.0,
        (1 - c1 - c2 - c3) / 4.0,
    ]
    if not all(lam >= -DOMAIN_SLACK for lam in lams):  # a NaN weight fails too
        raise InvalidBlochVectorError(
            f"correlation triple ({c1}, {c2}, {c3}) gives Bell weights {lams}, not all >= 0"
        )
    return np.array(lams)


def bell_diagonal(c1: float, c2: float, c3: float) -> BipartiteState:
    """Two-qubit state diagonal in the Bell basis with correlations <sigma_i x sigma_i> = c_i."""
    bell_diagonal_weights(c1, c2, c3)  # the domain check
    rho = np.eye(4, dtype=np.complex128)
    for c, sigma in zip((c1, c2, c3), linalg.PAULI):
        rho += c * np.kron(sigma, sigma)
    return validate(rho / 4.0, 2, 2)


# One domain check per family, run by its constructor here and its formulas in ``families``.
def _require_werner2(p: float) -> None:
    if not (-1.0 / 3.0 - DOMAIN_SLACK <= p <= 1.0 + DOMAIN_SLACK):
        raise OutOfRangeError(f"Werner parameter p={p} outside [-1/3, 1]")


def _require_werner(m: int, x: float) -> None:
    _require_int(m, "Werner dimension m", 2)
    if not (-1.0 - DOMAIN_SLACK <= x <= 1.0 + DOMAIN_SLACK):
        raise OutOfRangeError(f"Werner parameter x={x} outside [-1, 1]")


def _require_isotropic(m: int, x: float) -> None:
    _require_int(m, "isotropic dimension m", 2)
    if not (-DOMAIN_SLACK <= x <= 1.0 + DOMAIN_SLACK):
        raise OutOfRangeError(f"isotropic parameter x={x} outside [0, 1]")


def werner_two_qubit(p: float) -> BipartiteState:
    """Two-qubit Werner state (1-p)/4 * I + p |psi-><psi-| with the singlet |psi->."""
    _require_werner2(p)
    singlet = bell_state(1, 1).amplitudes
    rho = (1.0 - p) / 4.0 * np.eye(4, dtype=np.complex128) + p * np.outer(
        singlet, singlet.conj()
    )
    return validate(rho, 2, 2)


def swap_operator(m: int) -> np.ndarray:
    """Flip operator F |kl> = |lk> on an m x m bipartite space."""
    m = _require_int(m, "swap dimension m", 1)
    f = np.eye(m * m, dtype=np.complex128).reshape(m, m, m, m)
    return f.transpose(0, 1, 3, 2).reshape(m * m, m * m)


def werner_general(m: int, x: float) -> BipartiteState:
    """m x m Werner state with flip expectation Tr(rho F) = x."""
    _require_werner(m, x)
    f = swap_operator(m)
    denom = float(m) ** 3 - m
    rho = (m - x) / denom * np.eye(m * m, dtype=np.complex128) + (m * x - 1) / denom * f
    return validate(rho, m, m)


def maximally_entangled(m: int) -> PureState:
    """Uniform-amplitude entangled state sum_i |ii> / sqrt(m)."""
    _require_int(m, "dimension m", 1)
    amps = np.zeros(m * m, dtype=np.complex128)
    amps[:: m + 1] = 1.0 / np.sqrt(m)
    return PureState(m, m, amps)


def isotropic(m: int, x: float) -> BipartiteState:
    """m x m isotropic state with fidelity x to the maximally entangled state.

    Uses the unit-trace mixture (1-x)/(m^2-1) * (I - P) + x * P where P
    projects on the maximally entangled state; x = 1/m^2 gives the fully
    mixed state.
    """
    _require_isotropic(m, x)
    psi = maximally_entangled(m).amplitudes
    proj = np.outer(psi, psi.conj())
    eye = np.eye(m * m, dtype=np.complex128)
    rho = (1.0 - x) / (m * m - 1.0) * (eye - proj) + x * proj
    return validate(rho, m, m)


def classical_quantum(probs, states_b) -> BipartiteState:
    """State sum_k p_k |k><k| x rho_k, block diagonal in the computational basis of A."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    if p.size != len(states_b):
        raise DimensionMismatchError(
            f"{p.size} probabilities but {len(states_b)} conditional states"
        )
    # negated comparisons, so that a NaN probability is refused here
    if p.size == 0 or not (np.min(p) >= -DOMAIN_SLACK and abs(np.sum(p) - 1.0) <= UNIT_TRACE):
        raise InvalidProbabilitiesError(f"probabilities {p.tolist()} are not a distribution")
    blocks = [_require_density(s, what=f"conditional state {k}")[0] for k, s in enumerate(states_b)]
    dim_b = blocks[0].shape[0]
    if any(b.shape[0] != dim_b for b in blocks):
        raise DimensionMismatchError("conditional states have mixed dimensions")
    dim_a = p.size
    rho = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=np.complex128)
    for k, (pk, block) in enumerate(zip(p, blocks)):
        rho[k * dim_b : (k + 1) * dim_b, k * dim_b : (k + 1) * dim_b] = pk * block
    return validate(rho, dim_a, dim_b)


def product_state(rho_a, rho_b) -> BipartiteState:
    """Uncorrelated state rho_a x rho_b."""
    a = _require_density(rho_a, what="party-A state")[0]
    b = _require_density(rho_b, what="party-B state")[0]
    return validate(np.kron(a, b), a.shape[0], b.shape[0])


def append_ancilla(state: BipartiteState, sigma) -> BipartiteState:
    """Enlarge the unmeasured party: rho x sigma with B' = B x C."""
    anc = _require_density(sigma, what="ancilla")[0]
    rho = np.kron(state.rho, anc)
    return validate(rho, state.dim_a, state.dim_b * anc.shape[0])


def schmidt_spectrum(psi: PureState) -> np.ndarray:
    """Squared Schmidt coefficients, descending; computed from the SVD of the amplitude matrix."""
    mat = psi.amplitudes.reshape(psi.dim_a, psi.dim_b)
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv**2


def random_density(dim: int, rank: int | None = None, seed=None) -> np.ndarray:
    """Random density matrix from the Ginibre ensemble, rho = G G^dagger / Tr."""
    dim = _require_int(dim, "dim", 1)
    rank = dim if rank is None else _require_int(rank, "rank", 1)
    if rank > dim:  # the bound is the dimension, not a constant
        raise OutOfRangeError(f"rank {rank} outside [1, {dim}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_state(dim_a: int, dim_b: int, rank: int | None = None, seed=None) -> BipartiteState:
    """Seeded random bipartite state of the given rank (Ginibre-induced measure)."""
    dim = _require_int(dim_a, "dim_a", 1) * _require_int(dim_b, "dim_b", 1)
    return validate(random_density(dim, rank, seed), dim_a, dim_b)


def random_pure_state(dim_a: int, dim_b: int, seed=None) -> PureState:
    """Seeded Haar-random bipartite pure state."""
    dim = _require_int(dim_a, "dim_a", 1) * _require_int(dim_b, "dim_b", 1)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(dim_a, dim_b, amps / np.linalg.norm(amps))


# --- JSON state files -------------------------------------------------------
#
# {"dim_a": m, "dim_b": n, "matrix": [[{"re": r, "im": i}, ...], ...]}
# row-major; the writer emits 17 significant digits.


def state_to_json(state: BipartiteState) -> str:
    n = state.rho.shape[1]
    row_fmt = "    [" + ", ".join(['{"re": %.17g, "im": %.17g}'] * n) + "]"
    # each row as its interleaved re, im floats, formatted by one % per row
    cells = np.ascontiguousarray(state.rho).view(np.float64).tolist()
    rows = [row_fmt % tuple(row) for row in cells]
    body = ",\n".join(rows)
    return (
        '{\n  "dim_a": %d,\n  "dim_b": %d,\n  "matrix": [\n%s\n  ]\n}\n'
        % (state.dim_a, state.dim_b, body)
    )


def state_from_json(text: str) -> BipartiteState:
    try:
        doc = json.loads(text)
        dim_a, dim_b = doc["dim_a"], doc["dim_b"]
        matrix = doc["matrix"]
        vals = [x for row in matrix for cell in row for x in (cell["re"], cell["im"])]
        if not set(map(type, vals)) <= {float, int}:  # true must not read as 1
            raise ValidationError("matrix entries must be JSON numbers")
        if len({len(row) for row in matrix}) > 1:
            raise ValidationError("matrix rows differ in length")
        rho = np.array(vals, dtype=np.float64).view(np.complex128).reshape(len(matrix), -1)
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    return validate(rho, dim_a, dim_b)


def save_state(state: BipartiteState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state))


def load_state(path) -> BipartiteState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"state file is not UTF-8: {exc}") from exc
    return state_from_json(text)
