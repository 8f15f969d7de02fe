"""Bipartite density matrices: validation, named families, serialization.

A ``BipartiteState`` is a density matrix tagged with its subsystem
dimensions ``(dim_a, dim_b)``. All constructors route their output through
:func:`validate`, so every state object in circulation is Hermitian, unit
trace, and positive semidefinite within the configured tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

_DOMAIN_SLACK = 1e-12  # forgive float round-off at interval endpoints


@dataclass(frozen=True)
class BipartiteState:
    """Validated density matrix on a dim_a x dim_b bipartite system."""

    dim_a: int
    dim_b: int
    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=np.complex128)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def purity(self) -> float:
        """Tr(rho^2)."""
        return float(np.real(np.vdot(self.rho, self.rho)))

    def marginal(self, keep: str = "a") -> np.ndarray:
        """Reduced density matrix of one party."""
        return linalg.partial_trace(self.rho, self.dim_a, self.dim_b, keep=keep)

    def sqrt(self, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Hermitian square root of the density matrix."""
        return linalg.matrix_sqrt_psd(self.rho, tol)


@dataclass(frozen=True)
class PureState:
    """Bipartite pure state as a unit-norm amplitude vector of length dim_a * dim_b."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).ravel()
        if amps.size != self.dim_a * self.dim_b:
            raise DimensionMismatchError(
                f"amplitude vector of length {amps.size} does not factor as "
                f"{self.dim_a} x {self.dim_b}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"amplitudes have norm {norm!r}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return validate(rho, self.dim_a, self.dim_b, tol)


def _require_density(mat, tol: Tolerances, what: str = "matrix") -> np.ndarray:
    """Gate an arbitrary matrix as a density matrix; returns the symmetrized array."""
    arr = linalg.as_matrix(mat)
    sym = linalg.require_hermitian(arr, tol.state_hermiticity)
    eigs = np.linalg.eigvalsh(sym)
    if eigs.size and eigs[0] < -tol.psd_epsilon:
        raise NotPSDError(f"{what} has eigenvalue {eigs[0]:.3e} below -{tol.psd_epsilon:.1e}")
    trace = float(np.real(np.trace(sym)))
    if abs(trace - 1.0) > tol.unit_trace:
        raise NotUnitTraceError(f"{what} has trace {trace!r}, expected 1")
    return sym


def validate(rho, dim_a: int, dim_b: int, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
    """Check finiteness, Hermiticity, positivity, and unit trace; return the tagged state.

    Eigenvalues in ``[-psd_epsilon, 0)`` are tolerated here and clamped later
    wherever a square root is taken.
    """
    arr = linalg.as_matrix(rho)
    if dim_a < 1 or dim_b < 1 or arr.shape[0] != dim_a * dim_b:
        raise DimensionMismatchError(
            f"matrix of size {arr.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("state has non-finite (NaN or Inf) entries")
    sym = _require_density(arr, tol, what="state")
    return BipartiteState(dim_a, dim_b, sym)


def bell_state(a: int, b: int) -> PureState:
    """Two-qubit Bell state (|0,b> + (-1)^a |1, 1 xor b>) / sqrt(2)."""
    if a not in (0, 1) or b not in (0, 1):
        raise OutOfRangeError("Bell-state labels must be 0 or 1")
    amps = np.zeros(4, dtype=np.complex128)
    amps[b] = 1.0 / np.sqrt(2.0)
    amps[2 + (1 - b)] = (-1.0) ** a / np.sqrt(2.0)
    return PureState(2, 2, amps)


def bell_diagonal_weights(c1: float, c2: float, c3: float) -> np.ndarray:
    """Bell-basis eigenvalues of the correlation triple, ordered (00, 01, 10, 11)."""
    lams = np.array(
        [
            (1 + c1 - c2 + c3) / 4.0,
            (1 + c1 + c2 - c3) / 4.0,
            (1 - c1 + c2 + c3) / 4.0,
            (1 - c1 - c2 - c3) / 4.0,
        ]
    )
    return lams


def bell_diagonal(
    c1: float, c2: float, c3: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> BipartiteState:
    """Two-qubit state diagonal in the Bell basis with correlations <sigma_i x sigma_i> = c_i."""
    lams = bell_diagonal_weights(c1, c2, c3)
    if np.min(lams) < -_DOMAIN_SLACK:
        raise InvalidBlochVectorError(
            f"correlation triple ({c1}, {c2}, {c3}) gives negative weight {np.min(lams):.3e}"
        )
    eye4 = np.eye(4, dtype=np.complex128)
    rho = eye4.copy()
    for c, sigma in zip((c1, c2, c3), linalg.PAULI):
        rho += c * linalg.kron(sigma, sigma)
    return validate(rho / 4.0, 2, 2, tol)


def werner_two_qubit(p: float, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
    """Two-qubit Werner state (1-p)/4 * I + p |psi-><psi-| with the singlet |psi->."""
    if not (-1.0 / 3.0 - _DOMAIN_SLACK <= p <= 1.0 + _DOMAIN_SLACK):
        raise OutOfRangeError(f"Werner parameter p={p} outside [-1/3, 1]")
    singlet = bell_state(1, 1).amplitudes
    rho = (1.0 - p) / 4.0 * np.eye(4, dtype=np.complex128) + p * np.outer(
        singlet, singlet.conj()
    )
    return validate(rho, 2, 2, tol)


def swap_operator(m: int) -> np.ndarray:
    """Flip operator F |kl> = |lk> on an m x m bipartite space."""
    f = np.zeros((m * m, m * m), dtype=np.complex128)
    for k in range(m):
        for l in range(m):
            f[k * m + l, l * m + k] = 1.0
    return f


def werner_general(m: int, x: float, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
    """m x m Werner state with flip expectation Tr(rho F) = x."""
    if m < 2:
        raise OutOfRangeError(f"Werner dimension m={m} must be at least 2")
    if not (-1.0 - _DOMAIN_SLACK <= x <= 1.0 + _DOMAIN_SLACK):
        raise OutOfRangeError(f"Werner parameter x={x} outside [-1, 1]")
    f = swap_operator(m)
    denom = float(m) ** 3 - m
    rho = (m - x) / denom * np.eye(m * m, dtype=np.complex128) + (m * x - 1) / denom * f
    return validate(rho, m, m, tol)


def maximally_entangled(m: int) -> PureState:
    """Uniform-amplitude entangled state sum_i |ii> / sqrt(m)."""
    if m < 1:
        raise OutOfRangeError("dimension must be positive")
    amps = np.zeros(m * m, dtype=np.complex128)
    amps[:: m + 1] = 1.0 / np.sqrt(m)
    return PureState(m, m, amps)


def isotropic(m: int, x: float, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
    """m x m isotropic state with fidelity x to the maximally entangled state.

    Uses the unit-trace mixture (1-x)/(m^2-1) * (I - P) + x * P where P
    projects on the maximally entangled state; x = 1/m^2 gives the fully
    mixed state.
    """
    if m < 2:
        raise OutOfRangeError(f"isotropic dimension m={m} must be at least 2")
    if not (-_DOMAIN_SLACK <= x <= 1.0 + _DOMAIN_SLACK):
        raise OutOfRangeError(f"isotropic parameter x={x} outside [0, 1]")
    psi = maximally_entangled(m).amplitudes
    proj = np.outer(psi, psi.conj())
    eye = np.eye(m * m, dtype=np.complex128)
    rho = (1.0 - x) / (m * m - 1.0) * (eye - proj) + x * proj
    return validate(rho, m, m, tol)


def classical_quantum(
    probs, states_b, tol: Tolerances = DEFAULT_TOLERANCES
) -> BipartiteState:
    """State sum_k p_k |k><k| x rho_k, block diagonal in the computational basis of A."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    if p.size != len(states_b):
        raise DimensionMismatchError(
            f"{p.size} probabilities but {len(states_b)} conditional states"
        )
    if p.size == 0 or np.min(p) < -_DOMAIN_SLACK or abs(float(np.sum(p)) - 1.0) > tol.unit_trace:
        raise InvalidProbabilitiesError(f"probabilities {p.tolist()} are not a distribution")
    blocks = [_require_density(s, tol, what=f"conditional state {k}") for k, s in enumerate(states_b)]
    dim_b = blocks[0].shape[0]
    if any(b.shape[0] != dim_b for b in blocks):
        raise DimensionMismatchError("conditional states have mixed dimensions")
    dim_a = p.size
    rho = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=np.complex128)
    for k, (pk, block) in enumerate(zip(p, blocks)):
        rho[k * dim_b : (k + 1) * dim_b, k * dim_b : (k + 1) * dim_b] = pk * block
    return validate(rho, dim_a, dim_b, tol)


def product_state(rho_a, rho_b, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
    """Uncorrelated state rho_a x rho_b."""
    a = _require_density(rho_a, tol, what="party-A state")
    b = _require_density(rho_b, tol, what="party-B state")
    return validate(linalg.kron(a, b), a.shape[0], b.shape[0], tol)


def append_ancilla(
    state: BipartiteState, sigma, tol: Tolerances = DEFAULT_TOLERANCES
) -> BipartiteState:
    """Enlarge the unmeasured party: rho x sigma with B' = B x C."""
    anc = _require_density(sigma, tol, what="ancilla")
    rho = np.kron(state.rho, anc)
    return validate(rho, state.dim_a, state.dim_b * anc.shape[0], tol)


def schmidt_spectrum(psi: PureState) -> np.ndarray:
    """Squared Schmidt coefficients, descending; computed from the SVD of the amplitude matrix."""
    mat = psi.amplitudes.reshape(psi.dim_a, psi.dim_b)
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv**2


def random_density(dim: int, rank: int | None = None, seed=None) -> np.ndarray:
    """Random density matrix from the Ginibre ensemble, rho = G G^dagger / Tr."""
    rng = np.random.default_rng(seed)
    rank = dim if rank is None else rank
    if not (1 <= rank <= dim):
        raise OutOfRangeError(f"rank {rank} outside [1, {dim}]")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_state(
    dim_a: int,
    dim_b: int,
    rank: int | None = None,
    seed=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BipartiteState:
    """Seeded random bipartite state of the given rank (Ginibre-induced measure)."""
    dim = dim_a * dim_b
    rank = dim if rank is None else rank
    if not (1 <= rank <= dim):
        raise OutOfRangeError(f"rank {rank} outside [1, {dim}]")
    return validate(random_density(dim, rank, seed), dim_a, dim_b, tol)


def random_pure_state(dim_a: int, dim_b: int, seed=None) -> PureState:
    """Seeded Haar-random bipartite pure state."""
    rng = np.random.default_rng(seed)
    dim = dim_a * dim_b
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(dim_a, dim_b, amps / np.linalg.norm(amps))


# --- JSON state files -------------------------------------------------------
#
# {"dim_a": m, "dim_b": n, "matrix": [[{"re": r, "im": i}, ...], ...]}
# row-major; the writer emits 17 significant digits.


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def state_to_json(state: BipartiteState) -> str:
    rows = []
    for row in state.rho:
        cells = ", ".join(
            '{"re": %s, "im": %s}' % (_fmt17(z.real), _fmt17(z.imag)) for z in row
        )
        rows.append("    [" + cells + "]")
    body = ",\n".join(rows)
    return (
        '{\n  "dim_a": %d,\n  "dim_b": %d,\n  "matrix": [\n%s\n  ]\n}\n'
        % (state.dim_a, state.dim_b, body)
    )


def state_from_json(text: str, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
    try:
        doc = json.loads(text)
        dim_a = int(doc["dim_a"])
        dim_b = int(doc["dim_b"])
        matrix = doc["matrix"]
        rho = np.array(
            [[complex(cell["re"], cell["im"]) for cell in row] for row in matrix],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    return validate(rho, dim_a, dim_b, tol)


def save_state(state: BipartiteState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state))


def load_state(path, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read(), tol)
