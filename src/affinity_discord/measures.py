"""Affinity, measurement pinching, discord functionals, and optimization.

Every discord here is ``offset - max sum_k vec(P_k)^dagger K vec(P_k)``, the
maximum taken over rank-1 projective bases {P_k} on party A, with

    K = R(S) R(S)^dagger,    R(S)[(a, b), (i, j)] = S[(a, i), (b, j)].

The sum is the pinched overlap sum_k Tr[S (P_k x 1) S (P_k x 1)]. The
affinity and remedied measures take S = sqrt(rho) and offset 1; the
Hilbert-Schmidt measure takes S = rho and offset Tr(rho^2). K is
dim_a^2 x dim_a^2 and is built once per state, so dim_b enters only there:
every evaluation after it costs the same for any dim_b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize as sciopt

from . import linalg
from .errors import (
    DimensionMismatchError,
    OutOfRangeError,
    UnsupportedDimensionError,
    ValidationError,
)
from .states import BipartiteState, PureState, append_ancilla, schmidt_spectrum
from .tolerances import DEFAULT_TOLERANCES, Tolerances

MAX_OPT_DIM = 8
GRID_THETA_DEFAULT = 181
GRID_PHI_DEFAULT = 360
GRID_REFINE_DEFAULT = 500
MULTISTART_DEFAULT = 64
NM_MAXFEV_PER_START = 300
_BATCH = 8192

STRATEGIES = ("grid", "multistart-local", "hybrid")


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal rank-1 projective measurement on one subsystem.

    ``vectors`` holds the measurement kets as rows; projectors are derived.
    """

    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=np.complex128)
        if vecs.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected {self.dim} vectors of length {self.dim}, got shape {vecs.shape}"
            )
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def projectors(self) -> np.ndarray:
        """Stack of rank-1 projectors |v_k><v_k|, shape (dim, dim, dim)."""
        return np.einsum("ka,kb->kab", self.vectors, self.vectors.conj())

    def check(self, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
        gram = self.vectors.conj() @ self.vectors.T
        defect = float(np.max(np.abs(gram - np.eye(self.dim))))
        if defect > tol.projector_tolerance:
            raise ValidationError(f"measurement vectors not orthonormal (defect {defect:.3e})")

    @classmethod
    def computational(cls, dim: int) -> "MeasurementBasis":
        return cls(dim, np.eye(dim, dtype=np.complex128))

    @classmethod
    def from_unitary(cls, u) -> "MeasurementBasis":
        mat = linalg.as_matrix(u)
        basis = cls(mat.shape[0], mat.T.copy())
        basis.check()
        return basis

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "MeasurementBasis":
        """Qubit basis along the Bloch direction (theta, phi)."""
        return cls(2, _qubit_vectors(np.asarray(theta), np.asarray(phi)))

    @classmethod
    def from_bloch_vector(cls, r) -> "MeasurementBasis":
        """Qubit basis (1 +/- r.sigma)/2 for a unit Bloch vector r."""
        vec = np.asarray(r, dtype=np.float64).ravel()
        if vec.shape != (3,):
            raise DimensionMismatchError("Bloch vector must have 3 components")
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            raise OutOfRangeError("Bloch vector must be nonzero")
        vec = vec / norm
        theta = float(np.arccos(np.clip(vec[2], -1.0, 1.0)))
        phi = float(np.arctan2(vec[1], vec[0]))
        return cls.from_angles(theta, phi)


@dataclass(frozen=True)
class DiscordResult:
    """Discord value with the method that produced it.

    ``method`` is one of closed-pure, closed-2xn, bound, optimized-grid,
    optimized-local, family-analytic.
    """

    value: float
    method: str
    optimal_measurement: MeasurementBasis | None = None
    parameters: np.ndarray | None = None
    evaluations: int = 0


@dataclass(frozen=True)
class AncillaReport:
    """Optimized discords before/after enlarging party B with an ancilla."""

    affinity_before: float
    affinity_after: float
    hs_before: float
    hs_after: float
    sigma_purity: float


# --- overlap kernel ----------------------------------------------------------


def _qubit_vectors(theta, phi) -> np.ndarray:
    """Orthonormal qubit pair for Bloch angles; shape (..., 2, 2), rows are kets."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    out = np.empty(np.broadcast(theta, phi).shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = c
    out[..., 0, 1] = s * e
    out[..., 1, 0] = s
    out[..., 1, 1] = -c * e
    return out


def _overlap_kernel(s: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """K = R R^dagger for the realignment R[(a, b), (i, j)] = S[(a, i), (b, j)]."""
    r = s.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
    r = r.reshape(dim_a * dim_a, dim_b * dim_b)
    return r @ r.conj().T


def _overlap(k: np.ndarray, vectors: np.ndarray):
    """sum_k vec(P_k)^dagger K vec(P_k) for the kets v_k in the rows of ``vectors``.

    One basis, shape (m, m), gives a float. A stack of bases, shape (G, m, m),
    gives shape (G,), evaluated _BATCH bases at a time as one
    (chunk * m, m^2) @ K^T product.
    """
    m = vectors.shape[-1]
    if vectors.ndim == 2:
        q = (vectors[:, :, None] * vectors[:, None, :].conj()).reshape(m, m * m)
        return float(np.real(np.vdot(q, q @ k.T)))
    out = np.empty(vectors.shape[0], dtype=np.float64)
    for lo in range(0, vectors.shape[0], _BATCH):
        chunk = vectors[lo : lo + _BATCH]
        q = (chunk[..., :, None] * chunk[..., None, :].conj()).reshape(-1, m * m)
        per_ket = np.real(np.sum(q.conj() * (q @ k.T), axis=1))
        out[lo : lo + _BATCH] = per_ket.reshape(-1, m).sum(axis=1)
    return out


def _pinch(rho: np.ndarray, basis: MeasurementBasis, dim_b: int) -> np.ndarray:
    eye_b = np.eye(dim_b, dtype=np.complex128)
    out = np.zeros_like(rho)
    for proj in basis.projectors:
        big = np.kron(proj, eye_b)
        out += big @ rho @ big
    return out


# --- per-basis functionals ---------------------------------------------------


def _density_of(x) -> np.ndarray:
    if isinstance(x, BipartiteState):
        return np.asarray(x.rho)
    return linalg.as_matrix(x)


def affinity(rho, sigma, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Affinity Tr(sqrt(rho) sqrt(sigma)) between two density matrices.

    Symmetric, equal to 1 exactly when the states coincide, and 0 for
    orthogonal supports.
    """
    a = _density_of(rho)
    b = _density_of(sigma)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    sa = linalg.matrix_sqrt_psd(a, tol)
    sb = linalg.matrix_sqrt_psd(b, tol)
    val = float(np.real(np.trace(sa @ sb)))
    return float(np.clip(val, 0.0, 1.0))


def affinity_metric(rho, sigma, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Metric sqrt(1 - affinity); zero exactly for identical states."""
    return float(np.sqrt(1.0 - affinity(rho, sigma, tol)))


def post_measurement(
    state: BipartiteState, basis: MeasurementBasis, tol: Tolerances = DEFAULT_TOLERANCES
) -> BipartiteState:
    """Pinched state sum_k (Pi_k x 1) rho (Pi_k x 1); idempotent and trace preserving."""
    if basis.dim != state.dim_a:
        raise DimensionMismatchError(
            f"basis dimension {basis.dim} does not match dim_a={state.dim_a}"
        )
    pinched = _pinch(np.asarray(state.rho), basis, state.dim_b)
    return BipartiteState(state.dim_a, state.dim_b, pinched)


def _functional_at(
    state: BipartiteState, basis: MeasurementBasis, s: np.ndarray, offset: float
) -> float:
    if basis.dim != state.dim_a:
        raise DimensionMismatchError(
            f"basis dimension {basis.dim} does not match dim_a={state.dim_a}"
        )
    k = _overlap_kernel(s, state.dim_a, state.dim_b)
    return offset - _overlap(k, np.asarray(basis.vectors))


def affinity_discord_at(
    state: BipartiteState, basis: MeasurementBasis, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Affinity discord functional at a fixed measurement basis.

    Computed in the single-square-root form
    1 - sum_k Tr[sqrt(rho) (Pi_k x 1) sqrt(rho) (Pi_k x 1)], which equals the
    squared Hilbert-Schmidt distance between sqrt(rho) and its pinching.
    """
    return _functional_at(state, basis, state.sqrt(tol), 1.0)


def hs_discord_at(
    state: BipartiteState, basis: MeasurementBasis, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Hilbert-Schmidt discord functional ||rho - pinched(rho)||^2 at a fixed basis."""
    return _functional_at(state, basis, np.asarray(state.rho), state.purity())


def affinity_to_measured(
    state: BipartiteState, basis: MeasurementBasis, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Diagnostic: affinity between rho and its pinched state.

    This literal reading (square root of the measured state) differs from
    the single-square-root functional away from zero-discord bases; it is
    exposed for comparison only.
    """
    return affinity(state, post_measurement(state, basis, tol), tol)


def pure_discord(psi: PureState) -> DiscordResult:
    """Closed form for pure states: 1 - sum_k s_k^2 over the Schmidt spectrum."""
    s = schmidt_spectrum(psi)
    value = 1.0 - float(np.sum(s**2))
    u, _, _ = np.linalg.svd(psi.amplitudes.reshape(psi.dim_a, psi.dim_b))
    basis = MeasurementBasis.from_unitary(u)
    return DiscordResult(value, "closed-pure", basis, parameters=None, evaluations=0)


# --- optimization over projective measurements --------------------------------


def _hermitian_from_params(t: np.ndarray, m: int) -> np.ndarray:
    h = np.zeros((m, m), dtype=np.complex128)
    h[np.diag_indices(m)] = t[:m]
    idx = m
    for j in range(m):
        for k in range(j + 1, m):
            h[j, k] = t[idx] - 1j * t[idx + 1]
            h[k, j] = t[idx] + 1j * t[idx + 1]
            idx += 2
    return h


def _unitary_exp_i(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _grid_shape(budget: int | None) -> tuple[int, int, int]:
    if budget is None:
        return GRID_THETA_DEFAULT, GRID_PHI_DEFAULT, GRID_REFINE_DEFAULT
    points = max(16, int(budget * 0.9))
    n_theta = max(3, int(np.sqrt(points / 2.0)))
    n_phi = max(4, points // n_theta)
    refine = max(0, budget - n_theta * n_phi)
    return n_theta, n_phi, refine


def _maximize_grid(
    k: np.ndarray, budget: int | None, rel_tol: float
) -> tuple[float, np.ndarray, MeasurementBasis, int]:
    n_theta, n_phi, refine = _grid_shape(budget)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    vectors = _qubit_vectors(tt.ravel(), pp.ravel())
    values = _overlap(k, vectors)
    best = int(np.argmax(values))
    best_val = float(values[best])
    best_angles = np.array([tt.ravel()[best], pp.ravel()[best]])
    evals = vectors.shape[0]

    if refine > 0:
        res = sciopt.minimize(
            lambda angles: -_overlap(k, _qubit_vectors(angles[0], angles[1])),
            best_angles,
            method="Nelder-Mead",
            options={
                "maxfev": refine,
                "xatol": 1e-10,
                "fatol": rel_tol * max(1.0, abs(best_val)) * 1e-2,
            },
        )
        evals += res.nfev
        if -res.fun > best_val:
            best_val = float(-res.fun)
            best_angles = np.asarray(res.x, dtype=np.float64)
    basis = MeasurementBasis.from_angles(best_angles[0], best_angles[1])
    return best_val, best_angles, basis, evals


def _maximize_multistart(
    k: np.ndarray, dim_a: int, budget: int | None, seed, marginal: np.ndarray | None
) -> tuple[float, np.ndarray, MeasurementBasis, int]:
    """Seeded Nelder-Mead restarts; ``marginal``, if given, seeds the first start."""
    starts = MULTISTART_DEFAULT if budget is None else max(1, budget // NM_MAXFEV_PER_START)
    n_params = dim_a * dim_a
    seeds = _seed_sequence(seed).spawn(starts)
    simplex = np.vstack([np.zeros(n_params), 0.4 * np.eye(n_params)])

    best_val = -np.inf
    best_vectors = None
    best_params = None
    evals = 0
    for j in range(starts):
        rng = np.random.default_rng(seeds[j])
        if j == 0 and marginal is not None:
            _, u0 = np.linalg.eigh(marginal)
        else:
            g = rng.standard_normal((dim_a, dim_a)) + 1j * rng.standard_normal((dim_a, dim_a))
            _, u0 = np.linalg.eigh((g + g.conj().T) / 2.0)

        def negative(t, u0=u0):
            u = u0 @ _unitary_exp_i(_hermitian_from_params(t, dim_a))
            return -_overlap(k, u.T)

        res = sciopt.minimize(
            negative,
            np.zeros(n_params),
            method="Nelder-Mead",
            options={
                "maxfev": NM_MAXFEV_PER_START,
                "xatol": 1e-9,
                "fatol": 1e-12,
                "initial_simplex": simplex,
            },
        )
        evals += res.nfev
        if -res.fun > best_val:
            best_val = float(-res.fun)
            best_params = np.asarray(res.x, dtype=np.float64)
            u = u0 @ _unitary_exp_i(_hermitian_from_params(best_params, dim_a))
            best_vectors = u.T.copy()
    basis = MeasurementBasis(dim_a, best_vectors)
    return best_val, best_params, basis, evals


def _optimize(
    state: BipartiteState,
    s: np.ndarray,
    offset: float,
    strategy: str,
    budget: int | None,
    seed,
    tol: Tolerances,
) -> DiscordResult:
    """Minimize ``offset - overlap`` over projective bases on A, with K built from S."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    dim_a = state.dim_a
    if dim_a > MAX_OPT_DIM:
        raise UnsupportedDimensionError(
            f"optimization supports dim_a <= {MAX_OPT_DIM}, got {dim_a}"
        )
    k = _overlap_kernel(s, dim_a, state.dim_b)
    if dim_a == 1:
        basis = MeasurementBasis.computational(1)
        best, params, evals, method = _overlap(k, basis.vectors), None, 1, "optimized-grid"
    elif strategy == "grid" or (strategy == "hybrid" and dim_a == 2):
        if dim_a != 2:
            raise UnsupportedDimensionError("grid strategy requires dim_a = 2")
        best, params, basis, evals = _maximize_grid(k, budget, tol.optimizer_rel_improvement)
        method = "optimized-grid"
    else:
        marginal = state.marginal("a") if strategy == "hybrid" else None
        best, params, basis, evals = _maximize_multistart(k, dim_a, budget, seed, marginal)
        method = "optimized-local"
    return DiscordResult(offset - best, method, basis, parameters=params, evaluations=evals)


def optimize_affinity_discord(
    state: BipartiteState,
    strategy: str = "hybrid",
    budget: int | None = None,
    seed=0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DiscordResult:
    """Minimize the affinity discord functional over projective bases on A.

    ``strategy`` is 'grid' (Bloch-angle lattice plus local refinement, two-level
    A only), 'multistart-local' (seeded Nelder-Mead restarts over perturbed
    random bases), or 'hybrid' (grid for two-level A, otherwise multistart with
    the marginal eigenbasis as the first start). ``budget`` caps functional
    evaluations; identical seeds give identical results.
    """
    return _optimize(state, state.sqrt(tol), 1.0, strategy, budget, seed, tol)


def optimize_hs_discord(
    state: BipartiteState,
    strategy: str = "hybrid",
    budget: int | None = None,
    seed=0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DiscordResult:
    """Minimize ||rho - pinched(rho)||^2 over projective bases on A."""
    return _optimize(state, np.asarray(state.rho), state.purity(), strategy, budget, seed, tol)


def remedied_hs_discord(
    state: BipartiteState,
    strategy: str = "hybrid",
    budget: int | None = None,
    seed=0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DiscordResult:
    """Minimize ||sqrt(rho) - pinched(sqrt(rho))||^2 over projective bases on A.

    Numerically identical to the affinity-based optimum; kept as a separate
    surface because it is the ancilla-safe repair of the Hilbert-Schmidt
    measure. Tr(sqrt(rho)^2) = 1 for a unit-trace state, so the offset is 1.
    """
    return _optimize(state, state.sqrt(tol), 1.0, strategy, budget, seed, tol)


def ancilla_behavior_report(
    state: BipartiteState,
    sigma,
    strategy: str = "hybrid",
    budget: int | None = None,
    seed=0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> AncillaReport:
    """Optimized affinity and HS discords before and after appending sigma on B."""
    enlarged = append_ancilla(state, sigma, tol)
    anc = linalg.as_matrix(sigma)
    sigma_purity = float(np.real(np.vdot(anc, anc)))
    aff_before = optimize_affinity_discord(state, strategy, budget, seed, tol).value
    hs_before = optimize_hs_discord(state, strategy, budget, seed, tol).value
    aff_after = optimize_affinity_discord(enlarged, strategy, budget, seed, tol).value
    hs_after = optimize_hs_discord(enlarged, strategy, budget, seed, tol).value
    return AncillaReport(aff_before, aff_after, hs_before, hs_after, sigma_purity)
