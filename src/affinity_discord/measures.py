"""Affinity, measurement pinching, discord functionals, and optimization.

Every discord here is ``offset - max sum_k vec(P_k)^dagger K vec(P_k)``, the
maximum taken over rank-1 projective bases {P_k} on party A, with

    K = R(S) R(S)^dagger,    R(S)[(a, b), (i, j)] = S[(a, i), (b, j)].

The sum is the pinched overlap sum_k Tr[S (P_k x 1) S (P_k x 1)]. The
affinity and remedied measures take S = sqrt(rho) and offset 1; the
Hilbert-Schmidt measure takes S = rho and offset Tr(rho^2). ``_kernel`` is the
one place that makes this choice. K is dim_a^2 x dim_a^2 and is built once per
state, so dim_b enters only there: every evaluation after it costs the same for
any dim_b.

For orthonormal kets (v_0, v_1) on A and O_s = sum_pq (sigma_s)_pq |v_p><v_q|
(sigma_0 = 1), the projectors (O_0 +/- n.O)/2 have the overlap (c0 + n^T G n)/2
in the unit Bloch vector n, with c0 = vec(O_0)^dagger K vec(O_0) and
G_ij = Re vec(O_i)^dagger K vec(O_j). The optimizer runs Jacobi sweeps
(Cardoso-Souloumiac, SIMAX 17(1), 1996) that rotate each pair of basis kets onto
the top eigenvector of its G, on all starts in lockstep, each until a sweep stops
gaining. Every qubit rotation, in a pair step or in the two-level closed form,
takes its kets from one batched eigh of n.sigma (``_qubit_kets``). The starts are
read from K alone, so the optimizer draws nothing at random and takes no seed: for
dim_a >= 3 they are the dim_a bases read from the top eigenvectors of Q K Q
(``_spectral_starts``). A two-level A has one pair, so one step from any basis is
the global optimum there, and its single start is the computational basis.
``_two_level_oracle`` reads the top eigenvalue of a two-level A's G by repeated
squaring, with matmul and norm alone; it is an independent oracle for ``verify``,
not a route of the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    UnknownFamilyError,
    UnsupportedDimensionError,
    ValidationError,
    _require_int,
)
from .states import BipartiteState, PureState, _require_density
from .tolerances import OPTIMIZER_REL_IMPROVEMENT, PROJECTOR_TOLERANCE

MEASURES = ("affinity", "hs", "remedied")
_SQRT_MEASURES = ("affinity", "remedied")  # S = sqrt(rho), offset 1; "hs" takes S = rho
MAX_OPT_DIM = 8
BUDGET_DEFAULT = 1_280_000
# T: rows vec(1), vec(sigma_x), vec(sigma_y), vec(sigma_z); then vec(X) -> vec(T^* X T^T)
_PAULI_VEC = np.stack([np.eye(2), *linalg.PAULI]).reshape(4, 4)
_PAULI_PAIR = np.kron(_PAULI_VEC.conj(), _PAULI_VEC).T


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement on one subsystem.

    ``vectors`` holds the kets as rows, each phased so that its first component above
    1/(2 sqrt(dim)) in magnitude is real and positive. Their orthonormality is checked
    where a basis enters a computation (``_require_basis``).
    """

    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        dim = _require_int(self.dim, "dim", 1)
        vecs = np.array(self.vectors, dtype=np.complex128)
        if vecs.shape != (dim, dim):
            raise DimensionMismatchError(f"expected {dim} kets of length {dim}, got {vecs.shape}")
        cut = 0.5 / dim**0.5  # a unit ket has a component of magnitude >= 1/sqrt(dim)
        kets = vecs.tolist()  # a few kets of a few components: plain Python beats numpy calls
        for ket in kets:
            for k, lead in enumerate(ket):
                if abs(lead) > cut:
                    phase = lead.conjugate() / abs(lead)
                    ket[:] = [c * phase + 0.0 for c in ket]  # + 0.0 clears signed zeros
                    ket[k] = abs(lead)
                    break
        vecs = np.array(kets, dtype=np.complex128)
        vecs.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vectors", vecs)


@dataclass(frozen=True)
class DiscordResult:
    """Discord value with the method that produced it and a basis on A that reaches it.

    ``method`` is one of closed-pure, closed-2xn, optimized-local. optimized-local comes
    from the Jacobi sweeps, for one- and two-level A too, with ``evaluations`` counting
    the pair steps of all starts.
    """

    value: float
    method: str
    optimal_measurement: MeasurementBasis
    evaluations: int = 0


# --- overlap kernel ----------------------------------------------------------


def _overlap_kernel(s: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """K = R R^dagger for the realignment R[(a, b), (i, j)] = S[(a, i), (b, j)]."""
    r = s.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
    r = r.reshape(dim_a * dim_a, dim_b * dim_b)
    return r @ r.conj().T


def _kernel(state: BipartiteState, measure: str) -> tuple[np.ndarray, float]:
    """K of ``measure``'s S, and its offset: the one place a measure chooses them."""
    if measure in _SQRT_MEASURES:
        s, offset = state.sqrt(), 1.0
    else:
        s, offset = np.asarray(state.rho), state.purity()
    return _overlap_kernel(s, state.dim_a, state.dim_b), offset


def _overlap(k: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_k vec(P_k)^dagger K vec(P_k) for the kets v_k in the rows of ``vectors``, stackable."""
    q = (vectors[..., :, None] * vectors[..., None, :].conj()).reshape(*vectors.shape[:-1], -1)
    return np.real(np.einsum("...ij,...ij->...", q.conj(), q @ k.T))


def _pair_forms(k: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c0, G) = Re T^* (W^dagger K W) T^T for each pair of orthonormal rows in ``pairs`` (s, 2, m).

    W holds the kets v_p x conj(v_q), in ``_overlap``'s row-major vec.
    """
    s, _, m = pairs.shape
    flat = pairs.reshape(s, 2 * m)
    w = flat[:, :, None] * flat[:, None, :].conj()  # blocks v_p conj(v_q)^T
    w = w.reshape(s, 2, m, 2, m).transpose(0, 1, 3, 2, 4).reshape(s, 4, m * m)
    kw = (w.reshape(-1, m * m) @ k.T).reshape(s, 4, m * m)
    gram = w.conj() @ kw.transpose(0, 2, 1)
    form = np.real(gram.reshape(s, 16) @ _PAULI_PAIR).reshape(s, 4, 4)
    return form[:, 0, 0], form[:, 1:, 1:]


def _qubit_kets(n: np.ndarray) -> np.ndarray:
    """Kets of (1 +/- n.sigma)/2 as rows, the +n ket first, for unit Bloch vectors n (..., 3)."""
    _, u = np.linalg.eigh((n @ _PAULI_VEC[1:]).reshape(*n.shape[:-1], 2, 2))
    return u[..., ::-1].swapaxes(-1, -2)


# --- per-basis functionals ---------------------------------------------------


def _sqrt_of(x) -> np.ndarray:
    """sqrt of a state, from its kept eigh; a raw matrix passes the density gate first."""
    if isinstance(x, BipartiteState):
        return x.sqrt()
    sym, w, v = _require_density(x, what="affinity argument")
    return linalg.matrix_sqrt_psd(sym, (w, v))


def affinity(rho, sigma) -> float:
    """Affinity Tr(sqrt(rho) sqrt(sigma)) between two density matrices.

    Symmetric, equal to 1 exactly when the states coincide, and 0 for
    orthogonal supports.
    """
    sa = _sqrt_of(rho)
    sb = _sqrt_of(sigma)
    if sa.shape != sb.shape:
        raise DimensionMismatchError(f"shape mismatch {sa.shape} vs {sb.shape}")
    val = float(np.real(np.trace(sa @ sb)))
    return float(np.clip(val, 0.0, 1.0))


def affinity_metric(rho, sigma) -> float:
    """Metric sqrt(1 - affinity); zero exactly for identical states."""
    return float(np.sqrt(1.0 - affinity(rho, sigma)))


def _require_basis(state: BipartiteState, basis: MeasurementBasis) -> None:
    """Refuse a basis that is not dim_a orthonormal kets, a von Neumann measurement on A.

    Run at entry, not in ``MeasurementBasis``, so the bases that the optimizers and
    closed forms build from eigh and svd pay nothing for it.
    """
    if basis.dim != state.dim_a:
        raise DimensionMismatchError(
            f"basis dimension {basis.dim} does not match dim_a={state.dim_a}"
        )
    gram = basis.vectors.conj() @ basis.vectors.T
    defect = float(np.max(np.abs(gram - np.eye(basis.dim))))
    if not defect <= PROJECTOR_TOLERANCE:  # a NaN defect is refused too
        raise ValidationError(f"measurement vectors not orthonormal (defect {defect:.3e})")


def post_measurement(state: BipartiteState, basis: MeasurementBasis) -> BipartiteState:
    """Checked pinched state sum_k (Pi_k x 1) rho (Pi_k x 1); idempotent and trace preserving."""
    _require_basis(state, basis)
    # pinch with the polar factor of the kets: the nearest orthonormal kets, so a basis
    # within the gate's defect still preserves the trace to round-off
    u, _, vh = np.linalg.svd(basis.vectors)
    kets = u @ vh
    rho = np.asarray(state.rho)
    eye_b = np.eye(state.dim_b, dtype=np.complex128)
    pinched = np.zeros_like(rho)
    for ket in kets:
        proj = np.outer(ket, ket.conj())
        big = np.kron(proj, eye_b)
        pinched += big @ rho @ big
    return BipartiteState(state.dim_a, state.dim_b, pinched)


def _functional_at(state: BipartiteState, basis: MeasurementBasis, measure: str) -> float:
    _require_basis(state, basis)
    k, offset = _kernel(state, measure)
    return offset - float(_overlap(k, np.asarray(basis.vectors)))


def affinity_discord_at(state: BipartiteState, basis: MeasurementBasis) -> float:
    """Affinity discord functional at a fixed measurement basis.

    Computed in the single-square-root form
    1 - Tr(sqrt(rho) Pi(sqrt(rho))) = ||sqrt(rho) - Pi(sqrt(rho))||^2, with
    Pi(X) = sum_k (Pi_k x 1) X (Pi_k x 1). The literal 1 - A(rho, Pi(rho)) is never
    larger (operator Jensen: Pi(sqrt(rho)) <= sqrt(Pi(rho))).
    """
    return _functional_at(state, basis, "affinity")


def hs_discord_at(state: BipartiteState, basis: MeasurementBasis) -> float:
    """Hilbert-Schmidt discord functional ||rho - pinched(rho)||^2 at a fixed basis."""
    return _functional_at(state, basis, "hs")


def pure_discord(psi: PureState) -> DiscordResult:
    """Closed form for pure states: 1 - sum_k s_k^2 over the Schmidt spectrum s_k = sv_k^2."""
    u, sv, _ = np.linalg.svd(psi.amplitudes.reshape(psi.dim_a, psi.dim_b))
    value = 1.0 - float(np.sum(sv**4))
    basis = MeasurementBasis(psi.dim_a, u.T)
    return DiscordResult(value, "closed-pure", basis)


# --- optimization over projective measurements --------------------------------


def _two_level_oracle(k: np.ndarray) -> float:
    """Best overlap (c0 + lambda_max(G)) / 2 of a two-level A, with no eigensolver.

    P = G + (1 + ||G||_F) 1 shares G's eigenvectors and is positive definite, so its
    powers, squared 64 times and rescaled after each squaring, converge onto G's top
    eigenspace even when that is degenerate; lambda_max(G) is the Rayleigh quotient of
    G at P's largest column. Only matmul and norm: the oracle stays independent of the
    closed form, whose value is an eigenvalue.
    """
    (c0,), (g,) = _pair_forms(k, np.eye(2)[None])
    p = g + (1.0 + np.linalg.norm(g)) * np.eye(3)
    for _ in range(64):
        p = p @ p
        p /= np.linalg.norm(p)
    x = p[:, np.argmax(np.linalg.norm(p, axis=0))]
    return float(c0 + x @ g @ x / (x @ x)) / 2.0


def _spectral_starts(k: np.ndarray, dim_a: int) -> np.ndarray:
    """dim_a bases on A (kets in rows), one from each top eigenvector of Q K Q, the top first.

    Every basis sums to 1, so Q = 1 - e e^dagger drops e = vec(1)/sqrt(dim_a). Each
    eigenvector, read as a matrix X in ``_overlap``'s row-major vec, gives the eigenbasis
    of its Hermitian part (the computational basis when a real K gives X = -X^T).
    """
    e = np.eye(dim_a).reshape(-1) / np.sqrt(dim_a)
    q = np.eye(dim_a * dim_a) - np.outer(e, e)
    x = np.linalg.eigh(q @ k @ q)[1][:, ::-1][:, :dim_a].T.reshape(dim_a, dim_a, dim_a)
    return np.linalg.eigh(x + x.conj().swapaxes(1, 2))[1].swapaxes(1, 2)


def _maximize(k: np.ndarray, starts: np.ndarray, budget: int) -> tuple[float, MeasurementBasis, int]:
    """Jacobi pair sweeps on all starts in lockstep; returns the best overlap, its basis, the steps.

    ``starts`` holds bases on A with kets in rows, shape (starts, dim_a, dim_a). Each
    iteration steps the same pair of every running start, rotating it onto the kets
    of ``_qubit_kets``; a start stops when a whole sweep gains less than
    OPTIMIZER_REL_IMPROVEMENT, and all stop once ``budget`` pair steps are spent.
    """
    vectors = np.array(starts, dtype=np.complex128, order="C")  # the layout sets matmul round-off
    dim_a = vectors.shape[-1]
    pairs = [[i, j] for i in range(dim_a) for j in range(i + 1, dim_a)]
    active = np.arange(len(vectors) if pairs else 0)
    gain = np.zeros(len(vectors))
    steps = 0
    sweep_step = 0
    while active.size and steps < budget:
        active = active[: budget - steps]  # the budget can run out within an iteration
        pair = pairs[sweep_step]
        kets = vectors[active[:, None], pair]
        _, g = _pair_forms(k, kets)
        w, n = np.linalg.eigh(g)
        # the current pair is the Bloch vector (0, 0, 1)
        gain[active] += (w[:, -1] - g[:, 2, 2]) / 2.0
        vectors[active[:, None], pair] = _qubit_kets(n[:, :, -1]) @ kets
        steps += active.size
        sweep_step = (sweep_step + 1) % len(pairs)
        if sweep_step == 0:
            active = active[gain[active] >= OPTIMIZER_REL_IMPROVEMENT]
            gain[:] = 0.0
    values = _overlap(k, vectors)
    best = int(np.argmax(values))
    return float(values[best]), MeasurementBasis(dim_a, vectors[best]), steps


def _require_budget(budget: int | None) -> int:
    """The pair-step budget, ``BUDGET_DEFAULT`` for None; else an integer of at least 1."""
    return BUDGET_DEFAULT if budget is None else _require_int(budget, "budget", 1)


def _require_optimizable(dim_a: int) -> None:
    if dim_a > MAX_OPT_DIM:
        raise UnsupportedDimensionError(
            f"optimization supports dim_a <= {MAX_OPT_DIM}, got {dim_a}"
        )


def _optimize(state: BipartiteState, measure: str, budget: int | None) -> DiscordResult:
    """Minimize ``offset - overlap`` over projective bases on A; the starts read only K.

    The budget and the cap are checked before ``_kernel``, so a refusal takes no square root.
    """
    budget = _require_budget(budget)
    _require_optimizable(state.dim_a)
    k, offset = _kernel(state, measure)
    # a two-level A has one pair, so one step from any basis is exact
    starts = np.eye(state.dim_a)[None] if state.dim_a <= 2 else _spectral_starts(k, state.dim_a)
    best, basis, evals = _maximize(k, starts, budget)
    return DiscordResult(offset - best, "optimized-local", basis, evaluations=evals)


def optimize_affinity_discord(state: BipartiteState, budget: int | None = None) -> DiscordResult:
    """Minimize the affinity discord functional over projective bases on A.

    Jacobi pair sweeps from the dim_a bases of ``_spectral_starts`` for dim_a >= 3,
    each start until a whole sweep gains less than OPTIMIZER_REL_IMPROVEMENT; a
    two-level A starts from the computational basis, whose single pair step is exact.
    Nothing is drawn at random, so a state always gives the same result. ``budget``
    (at least 1, default BUDGET_DEFAULT) caps the pair steps of all starts, which
    ``evaluations`` counts.
    """
    return _optimize(state, "affinity", budget)


def optimize_hs_discord(state: BipartiteState, budget: int | None = None) -> DiscordResult:
    """Minimize ||rho - pinched(rho)||^2 over projective bases on A."""
    return _optimize(state, "hs", budget)


def remedied_hs_discord(state: BipartiteState, budget: int | None = None) -> DiscordResult:
    """Minimize ||sqrt(rho) - pinched(sqrt(rho))||^2 over projective bases on A.

    Numerically identical to the affinity-based optimum; kept as a separate
    surface because it is the ancilla-safe repair of the Hilbert-Schmidt
    measure. Tr(sqrt(rho)^2) = 1 for a unit-trace state, so the offset is 1.
    """
    return _optimize(state, "remedied", budget)


def _optimizer(measure: str):
    """The optimizer of ``measure``; built per call, so perfbench's tracer can rebind the names."""
    if measure not in MEASURES:
        raise UnknownFamilyError(f"unknown measure {measure!r}; choose from {MEASURES}")
    optimizers = (optimize_affinity_discord, optimize_hs_discord, remedied_hs_discord)
    return optimizers[MEASURES.index(measure)]
