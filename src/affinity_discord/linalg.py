"""Dense complex linear algebra on small Hermitian matrices.

All functions are pure and operate on square ``complex128`` arrays; inputs
are never mutated. Dimensions are expected to stay below ~64 per subsystem,
so accuracy is preferred over speed throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
    ValidationError,
    _require_int,
)
from .tolerances import HERMITICITY, PSD_EPSILON

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
for _p in PAULI:
    _p.setflags(write=False)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def require_hermitian(m, rtol: float) -> np.ndarray:
    """Return the symmetrized matrix, or raise if max |M - M^dagger| exceeds rtol * max(1, maxabs)."""
    arr = as_matrix(m)
    scale = max(1.0, float(np.max(np.abs(arr), initial=0.0)))
    defect = float(np.max(np.abs(arr - arr.conj().T), initial=0.0))
    if not defect <= rtol * scale:  # a NaN defect is refused too
        raise NonHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds {rtol:.1e} * {scale:.3e}"
        )
    return (arr + arr.conj().T) / 2.0


def matrix_sqrt_psd(m, eigh: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    ``eigh`` is ``(w, v)``, an eigendecomposition of ``m`` that the caller
    already holds (a state's, kept by ``BipartiteState``); without it,
    ``m`` passes the ``HERMITICITY`` gate and is factored here. Eigenvalues in
    ``[-PSD_EPSILON, 0)`` are treated as round-off and clamped to zero before
    the square root; anything more negative is an error.
    """
    w, v = np.linalg.eigh(require_hermitian(m, HERMITICITY)) if eigh is None else eigh
    if w.size and not w[0] >= -PSD_EPSILON:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -{PSD_EPSILON:.1e}")
    return (v * np.sqrt(snap_spectrum(w))) @ v.conj().T


def snap_spectrum(w) -> np.ndarray:
    """Eigenvalues clipped at zero, with those below ``size * eps * max`` set to zero.

    Eigenvalues at relative round-off level are numerical zeros; a square root
    would amplify them to sqrt(eps)-sized artifacts.
    """
    w = np.maximum(w, 0.0)
    if w.size:
        w[w < np.max(w) * w.size * np.finfo(np.float64).eps] = 0.0
    return w


def partial_trace(m, dim_a: int, dim_b: int, keep: str = "a") -> np.ndarray:
    """Partial trace of a (dim_a * dim_b)-dimensional matrix over one factor.

    ``keep`` selects the surviving subsystem ('a' or 'b').
    """
    arr = as_matrix(m)
    dim_a, dim_b = _require_int(dim_a, "dim_a", 1), _require_int(dim_b, "dim_b", 1)
    if arr.shape[0] != dim_a * dim_b:
        raise DimensionMismatchError(
            f"matrix of size {arr.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    t = arr.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.einsum("abcb->ac", t)
    if keep == "b":
        return np.einsum("abad->bd", t)
    raise ValidationError(f"keep must be 'a' or 'b', got {keep!r}")


def frobenius_norm_sq(m) -> float:
    """Squared Frobenius (Hilbert-Schmidt) norm, sum of |entries|^2."""
    arr = np.asarray(m, dtype=np.complex128)
    return float(np.real(np.vdot(arr, arr)))


def haar_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed random unitary via phase-fixed QR of a Ginibre matrix."""
    dim = _require_int(dim, "dim", 1)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
