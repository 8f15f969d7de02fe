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


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation |M - M^dagger|."""
    arr = as_matrix(m)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr - arr.conj().T)))


def require_hermitian(m, rtol: float) -> np.ndarray:
    """Return the symmetrized matrix, or raise if the defect exceeds rtol * max(1, maxabs)."""
    arr = as_matrix(m)
    scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 0.0)
    defect = hermiticity_defect(arr)
    if defect > rtol * scale:
        raise NonHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds {rtol:.1e} * {scale:.3e}"
        )
    return (arr + arr.conj().T) / 2.0


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and eigenvectors as columns, of a Hermitian matrix."""
    return np.linalg.eigh(require_hermitian(m, HERMITICITY))


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[-PSD_EPSILON, 0)`` are treated as round-off and clamped
    to zero before the square root; anything more negative is an error.
    """
    w, v = hermitian_eig(m)
    if w.size and w[0] < -PSD_EPSILON:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -{PSD_EPSILON:.1e}")
    return (v * np.sqrt(snap_spectrum(w))) @ v.conj().T


def snap_spectrum(w) -> np.ndarray:
    """Eigenvalues clipped at zero, with those below ``size * eps * max`` set to zero.

    Eigenvalues at relative round-off level are numerical zeros; a square root
    would amplify them to sqrt(eps)-sized artifacts.
    """
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w < np.max(w) * w.size * np.finfo(np.float64).eps] = 0.0
    return w


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dim_a: int, dim_b: int, keep: str = "a") -> np.ndarray:
    """Partial trace of a (dim_a * dim_b)-dimensional matrix over one factor.

    ``keep`` selects the surviving subsystem ('a' or 'b').
    """
    arr = as_matrix(m)
    if dim_a < 1 or dim_b < 1 or arr.shape[0] != dim_a * dim_b:
        raise DimensionMismatchError(
            f"matrix of size {arr.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    t = arr.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.einsum("abcb->ac", t)
    if keep == "b":
        return np.einsum("abad->bd", t)
    raise ValueError("keep must be 'a' or 'b'")


def frobenius_norm_sq(m) -> float:
    """Squared Frobenius (Hilbert-Schmidt) norm, sum of |entries|^2."""
    arr = np.asarray(m, dtype=np.complex128)
    return float(np.real(np.vdot(arr, arr)))


def haar_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed random unitary via phase-fixed QR of a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
