"""Operator bases, the sqrt-state correlation matrix, and its spectral consequences.

Expanding sqrt(rho) in a tensor product of orthonormal Hermitian operator
bases gives a real coefficient matrix Gamma. Its squared singular values
bound the affinity discord from below, and for a two-level party A the
optimum is exact: the measurement is a Bloch direction and the discord is
1 - ||v||^2 - lambda_max(Z Z^t) for the partition Gamma = (v; Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    OutOfRangeError,
    ValidationError,
    WrongDimensionError,
)
from .measures import DiscordResult, MeasurementBasis
from .states import BipartiteState
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class OperatorBasis:
    """Orthonormal Hermitian operator basis; element 0 is identity/sqrt(dim)."""

    dim: int
    operators: np.ndarray  # (dim^2, dim, dim)

    def __post_init__(self):
        ops = np.array(self.operators, dtype=np.complex128)
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    def gram(self) -> np.ndarray:
        flat = self.operators.reshape(self.dim**2, -1)
        return np.real(flat.conj() @ flat.T)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Real coefficients gamma_ij = Tr(sqrt(rho) X_i x Y_j)."""

    dim_a: int
    dim_b: int
    gamma: np.ndarray  # (dim_a^2, dim_b^2)

    def __post_init__(self):
        g = np.array(self.gamma, dtype=np.float64)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)


class GammaPartition(NamedTuple):
    """First row of Gamma and the remaining block; stacking them restores Gamma."""

    v: np.ndarray
    z: np.ndarray


def gell_mann_basis(d: int) -> OperatorBasis:
    """Generalized Gell-Mann basis, unit Hilbert-Schmidt norm each.

    Order: identity/sqrt(d), then symmetric pairs, antisymmetric pairs,
    and diagonal elements.
    """
    if d < 2:
        raise OutOfRangeError(f"basis dimension {d} must be at least 2")
    ops = [np.eye(d, dtype=np.complex128) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            ops.append(sym)
    for j in range(d):
        for k in range(j + 1, d):
            asym = np.zeros((d, d), dtype=np.complex128)
            asym[j, k] = -1j / np.sqrt(2.0)
            asym[k, j] = 1j / np.sqrt(2.0)
            ops.append(asym)
    for l in range(1, d):
        diag = np.zeros(d, dtype=np.complex128)
        diag[:l] = 1.0
        diag[l] = -l
        ops.append(np.diag(diag) / np.sqrt(l * (l + 1)))
    return OperatorBasis(d, np.array(ops))


def correlation_matrix(
    state: BipartiteState,
    basis_a: OperatorBasis | None = None,
    basis_b: OperatorBasis | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CorrelationMatrix:
    """Expansion coefficients of sqrt(rho) in the tensor operator basis."""
    unit = OperatorBasis(1, np.ones((1, 1, 1)))  # a 1-dim party has no traceless part
    basis_a = basis_a or (unit if state.dim_a == 1 else gell_mann_basis(state.dim_a))
    basis_b = basis_b or (unit if state.dim_b == 1 else gell_mann_basis(state.dim_b))
    if basis_a.dim != state.dim_a or basis_b.dim != state.dim_b:
        raise DimensionMismatchError(
            f"basis dims ({basis_a.dim}, {basis_b.dim}) do not match state "
            f"({state.dim_a}, {state.dim_b})"
        )
    s = state.sqrt(tol)
    s4 = s.reshape(state.dim_a, state.dim_b, state.dim_a, state.dim_b)
    # gamma_ij = sum_{a b c d} S[(a,b),(c,d)] X_i[c,a] Y_j[d,b]
    raw = np.einsum("abcd,ica,jdb->ij", s4, basis_a.operators, basis_b.operators, optimize=True)
    residue = float(np.max(np.abs(raw.imag)))
    if residue > tol.gamma_imag:
        raise ValidationError(
            f"correlation coefficients have imaginary residue {residue:.3e}"
        )
    return CorrelationMatrix(state.dim_a, state.dim_b, raw.real)


def gamma_partition(corr: CorrelationMatrix) -> GammaPartition:
    """Split Gamma into its identity row v and the traceless block Z."""
    return GammaPartition(corr.gamma[0].copy(), corr.gamma[1:].copy())


def lower_bound(state: BipartiteState, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Spectral lower bound on the affinity discord.

    Returns 1 minus the sum of the dim_a largest eigenvalues of Gamma Gamma^t.
    Reported unclamped: it can be negative for highly mixed states.
    """
    corr = correlation_matrix(state, tol=tol)
    mu = np.linalg.eigvalsh(corr.gamma @ corr.gamma.T)
    return 1.0 - float(np.sum(mu[-state.dim_a :]))


def lower_bound_clamped(state: BipartiteState, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Convenience accessor max(lower_bound, 0)."""
    return max(0.0, lower_bound(state, tol))


def closed_form_2xn(state: BipartiteState, tol: Tolerances = DEFAULT_TOLERANCES) -> DiscordResult:
    """Exact affinity discord for a two-level party A.

    Value is 1 - ||v||^2 - lambda_max(Z Z^t); the optimal measurement is the
    Bloch direction given by the top eigenvector of Z Z^t.
    """
    if state.dim_a != 2:
        raise WrongDimensionError(f"closed form requires dim_a = 2, got {state.dim_a}")
    corr = correlation_matrix(state, tol=tol)
    v, z = gamma_partition(corr)
    w, vecs = np.linalg.eigh(z @ z.T)
    value = 1.0 - float(v @ v) - float(w[-1])
    direction = vecs[:, -1]
    basis = MeasurementBasis.from_bloch_vector(direction)
    return DiscordResult(value, "closed-2xn", basis, parameters=direction, evaluations=0)
