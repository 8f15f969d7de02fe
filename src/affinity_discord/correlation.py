"""The sqrt-state correlation matrix Gamma and the spectral results drawn from it.

Expanding sqrt(rho) in a tensor product of orthonormal Hermitian operator
bases gives a real coefficient matrix Gamma = (v; Z): v is the row of the
identity element, Z the traceless block. Every projective basis on A sums to
the identity, so v contributes ||v||^2 to every measurement's overlap and the
traceless parts of the m projectors span an (m - 1)-dimensional subspace. By
Ky Fan's principle the affinity discord is therefore at least

    1 - ||v||^2 - (sum of the top m - 1 eigenvalues of Z Z^t),

the Hassan-Lari-Joag form of the bound (PRA 85, 024302, 2012), which dominates
the bound 1 - (sum of the top m eigenvalues of Gamma Gamma^t). For a two-level
A it is exact: the optimal measurement is the Bloch direction along the top
eigenvector of Z Z^t.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, WrongDimensionError, _require_int
from .measures import (
    DiscordResult,
    MeasurementBasis,
    _SQRT_MEASURES,
    _optimizer,
    _qubit_kets,
    _require_budget,
    pure_discord,
)
from .states import BipartiteState, _as_pure
from .tolerances import GAMMA_IMAG


class _Layout(NamedTuple):
    j: np.ndarray
    k: np.ndarray
    sym: np.ndarray
    asym: np.ndarray
    diag: np.ndarray
    entry: np.ndarray
    pos: np.ndarray
    starts: np.ndarray


@functools.lru_cache(maxsize=None)
def _gell_mann_layout(d: int) -> _Layout:
    """Where the Gell-Mann table of dimension ``d`` is nonzero.

    Off-diagonal pair p is ``(j[p], k[p])`` with j < k. Its symmetric element
    is slot ``sym[p]`` and its antisymmetric one ``asym[p]``, both nonzero at
    ``(j, k)`` and ``(k, j)`` only. ``diag`` holds the diagonal slots, the
    scaled identity first: it is nonzero on the whole diagonal, and diagonal
    element l on its first l + 1 entries. ``entry`` lists every nonzero, in
    slot order, as an index into ``table.ravel()``; ``pos`` is the same entry's
    index into one flattened d x d element, and ``starts`` is where each
    slot's run begins. A one-level party (the table ``{1}``) has no pairs and
    the single diagonal slot 0. The layout is O(d^2) integers, so it is kept
    for every dimension asked for.
    """
    pairs = d * (d - 1) // 2
    j, k = np.triu_indices(d, 1)
    sym = np.arange(1, pairs + 1)
    asym = sym + pairs
    diag = np.concatenate(([0], np.arange(2 * pairs + 1, d * d)))
    # nonzero entries: each pair at (j, k) and (k, j) in its two slots, and
    # diagonal element l at levels 0..l (every level for the identity)
    on_diagonal = np.tri(d, dtype=bool)
    on_diagonal[0] = True
    element, level = np.nonzero(on_diagonal)
    upper, lower = j * d + k, k * d + j
    slot = np.concatenate((sym, sym, asym, asym, diag[element]))
    pos = np.concatenate((upper, lower, upper, lower, level * (d + 1)))
    order = np.argsort(slot, kind="stable")
    slot, pos = slot[order], pos[order]
    starts = np.searchsorted(slot, np.arange(d * d))
    layout = _Layout(j, k, sym, asym, diag, slot * d * d + pos, pos, starts)
    for index in layout:
        index.setflags(write=False)
    return layout


@functools.lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the entry of 2
def gell_mann_basis(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis, shape (d^2, d, d), unit Hilbert-Schmidt norm each.

    Order: identity/sqrt(d), then symmetric pairs, antisymmetric pairs,
    and diagonal elements (``_gell_mann_layout``). A one-level party gets the
    single element {1}, with no traceless part. The table depends only on
    ``d`` and, like the layout, is kept for every dimension asked for, for the
    life of the process, so every caller shares one read-only array; copy it
    before writing. The cache is typed, so a float dimension is refused even
    when the integer one is cached.

    Each dimension kept costs d^4 * 16 bytes: 16 MiB at d = 32, 256 MiB at
    d = 64 and 4 GiB at d = 128, although ``correlation_matrix`` reads only
    the table's O(d^2) nonzeros. A process that expands a 2 x 64 state holds
    the 256 MiB table until it exits.
    """
    d = _require_int(d, "basis dimension d", 1)
    j, k, sym, asym, diag_slots = _gell_mann_layout(d)[:5]
    ops = np.zeros((d * d, d, d), dtype=np.complex128)
    ops[sym, j, k] = ops[sym, k, j] = 1.0 / np.sqrt(2.0)
    ops[asym, j, k] = -1j / np.sqrt(2.0)
    ops[asym, k, j] = 1j / np.sqrt(2.0)
    # diagonal element l is diag(1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1)); complex
    # division takes a * (1 / c), which can round differently from a float a / c
    level = np.arange(d)
    diag = (np.tri(d, k=-1) - np.diag(level)).astype(np.complex128)
    diag[0] = 1.0
    norms = np.sqrt(level * (level + 1))
    norms[0] = np.sqrt(d)
    ops[diag_slots[:, None], level, level] = diag / norms[:, None]
    ops.setflags(write=False)
    return ops


def correlation_matrix(state: BipartiteState) -> np.ndarray:
    """Real coefficients gamma_ij = Tr(sqrt(rho) X_i x Y_j), shape (dim_a^2, dim_b^2).

    X and Y are the Gell-Mann bases of A and B, with X_0 and Y_0 the scaled identity.
    """
    ops_a = gell_mann_basis(state.dim_a)
    ops_b = gell_mann_basis(state.dim_b)
    s = state.sqrt()
    s4 = s.reshape(state.dim_a, state.dim_b, state.dim_a, state.dim_b)
    # gamma_ij = sum_{a b c d} S[(a,b),(c,d)] X_i[c,a] Y_j[d,b]: contract A's
    # small basis first into h[i, (d, b)], then sum h times each Y_j over the
    # entries where Y_j is nonzero only (two for an off-diagonal element), so B's
    # side costs O(dim_a^2 dim_b^2) rather than a dense O(dim_a^2 dim_b^4) matmul
    h = np.einsum("abcd,ica->idb", s4, ops_a).reshape(ops_a.shape[0], -1)
    layout = _gell_mann_layout(state.dim_b)
    entries = ops_b.reshape(-1)[layout.entry]
    raw = np.add.reduceat(h[:, layout.pos] * entries, layout.starts, axis=1)
    residue = float(np.max(np.abs(raw.imag)))
    if not residue <= GAMMA_IMAG:  # a NaN residue is refused too
        raise ValidationError(
            f"correlation coefficients have imaginary residue {residue:.3e}"
        )
    return raw.real


def _traceless_spectrum(state: BipartiteState) -> tuple[float, np.ndarray]:
    """1 - ||v||^2 - (top dim_a - 1 eigenvalues of Z Z^t), and the eigenvectors of Z Z^t."""
    gamma = correlation_matrix(state)
    v, z = gamma[0], gamma[1:]
    w, vecs = np.linalg.eigh(z @ z.T)
    top = w[w.size - (state.dim_a - 1) :]
    return 1.0 - float(v @ v) - float(np.sum(top)), vecs


def lower_bound(state: BipartiteState) -> float:
    """Spectral lower bound 1 - ||v||^2 - (top dim_a - 1 eigenvalues of Z Z^t).

    Equal to ``closed_form_2xn`` for a two-level A. Reported unclamped: it can
    be negative for highly mixed states.
    """
    return _traceless_spectrum(state)[0]


def closed_form_2xn(state: BipartiteState) -> DiscordResult:
    """Exact affinity discord for a two-level party A.

    The value is ``lower_bound``; the optimal measurement is the Bloch
    direction given by the top eigenvector of Z Z^t.
    """
    if state.dim_a != 2:
        raise WrongDimensionError(f"closed form requires dim_a = 2, got {state.dim_a}")
    value, vecs = _traceless_spectrum(state)
    basis = MeasurementBasis(2, _qubit_kets(vecs[:, -1]))
    return DiscordResult(value, "closed-2xn", basis)


def discord(
    state: BipartiteState, measure: str = "affinity", budget: int | None = None
) -> DiscordResult:
    """The discord of ``state`` by one of ``MEASURES`` (else ``UnknownFamilyError``).

    A rank-1 state takes the pure closed form at any size: sqrt(rho) = rho and
    Tr rho^2 = 1 give every measure the same K and offset. A mixed state takes the
    two-level closed form for dim_a = 2 under the measures of S = sqrt(rho), affinity and
    remedied; every other state goes to the optimizer, which raises
    ``UnsupportedDimensionError`` above ``MAX_OPT_DIM``. Every route checks ``budget``.
    """
    optimizer = _optimizer(measure)
    budget = _require_budget(budget)
    psi = _as_pure(state)
    if psi is not None:
        return pure_discord(psi)
    if measure in _SQRT_MEASURES and state.dim_a == 2:
        return closed_form_2xn(state)
    return optimizer(state, budget=budget)
