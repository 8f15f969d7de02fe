"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinity_discord import linalg
from affinity_discord.errors import (
    DimensionMismatchError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
    ValidationError,
)
from affinity_discord.tolerances import PSD_EPSILON


def random_psd(rng, d, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g @ g.conj().T


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        linalg.matrix_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square():
    with pytest.raises(NonSquareError):
        linalg.matrix_sqrt_psd(np.zeros((2, 3)))


def test_sqrt_scalar_matrix():
    assert np.allclose(linalg.matrix_sqrt_psd(np.eye(4) / 4.0), np.eye(4) / 2.0)


def test_sqrt_projector_is_fixed_point():
    v = np.array([1.0, 1j, 0.0, -1.0]) / np.sqrt(3.0)
    p = np.outer(v, v.conj())
    s = linalg.matrix_sqrt_psd(p)
    # null-space round-off of order eps grows to sqrt(eps) in the root itself
    assert np.max(np.abs(s - p)) < 1e-7
    assert np.max(np.abs(s @ s - p)) < 1e-9


@pytest.mark.parametrize("d,rank", [(3, 3), (4, 2), (6, 6)])
def test_sqrt_squares_back(d, rank):
    rng = np.random.default_rng(20 + d)
    m = random_psd(rng, d, rank)
    s = linalg.matrix_sqrt_psd(m)
    assert np.max(np.abs(s @ s - m)) < 1e-9 * np.max(np.abs(m))
    assert np.max(np.abs(s - s.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(s)))


def test_sqrt_clamps_tiny_negative_eigenvalues():
    m = np.diag([1.0, -1e-9]).astype(complex)
    s = linalg.matrix_sqrt_psd(m)
    assert s[1, 1] == 0.0


def _snap_by_clip(w):
    # snap_spectrum as first written, with np.clip
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w < np.max(w) * w.size * np.finfo(np.float64).eps] = 0.0
    return w


_SPECTRUM_ENTRY = st.one_of(
    st.tuples(st.just("exact"), st.sampled_from([0.0, -0.0])),
    st.tuples(st.just("exact"), st.floats(-PSD_EPSILON, 0.0, exclude_max=True)),
    # a multiple of the cut size * eps * max: below it, on it, or above it
    st.tuples(st.just("cut"), st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.5, 2.0)),
)


@given(top=st.floats(1e-12, 1e3) | st.none(), entries=st.lists(_SPECTRUM_ENTRY, max_size=12))
def test_snap_spectrum_matches_the_clip_form_bit_for_bit(top, entries):
    # without a positive top entry every value is a zero or a round-off negative
    cut = (len(entries) + 1) * np.finfo(np.float64).eps * (top or 0.0)
    values = [x if tag == "exact" else x * cut for tag, x in entries]
    if top is not None:
        values.append(top)
    w = np.array(values, dtype=np.float64)
    before = w.tobytes()
    assert linalg.snap_spectrum(w).tobytes() == _snap_by_clip(w).tobytes()
    assert w.tobytes() == before


def test_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        linalg.matrix_sqrt_psd(linalg.SIGMA_Z)


def test_sqrt_gates_refuse_nan():
    with pytest.raises(NonHermitianError):
        linalg.matrix_sqrt_psd(np.full((2, 2), np.nan))
    with pytest.raises(NotPSDError):  # a NaN eigenvalue handed in with its eigenvectors
        linalg.matrix_sqrt_psd(np.eye(2) / 2.0, (np.array([np.nan, 0.5]), np.eye(2)))


@pytest.mark.parametrize("factor,raises", [(0.5, False), (2.0, True)])
def test_sqrt_hermiticity_gate_sits_at_its_bound(factor, raises):
    m = np.eye(2, dtype=complex) / 2.0
    m[0, 1] = factor * 1e-12
    if raises:
        with pytest.raises(NonHermitianError):
            linalg.matrix_sqrt_psd(m)
    else:
        linalg.matrix_sqrt_psd(m)


def test_partial_trace_bell_marginal():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(v, v.conj())
    assert np.allclose(linalg.partial_trace(rho, 2, 2, keep="a"), np.eye(2) / 2.0)
    assert np.allclose(linalg.partial_trace(rho, 2, 2, keep="b"), np.eye(2) / 2.0)


def test_partial_trace_product_factorizes():
    rng = np.random.default_rng(6)
    a = random_psd(rng, 2)
    a /= np.trace(a)
    b = random_psd(rng, 3)
    b /= np.trace(b)
    rho = np.kron(a, b)
    assert np.max(np.abs(linalg.partial_trace(rho, 2, 3, keep="a") - a)) < 1e-12
    assert np.max(np.abs(linalg.partial_trace(rho, 2, 3, keep="b") - b)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    rho = random_psd(rng, 6)
    rho /= np.trace(rho)
    for keep in ("a", "b"):
        out = linalg.partial_trace(rho, 2, 3, keep=keep)
        assert abs(np.trace(out) - 1.0) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        linalg.partial_trace(np.eye(5), 2, 3)


@pytest.mark.parametrize("keep", ["c", "A", ""])
def test_partial_trace_refuses_an_unknown_party(keep):
    with pytest.raises(ValidationError, match="keep must be 'a' or 'b'"):
        linalg.partial_trace(np.eye(4), 2, 2, keep=keep)


def test_frobenius_norm_sq_values():
    assert linalg.frobenius_norm_sq(np.zeros((3, 3))) == 0.0
    assert linalg.frobenius_norm_sq(np.eye(4)) == pytest.approx(4.0)
    assert linalg.frobenius_norm_sq(linalg.SIGMA_X / np.sqrt(2.0)) == pytest.approx(1.0)


def test_haar_unitary_is_unitary_and_seeded():
    u1 = linalg.haar_unitary(4, seed=11)
    u2 = linalg.haar_unitary(4, seed=11)
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) < 1e-12
