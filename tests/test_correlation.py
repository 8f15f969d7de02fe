"""Tests for operator bases, the correlation matrix, the bound, and the closed form."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinity_discord import correlation, linalg
from affinity_discord.correlation import (
    closed_form_2xn,
    correlation_matrix,
    gell_mann_basis,
    lower_bound,
)
from affinity_discord.errors import OutOfRangeError, ValidationError, WrongDimensionError
from affinity_discord.families import bell_diagonal_discord, werner_two_qubit_discords
from affinity_discord.measures import MeasurementBasis, affinity_discord_at
from affinity_discord.states import (
    bell_state,
    classical_quantum,
    product_state,
    random_density,
    random_state,
    validate,
    werner_two_qubit,
)


# --- operator bases -----------------------------------------------------------


def test_gell_mann_d2_is_scaled_pauli_set():
    basis = gell_mann_basis(2)
    expected = [np.eye(2), linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z]
    for op, ref in zip(basis, expected):
        assert np.max(np.abs(op - ref / np.sqrt(2.0))) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gell_mann_orthonormal(d):
    basis = gell_mann_basis(d)
    assert basis.shape == (d * d, d, d)
    flat = basis.reshape(d * d, -1)
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(d * d))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gell_mann_traceless_and_hermitian(d):
    basis = gell_mann_basis(d)
    for k, op in enumerate(basis):
        assert np.max(np.abs(op - op.conj().T)) < 1e-15
        if k > 0:
            assert abs(np.trace(op)) < 1e-14


def _gell_mann_by_loops(d):
    # the basis as one d x d operator per element, in the documented order
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
    return np.array(ops)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 32])
def test_gell_mann_matches_loop_reference_bit_for_bit(d):
    basis, reference = gell_mann_basis(d), _gell_mann_by_loops(d)
    assert basis.shape == reference.shape and basis.dtype == reference.dtype
    assert basis.tobytes() == reference.tobytes()


def test_gell_mann_table_is_shared_and_read_only():
    basis = gell_mann_basis(3)
    assert gell_mann_basis(3) is basis
    with pytest.raises(ValueError):
        basis[1, 0, 1] = 0.0


def test_gell_mann_cache_builds_each_dimension_once():
    # every dimension keeps its table for the life of the process: a revisit
    # rebuilds nothing and hands back the same read-only array
    gell_mann_basis.cache_clear()
    sequence = [2, 3, 4, 5, 6, 2, 6, 6, 3]
    first = {}
    for d in sequence:
        basis = gell_mann_basis(d)
        assert basis.tobytes() == _gell_mann_by_loops(d).tobytes()
        assert not basis.flags.writeable
        assert first.setdefault(d, basis) is basis
    assert gell_mann_basis.cache_info().misses == len(set(sequence))


def test_gell_mann_type_rule_holds_on_a_cache_hit():
    # 2.0 == np.int64(2) == 2 hash alike: neither a cached table nor a cached layout
    # may answer a float, and a refused float leaves nothing behind for an integer
    reference = _gell_mann_by_loops(3).tobytes()
    gell_mann_basis(2)
    for d in (2.0, 3.0):
        with pytest.raises(ValidationError, match="must be an integer"):
            gell_mann_basis(d)
    assert gell_mann_basis(np.int64(3)).tobytes() == reference
    assert gell_mann_basis(3).tobytes() == reference


def test_gell_mann_basis_of_one_level_is_the_identity():
    # a one-level party has the single element {1} and no traceless part
    with pytest.raises(OutOfRangeError):
        gell_mann_basis(0)
    basis = gell_mann_basis(1)
    assert basis.dtype == np.complex128
    assert basis.tobytes() == np.array([[[1 + 0j]]]).tobytes()


# --- correlation matrix ---------------------------------------------------------


@pytest.mark.parametrize(
    "dim_a,dim_b,rank",
    [(1, 3, 2), (3, 1, 2), (2, 3, 4), (2, 8, 4)],
    ids=["1x3", "3x1", "2x3", "2x8"],
)
def test_gamma_matches_direct_traces(dim_a, dim_b, rank):
    state = random_state(dim_a, dim_b, rank=rank, seed=50)
    ba, bb = gell_mann_basis(dim_a), gell_mann_basis(dim_b)
    gamma = correlation_matrix(state)
    assert gamma.shape == (dim_a**2, dim_b**2) and gamma.dtype == np.float64
    s = state.sqrt()
    for i in range(dim_a**2):
        for j in range(dim_b**2):
            direct = np.trace(s @ np.kron(ba[i], bb[j]))
            assert abs(direct.imag) < 1e-10
            assert abs(gamma[i, j] - direct.real) < 1e-12


_DENSE_CASES = [
    (dim_a, dim_b, rank)
    for dim_a, dim_b in [(1, 4), (4, 1), (2, 16), (2, 32), (3, 5), (4, 3)]
    for rank in (1, 2, dim_a * dim_b)
]


@pytest.mark.parametrize(
    "dim_a,dim_b,rank", _DENSE_CASES, ids=[f"{a}x{b}-rank{r}" for a, b, r in _DENSE_CASES]
)
def test_gamma_matches_dense_contraction(dim_a, dim_b, rank):
    state = random_state(dim_a, dim_b, rank=rank, seed=55)
    ops_a, ops_b = gell_mann_basis(dim_a), gell_mann_basis(dim_b)
    s4 = state.sqrt().reshape(dim_a, dim_b, dim_a, dim_b)
    dense = np.einsum("abcd,ica,jdb->ij", s4, ops_a, ops_b, optimize=True)
    gamma = correlation_matrix(state)
    assert gamma.shape == dense.shape and gamma.dtype == np.float64
    assert np.max(np.abs(gamma - dense.real)) < 1e-13


@pytest.mark.parametrize(
    "dim_a,dim_b", [(1, 4), (2, 3), (2, 8), (3, 2), (3, 4)], ids=["1x4", "2x3", "2x8", "3x2", "3x4"]
)
def test_gamma_reads_only_the_nonzero_entries_of_b_basis(dim_a, dim_b, monkeypatch):
    state = random_state(dim_a, dim_b, rank=2, seed=56)
    expected = correlation_matrix(state)

    def poisoned(d):
        table = gell_mann_basis(d)
        if d != dim_b:
            return table
        table = table.copy()
        table[table == 0] = complex(np.nan, np.nan)
        return table

    monkeypatch.setattr(correlation, "gell_mann_basis", poisoned)
    assert np.isnan(correlation.gell_mann_basis(dim_b)).any()
    gamma = correlation_matrix(state)
    assert np.all(np.isfinite(gamma))
    assert np.array_equal(gamma, expected)


def _with_sqrt(state, sqrt):
    return SimpleNamespace(dim_a=state.dim_a, dim_b=state.dim_b, sqrt=lambda: sqrt)


@pytest.mark.parametrize("scale,raises", [(1e-8, True), (1e-13, False)])
def test_gamma_gate_refuses_an_anti_hermitian_sqrt(scale, raises):
    state = random_state(2, 3, rank=3, seed=57)
    skew = 1j * random_density(6, seed=58)
    sqrt = state.sqrt() + scale * skew
    if raises:
        with pytest.raises(ValidationError, match="imaginary residue"):
            correlation_matrix(_with_sqrt(state, sqrt))
    else:
        gamma = correlation_matrix(_with_sqrt(state, sqrt))
        assert np.max(np.abs(gamma - correlation_matrix(state))) < 1e-12


def test_gamma_reconstructs_sqrt():
    state = random_state(2, 2, rank=3, seed=51)
    basis = gell_mann_basis(2)
    rebuilt = np.einsum("ij,iab,jcd->acbd", correlation_matrix(state), basis, basis)
    rebuilt = rebuilt.reshape(4, 4)
    assert np.max(np.abs(rebuilt - state.sqrt())) < 1e-9


def test_gamma_bell_state():
    gamma = correlation_matrix(bell_state(0, 0).to_density())
    expected = np.diag([0.5, 0.5, -0.5, 0.5])
    assert np.max(np.abs(gamma - expected)) < 1e-12


def test_gamma_maximally_mixed():
    gamma = correlation_matrix(validate(np.eye(4) / 4.0, 2, 2))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.max(np.abs(gamma - expected)) < 1e-12


def test_gamma_product_pure_state_is_rank_one():
    a = random_density(2, rank=1, seed=52)
    b = random_density(3, rank=1, seed=53)
    sv = np.linalg.svd(correlation_matrix(product_state(a, b)), compute_uv=False)
    assert sv[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(sv[1:]) < 1e-10


@pytest.mark.parametrize("dims,rank", [((2, 2), 2), ((2, 3), 6), ((3, 3), 5)])
def test_gamma_parseval(dims, rank):
    state = random_state(*dims, rank=rank, seed=54)
    assert abs(np.sum(correlation_matrix(state) ** 2) - 1.0) < 1e-10


# --- lower bound -----------------------------------------------------------------


def test_lower_bound_bell_state():
    assert lower_bound(bell_state(0, 0).to_density()) == pytest.approx(0.5, abs=1e-12)


def test_lower_bound_product_state_is_zero():
    a = random_density(2, seed=57)
    b = random_density(3, seed=58)
    assert abs(lower_bound(product_state(a, b))) < 1e-10


def test_lower_bound_maximally_mixed_is_zero():
    # single nonzero expansion coefficient gamma_00 = 1, top eigenvalue sum 1
    assert abs(lower_bound(validate(np.eye(4) / 4.0, 2, 2))) < 1e-12


def test_lower_bound_never_exceeds_closed_form():
    for i in range(10):
        state = random_state(2, 3, rank=(i % 6) + 1, seed=600 + i)
        # at dim_a = 2 both numbers are the same Gamma expression, so compare the bound
        # with the closed form's basis evaluated on the K route instead
        basis = closed_form_2xn(state).optimal_measurement
        assert abs(affinity_discord_at(state, basis) - lower_bound(state)) < 1e-12


def _paper_bound(state):
    # the paper's bound, without the Gell-Mann basis: Gamma Gamma^t is the Gram
    # matrix of the realigned sqrt(rho), R[(a, b), (i, j)] = S[(a, i), (b, j)]
    m, n = state.dim_a, state.dim_b
    r = state.sqrt().reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    return 1.0 - float(np.sum(np.linalg.eigvalsh(r @ r.conj().T)[-m:]))


@settings(max_examples=40, deadline=None)
@given(dim_a=st.integers(2, 5), dim_b=st.integers(1, 3), data=st.data())
def test_lower_bound_between_paper_bound_and_functional(dim_a, dim_b, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rank = data.draw(st.integers(1, dim_a * dim_b), label="rank")
    state = random_state(dim_a, dim_b, rank=rank, seed=seed)
    bound = lower_bound(state)
    basis = MeasurementBasis(dim_a, linalg.haar_unitary(dim_a, seed).T)
    assert _paper_bound(state) - 1e-12 <= bound <= affinity_discord_at(state, basis) + 1e-12
    if dim_a == 2:
        assert bound == closed_form_2xn(state).value


# --- closed form -------------------------------------------------------------------


def test_closed_form_classical_quantum_is_zero():
    rng = np.random.default_rng(61)
    probs = rng.dirichlet(np.ones(2))
    blocks = [random_density(3, seed=62), random_density(3, seed=63)]
    state = classical_quantum(probs, blocks)
    assert abs(closed_form_2xn(state).value) < 1e-10


def test_closed_form_matches_werner_formula():
    for p in np.linspace(-1 / 3, 1, 9):
        expected, _ = werner_two_qubit_discords(p)
        got = closed_form_2xn(werner_two_qubit(p)).value
        assert abs(got - expected) < 1e-10


def test_closed_form_bell_state():
    result = closed_form_2xn(bell_state(0, 0).to_density())
    assert result.value == pytest.approx(0.5, abs=1e-12)
    assert result.method == "closed-2xn"
    attained = affinity_discord_at(bell_state(0, 0).to_density(), result.optimal_measurement)
    assert attained == pytest.approx(0.5, abs=1e-12)


def _closed_form_states():
    rng = np.random.default_rng(66)
    states = {}
    for dim_b in (1, 2, 3):
        # diagonal states: the optimal direction is a pole, +-z with signed zeros
        states[f"diag-2x{dim_b}"] = validate(np.diag(rng.dirichlet(np.ones(2 * dim_b))), 2, dim_b)
    for i in range(12):
        dim_b = 2 + i % 3
        rank = 1 + i % (2 * dim_b)
        states[f"random-2x{dim_b}-rank{rank}-{i}"] = random_state(2, dim_b, rank=rank, seed=rng)
    return states


_CLOSED_FORM_STATES = _closed_form_states()


@pytest.mark.parametrize("name", _CLOSED_FORM_STATES)
def test_closed_form_measurement_attains_its_value(name):
    state = _CLOSED_FORM_STATES[name]
    closed = closed_form_2xn(state)
    assert abs(affinity_discord_at(state, closed.optimal_measurement) - closed.value) < 1e-12


def test_closed_form_agrees_with_bell_diagonal_route():
    rng = np.random.default_rng(64)
    for _ in range(10):
        lams = rng.dirichlet(np.ones(4))
        c1 = lams[0] + lams[1] - lams[2] - lams[3]
        c2 = -lams[0] + lams[1] + lams[2] - lams[3]
        c3 = lams[0] - lams[1] + lams[2] - lams[3]
        from affinity_discord.states import bell_diagonal

        state = bell_diagonal(c1, c2, c3)
        assert abs(closed_form_2xn(state).value - bell_diagonal_discord(c1, c2, c3)) < 1e-10


def test_closed_form_wrong_dimension():
    with pytest.raises(WrongDimensionError):
        closed_form_2xn(random_state(3, 2, seed=65))


def test_closed_form_local_unitary_invariant():
    rng = np.random.default_rng(66)
    for i in range(5):
        state = random_state(2, 3, rank=(i % 6) + 1, seed=rng)
        u = linalg.haar_unitary(2, rng)
        v = linalg.haar_unitary(3, rng)
        big = np.kron(u, v)
        rotated = validate(big @ state.rho @ big.conj().T, 2, 3)
        # spectra of Z Z^t and |v| are invariant, hence the closed form is too
        assert abs(closed_form_2xn(state).value - closed_form_2xn(rotated).value) < 1e-9
        gamma_a = correlation_matrix(state)
        gamma_b = correlation_matrix(rotated)
        assert abs(np.linalg.norm(gamma_a[0]) - np.linalg.norm(gamma_b[0])) < 1e-9
        ea = np.linalg.eigvalsh(gamma_a[1:] @ gamma_a[1:].T)
        eb = np.linalg.eigvalsh(gamma_b[1:] @ gamma_b[1:].T)
        assert np.max(np.abs(ea - eb)) < 1e-9
