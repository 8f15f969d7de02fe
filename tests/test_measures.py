"""Tests for affinity, pinching, discord functionals, and the optimizers."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinity_discord import linalg, measures
from affinity_discord.correlation import closed_form_2xn, lower_bound
from affinity_discord.errors import (
    DimensionMismatchError,
    NotPSDError,
    NotUnitTraceError,
    OutOfRangeError,
    UnsupportedDimensionError,
    ValidationError,
)
from affinity_discord.families import (
    bell_diagonal_discord,
    isotropic_discords,
    sweep,
    werner_general_discords,
)
from affinity_discord.measures import (
    MeasurementBasis,
    affinity,
    affinity_discord_at,
    affinity_metric,
    hs_discord_at,
    optimize_affinity_discord,
    optimize_hs_discord,
    post_measurement,
    pure_discord,
    remedied_hs_discord,
)
from affinity_discord.states import (
    PureState,
    append_ancilla,
    bell_diagonal,
    bell_state,
    classical_quantum,
    isotropic,
    maximally_entangled,
    product_state,
    random_density,
    random_pure_state,
    random_state,
    validate,
    werner_general,
    werner_two_qubit,
)
from affinity_discord.verification import DEFAULT_CHECK_TOLERANCES


# --- measurement bases ---------------------------------------------------------


def _projectors(basis):
    """Stack of rank-1 projectors |v_k><v_k| from the basis kets, shape (dim, dim, dim)."""
    return np.einsum("ka,kb->kab", basis.vectors, basis.vectors.conj())


def test_basis_completeness_and_orthogonality():
    u = linalg.haar_unitary(3, seed=70)
    basis = MeasurementBasis(3, u.T)
    projs = _projectors(basis)
    assert np.max(np.abs(np.sum(projs, axis=0) - np.eye(3))) < 1e-10
    for k in range(3):
        for l in range(3):
            prod = projs[k] @ projs[l]
            expected = projs[k] if k == l else np.zeros((3, 3))
            assert np.max(np.abs(prod - expected)) < 1e-10
        assert np.trace(projs[k]) == pytest.approx(1.0, abs=1e-12)


_BASIS_ENTRIES = [post_measurement, affinity_discord_at, hs_discord_at]


@pytest.mark.parametrize("factor,raises", [(0.5, False), (0.9, False), (2.0, True)])
def test_basis_orthonormality_gate_sits_at_its_bound(factor, raises):
    # the Gram matrix of sqrt(1 + d) * 1 is off the identity by d; pinched with these
    # stretched kets as they are, the trace would reach 1 + 2d, past UNIT_TRACE
    basis = MeasurementBasis(2, np.eye(2) * np.sqrt(1.0 + factor * 1e-10))
    state = werner_two_qubit(0.5)
    for entry in _BASIS_ENTRIES:
        if raises:
            with pytest.raises(ValidationError, match="not orthonormal"):
                entry(state, basis)
        else:
            entry(state, basis)


@pytest.mark.parametrize("entry", _BASIS_ENTRIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "kets",
    [[[1, 0], [1, 0]], [[2, 0], [0, 1]], [[np.nan, 0], [0, 1]]],
    ids=["repeated", "diag(2,1)", "nan"],
)
def test_non_orthonormal_basis_is_refused(entry, kets):
    # unchecked, diag(2, 1) gives Werner(0.5) a discord of -6.69 and a pinched trace of 8.5
    with pytest.raises(ValidationError, match="not orthonormal"):
        entry(werner_two_qubit(0.5), MeasurementBasis(2, kets))


@pytest.mark.parametrize("entry", _BASIS_ENTRIES, ids=lambda f: f.__name__)
def test_basis_of_the_wrong_dimension_is_refused(entry):
    with pytest.raises(DimensionMismatchError):
        entry(werner_two_qubit(0.5), MeasurementBasis(3, np.eye(3)))


def _bloch_projector(n, sign):
    return (np.eye(2) + sign * sum(x * p for x, p in zip(n, linalg.PAULI))) / 2.0


def _assert_qubit_kets(n, tol=1e-15):
    # orthonormal rows, the +n ket first, each |k><k| the projector (1 +/- n.sigma)/2
    kets = measures._qubit_kets(np.asarray(n, dtype=float))
    assert kets.shape == (2, 2)
    assert np.max(np.abs(kets.conj() @ kets.T - np.eye(2))) < tol
    for ket, sign in zip(kets, (1.0, -1.0)):
        assert np.max(np.abs(np.outer(ket, ket.conj()) - _bloch_projector(n, sign))) < tol


def _bloch_basis(theta, phi):
    n = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    return MeasurementBasis(2, measures._qubit_kets(np.array(n)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).filter(
    lambda n: np.linalg.norm(n) > 1e-6))
def test_qubit_kets_project_onto_bloch_direction(n):
    # a general direction carries the 2x2 eigh's round-off: up to 7 eps over 3e6 random ones
    _assert_qubit_kets(np.asarray(n) / np.linalg.norm(n), tol=16 * np.finfo(float).eps)


def test_basis_from_bloch_vector_direction():
    r = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    basis = MeasurementBasis(2, measures._qubit_kets(r))
    n_dot_sigma = sum(ri * si for ri, si in zip(r, linalg.PAULI))
    assert np.max(np.abs(_projectors(basis)[0] - (np.eye(2) + n_dot_sigma) / 2.0)) < 1e-12
    assert np.max(np.abs(_projectors(basis)[1] - (np.eye(2) - n_dot_sigma) / 2.0)) < 1e-12


def _angle_route_projectors(n):
    # (cos t/2, e^{ip} sin t/2) and (sin t/2, -e^{ip} cos t/2), t read by arctan2
    u = np.asarray(n, dtype=float) / np.linalg.norm(n)
    theta, phi = np.arctan2(np.hypot(u[0], u[1]), u[2]), np.arctan2(u[1], u[0])
    c, s, e = np.cos(theta / 2.0), np.sin(theta / 2.0), np.exp(1j * phi)
    kets = np.array([[c, e * s], [s, -e * c]])
    return np.einsum("ki,kj->kij", kets, kets.conj())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).filter(
    lambda n: np.linalg.norm(n) > 1e-6))
def test_bloch_vector_kets_match_angle_route(n):
    # eigh fixes each ket only up to a phase, so the two routes meet on the projectors
    u = np.asarray(n) / np.linalg.norm(n)
    basis = MeasurementBasis(2, measures._qubit_kets(u))
    got = np.max(np.abs(_projectors(basis) - _angle_route_projectors(n)))
    assert got < 16 * np.finfo(float).eps


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_qubit_kets_on_signed_axis_poles(sign, axis, zero):
    n = np.full(3, zero)
    n[axis] = sign
    _assert_qubit_kets(n)


@pytest.mark.parametrize(
    "x,y", [(5e-324, 5e-324), (-5e-324, 0.0), (0.0, -5e-324), (1e-310, -3e-310)]
)
@pytest.mark.parametrize("z", [1.0, -1.0])
def test_qubit_kets_with_subnormal_xy(x, y, z):
    _assert_qubit_kets([x, y, z])


def _assert_phase_rule(vectors):
    # each ket's first component above 1/(2 sqrt(m)) in magnitude is real and positive
    m = len(vectors)
    for ket in vectors:
        lead = next(c for c in ket if abs(c) > 0.5 / np.sqrt(m))
        assert lead.imag == 0.0 and lead.real > 0.0, ket


@pytest.mark.parametrize("seed", range(4))
def test_reported_bases_follow_the_phase_rule(seed):
    for res in (
        pure_discord(random_pure_state(3, 4, seed=seed)),
        closed_form_2xn(random_state(2, 3, rank=seed + 1, seed=seed)),
        optimize_affinity_discord(random_state(3, 2, seed=seed), budget=2000),
    ):
        _assert_phase_rule(res.optimal_measurement.vectors)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).filter(
        lambda n: np.linalg.norm(n) > 1e-6),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_qubit_kets_survive_round_off_in_the_direction(n, nudge):
    # eigh's phase jumps under a 1e-16 change of n; the basis's phase rule does not
    n = np.asarray(n) / np.linalg.norm(n)
    kets = MeasurementBasis(2, measures._qubit_kets(n)).vectors
    nudged = MeasurementBasis(2, measures._qubit_kets(n + 1e-16 * np.asarray(nudge))).vectors
    assert np.max(np.abs(kets - nudged)) < 1e-12


# --- affinity -------------------------------------------------------------------


def test_affinity_identical_states():
    rho = random_density(4, seed=72)
    assert affinity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_affinity_orthogonal_supports():
    assert affinity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_affinity_mixed_vs_pure_value():
    got = affinity(np.eye(2) / 2.0, np.diag([1.0, 0.0]))
    assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_affinity_symmetric():
    a = random_density(4, seed=73)
    b = random_density(4, seed=74)
    assert abs(affinity(a, b) - affinity(b, a)) < 1e-12


def test_affinity_multiplicative_on_products():
    a1, s1 = random_density(2, seed=75), random_density(2, seed=76)
    a2, s2 = random_density(3, seed=77), random_density(3, seed=78)
    lhs = affinity(np.kron(a1, a2), np.kron(s1, s2))
    rhs = affinity(a1, s1) * affinity(a2, s2)
    assert abs(lhs - rhs) < 1e-10


def test_affinity_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        affinity(np.eye(2) / 2.0, np.eye(3) / 3.0)


@pytest.mark.parametrize(
    "raw,error",
    [
        (2.0 * np.eye(2), NotUnitTraceError),  # read 1.0 when only the square root was gated
        (np.diag([1.5, -0.5]), NotPSDError),
        (np.full((2, 2), np.nan), ValidationError),
    ],
    ids=["trace2", "indefinite", "nan"],
)
def test_affinity_gates_a_raw_matrix_as_a_density(raw, error):
    with pytest.raises(error):
        affinity(raw, np.diag([1.0, 0.0]))
    with pytest.raises(error):
        affinity(np.eye(2) / 2.0, raw)


def test_affinity_metric_values():
    rho = random_density(3, seed=79)
    assert affinity_metric(rho, rho) == pytest.approx(0.0, abs=1e-6)
    assert affinity_metric(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)
    got = affinity_metric(np.eye(2) / 2.0, np.diag([1.0, 0.0]))
    assert got == pytest.approx(np.sqrt(1.0 - 1.0 / np.sqrt(2.0)), abs=1e-12)


# --- pinching --------------------------------------------------------------------


def test_post_measurement_keeps_classical_quantum_fixed():
    state = classical_quantum(
        [0.3, 0.7], [random_density(2, seed=80), random_density(2, seed=81)]
    )
    out = post_measurement(state, MeasurementBasis(2, np.eye(2)))
    assert np.max(np.abs(out.rho - state.rho)) < 1e-12


def test_post_measurement_bell_state():
    out = post_measurement(bell_state(0, 0).to_density(), MeasurementBasis(2, np.eye(2)))
    assert np.max(np.abs(out.rho - np.diag([0.5, 0.0, 0.0, 0.5]))) < 1e-12


def test_post_measurement_output_is_a_checked_state():
    state = random_state(2, 3, seed=83)
    out = post_measurement(state, _bloch_basis(0.4, 1.3))
    w, v = out.eigh
    assert not w.flags.writeable and not v.flags.writeable
    assert out.sqrt().tobytes() == linalg.matrix_sqrt_psd(np.array(out.rho)).tobytes()


def test_post_measurement_trace_preserving_and_idempotent():
    state = random_state(2, 3, seed=82)
    basis = _bloch_basis(0.7, 2.1)
    once = post_measurement(state, basis)
    twice = post_measurement(once, basis)
    assert abs(np.trace(once.rho) - 1.0) < 1e-12
    assert np.max(np.abs(twice.rho - once.rho)) < 1e-12


# --- per-basis functionals ---------------------------------------------------------


def test_discord_at_product_state_marginal_basis_is_zero():
    a = random_density(2, seed=83)
    state = product_state(a, random_density(3, seed=84))
    _, u = np.linalg.eigh(a)
    basis = MeasurementBasis(2, u.T)
    assert abs(affinity_discord_at(state, basis)) < 1e-12


def test_discord_at_bell_state_computational():
    state = bell_state(0, 0).to_density()
    assert affinity_discord_at(state, MeasurementBasis(2, np.eye(2))) == pytest.approx(
        0.5, abs=1e-12
    )


def test_discord_at_maximally_mixed_any_basis():
    state = validate(np.eye(4) / 4.0, 2, 2)
    for seed in (85, 86):
        basis = MeasurementBasis(2, linalg.haar_unitary(2, seed).T)
        assert abs(affinity_discord_at(state, basis)) < 1e-12


def test_discord_at_equals_sqrt_pinching_distance():
    # identity check: the functional is the squared HS distance of sqrt(rho)
    # to its pinched image
    rng = np.random.default_rng(87)
    for _ in range(5):
        state = random_state(2, 3, rank=int(rng.integers(1, 7)), seed=rng)
        basis = _bloch_basis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        s = state.sqrt()
        pinched = np.zeros_like(s)
        for proj in _projectors(basis):
            big = np.kron(proj, np.eye(3))
            pinched += big @ s @ big
        direct = linalg.frobenius_norm_sq(s - pinched)
        assert abs(affinity_discord_at(state, basis) - direct) < 1e-12


def test_hs_discord_at_matches_direct_distance():
    rng = np.random.default_rng(88)
    state = random_state(2, 2, rank=3, seed=rng)
    basis = _bloch_basis(1.0, 0.3)
    direct = linalg.frobenius_norm_sq(
        state.rho - post_measurement(state, basis).rho
    )
    assert abs(hs_discord_at(state, basis) - direct) < 1e-12


@settings(max_examples=60, deadline=None)
@given(dim_a=st.integers(1, 4), dim_b=st.integers(1, 5), data=st.data())
def test_functionals_equal_explicit_pinching_distances(dim_a, dim_b, data):
    # the overlap kernel route against sum_k (Pi_k x 1) X (Pi_k x 1), written out
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rank = data.draw(st.integers(1, dim_a * dim_b), label="rank")
    state = random_state(dim_a, dim_b, rank=rank, seed=seed)
    basis = MeasurementBasis(dim_a, linalg.haar_unitary(dim_a, seed).T)
    eye_b = np.eye(dim_b)

    def pinching_distance(x):
        pinched = np.zeros_like(x)
        for proj in _projectors(basis):
            big = np.kron(proj, eye_b)
            pinched += big @ x @ big
        return float(np.sum(np.abs(x - pinched) ** 2))

    assert abs(affinity_discord_at(state, basis) - pinching_distance(state.sqrt())) < 1e-12
    assert abs(hs_discord_at(state, basis) - pinching_distance(np.asarray(state.rho))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(dim_b=st.integers(1, 6), data=st.data())
def test_qubit_overlap_is_the_bloch_form(dim_b, data):
    # sum_+- vec(P_+-)^dagger K vec(P_+-) = (c0 + n^T G n) / 2 for P_+- = (1 +/- n.sigma) / 2,
    # on a two-level A and on a random orthonormal pair inside a larger A
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rank = data.draw(st.integers(1, 2 * dim_b), label="rank")
    dim_a = data.draw(st.integers(3, 5), label="dim_a")
    state = random_state(2, dim_b, rank=rank, seed=seed)
    basis = MeasurementBasis(2, linalg.haar_unitary(2, seed).T)
    n = np.array([np.real(np.trace(_projectors(basis)[0] @ p)) for p in linalg.PAULI])
    cases = [
        (measures._overlap_kernel(s, 2, dim_b), np.eye(2))
        for s in (state.sqrt(), np.asarray(state.rho))
    ]
    large = random_state(dim_a, dim_b, rank=rank, seed=seed)
    pair = linalg.haar_unitary(dim_a, seed)[:2]
    cases.append((measures._overlap_kernel(large.sqrt(), dim_a, dim_b), pair))
    for k, kets in cases:
        (c0,), (g,) = measures._pair_forms(k, kets[None])
        got = measures._overlap(k, basis.vectors @ kets)
        assert abs((c0 + n @ g @ n) / 2.0 - got) < 1e-12


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_ignores_an_ancilla_on_b(dims, seed):
    # K(S x sqrt(sigma)) = K(S) and K(rho x sigma) = Tr(sigma^2) K(rho) for sigma on C, B' = B x C
    dim_a, dim_b, dim_c = dims
    state = random_state(dim_a, dim_b, seed=seed)
    rho = np.asarray(state.rho)
    sigma = random_density(dim_c, seed=seed + 1)
    enlarged = dim_b * dim_c
    k_sqrt = measures._overlap_kernel(state.sqrt(), dim_a, dim_b)
    s_sigma = np.kron(state.sqrt(), linalg.matrix_sqrt_psd(sigma))
    got = measures._overlap_kernel(s_sigma, dim_a, enlarged)
    assert np.max(np.abs(got - k_sqrt)) < 1e-12
    k_rho = measures._overlap_kernel(rho, dim_a, dim_b)
    got = measures._overlap_kernel(np.kron(rho, sigma), dim_a, enlarged)
    assert np.max(np.abs(got - linalg.frobenius_norm_sq(sigma) * k_rho)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4)), seed=st.integers(0, 2**32 - 1))
def test_kernel_under_local_unitaries(dims, seed):
    # U on A maps K to (U x conj U) K (U x conj U)^dagger; a unitary on B leaves K as it is
    dim_a, dim_b = dims
    s = random_state(dim_a, dim_b, seed=seed).sqrt()
    k = measures._overlap_kernel(s, dim_a, dim_b)
    ua = linalg.haar_unitary(dim_a, seed)
    u, uu = np.kron(ua, np.eye(dim_b)), np.kron(ua, ua.conj())
    got = measures._overlap_kernel(u @ s @ u.conj().T, dim_a, dim_b)
    assert np.max(np.abs(got - uu @ k @ uu.conj().T)) < 1e-12
    v = np.kron(np.eye(dim_a), linalg.haar_unitary(dim_b, seed + 1))
    got = measures._overlap_kernel(v @ s @ v.conj().T, dim_a, dim_b)
    assert np.max(np.abs(got - k)) < 1e-12


def _hs_closed_2xn(state):
    # Luo-Fu: with B_i = Tr_A[(sigma_i x 1) rho], D = (sum_i |B_i|^2 - lambda_max(M)) / 2,
    # M_ij = Re Tr(B_i^dagger B_j)
    blocks = np.asarray(state.rho).reshape(2, state.dim_b, 2, state.dim_b)
    b = np.array([np.einsum("ba,aibj->ij", p, blocks) for p in linalg.PAULI]).reshape(3, -1)
    gram = np.real(b.conj() @ b.T)
    return (np.trace(gram) - np.linalg.eigvalsh(gram)[-1]) / 2.0


@settings(max_examples=20, deadline=None)
@given(dim_b=st.integers(2, 6), data=st.data())
def test_oracle_optimum_matches_2xn_closed_forms(dim_b, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rank = data.draw(st.integers(1, 2 * dim_b), label="rank")
    state = random_state(2, dim_b, rank=rank, seed=seed)
    closed = closed_form_2xn(state).value
    cases = [
        (optimize_affinity_discord, state.sqrt(), 1.0, closed),
        (remedied_hs_discord, state.sqrt(), 1.0, closed),
        (optimize_hs_discord, np.asarray(state.rho), state.purity(), _hs_closed_2xn(state)),
    ]
    for optimizer, s, offset, exact in cases:
        value = offset - measures._two_level_oracle(measures._overlap_kernel(s, 2, dim_b))
        assert exact - 1e-12 <= value <= exact + 1e-9, optimizer.__name__
        # one pair, so one Jacobi step reaches the optimum
        res = optimizer(state)
        assert abs(res.value - exact) <= 1e-12, optimizer.__name__
        assert res.method == "optimized-local"
        assert res.evaluations <= 2


_ORACLE_CASES = {
    # G's top two eigenvalues are 0.0019 apart, so a search over Bloch vectors can
    # stall along the flat direction (one stopped 7.7e-8 short of the closed form here)
    "flat-22670": lambda: random_state(2, 4, rank=5, seed=22670),
    "werner-triple": lambda: werner_two_qubit(0.5),  # G = c 1, a triple top
    "belldiag-double": lambda: bell_diagonal(0.3, 0.3, 0.1),  # a double top
    "mixed-zero": lambda: product_state(np.eye(2) / 2, np.eye(3) / 3),  # G = 0
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_oracle_follows_a_flat_direction_of_g(case):
    state = _ORACLE_CASES[case]()
    k = measures._overlap_kernel(state.sqrt(), 2, state.dim_b)
    value = 1.0 - measures._two_level_oracle(k)
    exact = closed_form_2xn(state).value
    assert exact - 1e-12 <= value <= exact + 1e-9


def test_oracle_runs_without_an_eigensolver(monkeypatch):
    # the oracle checks the closed form, whose value is an eigenvalue, so it must not
    # call an eigensolver or an SVD
    state = random_state(2, 3, seed=5)
    k = measures._overlap_kernel(state.sqrt(), 2, 3)
    exact = closed_form_2xn(state).value

    for name in ("eigh", "eigvalsh", "eig", "svd"):

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called")

        monkeypatch.setattr(np.linalg, name, refuse)
    value = 1.0 - measures._two_level_oracle(k)
    assert exact - 1e-12 <= value <= exact + 1e-9


def test_literal_affinity_reading_differs_from_functional():
    # The affinity to the pinched state is not the optimized functional:
    # for the Bell state in the computational basis they are 1 - 1/sqrt(2)
    # versus 1/2. Both vanish together on zero-discord states.
    state = bell_state(0, 0).to_density()
    basis = MeasurementBasis(2, np.eye(2))
    literal = 1.0 - affinity(state, post_measurement(state, basis))
    assert literal == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-10)
    assert affinity_discord_at(state, basis) == pytest.approx(0.5, abs=1e-12)

    cq = classical_quantum([0.4, 0.6], [random_density(2, seed=89), random_density(2, seed=90)])
    comp = MeasurementBasis(2, np.eye(2))
    assert abs(1.0 - affinity(cq, post_measurement(cq, comp))) < 1e-7
    assert abs(affinity_discord_at(cq, comp)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(dim_a=st.integers(1, 3), dim_b=st.integers(1, 3), data=st.data())
def test_literal_affinity_form_never_exceeds_the_functional(dim_a, dim_b, data):
    # Pi is unital and sqrt operator concave, so Pi(sqrt(rho)) <= sqrt(Pi(rho)) (operator
    # Jensen) and 1 - A(rho, Pi(rho)) <= 1 - Tr(sqrt(rho) Pi(sqrt(rho))) at every basis
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rank = data.draw(st.integers(1, dim_a * dim_b), label="rank")
    state = random_state(dim_a, dim_b, rank=rank, seed=seed)
    basis = MeasurementBasis(dim_a, linalg.haar_unitary(dim_a, seed=seed).T)
    literal = 1.0 - affinity(state, post_measurement(state, basis))
    assert literal <= affinity_discord_at(state, basis) + 1e-12


@settings(max_examples=40, deadline=None)
@given(dim_a=st.integers(1, 3), dim_b=st.integers(1, 3), data=st.data())
def test_literal_affinity_form_equals_the_functional_on_classical_quantum_states(dim_a, dim_b, data):
    # rotated by U on A, a classical-quantum state is fixed by the pinching in U's
    # columns, where both forms vanish
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    blocks = [random_density(dim_b, rank=int(rng.integers(1, dim_b + 1)), seed=rng) for _ in range(dim_a)]
    cq = np.asarray(classical_quantum(rng.dirichlet(np.ones(dim_a)), blocks).rho)
    u = linalg.haar_unitary(dim_a, seed=rng)
    big = np.kron(u, np.eye(dim_b))
    state = validate(big @ cq @ big.conj().T, dim_a, dim_b)
    basis = MeasurementBasis(dim_a, u.T)
    literal = 1.0 - affinity(state, post_measurement(state, basis))
    functional = affinity_discord_at(state, basis)
    assert abs(literal - functional) <= 1e-12
    assert abs(functional) <= 1e-12


def test_literal_affinity_form_on_a_pure_state_at_its_schmidt_basis():
    # A(psi, Pi(psi)) = sum_k p_k^(3/2) for the Schmidt weights p_k, where the functional
    # reads 1 - sum_k p_k^2
    psi = random_pure_state(3, 3, seed=5)
    u, sv, _ = np.linalg.svd(psi.amplitudes.reshape(3, 3))
    p = sv**2
    state, basis = psi.to_density(), MeasurementBasis(3, u.T)
    literal = 1.0 - affinity(state, post_measurement(state, basis))
    assert abs(literal - (1.0 - np.sum(p**1.5))) <= 1e-12
    assert abs(affinity_discord_at(state, basis) - (1.0 - np.sum(p**2))) <= 1e-12
    assert literal < affinity_discord_at(state, basis)


# --- pure-state closed form -----------------------------------------------------


def test_pure_discord_product_is_zero():
    psi = PureState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert pure_discord(psi).value == pytest.approx(0.0, abs=1e-12)


def test_pure_discord_maximally_entangled():
    res = pure_discord(maximally_entangled(2))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.method == "closed-pure"


def test_pure_discord_unbalanced():
    psi = PureState(2, 2, np.array([np.sqrt(3.0), 0.0, 0.0, 1.0]) / 2.0)
    assert pure_discord(psi).value == pytest.approx(3.0 / 8.0, abs=1e-12)


def test_pure_discord_bounded_by_dimension():
    for seed in range(5):
        psi = random_pure_state(3, 3, seed=seed)
        res = pure_discord(psi)
        assert -1e-8 <= res.value <= 2.0 / 3.0 + 1e-8
        # the Schmidt basis passes the orthonormality gate and attains the value
        attained = affinity_discord_at(psi.to_density(), res.optimal_measurement)
        assert attained == pytest.approx(res.value, abs=1e-12)


# --- optimizers -------------------------------------------------------------------


def test_optimize_affinity_werner_endpoint():
    res = optimize_affinity_discord(werner_two_qubit(1.0))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.method == "optimized-local"
    assert res.evaluations > 0
    assert affinity_discord_at(werner_two_qubit(1.0), res.optimal_measurement) == pytest.approx(
        res.value, abs=1e-12
    )


def test_optimize_affinity_matches_bell_diagonal_formula():
    state = bell_diagonal(0.3, -0.2, 0.5)
    expected = bell_diagonal_discord(0.3, -0.2, 0.5)
    res = optimize_affinity_discord(state)
    assert res.value == pytest.approx(expected, abs=1e-5)


def test_optimize_affinity_classical_quantum_is_zero():
    state = classical_quantum(
        [0.25, 0.75], [random_density(2, seed=91), random_density(2, seed=92)]
    )
    assert optimize_affinity_discord(state).value < 1e-6


def test_optimize_affinity_deterministic():
    state = random_state(2, 2, rank=4, seed=93)
    a = optimize_affinity_discord(state)
    b = optimize_affinity_discord(state)
    assert a.value == b.value
    assert np.array_equal(a.optimal_measurement.vectors, b.optimal_measurement.vectors)


def test_optimize_affinity_budget_monotone():
    state = random_state(2, 2, rank=3, seed=94)
    small = optimize_affinity_discord(state, budget=2000).value
    large = optimize_affinity_discord(state).value
    assert small >= large - 1e-7


def test_optimize_affinity_multistart_pure_three_level():
    psi = random_pure_state(3, 3, seed=95)
    expected = pure_discord(psi).value
    res = optimize_affinity_discord(psi.to_density(), budget=4800)
    assert res.method == "optimized-local"
    assert res.value == pytest.approx(expected, abs=1e-6)


def test_optimize_multistart_strategy_on_qubit():
    state = werner_two_qubit(0.8)
    expected = closed_form_2xn(state).value
    res = optimize_affinity_discord(state, budget=3000)
    assert res.value == pytest.approx(expected, abs=1e-5)


def _rotated_uniform_cq(m, seed):
    rng = np.random.default_rng(seed)
    state = classical_quantum(np.full(m, 1.0 / m), [random_density(2, seed=rng) for _ in range(m)])
    big = np.kron(linalg.haar_unitary(m, rng), linalg.haar_unitary(2, rng))
    return validate(big @ state.rho @ big.conj().T, m, 2)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_local_route_finds_zero_on_rotated_uniform_cq(m):
    # uniform weights make the marginal I/m, so its eigenbasis does not seed the optimum
    state = _rotated_uniform_cq(m, seed=200 + m)
    for optimizer in (optimize_affinity_discord, optimize_hs_discord):
        res = optimizer(state)
        assert res.method == "optimized-local"
        assert res.parameters is None
        assert abs(res.value) < DEFAULT_CHECK_TOLERANCES["zero_discord"], optimizer.__name__


def _random_starts(rng, m, count, first):
    """``first`` (kets in rows), then the eigenbases of ``count`` random Hermitian matrices."""
    z = rng.standard_normal((2, count, m, m))
    g = z[0] + 1j * z[1]
    bases = np.linalg.eigh(g + g.conj().swapaxes(1, 2))[1].swapaxes(1, 2)
    return np.concatenate([np.asarray(first, dtype=complex)[None], bases])


@pytest.mark.parametrize("rank", [None, 2], ids=["full", "rank2"])
@pytest.mark.parametrize("dim_b", [2, 3])
@pytest.mark.parametrize("m", range(3, 9))
def test_spectral_starts_reach_the_best_of_64_random_starts(m, dim_b, rank):
    # the marginal start plus 63 random bases, run to convergence, is the reference
    state = random_state(m, dim_b, rank=rank, seed=300 + 10 * m + dim_b)
    marginal = np.linalg.eigh(state.marginal("a"))[1].T
    starts = _random_starts(np.random.default_rng(m * dim_b), m, 63, marginal)
    for optimizer, s, offset in (
        (optimize_affinity_discord, state.sqrt(), 1.0),
        (optimize_hs_discord, np.asarray(state.rho), state.purity()),
    ):
        k = measures._overlap_kernel(s, m, dim_b)
        best, _, _ = measures._maximize(k, starts, measures.BUDGET_DEFAULT)
        assert offset - optimizer(state).value >= best - 1e-9, optimizer.__name__


def _rotated_cq(m, dim_b, seed):
    # distinct weights give a marginal whose eigenbasis is the optimum; the starts
    # must reach it from K alone
    rng = np.random.default_rng(seed)
    blocks = [random_density(dim_b, seed=rng) for _ in range(m)]
    state = classical_quantum(rng.dirichlet(np.ones(m)), blocks)
    big = np.kron(linalg.haar_unitary(m, rng), np.eye(dim_b))
    return validate(big @ state.rho @ big.conj().T, m, dim_b)


@pytest.mark.parametrize("dim_b", [2, 3])
@pytest.mark.parametrize("m", range(3, 9))
def test_starts_reach_zero_on_rotated_cq_with_distinct_weights(m, dim_b):
    state = _rotated_cq(m, dim_b, seed=400 + 10 * m + dim_b)
    for optimizer in (optimize_affinity_discord, optimize_hs_discord):
        value = optimizer(state).value
        assert abs(value) <= DEFAULT_CHECK_TOLERANCES["family_zero"], optimizer.__name__


@pytest.mark.parametrize("dim_b", [2, 3])
@pytest.mark.parametrize("m", range(3, 9))
def test_starts_reach_the_pure_formula(m, dim_b):
    psi = random_pure_state(m, dim_b, seed=500 + 10 * m + dim_b)
    value = optimize_affinity_discord(psi.to_density()).value
    assert abs(value - pure_discord(psi).value) <= 1e-12


def _degenerate_cases():
    # Werner and isotropic states commute with U x conj(U) or U x U, so Q K Q has
    # repeated eigenvalues; x = 1/m and 1/m^2 are their zero-discord points
    for m in (3, 4, 6):
        for x in (-1.0, 0.0, 1.0 / m, 0.6, 1.0):
            expected = werner_general_discords(m, x)
            yield pytest.param(werner_general(m, x), expected, id=f"werner{m}-{x:.3g}")
        for x in (0.0, 1.0 / m**2, 0.5, 1.0):
            expected = isotropic_discords(m, x)
            yield pytest.param(isotropic(m, x), expected, id=f"isotropic{m}-{x:.3g}")
    yield pytest.param(validate(np.eye(9) / 9.0, 3, 3), (0.0, 0.0), id="mixed3x3")
    product = product_state(random_density(3, seed=104), random_density(2, seed=105))
    yield pytest.param(product, (0.0, 0.0), id="product3x2")


@pytest.mark.parametrize("state, expected", _degenerate_cases())
def test_degenerate_spectra_reach_the_family_values(state, expected):
    zero = DEFAULT_CHECK_TOLERANCES["family_zero"]
    for optimizer, value in zip((optimize_affinity_discord, optimize_hs_discord), expected):
        res = optimizer(state)
        measures._require_basis(state, res.optimal_measurement)
        assert abs(res.value - value) <= zero, optimizer.__name__


@pytest.mark.parametrize("m", [4, 6, 8])
def test_multistart_matches_pure_formula(m):
    # the marginal eigenbasis of a pure m x 2 state is its Schmidt basis, already the
    # optimum; starting from the computational basis and 63 random ones makes the
    # search do the work
    psi = random_pure_state(m, 2, seed=210 + m)
    k = measures._overlap_kernel(psi.to_density().sqrt(), m, 2)
    starts = _random_starts(np.random.default_rng(m), m, 63, np.eye(m))
    best, _, _ = measures._maximize(k, starts, measures.BUDGET_DEFAULT)
    expected = pure_discord(psi).value
    assert abs(1.0 - best - expected) < DEFAULT_CHECK_TOLERANCES["pure_optimized"]


@pytest.fixture(scope="module")
def optimum_8x3():
    state = random_state(8, 3, seed=0)
    return state, optimize_affinity_discord(state)


def test_default_optimum_at_m8_is_converged(optimum_8x3):
    # the converged optimum is 0.1777489607; starts cut off after 300 pair steps read 0.17776
    _, res = optimum_8x3
    assert res.value < 0.17775
    assert res.evaluations <= measures.BUDGET_DEFAULT


def test_default_optimum_at_m8_takes_few_pair_steps(optimum_8x3):
    # the best of the marginal start and 63 random bases reads 0.177748960635 after
    # 189,532 pair steps; the 8 deterministic starts reach it in far fewer
    _, res = optimum_8x3
    assert abs(res.value - 0.177748960635) <= 1e-9
    assert res.evaluations <= 30_000


def _einsum_bloch_form(k, kets):
    # (c0, G) for one orthonormal pair, from the pair's Pauli operators O_s
    paulis = np.stack([np.eye(2), *linalg.PAULI])
    ops = np.einsum("spq,pa,qb->sab", paulis, kets, kets.conj()).reshape(4, -1)
    form = np.real(ops.conj() @ k @ ops.T)
    return form[0, 0], form[1:, 1:]


def test_default_optimum_at_m8_is_pairwise_stationary(optimum_8x3):
    # no pair of kets can gain more than 1e-9 by its own exact rotation
    state, res = optimum_8x3
    k = measures._overlap_kernel(state.sqrt(), 8, 3)
    vectors = res.optimal_measurement.vectors
    worst = 0.0
    for i in range(8):
        for j in range(i + 1, 8):
            _, g = _einsum_bloch_form(k, vectors[[i, j]])
            worst = max(worst, (np.linalg.eigvalsh(g)[-1] - g[2, 2]) / 2.0)
    assert worst <= 1e-9


@pytest.mark.parametrize("budget", [1, 63, 64, 100, 1000])
def test_budget_caps_the_pair_steps_of_all_starts(budget):
    state = random_state(5, 2, seed=98)
    unbounded = optimize_affinity_discord(state)
    res = optimize_affinity_discord(state, budget=budget)
    assert res.evaluations == min(budget, unbounded.evaluations)
    again = optimize_affinity_discord(state, budget=budget)
    assert again.value == res.value
    assert res.value >= unbounded.value - 1e-12


def test_optimize_rejects_large_dimension():
    state = validate(np.eye(9) / 9.0, 9, 1)
    with pytest.raises(UnsupportedDimensionError):
        optimize_affinity_discord(state)


@settings(max_examples=8, deadline=None)
@given(dim_a=st.integers(4, 6), dim_b=st.integers(1, 3), data=st.data())
def test_spectral_bound_and_one_bracket_the_optimized_value(dim_a, dim_b, data):
    # m >= 4 runs the search from m starts; the bound needs no optimizer
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rank = data.draw(st.integers(1, dim_a * dim_b), label="rank")
    _assert_bracketed(random_state(dim_a, dim_b, rank=rank, seed=seed))


@pytest.mark.parametrize("dim_a, seed", [(7, 1), (8, 0)])
def test_spectral_bound_and_one_bracket_the_optimized_value_at_m7_and_m8(dim_a, seed):
    # the top of the claimed range
    _assert_bracketed(random_state(dim_a, 2, seed=seed))


def _assert_bracketed(state):
    slack = DEFAULT_CHECK_TOLERANCES["bound_slack"]
    value = optimize_affinity_discord(state).value
    assert lower_bound(state) <= value + slack
    assert value <= 1.0 + slack


@pytest.mark.parametrize("budget", [0, -5])
def test_optimize_rejects_budget_below_one(budget):
    state = random_state(4, 2, seed=97)
    for optimizer in (optimize_affinity_discord, optimize_hs_discord, remedied_hs_discord):
        with pytest.raises(OutOfRangeError):
            optimizer(state, budget=budget)


@pytest.mark.parametrize(
    "budget", [True, 2.5, np.float64(3.0)], ids=["bool", "float", "np.float64"]
)
def test_optimize_and_sweep_refuse_a_budget_of_another_type(budget):
    # unchecked, a bool would run one step and a numpy float fail in numpy's slicing
    state = random_state(4, 2, seed=97)
    optimizers = (optimize_affinity_discord, optimize_hs_discord, remedied_hs_discord)
    runs = [functools.partial(opt, state, budget=budget) for opt in optimizers]
    runs.append(functools.partial(sweep, "werner", [0.5], dim=3, budget=budget))
    for run in runs:
        with pytest.raises(ValidationError, match="budget must be") as excinfo:
            run()
        assert excinfo.type is ValidationError


@pytest.mark.parametrize(
    "seed",
    [None, 1.5, np.float64(2.0), "a", [1, 2], True, np.bool_(True)],
    ids=["None", "float", "np.float64", "str", "list", "bool", "np.bool_"],
)
@pytest.mark.parametrize("dim_a", [2, 3])
def test_optimize_and_sweep_refuse_a_seed_of_another_type(dim_a, seed):
    # the optimizers take no seed; sweep still checks the one it takes, at every dim_a
    with pytest.raises(ValidationError, match="seed must be") as excinfo:
        sweep("werner", [0.5], dim=dim_a, seed=seed)
    assert excinfo.type is ValidationError


def test_one_level_a_takes_the_local_route():
    # a one-level A has no pair to rotate: the single basis {1}, reached in 0 steps
    state = random_state(1, 3, seed=96)
    for optimizer in (optimize_affinity_discord, optimize_hs_discord, remedied_hs_discord):
        res = optimizer(state)
        assert res.method == "optimized-local", optimizer.__name__
        assert res.evaluations == 0
        assert abs(res.value) < 1e-12


def test_optimize_hs_werner_values():
    for p in (0.3, 0.8):
        res = optimize_hs_discord(werner_two_qubit(p))
        assert res.value == pytest.approx(p * p / 2.0, abs=1e-5)


def test_optimize_hs_equals_affinity_for_pure_states():
    psi = random_pure_state(2, 3, seed=96)
    state = psi.to_density()
    hs = optimize_hs_discord(state).value
    aff = optimize_affinity_discord(state).value
    assert abs(hs - aff) < 1e-5
    assert abs(aff - pure_discord(psi).value) < 1e-5


def test_optimize_hs_product_is_zero():
    state = product_state(random_density(2, seed=97), random_density(2, seed=98))
    assert optimize_hs_discord(state).value < 1e-8


def test_remedied_equals_affinity_optimum():
    state = random_state(2, 2, rank=4, seed=99)
    rem = remedied_hs_discord(state)
    aff = optimize_affinity_discord(state)
    assert rem.value == pytest.approx(aff.value, abs=1e-12)


def test_remedied_pure_state_matches_hs():
    psi = random_pure_state(2, 2, seed=100)
    state = psi.to_density()
    rem = remedied_hs_discord(state).value
    hs = optimize_hs_discord(state).value
    assert abs(rem - hs) < 1e-6


def test_remedied_invariant_under_ancilla():
    state = random_state(2, 2, rank=2, seed=101)
    enlarged = append_ancilla(state, np.eye(2) / 2.0)
    before = remedied_hs_discord(state).value
    after = remedied_hs_discord(enlarged).value
    assert abs(before - after) < 1e-6


def test_discord_values_within_bounds():
    rng = np.random.default_rng(102)
    for _ in range(8):
        state = random_state(2, 2, rank=int(rng.integers(1, 5)), seed=rng)
        val = optimize_affinity_discord(state).value
        assert -1e-8 <= val <= 0.5 + 1e-8


def test_local_unitary_invariance_of_optimum():
    rng = np.random.default_rng(103)
    state = random_state(2, 2, rank=3, seed=rng)
    u = linalg.haar_unitary(2, rng)
    v = linalg.haar_unitary(2, rng)
    big = np.kron(u, v)
    rotated = validate(big @ state.rho @ big.conj().T, 2, 2)
    a = optimize_affinity_discord(state).value
    b = optimize_affinity_discord(rotated).value
    assert abs(a - b) < 2e-5


def test_ancilla_keeps_affinity_and_scales_hs():
    state = werner_two_qubit(1.0)
    sigma = np.diag([0.9, 0.1]).astype(complex)
    enlarged = append_ancilla(state, sigma)
    affinity_before = optimize_affinity_discord(state).value
    affinity_after = optimize_affinity_discord(enlarged).value
    hs_before = optimize_hs_discord(state).value
    hs_after = optimize_hs_discord(enlarged).value
    assert linalg.frobenius_norm_sq(sigma) == pytest.approx(0.82, abs=1e-12)
    assert affinity_after == pytest.approx(affinity_before, abs=2e-5)
    assert hs_after == pytest.approx(hs_before * 0.82, abs=2e-5)
    assert affinity_before == pytest.approx(0.5, abs=1e-5)
    assert hs_before == pytest.approx(0.5, abs=1e-5)
