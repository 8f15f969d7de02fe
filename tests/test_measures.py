"""Tests for affinity, pinching, discord functionals, and the optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinity_discord import linalg
from affinity_discord.correlation import closed_form_2xn
from affinity_discord.errors import DimensionMismatchError, UnsupportedDimensionError
from affinity_discord.families import bell_diagonal_discord
from affinity_discord.measures import (
    MeasurementBasis,
    affinity,
    affinity_discord_at,
    affinity_metric,
    affinity_to_measured,
    ancilla_behavior_report,
    hs_discord_at,
    optimize_affinity_discord,
    optimize_hs_discord,
    post_measurement,
    pure_discord,
    remedied_hs_discord,
)
from affinity_discord.states import (
    PureState,
    bell_diagonal,
    bell_state,
    classical_quantum,
    maximally_entangled,
    product_state,
    random_density,
    random_pure_state,
    random_state,
    validate,
    werner_two_qubit,
)


# --- measurement bases ---------------------------------------------------------


def test_basis_completeness_and_orthogonality():
    u = linalg.haar_unitary(3, seed=70)
    basis = MeasurementBasis.from_unitary(u)
    projs = basis.projectors
    assert np.max(np.abs(np.sum(projs, axis=0) - np.eye(3))) < 1e-10
    for k in range(3):
        for l in range(3):
            prod = projs[k] @ projs[l]
            expected = projs[k] if k == l else np.zeros((3, 3))
            assert np.max(np.abs(prod - expected)) < 1e-10
        assert np.trace(projs[k]) == pytest.approx(1.0, abs=1e-12)


def test_basis_from_bloch_vector_direction():
    r = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    basis = MeasurementBasis.from_bloch_vector(r)
    n_dot_sigma = sum(ri * si for ri, si in zip(r, linalg.PAULI))
    assert np.max(np.abs(basis.projectors[0] - (np.eye(2) + n_dot_sigma) / 2.0)) < 1e-12
    assert np.max(np.abs(basis.projectors[1] - (np.eye(2) - n_dot_sigma) / 2.0)) < 1e-12


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
    lhs = affinity(linalg.kron(a1, a2), linalg.kron(s1, s2))
    rhs = affinity(a1, s1) * affinity(a2, s2)
    assert abs(lhs - rhs) < 1e-10


def test_affinity_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        affinity(np.eye(2) / 2.0, np.eye(3) / 3.0)


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
    out = post_measurement(state, MeasurementBasis.computational(2))
    assert np.max(np.abs(out.rho - state.rho)) < 1e-12


def test_post_measurement_bell_state():
    out = post_measurement(bell_state(0, 0).to_density(), MeasurementBasis.computational(2))
    assert np.max(np.abs(out.rho - np.diag([0.5, 0.0, 0.0, 0.5]))) < 1e-12


def test_post_measurement_trace_preserving_and_idempotent():
    state = random_state(2, 3, seed=82)
    basis = MeasurementBasis.from_angles(0.7, 2.1)
    once = post_measurement(state, basis)
    twice = post_measurement(once, basis)
    assert abs(np.trace(once.rho) - 1.0) < 1e-12
    assert np.max(np.abs(twice.rho - once.rho)) < 1e-12


# --- per-basis functionals ---------------------------------------------------------


def test_discord_at_product_state_marginal_basis_is_zero():
    a = random_density(2, seed=83)
    state = product_state(a, random_density(3, seed=84))
    _, u = np.linalg.eigh(a)
    basis = MeasurementBasis.from_unitary(u)
    assert abs(affinity_discord_at(state, basis)) < 1e-12


def test_discord_at_bell_state_computational():
    state = bell_state(0, 0).to_density()
    assert affinity_discord_at(state, MeasurementBasis.computational(2)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_discord_at_maximally_mixed_any_basis():
    state = validate(np.eye(4) / 4.0, 2, 2)
    for seed in (85, 86):
        basis = MeasurementBasis.from_unitary(linalg.haar_unitary(2, seed))
        assert abs(affinity_discord_at(state, basis)) < 1e-12


def test_discord_at_equals_sqrt_pinching_distance():
    # identity check: the functional is the squared HS distance of sqrt(rho)
    # to its pinched image
    rng = np.random.default_rng(87)
    for _ in range(5):
        state = random_state(2, 3, rank=int(rng.integers(1, 7)), seed=rng)
        basis = MeasurementBasis.from_angles(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        s = state.sqrt()
        pinched = np.zeros_like(s)
        for proj in basis.projectors:
            big = linalg.kron(proj, np.eye(3))
            pinched += big @ s @ big
        direct = linalg.frobenius_norm_sq(s - pinched)
        assert abs(affinity_discord_at(state, basis) - direct) < 1e-12


def test_hs_discord_at_matches_direct_distance():
    rng = np.random.default_rng(88)
    state = random_state(2, 2, rank=3, seed=rng)
    basis = MeasurementBasis.from_angles(1.0, 0.3)
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
    basis = MeasurementBasis.from_unitary(linalg.haar_unitary(dim_a, seed))
    eye_b = np.eye(dim_b)

    def pinching_distance(x):
        pinched = np.zeros_like(x)
        for proj in basis.projectors:
            big = np.kron(proj, eye_b)
            pinched += big @ x @ big
        return float(np.sum(np.abs(x - pinched) ** 2))

    assert abs(affinity_discord_at(state, basis) - pinching_distance(state.sqrt())) < 1e-12
    assert abs(hs_discord_at(state, basis) - pinching_distance(np.asarray(state.rho))) < 1e-12


def test_literal_affinity_reading_differs_from_functional():
    # The affinity to the pinched state is not the optimized functional:
    # for the Bell state in the computational basis they are 1 - 1/sqrt(2)
    # versus 1/2. Both vanish together on zero-discord states.
    state = bell_state(0, 0).to_density()
    basis = MeasurementBasis.computational(2)
    literal = 1.0 - affinity_to_measured(state, basis)
    assert literal == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-10)
    assert affinity_discord_at(state, basis) == pytest.approx(0.5, abs=1e-12)

    cq = classical_quantum([0.4, 0.6], [random_density(2, seed=89), random_density(2, seed=90)])
    comp = MeasurementBasis.computational(2)
    assert abs(1.0 - affinity_to_measured(cq, comp)) < 1e-7
    assert abs(affinity_discord_at(cq, comp)) < 1e-10


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
        val = pure_discord(psi).value
        assert -1e-8 <= val <= 2.0 / 3.0 + 1e-8


# --- optimizers -------------------------------------------------------------------


def test_optimize_affinity_werner_endpoint():
    res = optimize_affinity_discord(werner_two_qubit(1.0), seed=0)
    assert res.value == pytest.approx(0.5, abs=1e-5)
    assert res.method == "optimized-grid"
    assert res.evaluations > 0
    res.optimal_measurement.check()


def test_optimize_affinity_matches_bell_diagonal_formula():
    state = bell_diagonal(0.3, -0.2, 0.5)
    expected = bell_diagonal_discord(0.3, -0.2, 0.5)
    res = optimize_affinity_discord(state, seed=1)
    assert res.value == pytest.approx(expected, abs=1e-5)


def test_optimize_affinity_classical_quantum_is_zero():
    state = classical_quantum(
        [0.25, 0.75], [random_density(2, seed=91), random_density(2, seed=92)]
    )
    assert optimize_affinity_discord(state, seed=2).value < 1e-6


def test_optimize_affinity_deterministic():
    state = random_state(2, 2, rank=4, seed=93)
    a = optimize_affinity_discord(state, seed=5)
    b = optimize_affinity_discord(state, seed=5)
    assert a.value == b.value
    assert np.array_equal(a.parameters, b.parameters)


def test_optimize_affinity_budget_monotone():
    state = random_state(2, 2, rank=3, seed=94)
    small = optimize_affinity_discord(state, budget=2000, seed=6).value
    large = optimize_affinity_discord(state, seed=6).value
    assert small >= large - 1e-7


def test_optimize_affinity_multistart_pure_three_level():
    psi = random_pure_state(3, 3, seed=95)
    expected = pure_discord(psi).value
    res = optimize_affinity_discord(psi.to_density(), budget=4800, seed=7)
    assert res.method == "optimized-local"
    assert res.value == pytest.approx(expected, abs=1e-6)


def test_optimize_multistart_strategy_on_qubit():
    state = werner_two_qubit(0.8)
    expected = closed_form_2xn(state).value
    res = optimize_affinity_discord(state, strategy="multistart-local", budget=3000, seed=8)
    assert res.value == pytest.approx(expected, abs=1e-5)


def test_optimize_rejects_large_dimension():
    state = validate(np.eye(9) / 9.0, 9, 1)
    with pytest.raises(UnsupportedDimensionError):
        optimize_affinity_discord(state, seed=0)


def test_optimize_hs_werner_values():
    for p in (0.3, 0.8):
        res = optimize_hs_discord(werner_two_qubit(p), seed=9)
        assert res.value == pytest.approx(p * p / 2.0, abs=1e-5)


def test_optimize_hs_equals_affinity_for_pure_states():
    psi = random_pure_state(2, 3, seed=96)
    state = psi.to_density()
    hs = optimize_hs_discord(state, seed=10).value
    aff = optimize_affinity_discord(state, seed=10).value
    assert abs(hs - aff) < 1e-5
    assert abs(aff - pure_discord(psi).value) < 1e-5


def test_optimize_hs_product_is_zero():
    state = product_state(random_density(2, seed=97), random_density(2, seed=98))
    assert optimize_hs_discord(state, seed=11).value < 1e-8


def test_remedied_equals_affinity_optimum():
    state = random_state(2, 2, rank=4, seed=99)
    rem = remedied_hs_discord(state, seed=12)
    aff = optimize_affinity_discord(state, seed=12)
    assert rem.value == pytest.approx(aff.value, abs=1e-12)


def test_remedied_pure_state_matches_hs():
    psi = random_pure_state(2, 2, seed=100)
    state = psi.to_density()
    rem = remedied_hs_discord(state, seed=13).value
    hs = optimize_hs_discord(state, seed=13).value
    assert abs(rem - hs) < 1e-6


def test_remedied_invariant_under_ancilla():
    state = random_state(2, 2, rank=2, seed=101)
    from affinity_discord.states import append_ancilla

    enlarged = append_ancilla(state, np.eye(2) / 2.0)
    before = remedied_hs_discord(state, seed=14).value
    after = remedied_hs_discord(enlarged, seed=14).value
    assert abs(before - after) < 1e-6


def test_discord_values_within_bounds():
    rng = np.random.default_rng(102)
    for _ in range(8):
        state = random_state(2, 2, rank=int(rng.integers(1, 5)), seed=rng)
        val = optimize_affinity_discord(state, seed=rng.integers(1 << 31)).value
        assert -1e-8 <= val <= 0.5 + 1e-8


def test_local_unitary_invariance_of_optimum():
    rng = np.random.default_rng(103)
    state = random_state(2, 2, rank=3, seed=rng)
    u = linalg.haar_unitary(2, rng)
    v = linalg.haar_unitary(2, rng)
    big = linalg.kron(u, v)
    rotated = validate(big @ state.rho @ big.conj().T, 2, 2)
    a = optimize_affinity_discord(state, seed=15).value
    b = optimize_affinity_discord(rotated, seed=15).value
    assert abs(a - b) < 2e-5


def test_ancilla_behavior_report_values():
    state = werner_two_qubit(1.0)
    report = ancilla_behavior_report(state, np.diag([0.9, 0.1]).astype(complex), seed=16)
    assert report.sigma_purity == pytest.approx(0.82, abs=1e-12)
    assert report.affinity_after == pytest.approx(report.affinity_before, abs=2e-5)
    assert report.hs_after == pytest.approx(report.hs_before * 0.82, abs=2e-5)
    assert report.affinity_before == pytest.approx(0.5, abs=1e-5)
    assert report.hs_before == pytest.approx(0.5, abs=1e-5)
