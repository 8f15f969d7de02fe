"""Tests for state construction, validation, and serialization."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinity_discord import linalg
from affinity_discord.correlation import gell_mann_basis
from affinity_discord.errors import (
    DimensionMismatchError,
    InvalidBlochVectorError,
    InvalidProbabilitiesError,
    NonHermitianError,
    NotPSDError,
    NotUnitTraceError,
    OutOfRangeError,
    ValidationError,
)
from affinity_discord.families import isotropic_discords, sweep, werner_general_discords
from affinity_discord.measures import MeasurementBasis
from affinity_discord.states import (
    append_ancilla,
    bell_diagonal,
    bell_state,
    classical_quantum,
    isotropic,
    load_state,
    maximally_entangled,
    product_state,
    random_density,
    random_pure_state,
    random_state,
    save_state,
    schmidt_spectrum,
    state_from_json,
    state_to_json,
    swap_operator,
    validate,
    werner_general,
    werner_two_qubit,
    PureState,
)

DATA = Path(__file__).parent / "data"


# --- validate ----------------------------------------------------------------


def test_validate_accepts_maximally_mixed():
    state = validate(np.eye(4) / 4.0, 2, 2)
    assert state.dim_a == 2 and state.dim_b == 2
    assert state.purity() == pytest.approx(0.25)


def test_validate_rejects_wrong_trace():
    with pytest.raises(NotUnitTraceError):
        validate(np.eye(4) / 2.0, 2, 2)


def test_validate_rejects_indefinite():
    with pytest.raises(NotPSDError):
        validate(np.kron(linalg.SIGMA_Z, np.eye(2)) / 4.0 + np.eye(4) * 0, 2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        validate(np.array([[bad, 0.0], [0.0, 0.5]]), 2, 1)


def _defective_state(gate, defect):
    if gate == "psd":
        return np.diag([0.5 + defect, 0.5, 0.0, -defect]).astype(complex)
    rho = np.eye(4, dtype=complex) / 4.0
    if gate == "trace":
        rho[3, 3] += defect
    else:
        rho[0, 1] = defect
    return rho


@pytest.mark.parametrize(
    "gate,bound,error",
    [
        ("psd", 1e-8, NotPSDError),
        ("trace", 1e-10, NotUnitTraceError),
        ("hermiticity", 1e-10, NonHermitianError),
    ],
)
def test_validate_gates_sit_at_their_bounds(gate, bound, error):
    validate(_defective_state(gate, 0.5 * bound), 2, 2)
    with pytest.raises(error):
        validate(_defective_state(gate, 2.0 * bound), 2, 2)


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate(np.eye(4) / 4.0, 2, 3)


def test_state_matrix_read_only():
    state = validate(np.eye(4) / 4.0, 2, 2)
    with pytest.raises(ValueError):
        state.rho[0, 0] = 1.0


@pytest.mark.parametrize("keep", ["x", "B", ""])
def test_marginal_refuses_an_unknown_party(keep):
    with pytest.raises(ValidationError, match="keep must be 'a' or 'b'"):
        random_state(2, 3, seed=1).marginal(keep)


# --- Bell machinery ----------------------------------------------------------


def test_bell_state_amplitudes():
    assert np.allclose(bell_state(0, 0).amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.allclose(bell_state(1, 1).amplitudes, np.array([0, 1, -1, 0]) / np.sqrt(2))


def test_bell_diagonal_fully_mixed():
    state = bell_diagonal(0.0, 0.0, 0.0)
    assert np.max(np.abs(state.rho - np.eye(4) / 4.0)) < 1e-14


def test_bell_diagonal_matches_bell_projector_mixture():
    rng = np.random.default_rng(40)
    for _ in range(5):
        # sample a valid triple by mixing Bell projectors directly
        lams = rng.dirichlet(np.ones(4))
        projs = [
            np.outer(bell_state(a, b).amplitudes, bell_state(a, b).amplitudes.conj())
            for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        direct = sum(l * p for l, p in zip(lams, projs))
        c1 = lams[0] + lams[1] - lams[2] - lams[3]
        c2 = -lams[0] + lams[1] + lams[2] - lams[3]
        c3 = lams[0] - lams[1] + lams[2] - lams[3]
        state = bell_diagonal(c1, c2, c3)
        assert np.max(np.abs(state.rho - direct)) < 1e-12


def test_bell_diagonal_extremes():
    state = bell_diagonal(-1.0, -1.0, -1.0)
    singlet = bell_state(1, 1).amplitudes
    assert np.max(np.abs(state.rho - np.outer(singlet, singlet.conj()))) < 1e-14
    with pytest.raises(InvalidBlochVectorError):
        bell_diagonal(1.0, 1.0, 1.0)


# --- Werner and isotropic ------------------------------------------------------


def test_werner_two_qubit_endpoints():
    assert np.max(np.abs(werner_two_qubit(0.0).rho - np.eye(4) / 4.0)) < 1e-14
    pure = werner_two_qubit(1.0)
    assert pure.purity() == pytest.approx(1.0, abs=1e-12)


def test_werner_two_qubit_matches_bell_diagonal_route():
    for p in (-1.0 / 3.0, 0.0, 0.4, 1.0):
        a = werner_two_qubit(p).rho
        b = bell_diagonal(-p, -p, -p).rho
        assert np.max(np.abs(a - b)) < 1e-14


def test_werner_two_qubit_half_spectrum():
    w = np.linalg.eigvalsh(werner_two_qubit(0.5).rho)
    assert np.allclose(w, [1 / 8, 1 / 8, 1 / 8, 5 / 8])


def test_werner_two_qubit_out_of_range():
    with pytest.raises(OutOfRangeError):
        werner_two_qubit(1.2)


def test_swap_operator_action():
    f = swap_operator(3)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(f @ np.kron(x, y), np.kron(y, x))


@pytest.mark.parametrize("m", [2, 3])
def test_werner_general_flip_expectation(m):
    for x in (-1.0, -0.3, 1.0 / m, 0.8):
        state = werner_general(m, x)
        flip = np.real(np.trace(state.rho @ swap_operator(m)))
        assert abs(flip - x) < 1e-10
        assert abs(np.trace(state.rho) - 1.0) < 1e-12


def test_werner_general_symmetric_support():
    state = werner_general(2, 1.0)
    f = swap_operator(2)
    antisym = (np.eye(4) - f) / 2.0
    assert np.max(np.abs(antisym @ state.rho)) < 1e-12


def test_isotropic_special_points():
    state = isotropic(3, 1.0 / 9.0)
    assert np.max(np.abs(state.rho - np.eye(9) / 9.0)) < 1e-12
    pure = isotropic(2, 1.0)
    psi = maximally_entangled(2).amplitudes
    assert np.max(np.abs(pure.rho - np.outer(psi, psi.conj()))) < 1e-12
    w = np.linalg.eigvalsh(isotropic(2, 0.0).rho)
    assert np.allclose(w, [0.0, 1 / 3, 1 / 3, 1 / 3])


@pytest.mark.parametrize("m,x", [(2, 0.3), (3, 0.7), (4, 0.05)])
def test_isotropic_fidelity_is_x(m, x):
    psi = maximally_entangled(m).amplitudes
    state = isotropic(m, x)
    assert abs(np.real(psi.conj() @ state.rho @ psi) - x) < 1e-10


def test_isotropic_out_of_range():
    with pytest.raises(OutOfRangeError):
        isotropic(2, 1.5)
    with pytest.raises(OutOfRangeError):
        isotropic(1, 0.5)


# --- classical-quantum, product, ancilla --------------------------------------


def test_classical_quantum_product_case():
    rho0 = random_density(3, seed=2)
    state = classical_quantum([1.0, 0.0], [rho0, np.eye(3) / 3.0])
    expect = np.zeros((6, 6), dtype=complex)
    expect[:3, :3] = rho0
    assert np.max(np.abs(state.rho - expect)) < 1e-12


def test_classical_quantum_classically_correlated():
    state = classical_quantum(
        [0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    )
    assert np.allclose(state.rho, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_classical_quantum_rejects_bad_probs():
    with pytest.raises(InvalidProbabilitiesError):
        classical_quantum([0.7, 0.7], [np.eye(2) / 2.0] * 2)
    with pytest.raises(InvalidProbabilitiesError):  # NaN fails every comparison
        classical_quantum([np.nan, 1.0], [np.eye(2) / 2.0] * 2)


def test_append_ancilla_scalar_is_identity_map():
    state = werner_two_qubit(0.4)
    out = append_ancilla(state, np.array([[1.0]]))
    assert out.dim_b == state.dim_b
    assert np.max(np.abs(out.rho - state.rho)) < 1e-14


def test_append_ancilla_purity_multiplicative():
    state = werner_two_qubit(1.0)
    mixed = append_ancilla(state, np.eye(2) / 2.0)
    assert mixed.dim_b == 4
    assert mixed.purity() == pytest.approx(state.purity() / 2.0, abs=1e-10)
    pure_anc = append_ancilla(state, np.diag([1.0, 0.0]))
    assert pure_anc.purity() == pytest.approx(state.purity(), abs=1e-10)
    sigma = random_density(3, seed=8)
    out = append_ancilla(state, sigma)
    expected = state.purity() * np.real(np.vdot(sigma, sigma))
    assert out.purity() == pytest.approx(expected, abs=1e-10)


def test_append_ancilla_rejects_non_density():
    with pytest.raises(NotPSDError):
        append_ancilla(werner_two_qubit(0.2), linalg.SIGMA_Z)


@pytest.mark.parametrize(
    "make,name",
    [
        (lambda bad: append_ancilla(werner_two_qubit(0.2), bad), "ancilla"),
        (lambda bad: product_state(bad, np.eye(2) / 2.0), "party-A state"),
        (lambda bad: classical_quantum([0.5, 0.5], [np.eye(2) / 2.0, bad]), "conditional state 1"),
    ],
    ids=["ancilla", "product", "classical-quantum"],
)
def test_non_finite_factor_is_refused_under_its_name(make, name):
    with pytest.raises(ValidationError, match=f"{name} has non-finite"):
        make(np.array([[np.nan, 0.0], [0.0, 0.5]]))


# --- pure states and Schmidt spectra -------------------------------------------


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValidationError):
        PureState(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))


def test_pure_state_refuses_nan_amplitudes():
    with pytest.raises(ValidationError, match="norm"):
        PureState(2, 2, np.array([np.nan, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("factor,raises", [(0.5, False), (2.0, True)])
def test_pure_state_norm_gate_sits_at_its_bound(factor, raises):
    amps = np.array([1.0 + factor * 1e-12, 0.0, 0.0, 0.0])
    if raises:
        with pytest.raises(ValidationError, match="norm"):
            PureState(2, 2, amps)
    else:
        PureState(2, 2, amps)


def test_schmidt_product_and_entangled():
    prod = PureState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(schmidt_spectrum(prod), [1.0, 0.0])
    assert np.allclose(schmidt_spectrum(maximally_entangled(2)), [0.5, 0.5])


def test_schmidt_unbalanced():
    psi = PureState(2, 2, np.array([np.sqrt(3.0), 0.0, 0.0, 1.0]) / 2.0)
    assert np.allclose(schmidt_spectrum(psi), [0.75, 0.25])


def test_schmidt_sums_to_one_and_lu_invariant():
    rng = np.random.default_rng(9)
    psi = random_pure_state(3, 3, seed=rng)
    s = schmidt_spectrum(psi)
    assert abs(np.sum(s) - 1.0) < 1e-10
    u = linalg.haar_unitary(3, rng)
    v = linalg.haar_unitary(3, rng)
    rotated = PureState(3, 3, np.kron(u, v) @ psi.amplitudes)
    assert np.max(np.abs(schmidt_spectrum(rotated) - s)) < 1e-10


# --- random ensembles -----------------------------------------------------------


def test_random_state_rank_one_is_pure():
    state = random_state(2, 3, rank=1, seed=5)
    assert state.purity() == pytest.approx(1.0, abs=1e-10)


def test_random_state_deterministic():
    a = random_state(2, 2, rank=3, seed=123)
    b = random_state(2, 2, rank=3, seed=123)
    assert np.array_equal(a.rho, b.rho)


def test_random_state_mean_near_maximally_mixed():
    acc = np.zeros((4, 4), dtype=complex)
    n = 400
    ss = np.random.SeedSequence(77)
    for child in ss.spawn(n):
        acc += random_state(2, 2, seed=child).rho
    assert np.max(np.abs(acc / n - np.eye(4) / 4.0)) < 0.05


def test_random_state_rank_out_of_range():
    with pytest.raises(OutOfRangeError):
        random_state(2, 2, rank=5, seed=0)


# --- serialization ---------------------------------------------------------------


def test_json_round_trip_exact(tmp_path):
    state = random_state(2, 3, rank=4, seed=31)
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.dim_a == 2 and loaded.dim_b == 3
    assert np.array_equal(loaded.rho, state.rho)


@settings(max_examples=60, deadline=None)
@given(dim_a=st.integers(1, 4), dim_b=st.integers(1, 8), data=st.data())
def test_json_round_trip_is_bit_exact_at_every_rank(dim_a, dim_b, data):
    rank = data.draw(st.integers(1, dim_a * dim_b), label="rank")
    state = random_state(dim_a, dim_b, rank=rank, seed=data.draw(st.integers(0, 2**32), label="seed"))
    rho = state_from_json(state_to_json(state)).rho
    # the same bits, not only equal values
    assert rho.tobytes() == state.rho.tobytes()


def test_legacy_state_file_reads_as_its_new_layout_copy():
    # the same 2 x 3 state, written once in the legacy layout of one object per cell
    legacy, dense = load_state(DATA / "state_2x3_legacy.json"), load_state(DATA / "state_2x3.json")
    assert (legacy.dim_a, legacy.dim_b) == (dense.dim_a, dense.dim_b) == (2, 3)
    assert legacy.rho.tobytes() == dense.rho.tobytes()
    assert state_to_json(legacy) == (DATA / "state_2x3.json").read_text()


def test_json_writer_deterministic():
    state = random_state(2, 2, seed=13)
    assert state_to_json(state) == state_to_json(state)


def _json_by_number(state):
    # the writer's format, one format() call per number
    def matrix(part):
        rows = ("    [" + ", ".join(format(float(x), ".17g") for x in row) + "]" for row in part)
        return ",\n".join(rows)

    return '{\n  "dim_a": %d,\n  "dim_b": %d,\n  "re": [\n%s\n  ],\n  "im": [\n%s\n  ]\n}\n' % (
        state.dim_a, state.dim_b, matrix(state.rho.real), matrix(state.rho.imag)
    )


@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 3), (3, 2), (2, 32)])
def test_json_writer_matches_per_cell_formatting(dims):
    state = random_state(*dims, seed=sum(dims))
    assert state_to_json(state) == _json_by_number(state)


def test_json_writer_formats_edge_values_per_cell():
    # signed zero, the smallest subnormal, a huge value and a tiny imaginary part,
    # in Fortran order so the writer cannot rely on the layout; no state holds such
    # a matrix, so a stand-in carries the three fields the writer reads
    row = [-0.0, 5e-324, 1e308, -1.5e-9j]
    rho = np.asfortranarray(np.array([row, row[::-1], [1.0, 0.5, 0.25, 0.125], row], dtype=np.complex128))
    state = SimpleNamespace(dim_a=2, dim_b=2, rho=rho)
    assert state.rho.flags.f_contiguous
    text = state_to_json(state)
    assert text == _json_by_number(state)
    assert '"re": [\n    [-0, 4.9406564584124654e-324, 1e+308, -0],' in text
    assert '"im": [\n    [0, 0, 0, -1.5e-09],' in text


def test_json_reader_validates():
    bad = state_to_json(validate(np.eye(4) / 4.0, 2, 2)).replace("0.25", "0.5")
    with pytest.raises(NotUnitTraceError):
        state_from_json(bad)


def test_json_reader_rejects_malformed():
    with pytest.raises(ValidationError):
        state_from_json("{not json")
    with pytest.raises(ValidationError):
        state_from_json('{"dim_a": 2}')
    with pytest.raises(ValidationError):  # json.loads raises RecursionError on deep nesting
        state_from_json("[" * 100_000 + "]" * 100_000)


def _state_files(re_rows, im_rows, dim_a=1, dim_b=2):
    """One matrix, given as rows of raw JSON tokens, as a state file in each layout."""
    def matrix(rows):
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"

    cells = [
        ['{"re": %s, "im": %s}' % pair for pair in zip(re_row, im_row)]
        for re_row, im_row in zip(re_rows, im_rows)
    ]
    head = '{"dim_a": %d, "dim_b": %d, ' % (dim_a, dim_b)
    return {
        "dense": head + '"re": %s, "im": %s}' % (matrix(re_rows), matrix(im_rows)),
        "legacy": head + '"matrix": %s}' % matrix(cells),
    }


def test_json_reader_refuses_boolean_cells():
    for layout, text in _state_files([["true"]], [["false"]], dim_b=1).items():
        with pytest.raises(ValidationError, match="JSON numbers"):
            state_from_json(text)
        assert state_from_json(text.replace("true", "1").replace("false", "0")).rho[0, 0] == 1.0, layout


@pytest.mark.parametrize("rows", [[3, 1], [2, 1], [1, 2]])
def test_json_reader_refuses_ragged_rows(rows):
    # 3 + 1 entries would fill a 2 x 2 matrix if only the total were checked
    ragged = [["0.5"] * n for n in rows]
    for text in _state_files(ragged, [["0"] * n for n in rows]).values():
        with pytest.raises(ValidationError):
            state_from_json(text)


@pytest.mark.parametrize(
    "re_part, im_part",
    [
        ("[[0.5, 0], [0, 0.5]]", "[[0, 0, 0], [0, 0, 0]]"),  # parts of different shapes
        ("[[0.5, 0], [0, 0.5]]", "[[0, 0]]"),
        ("[[[0.5], [0]], [[0], [0.5]]]", "[[0, 0], [0, 0]]"),  # nested deeper than 2-D
        ("[0.5, 0.5]", "[0, 0]"),  # a vector
        ("[]", "[]"),
        ('"nope"', '"nope"'),
        ("[[0.5, 0], [0, 0.5]]", None),  # no imaginary part
    ],
)
def test_json_reader_refuses_malformed_parts(re_part, im_part):
    im = "" if im_part is None else ', "im": %s' % im_part
    with pytest.raises(ValidationError, match="malformed state file"):
        state_from_json('{"dim_a": 1, "dim_b": 2, "re": %s%s}' % (re_part, im))


def test_json_reader_refuses_a_file_in_both_layouts():
    files = _state_files([["0.5", "0"], ["0", "0.5"]], [["0", "0"], ["0", "0"]])
    for text in files.values():
        assert state_from_json(text).rho[1, 1] == 0.5
    both = files["dense"][:-1] + ", " + files["legacy"].split(", ", 2)[2]
    with pytest.raises(ValidationError, match="both"):
        state_from_json(both)


def test_json_round_trip_keeps_signed_zeros():
    # the singlet holds -0 imaginary parts, which %.17g writes as the JSON integer -0
    state = bell_state(1, 1).to_density()
    tokens = [[[format(x, ".17g") for x in row] for row in part] for part in (state.rho.real, state.rho.imag)]
    assert any("-0" in row for row in tokens[1])
    files = dict(_state_files(*tokens, dim_a=2, dim_b=2), writer=state_to_json(state))
    for layout, text in files.items():
        assert state_from_json(text).rho.tobytes() == state.rho.tobytes(), layout


@pytest.mark.parametrize("dim_a, value", [(2, "2.7"), (2, "2.0"), (2, '"2"'), (1, "true")])
def test_json_reader_rejects_non_integer_dimensions(dim_a, value):
    # each value, cast to int, would give dim_a and so fit the matrix
    text = state_to_json(validate(np.eye(4) / 4.0, dim_a, 4 // dim_a))
    text = text.replace(f'"dim_a": {dim_a}', f'"dim_a": {value}')
    with pytest.raises(ValidationError):
        state_from_json(text)


# --- integer arguments ----------------------------------------------------------------

_AMPS6 = np.ones(6) / np.sqrt(6.0)
# each site of the integer rule: (a call of the integer argument, the value just below its bound)
_INTEGER_SITES = {
    "validate.dim_a": (lambda v: validate(np.eye(6) / 6.0, v, 2), 0),
    "validate.dim_b": (lambda v: validate(np.eye(6) / 6.0, 2, v), 0),
    "PureState.dim_a": (lambda v: PureState(v, 2, _AMPS6), 0),
    "PureState.dim_b": (lambda v: PureState(2, v, _AMPS6), 0),
    "random_density.dim": (lambda v: random_density(v, seed=1), 0),
    "random_density.rank": (lambda v: random_density(4, rank=v, seed=1), 0),
    "random_state.dim_a": (lambda v: random_state(v, 2, seed=1), 0),
    "random_state.dim_b": (lambda v: random_state(2, v, seed=1), 0),
    "random_pure_state.dim_a": (lambda v: random_pure_state(v, 2, seed=1), 0),
    "random_pure_state.dim_b": (lambda v: random_pure_state(2, v, seed=1), 0),
    "maximally_entangled": (maximally_entangled, 0),
    "werner_general": (lambda v: werner_general(v, 0.3), 1),
    "werner_general_discords": (lambda v: werner_general_discords(v, 0.3), 1),
    "isotropic": (lambda v: isotropic(v, 0.3), 1),
    "isotropic_discords": (lambda v: isotropic_discords(v, 0.3), 1),
    "sweep.dim": (lambda v: sweep("werner", [0.3], dim=v), 1),
    "partial_trace.dim_a": (lambda v: linalg.partial_trace(np.eye(4), v, 2), 0),
    "partial_trace.dim_b": (lambda v: linalg.partial_trace(np.eye(4), 2, v), 0),
    "haar_unitary": (lambda v: linalg.haar_unitary(v, seed=1), 0),
    "swap_operator": (swap_operator, 0),
    "gell_mann_basis": (gell_mann_basis, 0),
    # one ket of length one: True == 1 would pass the shape test
    "MeasurementBasis.dim": (lambda v: MeasurementBasis(v, np.eye(1)), 0),
}


@pytest.mark.parametrize(
    "value", [True, 2.5, np.float64(3.0), "3"], ids=["bool", "float", "np.float64", "str"]
)
@pytest.mark.parametrize("site", list(_INTEGER_SITES))
def test_integer_arguments_refuse_another_type(site, value):
    # a float that casts to a fitting int, a bool and a string are all refused the same way
    call, _ = _INTEGER_SITES[site]
    with pytest.raises(ValidationError, match="must be an integer") as excinfo:
        call(value)
    assert excinfo.type is ValidationError


@pytest.mark.parametrize("site", list(_INTEGER_SITES))
def test_integer_arguments_refuse_a_value_below_their_bound(site):
    call, below = _INTEGER_SITES[site]
    with pytest.raises(OutOfRangeError, match="must be"):
        call(below)
    with pytest.raises(OutOfRangeError):
        call(np.int64(below))


def test_integer_arguments_accept_numpy_integers():
    state = validate(np.eye(6) / 6.0, np.int64(3), np.int32(2))
    assert (state.dim_a, state.dim_b) == (3, 2) and type(state.dim_b) is int
    assert werner_general(np.int64(3), 0.3).dim_a == 3
    assert random_density(np.int64(3), rank=np.int8(2), seed=1).shape == (3, 3)
    assert linalg.partial_trace(np.eye(6), np.int64(3), np.int8(2)).shape == (3, 3)
    assert linalg.haar_unitary(np.int64(3), seed=1).shape == (3, 3)
    assert swap_operator(np.int64(3)).shape == (9, 9)
    basis = MeasurementBasis(np.int64(2), np.eye(2))
    assert basis.dim == 2 and type(basis.dim) is int
