"""Tests for the analytic family formulas and the sweep table."""

import numpy as np
import pytest

from affinity_discord.correlation import closed_form_2xn
from affinity_discord import families
from affinity_discord.errors import (
    InvalidBlochVectorError,
    OutOfRangeError,
    UnknownFamilyError,
    ValidationError,
)
from affinity_discord.families import (
    bell_diagonal_discord,
    bell_diagonal_hs_discord,
    isotropic_discords,
    sweep,
    sweep_to_csv,
    werner_general_discords,
    werner_two_qubit_discords,
)
from affinity_discord.states import bell_diagonal, isotropic, werner_general, werner_two_qubit
from affinity_discord.tolerances import DOMAIN_SLACK
from affinity_discord.verification import DEFAULT_CHECK_TOLERANCES


def random_bell_triple(rng):
    lams = rng.dirichlet(np.ones(4))
    c1 = lams[0] + lams[1] - lams[2] - lams[3]
    c2 = -lams[0] + lams[1] + lams[2] - lams[3]
    c3 = lams[0] - lams[1] + lams[2] - lams[3]
    return c1, c2, c3


# --- Bell-diagonal -------------------------------------------------------------


def test_bell_diagonal_discord_special_points():
    assert bell_diagonal_discord(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert bell_diagonal_discord(-1.0, -1.0, -1.0) == pytest.approx(0.5, abs=1e-15)


def test_bell_diagonal_discord_werner_line():
    for p in np.linspace(-1 / 3, 1, 11):
        expected = (1 + p - np.sqrt(max((1 - p) * (1 + 3 * p), 0.0))) / 4.0
        assert bell_diagonal_discord(-p, -p, -p) == pytest.approx(expected, abs=1e-12)


def test_bell_diagonal_rejects_invalid_triple():
    # the weight (1 - c1 - c2 - c3) / 4 is -1/2 here
    for formula in (bell_diagonal_discord, bell_diagonal_hs_discord):
        with pytest.raises(InvalidBlochVectorError):
            formula(1.0, 1.0, 1.0)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("small", [2e-15, 5e-15])
def test_sqrt_data_keeps_weights_the_matrix_sqrt_keeps(small, position):
    # a weight above size * eps * max survives matrix_sqrt_psd, so the oracle
    # keeps it too. Dyadic weights keep both routes at round-off; generic ones
    # leave ~1e-10, the square root of the eigenvalue round-off both carry.
    lams = np.insert([0.25, 0.25, 0.5 - small], position, small)
    c1 = lams[0] + lams[1] - lams[2] - lams[3]
    c2 = -lams[0] + lams[1] + lams[2] - lams[3]
    c3 = lams[0] - lams[1] + lams[2] - lams[3]
    closed = closed_form_2xn(bell_diagonal(c1, c2, c3)).value
    assert abs(bell_diagonal_discord(c1, c2, c3) - closed) < 1e-12


def test_bell_diagonal_hs_values():
    # Werner line reproduces p^2/2
    for p in (0.2, 0.7):
        assert bell_diagonal_hs_discord(-p, -p, -p) == pytest.approx(p * p / 2.0)
    assert bell_diagonal_hs_discord(0.0, 0.0, 0.0) == 0.0


# --- two-qubit Werner ------------------------------------------------------------


def test_werner_two_qubit_endpoints():
    assert werner_two_qubit_discords(0.0) == (pytest.approx(0.0), pytest.approx(0.0))
    aff, hs = werner_two_qubit_discords(1.0)
    assert aff == pytest.approx(0.5, abs=1e-12)
    assert hs == pytest.approx(0.5, abs=1e-12)


def test_werner_two_qubit_half():
    aff, hs = werner_two_qubit_discords(0.5)
    assert aff == pytest.approx((1.5 - np.sqrt(0.5 * 2.5)) / 4.0, abs=1e-15)
    assert hs == pytest.approx(0.125, abs=1e-15)


def test_werner_two_qubit_out_of_range():
    with pytest.raises(OutOfRangeError):
        werner_two_qubit_discords(-0.5)


def test_werner_two_qubit_agrees_with_bell_diagonal():
    for p in np.linspace(-1 / 3, 1, 7):
        aff, _ = werner_two_qubit_discords(p)
        assert abs(aff - bell_diagonal_discord(-p, -p, -p)) < 1e-12


def test_werner_two_qubit_affinity_monotone_on_unit_interval():
    vals = [werner_two_qubit_discords(p)[0] for p in np.linspace(0.0, 1.0, 41)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# --- general Werner ---------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_werner_general_zero_point(m):
    aff, hs = werner_general_discords(m, 1.0 / m)
    assert abs(aff) < 1e-12 and abs(hs) < 1e-12


def test_werner_general_m2_maps_to_two_qubit_form():
    # flip parameter x corresponds to mixing weight p via x = (1 - 3p) / 2
    for p in np.linspace(-1 / 3, 1, 9):
        x = (1.0 - 3.0 * p) / 2.0
        aff_x, hs_x = werner_general_discords(2, x)
        aff_p, hs_p = werner_two_qubit_discords(p)
        assert abs(aff_x - aff_p) < 1e-12
        assert abs(hs_x - hs_p) < 1e-12


def test_werner_general_endpoint():
    aff, _ = werner_general_discords(2, -1.0)
    assert aff == pytest.approx(0.5, abs=1e-12)


def test_werner_general_large_m_limit():
    for x in (0.2, 0.5, 0.9):
        aff, hs = werner_general_discords(64, x)
        assert abs(aff - 0.5 * (1.0 - np.sqrt(1.0 - x * x))) < 0.05
        assert hs < 0.02  # HS value decays with dimension


def test_werner_general_never_negative_at_zero_point():
    for m in range(2, 65):
        x0 = 1.0 / m
        for x in (np.nextafter(x0, -np.inf), x0, np.nextafter(x0, np.inf)):
            assert werner_general_discords(m, x)[0] >= 0.0


def test_werner_general_matches_difference_form():
    # ((m-x)/(m+1) - sqrt((m-1)(1-x^2)/(m+1)))/2, the form the ratio replaces
    for m in (2, 3, 5, 16, 64):
        for x in np.linspace(-1.0, 1.0, 41):
            radicand = max(0.0, (m - 1.0) * (1.0 - x * x) / (m + 1.0))
            direct = 0.5 * ((m - x) / (m + 1.0) - np.sqrt(radicand))
            assert abs(werner_general_discords(m, x)[0] - direct) < 1e-12


def test_werner_general_out_of_range():
    with pytest.raises(OutOfRangeError):
        werner_general_discords(1, 0.0)
    with pytest.raises(OutOfRangeError):
        werner_general_discords(3, 1.5)


# --- isotropic ---------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_isotropic_zero_point(m):
    aff, hs = isotropic_discords(m, 1.0 / m**2)
    assert abs(aff) < 1e-12 and abs(hs) < 1e-12


def test_isotropic_pure_point():
    aff, _ = isotropic_discords(2, 1.0)
    assert aff == pytest.approx(0.5, abs=1e-12)


def test_isotropic_m2_matches_bell_diagonal_reduction():
    # the m=2 isotropic state is Bell diagonal with c = t * (1, -1, 1),
    # t = (4x - 1) / 3
    for x in np.linspace(0.0, 1.0, 9):
        t = (4.0 * x - 1.0) / 3.0
        aff, hs = isotropic_discords(2, x)
        assert abs(aff - bell_diagonal_discord(t, -t, t)) < 1e-12
        assert abs(hs - bell_diagonal_hs_discord(t, -t, t)) < 1e-12


def test_isotropic_large_m_limits():
    for x in (0.2, 0.5, 0.9):
        aff, hs = isotropic_discords(64, x)
        assert abs(aff - x) < 0.05
        assert abs(hs - x * x) < 0.05


def test_isotropic_out_of_range():
    with pytest.raises(OutOfRangeError):
        isotropic_discords(2, -0.1)


# --- one domain per family ----------------------------------------------------------


def _triple_with_weight(weight, position):
    # the Bell-basis weight at ``position`` is ``weight``; the other three share the rest
    lams = np.insert(np.full(3, (1.0 - weight) / 3.0), position, weight)
    return tuple(float(c) for c in (
        lams[0] + lams[1] - lams[2] - lams[3],
        -lams[0] + lams[1] + lams[2] - lams[3],
        lams[0] - lams[1] + lams[2] - lams[3],
    ))


# each edge is probed 2 DOMAIN_SLACK inside and outside, and half a slack
# outside (within the forgiven round-off, so accepted)
_IN, _OUT, _FORGIVEN = -2 * DOMAIN_SLACK, 2 * DOMAIN_SLACK, 0.5 * DOMAIN_SLACK
_DOMAINS = {
    "werner2": (
        werner_two_qubit, (werner_two_qubit_discords,), OutOfRangeError,
        [(-1.0 / 3.0 - d,) for d in (_IN, _FORGIVEN)] + [(1.0 + d,) for d in (_IN, _FORGIVEN)],
        [(-1.0 / 3.0 - _OUT,), (1.0 + _OUT,)],
    ),
    "werner": (
        werner_general, (werner_general_discords,), OutOfRangeError,
        [(3, -1.0 - d) for d in (_IN, _FORGIVEN)] + [(3, 1.0 + d) for d in (_IN, _FORGIVEN)]
        + [(2, 0.5)],
        [(3, -1.0 - _OUT), (3, 1.0 + _OUT), (1, 0.5)],
    ),
    "isotropic": (
        isotropic, (isotropic_discords,), OutOfRangeError,
        [(3, -d) for d in (_IN, _FORGIVEN)] + [(3, 1.0 + d) for d in (_IN, _FORGIVEN)]
        + [(2, 0.5)],
        [(3, -_OUT), (3, 1.0 + _OUT), (1, 0.5)],
    ),
    "belldiag": (
        bell_diagonal, (bell_diagonal_discord, bell_diagonal_hs_discord), InvalidBlochVectorError,
        [_triple_with_weight(-d, k) for d in (_IN, _FORGIVEN) for k in range(4)],
        [_triple_with_weight(-_OUT, k) for k in range(4)] + [(np.nan, 0.0, 0.0)],
    ),
}


@pytest.mark.parametrize("family", list(_DOMAINS))
def test_formulas_and_constructor_accept_and_reject_the_same_parameters(family):
    build, formulas, error, accepted, refused = _DOMAINS[family]
    for args in accepted:
        build(*args)
        for formula in formulas:
            assert np.all(np.isfinite(formula(*args))), (formula.__name__, args)
    for args in refused:
        for call in (build, *formulas):
            with pytest.raises(error):
                call(*args)


# --- sweep ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed, error",
    [
        (-1, OutOfRangeError),
        (1.5, ValidationError),
        (True, ValidationError),
        ("7", ValidationError),
        (np.random.SeedSequence(7), ValidationError),
    ],
    ids=["negative", "float", "bool", "string", "seed-sequence"],
)
def test_sweep_takes_the_one_seed_rule(seed, error):
    # the rule of run_checks and --seed: a non-negative int or numpy integer
    with pytest.raises(error, match="seed"):
        sweep("werner2", [0.5], seed=seed)
    assert len(sweep("werner2", [0.5], seed=np.int64(3))) == 2


def test_sweep_structure_and_gaps():
    params = np.linspace(-1 / 3, 1, 5)
    rows = sweep("werner2", params, seed=0)
    assert len(rows) == 10
    assert [r.measure for r in rows[:2]] == ["affinity", "hs"]
    for row in rows:
        assert row.gap is not None and row.gap < 1e-5
    # the m x m families: each row's analytic column is its oracle's value
    m3_families = (("werner", werner_general_discords, -1.0), ("isotropic", isotropic_discords, 0.0))
    for family, oracle, lo in m3_families:
        params = np.linspace(lo, 1.0, 4)
        rows = sweep(family, params, dim=3, seed=0)
        assert len(rows) == 8
        for k, row in enumerate(rows):
            assert row.analytic == oracle(3, float(params[k // 2]))[k % 2]
            assert row.gap < DEFAULT_CHECK_TOLERANCES["fig1_optimized"]


def test_sweep_belldiag_triples():
    rng = np.random.default_rng(121)
    triples = [random_bell_triple(rng) for _ in range(2)]
    rows = sweep("belldiag", triples, measures=("affinity",), seed=1)
    assert len(rows) == 2
    for row in rows:
        assert row.gap < 1e-5


def test_sweep_unknown_family_and_missing_dim():
    with pytest.raises(UnknownFamilyError):
        sweep("ghz", [0.1])
    with pytest.raises(OutOfRangeError):
        sweep("werner", [0.1])


@pytest.mark.parametrize(
    "family, param, dim, error",
    [
        ("belldiag", 0.1, None, InvalidBlochVectorError),
        ("belldiag", (0.1, 0.2), None, InvalidBlochVectorError),
        ("belldiag", (0.1, 0.2, 0.3, 0.4), None, InvalidBlochVectorError),
        ("belldiag", ("0.1", 0.2, 0.3), None, InvalidBlochVectorError),
        ("belldiag", np.array(0.1), None, InvalidBlochVectorError),
        ("werner2", (0.1, 0.2), None, OutOfRangeError),
        ("werner2", None, None, OutOfRangeError),
        ("werner2", "abc", None, OutOfRangeError),
        ("werner2", "0.5", None, OutOfRangeError),
        ("werner", [0.5], 3, OutOfRangeError),
        ("isotropic", 0.5j, 3, OutOfRangeError),
        ("werner2", True, None, OutOfRangeError),
        ("isotropic", False, 3, OutOfRangeError),
        ("belldiag", (True, 0, 0), None, InvalidBlochVectorError),
    ],
)
def test_sweep_refuses_a_malformed_parameter_before_any_state(
    monkeypatch, family, param, dim, error
):
    # a well-formed first point must not be built either: every point is checked first
    def refuse(*args, **kwargs):
        raise AssertionError("a state was built before the parameters were checked")

    for name in ("werner_two_qubit", "bell_diagonal", "werner_general", "isotropic"):
        monkeypatch.setattr(families, name, refuse)
    good = (0.1, 0.2, 0.3) if family == "belldiag" else 0.5
    with pytest.raises(error):
        sweep(family, [good, param], dim=dim)


def test_sweep_refuses_a_bare_measure_string_by_its_whole_name():
    # a string is a sequence of letters: it must not be read as the measures "h" and "s"
    with pytest.raises(ValidationError) as refused:
        sweep("werner2", [0.5], measures="hs")
    assert "'hs'" in str(refused.value) and "'h'" not in str(refused.value)


def test_sweep_takes_a_one_shot_iterable_of_measures():
    # the names are checked and then read again at every point, so a generator is kept
    names = ["affinity", "hs"]
    rows = sweep("werner2", [0.2, 0.5], measures=(m for m in names))
    assert rows == sweep("werner2", [0.2, 0.5], measures=names)
    assert [row.measure for row in rows] == names * 2


@pytest.mark.parametrize(
    "params", [0.5, np.float64(0.5), np.array(0.5), None], ids=["float", "np-float", "0-d", "None"]
)
def test_sweep_refuses_a_grid_that_is_not_iterable(params):
    with pytest.raises(ValidationError, match="iterable of points"):
        sweep("werner2", params)


@pytest.mark.parametrize(
    "family, param", [("werner2", 0.5), ("belldiag", (0.1, 0.2, 0.3))]
)
def test_sweep_two_qubit_family_rejects_dim(family, param):
    with pytest.raises(OutOfRangeError):
        sweep(family, [param], dim=7)


def test_sweep_csv_format():
    rows = sweep("werner2", [0.0, 1.0], measures=("affinity",))
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "family,param,measure,analytic,optimized,gap"
    assert len(lines) == 3
    assert lines[1].startswith("werner2,0,affinity,0,")
    assert lines[2].startswith("werner2,1,affinity,0.5,")
