"""The package's public names are a fixed list: a new export is a deliberate edit here."""

import types

import affinity_discord

PUBLIC_API = [
    "BipartiteState",
    "CHECK_NAMES",
    "CheckResult",
    "DimensionMismatchError",
    "DiscordResult",
    "InvalidBlochVectorError",
    "InvalidProbabilitiesError",
    "MeasurementBasis",
    "NonHermitianError",
    "NonSquareError",
    "NotPSDError",
    "NotUnitTraceError",
    "OutOfRangeError",
    "PureState",
    "SweepRow",
    "UnknownFamilyError",
    "UnsupportedDimensionError",
    "ValidationError",
    "WrongDimensionError",
    "affinity",
    "affinity_discord_at",
    "affinity_metric",
    "append_ancilla",
    "bell_diagonal",
    "bell_diagonal_discord",
    "bell_diagonal_hs_discord",
    "bell_state",
    "classical_quantum",
    "closed_form_2xn",
    "correlation_matrix",
    "discord",
    "frobenius_norm_sq",
    "gell_mann_basis",
    "haar_unitary",
    "hs_discord_at",
    "isotropic",
    "isotropic_discords",
    "load_state",
    "lower_bound",
    "matrix_sqrt_psd",
    "maximally_entangled",
    "optimize_affinity_discord",
    "optimize_hs_discord",
    "partial_trace",
    "post_measurement",
    "product_state",
    "pure_discord",
    "random_density",
    "random_pure_state",
    "random_state",
    "remedied_hs_discord",
    "run_checks",
    "save_state",
    "schmidt_spectrum",
    "state_from_json",
    "state_to_json",
    "swap_operator",
    "sweep",
    "sweep_to_csv",
    "validate",
    "werner_general",
    "werner_general_discords",
    "werner_two_qubit",
    "werner_two_qubit_discords",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what was imported
    names = sorted(
        name
        for name, value in vars(affinity_discord).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_API
