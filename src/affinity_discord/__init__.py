"""Affinity-based geometric quantum discord for bipartite states.

The affinity discord computed here is
``1 - max Tr(sqrt(rho) Pi(sqrt(rho))) = min ||sqrt(rho) - Pi(sqrt(rho))||^2``
over the pinchings ``Pi`` by rank-1 projective measurements on A. The literal
``1 - A(rho, Pi(rho))`` is never larger: ``Pi`` is unital and the square root is
operator concave, so ``Pi(sqrt(rho)) <= sqrt(Pi(rho))`` (operator Jensen).

``discord(state, measure)`` picks the route: the closed forms for pure states
and for a two-level measured party, else optimization over projective
measurements, which refuses a measured party above 8 levels. Each route is
public too, as are the spectral lower bound from the square-root correlation
matrix (the m-level form of the two-level closed form) and analytic formulas
for the Bell-diagonal, Werner, and isotropic families.

Some exports are called only by the tests and stay on purpose.
``post_measurement``, ``affinity_discord_at`` and ``hs_discord_at`` evaluate a
caller's own basis, and refuse one that is not orthonormal. The functionals go
through the same kernel as the optimizers; their independent references are the
explicit pinching sums ``sum_k (Pi_k x 1) X (Pi_k x 1)`` in
``tests/test_measures.py``. ``affinity_metric`` is the paper's metric.
``gell_mann_basis`` and ``correlation_matrix`` build the spectral bound, and
the benchmark traces them by name until the bound moves onto the overlap
kernel.
"""

from .correlation import closed_form_2xn, correlation_matrix, discord, gell_mann_basis, lower_bound
from .errors import (
    DimensionMismatchError,
    InvalidBlochVectorError,
    InvalidProbabilitiesError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
    NotUnitTraceError,
    OutOfRangeError,
    UnknownFamilyError,
    UnsupportedDimensionError,
    ValidationError,
    WrongDimensionError,
)
from .families import (
    SweepRow,
    bell_diagonal_discord,
    bell_diagonal_hs_discord,
    isotropic_discords,
    sweep,
    sweep_to_csv,
    werner_general_discords,
    werner_two_qubit_discords,
)
from .linalg import (
    frobenius_norm_sq,
    haar_unitary,
    matrix_sqrt_psd,
    partial_trace,
)
from .measures import (
    DiscordResult,
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
from .states import (
    BipartiteState,
    PureState,
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
)
from .verification import CHECK_NAMES, CheckResult, run_checks

__version__ = "0.1.0"
