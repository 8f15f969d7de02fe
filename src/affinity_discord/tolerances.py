"""The library's numerical gates, fixed in one place.

Each check reads its constant where it runs; none of them is a setting.
"""

# Matrix-level gate (relative to max(1, maxabs)) before an eigensolve or square root.
HERMITICITY = 1e-12
# Density-matrix gates.
STATE_HERMITICITY = 1e-10
UNIT_TRACE = 1e-10
PSD_EPSILON = 1e-8  # eigenvalues in [-PSD_EPSILON, 0) are round-off
DOMAIN_SLACK = 1e-12  # round-off forgiven at family-parameter and probability bounds
# Pure-state gate: |norm - 1| allowed for an amplitude vector.
UNIT_NORM = 1e-12
# Derived-quantity gates.
GAMMA_IMAG = 1e-10
PROJECTOR_TOLERANCE = 1e-10
# Optimizer stopping rule.
OPTIMIZER_REL_IMPROVEMENT = 1e-10
