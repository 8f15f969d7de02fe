"""Central numerical tolerance configuration.

Every tolerance used by the library lives in one frozen record so that the
defaults are visible in a single place and can be overridden together
(e.g. from the command line).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Matrix-level gates (relative to max(1, maxabs)).
    hermiticity: float = 1e-12
    # Density-matrix gates.
    state_hermiticity: float = 1e-10
    unit_trace: float = 1e-10
    psd_epsilon: float = 1e-8  # eigenvalues in [-psd_epsilon, 0) clamp to zero
    # Derived-quantity gates.
    gamma_imag: float = 1e-10
    projector_tolerance: float = 1e-10
    # Optimizer stopping rule.
    optimizer_rel_improvement: float = 1e-10

    def replace(self, **overrides: float) -> "Tolerances":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = Tolerances()
