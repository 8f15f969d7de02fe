"""Analytic discord formulas for the named state families.

These closed-form values double as oracles for the measurement optimizer:
the ``sweep`` helper tabulates analytic against optimized values over a
parameter grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import linalg
from .errors import InvalidBlochVectorError, OutOfRangeError, UnknownFamilyError
from .measures import optimize_affinity_discord, optimize_hs_discord
from .states import (
    BipartiteState,
    bell_diagonal,
    bell_diagonal_weights,
    isotropic,
    werner_general,
    werner_two_qubit,
)

FAMILIES = ("werner2", "belldiag", "werner", "isotropic")
MEASURES = ("affinity", "hs")


def _safe_sqrt(x: float) -> float:
    # radicands vanish at domain endpoints; round-off residue there would be
    # amplified to sqrt(eps) scale, so snap it to zero
    if x < -1e-12:
        raise OutOfRangeError(f"negative radicand {x!r}")
    return 0.0 if x < 1e-13 else float(np.sqrt(x))


@dataclass(frozen=True)
class BellDiagonalSqrtData:
    """Bell-basis weights of a two-qubit state and the Pauli coefficients of its square root."""

    lambdas: np.ndarray  # (lam00, lam01, lam10, lam11)
    h: float
    d: np.ndarray  # (d1, d2, d3)

    def reconstruct_sqrt(self) -> np.ndarray:
        """(h * I + sum_i d_i sigma_i x sigma_i) / 4, the square root of the state."""
        out = self.h * np.eye(4, dtype=np.complex128)
        for di, sigma in zip(self.d, linalg.PAULI):
            out += di * linalg.kron(sigma, sigma)
        return out / 4.0


def bell_diagonal_sqrt_data(c1: float, c2: float, c3: float) -> BellDiagonalSqrtData:
    """Square-root expansion data (h, d) for a Bell-diagonal state."""
    lams = bell_diagonal_weights(c1, c2, c3)
    if np.min(lams) < -1e-12:
        raise InvalidBlochVectorError(
            f"correlation triple ({c1}, {c2}, {c3}) gives negative weight"
        )
    lams = linalg.snap_spectrum(lams)  # the matrix square root's round-off rule
    r = np.sqrt(lams)
    h = float(np.sum(r))
    d = np.array(
        [
            r[0] + r[1] - r[2] - r[3],
            -r[0] + r[1] + r[2] - r[3],
            r[0] - r[1] + r[2] - r[3],
        ]
    )
    return BellDiagonalSqrtData(lams, h, d)


def bell_diagonal_discord(c1: float, c2: float, c3: float) -> float:
    """Affinity discord of a Bell-diagonal state: 1 - (h^2 + max_j d_j^2)/4."""
    data = bell_diagonal_sqrt_data(c1, c2, c3)
    return 1.0 - (data.h**2 + float(np.max(data.d**2))) / 4.0


def bell_diagonal_hs_discord(c1: float, c2: float, c3: float) -> float:
    """Hilbert-Schmidt discord of a Bell-diagonal state: (c1^2+c2^2+c3^2 - max c_i^2)/4."""
    c2s = np.array([c1, c2, c3]) ** 2
    return float(np.sum(c2s) - np.max(c2s)) / 4.0


def werner_two_qubit_discords(p: float) -> tuple[float, float]:
    """(affinity, HS) discords of the two-qubit Werner state.

    Affinity: (1 + p - sqrt((1-p)(1+3p)))/4.  HS: p^2/2.
    """
    if not (-1.0 / 3.0 - 1e-12 <= p <= 1.0 + 1e-12):
        raise OutOfRangeError(f"Werner parameter p={p} outside [-1/3, 1]")
    aff = (1.0 + p - _safe_sqrt((1.0 - p) * (1.0 + 3.0 * p))) / 4.0
    return aff, p * p / 2.0


def werner_general_discords(m: int, x: float) -> tuple[float, float]:
    """(affinity, HS) discords of the m x m Werner state.

    Affinity: (A - B)/2 with A = (m-x)/(m+1) and B = sqrt((m-1)(1-x^2)/(m+1)),
    zero exactly at x = 1/m.  Since A^2 - B^2 = (m x - 1)^2/(m+1)^2, it is
    evaluated as (m x - 1)^2 / (2 (m+1)^2 (A + B)), which is never negative.
    HS: (m x - 1)^2 / (m (m-1) (m+1)^2).
    """
    if m < 2:
        raise OutOfRangeError(f"Werner dimension m={m} must be at least 2")
    if not (-1.0 - 1e-12 <= x <= 1.0 + 1e-12):
        raise OutOfRangeError(f"Werner parameter x={x} outside [-1, 1]")
    a = (m - x) / (m + 1.0)
    b = _safe_sqrt((m - 1.0) * (1.0 - x * x) / (m + 1.0))
    aff = (m * x - 1.0) ** 2 / (2.0 * (m + 1.0) ** 2 * (a + b))
    hs = (m * x - 1.0) ** 2 / (m * (m - 1.0) * (m + 1.0) ** 2)
    return aff, hs


def isotropic_discords(m: int, x: float) -> tuple[float, float]:
    """(affinity, HS) discords of the m x m isotropic state.

    Affinity: (sqrt((m-1)x) - sqrt((1-x)/(m+1)))^2 / m, zero exactly at
    x = 1/m^2.  HS: (m^2 x - 1)^2 / (m (m-1) (m+1)^2); the squared numerator
    is the normative choice since its large-m limit is x^2 (and it matches
    the Bell-diagonal reduction at m = 2).
    """
    if m < 2:
        raise OutOfRangeError(f"isotropic dimension m={m} must be at least 2")
    if not (-1e-12 <= x <= 1.0 + 1e-12):
        raise OutOfRangeError(f"isotropic parameter x={x} outside [0, 1]")
    aff = (_safe_sqrt((m - 1.0) * x) - _safe_sqrt((1.0 - x) / (m + 1.0))) ** 2 / m
    hs = (m * m * x - 1.0) ** 2 / (m * (m - 1.0) * (m + 1.0) ** 2)
    return aff, hs


@dataclass(frozen=True)
class SweepRow:
    family: str
    param: object  # float, or (c1, c2, c3) for belldiag
    measure: str
    analytic: float
    optimized: float
    gap: float


def _family_point(
    family: str, param, dim: int | None
) -> tuple[BipartiteState, Callable[[], tuple[float, float]]]:
    """The family's state at ``param``, and an oracle returning its (affinity, HS) discords.

    ``sweep`` has checked the family and the dimension. The oracle looks its
    formulas up by module name when called, so a rebinding of these names
    (perfbench's tracer) takes effect.
    """
    if family == "werner2":
        p = float(param)
        return werner_two_qubit(p), lambda: werner_two_qubit_discords(p)
    if family == "belldiag":
        c = tuple(float(x) for x in param)
        return bell_diagonal(*c), lambda: (bell_diagonal_discord(*c), bell_diagonal_hs_discord(*c))
    m, x = int(dim), float(param)
    if family == "werner":
        return werner_general(m, x), lambda: werner_general_discords(m, x)
    return isotropic(m, x), lambda: isotropic_discords(m, x)


def sweep(
    family: str,
    params: Iterable,
    measures: Sequence[str] = MEASURES,
    dim: int | None = None,
    budget: int | None = None,
    seed=0,
) -> list[SweepRow]:
    """Tabulate analytic vs optimized discord over a parameter grid.

    Rows are ordered by grid index then measure; for a fixed seed the output
    is deterministic.
    """
    if family not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {family!r}; choose from {FAMILIES}")
    for measure in measures:
        if measure not in MEASURES:
            raise UnknownFamilyError(f"unknown measure {measure!r}; choose from {MEASURES}")
    if family in ("werner", "isotropic") and dim is None:
        raise OutOfRangeError(f"family {family!r} needs an explicit dimension")
    rows: list[SweepRow] = []
    for param in params:
        state, oracle = _family_point(family, param, dim)
        for measure in measures:
            analytic = oracle()[MEASURES.index(measure)]
            run = optimize_affinity_discord if measure == "affinity" else optimize_hs_discord
            optimized = run(state, budget=budget, seed=seed).value
            gap = abs(analytic - optimized)
            rows.append(SweepRow(family, param, measure, analytic, optimized, gap))
    return rows


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_param(param) -> str:
    if isinstance(param, (tuple, list, np.ndarray)):
        return ";".join(format(float(c), ".12g") for c in param)
    return format(float(param), ".12g")


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV with 12 significant digits."""
    lines = ["family,param,measure,analytic,optimized,gap"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row.family,
                    _fmt_param(row.param),
                    row.measure,
                    _fmt12(row.analytic),
                    _fmt12(row.optimized),
                    _fmt12(row.gap),
                ]
            )
        )
    return "\n".join(lines) + "\n"
