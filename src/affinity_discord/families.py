"""Analytic discord formulas for the named state families.

These closed-form values double as oracles for the measurement optimizer:
the ``sweep`` helper tabulates analytic against optimized values over a
parameter grid. Each formula runs its family's domain check in ``states``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg, states
from .errors import InvalidBlochVectorError, OutOfRangeError, UnknownFamilyError, ValidationError
from .errors import _require_int
from .measures import _optimizer, _require_optimizable
from .states import bell_diagonal, isotropic, werner_general, werner_two_qubit

FAMILIES = ("werner2", "belldiag", "werner", "isotropic")
SWEEP_MEASURES = ("affinity", "hs")  # the columns of every family oracle


def _safe_sqrt(x: float) -> float:
    # radicands vanish at domain ends, where round-off would grow to sqrt(eps): snap it
    return 0.0 if x < 1e-13 else float(np.sqrt(x))


def bell_diagonal_discord(c1: float, c2: float, c3: float) -> float:
    """Affinity discord of a Bell-diagonal state: 1 - (h^2 + max_j d_j^2)/4.

    sqrt(rho) = (h 1 + sum_j d_j sigma_j x sigma_j) / 4, with h and d_j the
    signed sums of the square roots r of the Bell-basis weights.
    """
    lams = states.bell_diagonal_weights(c1, c2, c3)
    r = np.sqrt(linalg.snap_spectrum(lams))  # the matrix square root's round-off rule
    h = float(np.sum(r))
    d = np.array(
        [
            r[0] + r[1] - r[2] - r[3],
            -r[0] + r[1] + r[2] - r[3],
            r[0] - r[1] + r[2] - r[3],
        ]
    )
    return 1.0 - (h**2 + float(np.max(d**2))) / 4.0


def bell_diagonal_hs_discord(c1: float, c2: float, c3: float) -> float:
    """Hilbert-Schmidt discord of a Bell-diagonal state: (c1^2+c2^2+c3^2 - max c_i^2)/4."""
    states.bell_diagonal_weights(c1, c2, c3)  # the domain check
    c2s = np.array([c1, c2, c3]) ** 2
    return float(np.sum(c2s) - np.max(c2s)) / 4.0


def werner_two_qubit_discords(p: float) -> tuple[float, float]:
    """(affinity, HS) discords of the two-qubit Werner state.

    Affinity: (1 + p - sqrt((1-p)(1+3p)))/4.  HS: p^2/2.
    """
    states._require_werner2(p)
    aff = (1.0 + p - _safe_sqrt((1.0 - p) * (1.0 + 3.0 * p))) / 4.0
    return aff, p * p / 2.0


def werner_general_discords(m: int, x: float) -> tuple[float, float]:
    """(affinity, HS) discords of the m x m Werner state.

    Affinity: (A - B)/2 with A = (m-x)/(m+1) and B = sqrt((m-1)(1-x^2)/(m+1)),
    zero exactly at x = 1/m.  Since A^2 - B^2 = (m x - 1)^2/(m+1)^2, it is
    evaluated as (m x - 1)^2 / (2 (m+1)^2 (A + B)), which is never negative.
    HS: (m x - 1)^2 / (m (m-1) (m+1)^2).
    """
    states._require_werner(m, x)
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
    states._require_isotropic(m, x)
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


def _is_real(x) -> bool:
    """A real number, not a bool: ``bool`` is a ``numbers.Real``, but no point of a family."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _family_point(family: str, param, dim: int | None):
    """A builder of the family's state at ``param``, and an oracle of its (affinity, HS) discords.

    ``param`` is checked here, before either runs: three real numbers for belldiag (else
    ``InvalidBlochVectorError``), one for the other families (else ``OutOfRangeError``);
    a bool is not a real number here.
    ``sweep`` has checked the family and the dimension. Both look their functions up by
    module name when called, so a rebinding of these names (perfbench's tracer) takes effect.
    """
    if family == "belldiag":
        c = tuple(param) if isinstance(param, (tuple, list)) or np.ndim(param) == 1 else ()
        if len(c) != 3 or not all(_is_real(x) for x in c):
            raise InvalidBlochVectorError(f"belldiag takes three real numbers, got {param!r}")
        c = tuple(float(x) for x in c)
        return lambda: bell_diagonal(*c), lambda: (
            bell_diagonal_discord(*c),
            bell_diagonal_hs_discord(*c),
        )
    if not _is_real(param):
        raise OutOfRangeError(f"{family} takes one real number, got {param!r}")
    x = float(param)
    if family == "werner2":
        return lambda: werner_two_qubit(x), lambda: werner_two_qubit_discords(x)
    if family == "werner":
        return lambda: werner_general(dim, x), lambda: werner_general_discords(dim, x)
    return lambda: isotropic(dim, x), lambda: isotropic_discords(dim, x)


def sweep(
    family: str,
    params: Iterable,
    measures: Iterable[str] = SWEEP_MEASURES,
    dim: int | None = None,
    budget: int | None = None,
    seed=0,
) -> list[SweepRow]:
    """Tabulate analytic vs optimized discord over a parameter grid.

    ``dim`` is m for werner and isotropic (an integer from 2 to the optimizer's cap,
    checked before any state is built), and must be left out for werner2 and belldiag.
    So is every parameter (``_family_point``); ``params`` that is not iterable, such as a
    scalar, raises ``ValidationError``. ``measures`` is any iterable of names of
    ``SWEEP_MEASURES`` columns, read once; a bare string such as ``"hs"`` raises
    ``ValidationError``. Rows are ordered by grid index then measure, and the output is
    deterministic. ``seed`` is checked and then unused, because no optimizer reads a
    seed; it stays only because the benchmark's workloads pass it, and goes when they stop.
    """
    if family not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {family!r}; choose from {FAMILIES}")
    if isinstance(measures, str):
        raise ValidationError(f"measures must be a sequence of names, got the string {measures!r}")
    measures = tuple(measures)  # a one-shot iterable is read once, here
    for measure in measures:
        if measure not in SWEEP_MEASURES:
            raise UnknownFamilyError(f"unknown measure {measure!r}; choose from {SWEEP_MEASURES}")
    if (dim is None) == (family in ("werner", "isotropic")):
        raise OutOfRangeError(f"family {family!r}: only werner and isotropic take dim, and need it")
    _require_int(seed, "seed", 0)
    if dim is not None:
        _require_optimizable(_require_int(dim, "dim", 2))
    try:
        params = iter(params)
    except TypeError:
        raise ValidationError(f"params must be an iterable of points, got {params!r}") from None
    points = [(param, *_family_point(family, param, dim)) for param in params]
    rows: list[SweepRow] = []
    for param, build, oracle in points:
        state = build()
        for measure in measures:
            analytic = oracle()[SWEEP_MEASURES.index(measure)]
            optimized = _optimizer(measure)(state, budget=budget).value
            gap = abs(analytic - optimized)
            rows.append(SweepRow(family, param, measure, analytic, optimized, gap))
    return rows


def _fmt_param(param) -> str:
    if isinstance(param, (tuple, list, np.ndarray)):
        return ";".join(map(_fmt_param, param))
    return format(float(param), ".12g")


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV with 12 significant digits."""
    lines = ["family,param,measure,analytic,optimized,gap"]
    for row in rows:
        numbers = [_fmt_param(x) for x in (row.analytic, row.optimized, row.gap)]
        lines.append(",".join([row.family, _fmt_param(row.param), row.measure, *numbers]))
    return "\n".join(lines) + "\n"
