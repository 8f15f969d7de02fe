"""Oracle-vs-implementation verification checks.

Each check compares independently derived values (analytic family formulas,
Schmidt spectra, brute-force optimization) against the library's primary
code paths and reports the worst observed gap. The same checks back the
``verify`` CLI command and the acceptance test suite. All randomness
derives from a single seed: each check draws each stream as the next child of
the SeedSequence it is handed (``_child``), so a fixed seed gives identical results;
only each check's wall time, ``runtime_s``, varies from run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .correlation import closed_form_2xn, correlation_matrix, discord, lower_bound
from .errors import ValidationError, _require_int
from .families import (
    bell_diagonal_discord,
    isotropic_discords,
    sweep,
    werner_general_discords,
    werner_two_qubit_discords,
)
from .measures import (
    _kernel,
    _two_level_oracle,
    affinity,
    affinity_discord_at,
    optimize_affinity_discord,
    optimize_hs_discord,
)
from .states import (
    append_ancilla,
    classical_quantum,
    maximally_entangled,
    product_state,
    random_density,
    random_pure_state,
    random_state,
    schmidt_spectrum,
    validate,
    werner_two_qubit,
)
DEFAULT_CHECK_TOLERANCES: dict[str, float] = {
    "fig1_analytic": 1e-9,
    "fig1_optimized": 1e-5,
    "pure_optimized": 1e-5,
    "pure_closed": 1e-10,
    "pure_maxent": 1e-6,
    "closed_vs_optimizer": 1e-5,
    "bound_slack": 1e-6,
    "bound_vs_closed": 1e-9,
    "ancilla": 2e-5,
    "zero_discord": 1e-6,
    "lu_closed": 1e-9,
    "lu_optimized": 2e-5,
    "family_zero": 1e-12,
    "asymptotic": 0.05,
    "m3_gap": 1e-4,
    "sqrt_residual": 1e-9,
    "parseval": 1e-10,
    "affinity_symmetry": 1e-12,
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    tolerances: dict[str, float]
    gaps: dict[str, float]
    notes: dict[str, object] = field(default_factory=dict)
    runtime_s: float = 0.0  # wall time of the check, set by run_checks

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "tolerances": self.tolerances,
            "gaps": self.gaps,
            "notes": self.notes,
            "runtime_s": self.runtime_s,
        }


def _result(name, gaps, notes=None) -> CheckResult:
    tols = {key: DEFAULT_CHECK_TOLERANCES[key] for key in gaps}
    passed = all(gap <= tols[key] for key, gap in gaps.items())
    return CheckResult(name, passed, tols, gaps, notes or {})


def _child(seed: np.random.SeedSequence) -> np.random.SeedSequence:
    """The next child of ``seed``; ``spawn`` numbers children from the sequence's own counter."""
    return seed.spawn(1)[0]


def check_fig1_werner_sweep(seed) -> CheckResult:
    """Two-qubit Werner sweep: analytic curves, optimizer agreement, endpoints."""
    ps = np.linspace(-1.0 / 3.0, 1.0, 41)
    rows = sweep("werner2", ps, measures=("affinity", "hs"))
    gap_analytic = 0.0
    gap_opt = {"affinity": 0.0, "hs": 0.0}
    endpoint_analytic = 0.0
    endpoint_opt = 0.0
    for row in rows:
        p = float(row.param)
        if row.measure == "affinity":
            # Independent analytic route through the Bell-diagonal square root.
            gap_analytic = max(gap_analytic, abs(row.analytic - bell_diagonal_discord(-p, -p, -p)))
        gap_opt[row.measure] = max(gap_opt[row.measure], row.gap)
        if abs(p) < 1e-12:
            endpoint_analytic = max(endpoint_analytic, abs(row.analytic))
            endpoint_opt = max(endpoint_opt, abs(row.optimized))
        if abs(p - 1.0) < 1e-12:
            endpoint_analytic = max(endpoint_analytic, abs(row.analytic - 0.5))
            endpoint_opt = max(endpoint_opt, abs(row.optimized - 0.5))
    # the endpoint gaps share the row gaps' tolerances, so they enter the same maxima
    gaps = {
        "fig1_analytic": max(gap_analytic, endpoint_analytic),
        "fig1_optimized": max(*gap_opt.values(), endpoint_opt),
    }
    notes = {
        "rows": len(rows),
        "endpoint_analytic_gap": endpoint_analytic,
        "endpoint_optimized_gap": endpoint_opt,
    }
    return _result("fig1_werner_sweep", gaps, notes)


def check_pure_state_formula(seed) -> CheckResult:
    """Optimized discord of pure states equals 1 - sum s_k^2."""
    gap_opt = 0.0
    gap_closed = 0.0
    for dim_a, dim_b in [(2, 2)] * 10 + [(2, 3)] * 10 + [(3, 3)] * 10:
        psi = random_pure_state(dim_a, dim_b, _child(seed))
        expected = 1.0 - float(np.sum(schmidt_spectrum(psi) ** 2))
        state = psi.to_density()
        opt = optimize_affinity_discord(state)
        gap_opt = max(gap_opt, abs(opt.value - expected))
        if dim_a == 2:
            gap_closed = max(gap_closed, abs(closed_form_2xn(state).value - expected))
    gap_maxent = 0.0
    for m in (2, 3):
        state = maximally_entangled(m).to_density()
        opt = optimize_affinity_discord(state)
        gap_maxent = max(gap_maxent, abs(opt.value - (m - 1.0) / m))
    gaps = {
        "pure_optimized": gap_opt,
        "pure_closed": gap_closed,
        "pure_maxent": gap_maxent,
    }
    return _result("pure_state_formula", gaps, {"states": 32})


def check_closed_vs_optimizer(seed) -> CheckResult:
    """Exact two-level closed form (Gamma route) matches the squaring oracle on K.

    The oracle reads lambda_max of the pair form G by repeated squaring, with no
    eigensolver, so it checks the closed form's eigenvalue, not the optimizer's pair step.
    """
    gap = 0.0
    for i in range(50):
        state = random_state(2, 2, rank=(i % 4) + 1, seed=_child(seed))
        closed = closed_form_2xn(state).value
        k, offset = _kernel(state, "affinity")
        opt = offset - _two_level_oracle(k)
        gap = max(gap, abs(closed - opt))
    return _result("closed_vs_optimizer", {"closed_vs_optimizer": gap}, {"states": 50})


def check_bound_dominance(seed) -> CheckResult:
    """Spectral lower bound never exceeds the optimized discord, and is attained at dim_a = 2.

    For a two-level A the bound is exact, so ``bound_slack`` reads how far the
    optimizer lands below it, which is round-off, and ``bound_vs_closed`` reads how
    far the closed form's basis, evaluated on the K route (independent of Gamma),
    lies from the bound. The 3x2 and 3x3 states test a strict bound:
    ``m3_min_bracket`` is the least ``value - bound`` among them.
    """
    over_opt = -np.inf
    attained = 0.0
    for i in range(50):
        dim_b = 2 if i < 25 else 3
        rank = (i % (2 * dim_b)) + 1
        state = random_state(2, dim_b, rank=rank, seed=_child(seed))
        bound = lower_bound(state)
        opt = optimize_affinity_discord(state).value
        at_closed = affinity_discord_at(state, closed_form_2xn(state).optimal_measurement)
        over_opt = max(over_opt, bound - opt)
        attained = max(attained, abs(at_closed - bound))
    m3_min_bracket = np.inf
    for dim_b in [2] * 5 + [3] * 5:
        state = random_state(3, dim_b, seed=_child(seed))
        gap = lower_bound(state) - optimize_affinity_discord(state).value
        over_opt = max(over_opt, gap)
        m3_min_bracket = min(m3_min_bracket, -gap)
    gaps = {
        "bound_slack": max(0.0, over_opt),
        "bound_vs_closed": attained,
    }
    return _result("bound_dominance", gaps, {"states": 60, "m3_min_bracket": m3_min_bracket})


def check_ancilla_invariance(seed) -> CheckResult:
    """Appending an ancilla on B leaves affinity discord fixed and scales HS by Tr(sigma^2)."""
    sigmas = {
        "pure": np.diag([1.0, 0.0]).astype(complex),
        "maximally-mixed": np.eye(2, dtype=complex) / 2.0,
        "diag(0.9,0.1)": np.diag([0.9, 0.1]).astype(complex),
    }
    gap_aff = 0.0
    gap_hs = 0.0
    for p in (0.3, 0.7, 1.0):
        state = werner_two_qubit(p)
        aff_before = optimize_affinity_discord(state).value
        hs_before = optimize_hs_discord(state).value
        for sigma in sigmas.values():
            enlarged = append_ancilla(state, sigma)
            aff_after = optimize_affinity_discord(enlarged).value
            hs_after = optimize_hs_discord(enlarged).value
            gap_aff = max(gap_aff, abs(aff_after - aff_before))
            gap_hs = max(gap_hs, abs(hs_after - hs_before * linalg.frobenius_norm_sq(sigma)))
    gaps = {"ancilla": max(gap_aff, gap_hs)}
    notes = {"affinity_gap": gap_aff, "hs_scaling_gap": gap_hs}
    return _result("ancilla_invariance", gaps, notes)


def check_zero_discord_classes(seed) -> CheckResult:
    """Classical-quantum and product states report (near) zero affinity discord."""
    worst = 0.0
    for i in range(10):
        dim_a = 2 if i < 7 else 3
        rng = np.random.default_rng(_child(seed))
        probs = rng.dirichlet(np.ones(dim_a))
        blocks = [random_density(2, seed=_child(seed)) for _ in range(dim_a)]
        state = classical_quantum(probs, blocks)
        worst = max(worst, abs(discord(state).value))
    for i in range(10):
        dim_a = 2 if i < 7 else 3
        a = random_density(dim_a, seed=_child(seed))
        b = random_density(3 if dim_a == 2 else 2, seed=_child(seed))
        state = product_state(a, b)
        worst = max(worst, abs(discord(state).value))
    return _result("zero_discord_classes", {"zero_discord": worst}, {"states": 20})


def check_local_unitary_invariance(seed) -> CheckResult:
    """Discord is unchanged by local unitaries on either party."""
    gap_closed = 0.0
    gap_opt = 0.0
    for i in range(20):
        dim_b = 2 if i % 2 == 0 else 3
        state = random_state(2, dim_b, rank=(i % (2 * dim_b)) + 1, seed=_child(seed))
        u = linalg.haar_unitary(2, _child(seed))
        v = linalg.haar_unitary(dim_b, _child(seed))
        big = np.kron(u, v)
        rotated = validate(big @ state.rho @ big.conj().T, 2, dim_b)
        gap_closed = max(
            gap_closed, abs(closed_form_2xn(state).value - closed_form_2xn(rotated).value)
        )
        gap_opt = max(
            gap_opt,
            abs(optimize_affinity_discord(state).value - optimize_affinity_discord(rotated).value),
        )
    gaps = {"lu_closed": gap_closed, "lu_optimized": gap_opt}
    return _result("local_unitary_invariance", gaps, {"triples": 20})


def check_family_zeros_asymptotics(seed) -> CheckResult:
    """Family formulas vanish at their fixed points and approach their large-m limits."""
    gap_zero = 0.0
    for m in (2, 3, 4):
        aff, hs = werner_general_discords(m, 1.0 / m)
        gap_zero = max(gap_zero, abs(aff), abs(hs))
        aff, hs = isotropic_discords(m, 1.0 / m**2)
        gap_zero = max(gap_zero, abs(aff), abs(hs))
    gap_asym = 0.0
    for x in (0.2, 0.5, 0.9):
        aff, _ = werner_general_discords(64, x)
        gap_asym = max(gap_asym, abs(aff - 0.5 * (1.0 - np.sqrt(1.0 - x * x))))
        aff, _ = isotropic_discords(64, x)
        gap_asym = max(gap_asym, abs(aff - x))
    gaps = {"family_zero": gap_zero, "asymptotic": gap_asym}
    return _result("family_zeros_asymptotics", gaps)


def check_m3_family_optimization(seed) -> CheckResult:
    """Multistart optimizer reproduces the analytic m=3 Werner and isotropic values."""
    rng = np.random.default_rng(_child(seed))
    rows = sweep("werner", rng.uniform(-1.0, 1.0, 5), measures=("affinity",), dim=3)
    rows += sweep("isotropic", rng.uniform(0.0, 1.0, 5), measures=("affinity",), dim=3)
    gap = max(row.gap for row in rows)
    return _result("m3_family_optimization", {"m3_gap": gap}, {"states": len(rows)})


def check_numerical_substrate(seed) -> CheckResult:
    """Square-root residuals, expansion completeness, and affinity symmetry."""
    gap_sqrt = 0.0
    gap_parseval = 0.0
    states = []
    for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
        dim = dim_a * dim_b
        for rank in (1, max(2, dim // 2), dim):
            state = random_state(dim_a, dim_b, rank=rank, seed=_child(seed))
            states.append(state)
            s = state.sqrt()
            residual = float(np.max(np.abs(s @ s - state.rho)))
            gap_sqrt = max(gap_sqrt, residual / max(1e-300, float(np.max(np.abs(state.rho)))))
            gamma = correlation_matrix(state)
            gap_parseval = max(gap_parseval, abs(float(np.sum(gamma**2)) - 1.0))
    gap_sym = 0.0
    for _ in range(5):
        a = random_density(4, seed=_child(seed))
        b = random_density(4, seed=_child(seed))
        gap_sym = max(gap_sym, abs(affinity(a, b) - affinity(b, a)))
    gaps = {
        "sqrt_residual": gap_sqrt,
        "parseval": gap_parseval,
        "affinity_symmetry": gap_sym,
    }
    return _result("numerical_substrate", gaps, {"states": len(states)})


CHECKS = (
    ("fig1_werner_sweep", check_fig1_werner_sweep),
    ("pure_state_formula", check_pure_state_formula),
    ("closed_vs_optimizer", check_closed_vs_optimizer),
    ("bound_dominance", check_bound_dominance),
    ("ancilla_invariance", check_ancilla_invariance),
    ("zero_discord_classes", check_zero_discord_classes),
    ("local_unitary_invariance", check_local_unitary_invariance),
    ("family_zeros_asymptotics", check_family_zeros_asymptotics),
    ("m3_family_optimization", check_m3_family_optimization),
    ("numerical_substrate", check_numerical_substrate),
)

CHECK_NAMES = tuple(name for name, _ in CHECKS)


def run_checks(seed: int = 0, names: list[str] | None = None) -> list[CheckResult]:
    """Run verification checks; per-check seeds derive from the single master seed.

    Seeds are assigned over the full registry so that selecting a subset of
    checks does not change any check's random stream. Every gap is compared
    with its fixed tolerance in ``DEFAULT_CHECK_TOLERANCES``. ``seed`` is a
    non-negative integer; ``names`` is a list of check names, not one string.
    """
    seed = _require_int(seed, "seed", 0)
    if isinstance(names, str):
        raise ValidationError(f"names must be a list of check names, got the string {names!r}")
    selected = set(names) if names is not None else set(CHECK_NAMES)
    unknown = sorted(selected - set(CHECK_NAMES))
    if unknown:
        raise ValidationError(f"unknown checks: {', '.join(n or repr(n) for n in unknown)}")
    children = np.random.SeedSequence(seed).spawn(len(CHECKS))
    results = []
    for (name, fn), child in zip(CHECKS, children):
        if name in selected:
            start = time.perf_counter()
            result = fn(child)
            result.runtime_s = time.perf_counter() - start
            results.append(result)
    return results
