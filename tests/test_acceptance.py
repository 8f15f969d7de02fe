"""Acceptance suite: every exit criterion, one test each, at its stated tolerance.

Each test prints one pass/fail line with the measured worst gaps; run with
``pytest -v -s tests/test_acceptance.py`` to see them all.
"""

import time

from affinity_discord.verification import run_checks

SEED = 20260810


def _run(name: str, criterion: str, runtime_limit: float | None = None):
    t0 = time.monotonic()
    (res,) = run_checks(seed=SEED, names=[name])
    elapsed = time.monotonic() - t0
    gaps = ", ".join(
        f"{key}={value:.3e} (tol {res.tolerances[key]:.1e})"
        for key, value in res.gaps.items()
        if key in res.tolerances
    )
    status = "PASS" if res.passed else "FAIL"
    line = f"[{status}] {criterion}: {gaps}; runtime {elapsed:.1f}s"
    print(line)
    assert res.passed, line
    if runtime_limit is not None:
        assert elapsed < runtime_limit, f"{criterion} took {elapsed:.1f}s > {runtime_limit}s"
    return res


def test_criterion_01_werner_sweep_reproduction():
    _run("fig1_werner_sweep", "criterion 1 (two-qubit Werner sweep)", runtime_limit=30.0)


def test_criterion_02_pure_state_formula():
    _run("pure_state_formula", "criterion 2 (pure-state closed form)")


def test_criterion_03_closed_form_vs_optimizer():
    _run("closed_vs_optimizer", "criterion 3 (closed form vs optimizer)")


def test_criterion_04_bound_dominance():
    res = _run("bound_dominance", "criterion 4 (spectral bound dominance)")
    assert res.notes["m3_min_bracket"] > 0.0  # the dim_a = 3 states test a strict bound


def test_criterion_05_ancilla_invariance():
    _run("ancilla_invariance", "criterion 5 (ancilla invariance and HS scaling)")


def test_criterion_06_zero_discord_classes():
    _run("zero_discord_classes", "criterion 6 (zero-discord classes)")


def test_criterion_07_local_unitary_invariance():
    _run("local_unitary_invariance", "criterion 7 (local-unitary invariance)")


def test_criterion_08_family_zeros_and_asymptotics():
    _run("family_zeros_asymptotics", "criterion 8 (family zeros and asymptotics)")


def test_criterion_09_three_level_families():
    _run("m3_family_optimization", "criterion 9 (m=3 family optimization)", runtime_limit=10.0)


def test_criterion_10_numerical_substrate():
    _run("numerical_substrate", "criterion 10 (numerical substrate)")
