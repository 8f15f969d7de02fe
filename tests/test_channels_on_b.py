"""The paper's local-ancilla criterion in its general form: a channel on B never raises the discord.

Measuring A and acting on B commute, so any CPTP map on the unmeasured party can only
lower the affinity discord (Roga, Spehner & Illuminati, J. Phys. A 49, 235301, 2016).
Each test draws its states and channels in a seeded loop, reports the worst rise it saw,
and holds it under a fixed margin. The negative control is Piani's (PRA 86, 034101,
2012): tracing out a mixed ancilla raises the Hilbert-Schmidt discord by 1 / Tr sigma^2.
"""

import numpy as np

from affinity_discord import linalg
from affinity_discord.correlation import closed_form_2xn
from affinity_discord.measures import optimize_affinity_discord, optimize_hs_discord
from affinity_discord.states import append_ancilla, random_density, random_state, validate
from affinity_discord.tolerances import OPTIMIZER_REL_IMPROVEMENT

# round-off on values of order 1; the largest rise seen over 2,000 maps was 2.5e-15
CLOSED_MARGIN = 1e-14
# an optimized value stops within about one sweep's gain of its optimum
OPTIMIZED_MARGIN = OPTIMIZER_REL_IMPROVEMENT


def _random_channel(n: int, n_out: int, rng) -> np.ndarray:
    """Kraus operators (r, n_out, n) of a random CPTP map, cut from a Haar isometry."""
    r = max(int(rng.integers(1, n * n_out + 1)), -(-n // n_out))
    return linalg.haar_unitary(r * n_out, seed=rng)[:, :n].reshape(r, n_out, n)


def _on_b(state, kraus):
    """sum_i (1 x K_i) rho (1 x K_i)^dagger; ``validate`` refuses a map that loses trace."""
    lifted = [np.kron(np.eye(state.dim_a), k) for k in kraus]
    rho = sum(big @ state.rho @ big.conj().T for big in lifted)
    return validate(rho, state.dim_a, kraus.shape[1])


def test_the_two_level_closed_form_never_rises_under_a_channel_on_b():
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(400):
        n, n_out = (int(d) for d in rng.integers(2, 5, size=2))
        state = random_state(2, n, rank=int(rng.integers(1, 2 * n + 1)), seed=rng)
        after = _on_b(state, _random_channel(n, n_out, rng))
        worst = max(worst, closed_form_2xn(after).value - closed_form_2xn(state).value)
    print(f"worst rise of closed_form_2xn over 400 maps: {worst:.2e}")
    assert worst <= CLOSED_MARGIN, f"worst rise {worst:.2e}"


def test_the_optimized_value_never_rises_under_a_channel_on_b():
    # 3x2 states mapped to 3x3: the optimizer runs on both sides
    rng = np.random.default_rng(2025)
    worst = -np.inf
    for _ in range(40):
        state = random_state(3, 2, rank=int(rng.integers(1, 7)), seed=rng)
        after = _on_b(state, _random_channel(2, 3, rng))
        rise = optimize_affinity_discord(after).value - optimize_affinity_discord(state).value
        worst = max(worst, rise)
    print(f"worst rise of the optimized value over 40 maps: {worst:.2e}")
    assert worst <= OPTIMIZED_MARGIN, f"worst rise {worst:.2e}"


def test_tracing_out_a_mixed_ancilla_raises_hs_by_the_inverse_purity():
    # the same channel machinery on rho x sigma: HS rises by 1 / Tr sigma^2, affinity stays
    rng = np.random.default_rng(2026)
    worst = -np.inf
    for _ in range(20):
        n, d = (int(x) for x in rng.integers(2, 4, size=2))
        state = random_state(2, n, seed=rng)
        sigma = random_density(d, seed=rng)
        enlarged = append_ancilla(state, sigma)
        trace_out = np.eye(n)[None, :, :, None] * np.eye(d)[:, None, None, :]
        after = _on_b(enlarged, trace_out.reshape(d, n, n * d))
        hs_before = optimize_hs_discord(enlarged).value
        hs_after = optimize_hs_discord(after).value
        purity = float(np.real(np.trace(sigma @ sigma)))
        assert hs_after - hs_before > 1e-4
        assert abs(hs_after / hs_before - 1.0 / purity) < 1e-9
        worst = max(worst, closed_form_2xn(after).value - closed_form_2xn(enlarged).value)
    print(f"worst rise of closed_form_2xn when the ancilla is traced out: {worst:.2e}")
    assert worst <= CLOSED_MARGIN, f"worst rise {worst:.2e}"
