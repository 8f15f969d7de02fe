"""Continuity of the discord in the state: a close input cannot give a far value.

``Pi`` is an orthogonal projection in the Hilbert-Schmidt inner product, so sqrt(D) is
1-Lipschitz in S, the matrix the measure pinches. For affinity S = sqrt(rho), and the
Powers-Stormer inequality (Commun. Math. Phys. 16, 1, 1970),
||sqrt(rho) - sqrt(sigma)||_2^2 <= ||rho - sigma||_1, gives
|sqrt(D(rho)) - sqrt(D(sigma))| <= ||rho - sigma||_1^(1/2). For HS S = rho, so
|sqrt(D_HS(rho)) - sqrt(D_HS(sigma))| <= ||rho - sigma||_2.

The test draws pairs sigma = (1 - t) rho + t tau in a seeded loop, reports the worst
ratio of the two sides, and checks each bound on the value scale,
D(rho) <= (sqrt(D(sigma)) + bound)^2, under the margin of the route that computed it.
The optimizer's stop rule leaves a value up to about 1e-10 above its optimum, so at
t near 1e-12 an optimized HS pair can show a ratio above 1 within that margin.
"""

import numpy as np

from affinity_discord.correlation import discord
from affinity_discord.states import random_state, validate
from affinity_discord.tolerances import OPTIMIZER_REL_IMPROVEMENT

# round-off on values of order 1, as for the channel criterion
CLOSED_MARGIN = 1e-14
# an optimized value stops within about one sweep's gain of its optimum
OPTIMIZED_MARGIN = OPTIMIZER_REL_IMPROVEMENT


def _distances(rho, sigma) -> dict[str, float]:
    """The bound of each measure: ||rho - sigma||_1^(1/2) for affinity, ||rho - sigma||_2 for HS."""
    gap = np.linalg.eigvalsh(rho - sigma)
    return {"affinity": float(np.sqrt(np.sum(np.abs(gap)))), "hs": float(np.sqrt(np.sum(gap**2)))}


def test_sqrt_discord_is_continuous_in_the_state():
    rng = np.random.default_rng(2027)
    worst = {"affinity": 0.0, "hs": 0.0}
    pairs = 0
    for m in (2, 3):
        for n in (2, 3):
            for rank in range(1, m * n + 1):
                for t in 10.0 ** rng.uniform(-12.0, -1.0, size=6):
                    rho = random_state(m, n, rank=rank, seed=rng)
                    tau = random_state(m, n, seed=rng)
                    sigma = validate((1.0 - t) * rho.rho + t * tau.rho, m, n)
                    bounds = _distances(rho.rho, sigma.rho)
                    pairs += 1
                    for measure, bound in bounds.items():
                        results = [discord(rho, measure), discord(sigma, measure)]
                        values = [max(0.0, r.value) for r in results]  # round-off below 0 reads 0
                        optimized = any(r.method == "optimized-local" for r in results)
                        margin = OPTIMIZED_MARGIN if optimized else CLOSED_MARGIN
                        roots = np.sqrt(values)
                        worst[measure] = max(worst[measure], abs(roots[0] - roots[1]) / bound)
                        for v, other in ((values[0], roots[1]), (values[1], roots[0])):
                            assert v <= (other + bound) ** 2 + margin, (m, n, rank, t, measure)
    print(f"worst ratio over {pairs} pairs: affinity {worst['affinity']:.2f}, hs {worst['hs']:.2f}")
