"""Benchmark workloads: seeded inputs, independent references, and output checks.

An item is one unit of user work: one ``compute`` invocation of the CLI, or
one ``sweep`` call on a single parameter point. Inputs derive only from the
workload seed. References are computed here, before any item runs, and never
by the code path under test: Schmidt spectra from the amplitudes, spectral
bounds from the realigned square root, and the analytic family oracles.
Tolerances come from ``verification.DEFAULT_CHECK_TOLERANCES`` at run time.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import affinity_discord as ad
from affinity_discord import cli, linalg
from affinity_discord.verification import DEFAULT_CHECK_TOLERANCES

QUBIT_DIMS_B = (2, 3, 4, 8, 16, 32)
QUBIT_BELL_TRIPLES = 6
QUBIT_ANCILLA_DIMS = (2, 4, 8)
SWEEP_POINTS = 41
WARMUP_BUDGET = 600


@dataclass(frozen=True)
class Expect:
    """Reference for one output value.

    ``value`` is the exact reference, or None when only the bracket
    ``[bound, 1]`` is known. ``closed`` marks an output from a closed form,
    which must match its reference; an optimizer output may sit above an
    exact minimum but never below it.
    """

    value: float | None
    tol_key: str
    closed: bool
    bound: float = -math.inf


@dataclass
class Item:
    kind: str
    label: str
    call: tuple
    expect: dict[str, Expect]


@dataclass
class Outcome:
    """Check of one item's output against its references."""

    ok: bool = True  # ran, exit 0, and every value within tolerance
    sound: bool = True  # ran, exit 0, and no value on the impossible side of its reference
    gap: float = 0.0
    brackets: list[float] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)


def realigned_bound(rho: np.ndarray, m: int, n: int, use_sqrt: bool) -> float:
    """Ky Fan bound ``Tr(S^2) - (top m eigenvalues of R R^dagger)`` for S = sqrt(rho) or rho.

    ``R[(a, b), (i, j)] = S[(a, i), (b, j)]`` is the realignment of S. This is
    the spectral bound computed without the Gell-Mann expansion the library
    uses, so it is an independent reference for the bracket check.
    """
    w, v = np.linalg.eigh(rho)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T if use_sqrt else rho
    r = s.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    mu = np.linalg.eigvalsh(r @ r.conj().T)
    return float(np.real(np.vdot(s, s))) - float(np.sum(mu[-m:]))


def _local_rotation(state: ad.BipartiteState, rng) -> ad.BipartiteState:
    big = np.kron(linalg.haar_unitary(state.dim_a, rng), linalg.haar_unitary(state.dim_b, rng))
    return ad.validate(big @ state.rho @ big.conj().T, state.dim_a, state.dim_b)


def _bell_triple(rng) -> tuple[float, float, float]:
    """Uniform point of the Bell-diagonal tetrahedron (weights Dirichlet(1,1,1,1))."""
    vertices = np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1], [-1, -1, -1]], dtype=float)
    return tuple(float(c) for c in rng.dirichlet(np.ones(4)) @ vertices)


class Workload:
    """Shared loop plumbing; subclasses build items and run one."""

    name = ""
    # Expected traced call counts per item, by item kind. Names absent here
    # must not be called at all.
    expected_calls: dict[str, dict[str, int]] = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tol = dict(DEFAULT_CHECK_TOLERANCES)

    def build(self) -> list[Item]:
        raise NotImplementedError

    def call(self, item: Item):
        raise NotImplementedError

    def outputs(self, item: Item, raw) -> tuple[dict[str, float], list[str]]:
        raise NotImplementedError

    def warm_up(self, items: list[Item]) -> None:
        raise NotImplementedError

    def check(self, item: Item, raw) -> Outcome:
        out = Outcome()
        values, out.methods = self.outputs(item, raw)
        for key, exp in item.expect.items():
            value = values.get(key)
            tol = self.tol[exp.tol_key]
            if value is None or not math.isfinite(value):
                out.ok = out.sound = False
                out.gap = math.inf
                out.misses.append(f"{key}: missing or non-finite")
                continue
            if exp.value is not None:
                gap = abs(value - exp.value)
                below = value < exp.value - tol
                sound = gap <= tol if exp.closed else not below
            else:
                gap = max(0.0, exp.bound - value, value - 1.0)
                sound = gap <= tol
                out.brackets.append(value - exp.bound)
            out.gap = max(out.gap, gap)
            if gap > tol:
                out.ok = False
                out.misses.append(f"{key}: gap {gap:.3e} > {exp.tol_key} {tol:.1e}")
            out.sound = out.sound and sound and value <= 1.0 + tol
        return out


class _ComputeWorkload(Workload):
    """Items are ``cli.main(["compute", ...])`` calls on state files."""

    extra_argv: tuple[str, ...] = ()

    def _item(self, kind, label, state, expect, argv_tail=()) -> Item:
        path = os.path.join(self.workdir, f"{self.name}_{label}.json")
        ad.save_state(state, path)
        out = path[: -len(".json")] + ".out.json"
        argv = ["compute", "--state", path, *self.extra_argv, *argv_tail, "--out", out]
        return Item(kind, label, ("cli", argv, out), expect)

    def call(self, item: Item):
        return cli.main(item.call[1])

    def outputs(self, item, raw):
        if raw != cli.EXIT_OK:
            return {}, [f"exit {raw}"]
        with open(item.call[2], encoding="utf-8") as fh:
            measures = json.load(fh)["measures"]
        return (
            {m: float(e["value"]) for m, e in measures.items()},
            [e["method"] for e in measures.values()],
        )


class ComputeQubit(_ComputeWorkload):
    """Default ``--method auto`` on 2 x n states: the closed-pure and closed-2xn routes."""

    name = "compute_qubit"
    extra_argv = ("--measure", "affinity")
    _closed = {
        "cli.main": 1,
        "states.state_from_json": 1,
        "states.validate": 1,
        "linalg.matrix_sqrt_psd": 2,
        "correlation.correlation_matrix": 2,
        "correlation.gell_mann_basis": 4,
        "correlation.closed_form_2xn": 1,
        "correlation.lower_bound": 1,
    }
    _pure = {
        "cli.main": 1,
        "states.state_from_json": 1,
        "states.validate": 1,
        "linalg.matrix_sqrt_psd": 1,
        "correlation.correlation_matrix": 1,
        "correlation.gell_mann_basis": 2,
        "correlation.lower_bound": 1,
        "measures.pure_discord": 1,
    }
    expected_calls = {"pure": _pure, "mixed": _closed, "belldiag": _closed, "belldiag+ancilla": _closed}

    def build(self) -> list[Item]:
        rng = np.random.default_rng(self.seed)
        items = []
        for n in QUBIT_DIMS_B:
            for rank in sorted({1, 2, n, 2 * n}):
                label = f"2x{n}_rank{rank}"
                if rank == 1:
                    amps = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
                    amps /= np.linalg.norm(amps)
                    lam = np.linalg.svd(amps.reshape(2, n), compute_uv=False) ** 2
                    state = ad.validate(np.outer(amps, amps.conj()), 2, n)
                    expect = Expect(1.0 - float(np.sum(lam**2)), "pure_closed", True)
                    items.append(self._item("pure", label, state, {"affinity": expect}))
                else:
                    state = ad.random_state(2, n, rank=rank, seed=rng)
                    bound = realigned_bound(state.rho, 2, n, use_sqrt=True)
                    expect = Expect(None, "bound_vs_closed", True, bound)
                    items.append(self._item("mixed", label, state, {"affinity": expect}))
        for k in range(QUBIT_BELL_TRIPLES):
            c = _bell_triple(rng)
            expect = {"affinity": Expect(ad.bell_diagonal_discord(*c), "lu_closed", True)}
            state = _local_rotation(ad.bell_diagonal(*c), rng)
            items.append(self._item("belldiag", f"belldiag{k}", state, expect))
            anc_dim = QUBIT_ANCILLA_DIMS[k % len(QUBIT_ANCILLA_DIMS)]
            sigma = ad.random_density(anc_dim, seed=rng)
            enlarged = ad.append_ancilla(state, sigma)
            items.append(
                self._item("belldiag+ancilla", f"belldiag{k}_anc{anc_dim}", enlarged, expect)
            )
        return items

    def warm_up(self, items):
        for kind in ("pure", "mixed"):
            self.call(next(it for it in items if it.kind == kind))


class ComputeQudit(_ComputeWorkload):
    """``--method optimize --measure all`` on qudit states: Nelder-Mead multistart."""

    name = "compute_qudit"
    extra_argv = ("--method", "optimize", "--measure", "all")
    _optimized = {
        "cli.main": 1,
        "states.state_from_json": 1,
        "states.validate": 1,
        "linalg.matrix_sqrt_psd": 4,
        "correlation.correlation_matrix": 2,
        "correlation.gell_mann_basis": 4,
        "correlation.lower_bound": 2,
        "measures.optimize_affinity_discord": 1,
        "measures.optimize_hs_discord": 1,
        "measures.remedied_hs_discord": 1,
    }
    expected_calls = {"cq": _optimized, "isotropic+ancilla": _optimized, "random": _optimized}

    def build(self) -> list[Item]:
        rng = np.random.default_rng(self.seed)
        items = []
        for m in (4, 6):
            blocks = [ad.random_density(2, seed=rng) for _ in range(m)]
            state = _local_rotation(ad.classical_quantum(np.full(m, 1.0 / m), blocks), rng)
            zero = Expect(0.0, "zero_discord", False)
            expect = {"affinity": zero, "hs": zero, "remedied": zero}
            items.append(self._item("cq", f"cq{m}x2", state, expect, self._seed_arg(rng)))

        x = float(rng.uniform(0.0, 1.0))
        sigma = ad.random_density(2, seed=rng)
        state = _local_rotation(ad.append_ancilla(ad.isotropic(3, x), sigma), rng)
        aff, hs = ad.isotropic_discords(3, x)
        expect = {
            "affinity": Expect(aff, "m3_gap", False),
            "hs": Expect(hs * float(np.real(np.vdot(sigma, sigma))), "m3_gap", False),
            "remedied": Expect(aff, "m3_gap", False),
        }
        items.append(self._item("isotropic+ancilla", "iso3x6", state, expect, self._seed_arg(rng)))

        state = ad.random_state(6, 2, seed=rng)
        sqrt_bound = realigned_bound(state.rho, 6, 2, use_sqrt=True)
        expect = {
            "affinity": Expect(None, "bound_slack", False, sqrt_bound),
            "hs": Expect(None, "bound_slack", False, realigned_bound(state.rho, 6, 2, use_sqrt=False)),
            "remedied": Expect(None, "bound_slack", False, sqrt_bound),
        }
        items.append(self._item("random", "random6x2", state, expect, self._seed_arg(rng)))
        return items

    @staticmethod
    def _seed_arg(rng) -> tuple[str, str]:
        return ("--seed", str(int(rng.integers(2**31))))

    def warm_up(self, items):
        first = items[0]
        argv = [*first.call[1], "--budget", str(WARMUP_BUDGET)]
        cli.main(argv)


class SweepFig1(Workload):
    """One-point ``sweep`` calls: the Fig. 1 Werner grid and seeded Bell-diagonal triples."""

    name = "sweep_fig1"
    expected_calls = {
        "werner2": {
            "families.sweep": 1,
            "states.validate": 1,
            "linalg.matrix_sqrt_psd": 1,
            "measures.optimize_affinity_discord": 1,
            "measures.optimize_hs_discord": 1,
            "families.werner_two_qubit_discords": 2,
        },
        "belldiag": {
            "families.sweep": 1,
            "states.validate": 1,
            "linalg.matrix_sqrt_psd": 1,
            "measures.optimize_affinity_discord": 1,
            "measures.optimize_hs_discord": 1,
            "families.bell_diagonal_discord": 2,
            "families.bell_diagonal_hs_discord": 2,
        },
    }

    def build(self) -> list[Item]:
        rng = np.random.default_rng(self.seed)
        werner = []
        for p in np.linspace(-1.0 / 3.0, 1.0, SWEEP_POINTS):
            p = float(p)
            refs = (ad.bell_diagonal_discord(-p, -p, -p), p * p / 2.0)
            werner.append(self._item("werner2", f"werner2_p{p:+.4f}", p, refs, rng))
        bell = []
        for k in range(SWEEP_POINTS):
            c = _bell_triple(rng)
            refs = (ad.bell_diagonal_discord(*c), ad.bell_diagonal_hs_discord(*c))
            bell.append(self._item("belldiag", f"belldiag{k}", c, refs, rng))
        # interleaved so a run cut short still sees both landscapes
        return [it for pair in zip(werner, bell) for it in pair]

    def _item(self, family, label, param, refs, rng) -> Item:
        expect = {}
        for measure, ref in zip(("affinity", "hs"), refs):
            expect[measure] = Expect(ref, "fig1_optimized", False)
            expect[measure + ".analytic"] = Expect(ref, "fig1_analytic", True)
        return Item(family, label, (family, param, int(rng.integers(2**31))), expect)

    def call(self, item: Item):
        family, param, seed = item.call
        return ad.sweep(family, [param], measures=("affinity", "hs"), seed=seed)

    def outputs(self, item, raw):
        values = {}
        for row in raw:
            values[row.measure] = float(row.optimized)
            values[row.measure + ".analytic"] = float(row.analytic)
        return values, []

    def warm_up(self, items):
        family, param, seed = items[0].call
        ad.sweep(family, [param], measures=("affinity", "hs"), budget=WARMUP_BUDGET, seed=seed)


WORKLOADS = {w.name: w for w in (ComputeQubit, ComputeQudit, SweepFig1)}
