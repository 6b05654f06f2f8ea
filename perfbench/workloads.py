"""The benchmark's three workloads, built from a seed and run in rounds.

Every workload is an object whose constructor is the set-up (scenario,
problem and the terminal designs a sweep needs) and whose `round()` runs one
round of operations through the public API of `lqmpc`.  Each round of a
workload runs the same operations, so every round does the same work and
gives the same results.

Calls go through module attributes (`bounds.full_report`, not a name
imported once), so that a traced run sees the benchmark's own calls as well
as the calls the program's modules make to each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from lqmpc import bounds, cmpc, polytope, riccati, scenarios

# Process count of every grid sweep.  Fixed rather than taken from the core
# count, so that runs on different machines do the same work per worker.
WORKERS = 2
# Horizon of the near-optimal closed loop that `suboptimality_map` and
# `approx_optimal_cost` use for J_opt.
APPROX_OPT_HORIZON = 100
# Monte Carlo sample count of each volume above two dimensions.
MC_SAMPLES = 1_000_000


def attempt(call):
    """The call's result, or the exception it raised: a failed operation is
    counted, not fatal."""
    try:
        return call()
    except Exception as exc:
        return exc


def _stratified_zetas(rng, lo: float, hi: float, count: int) -> list[float]:
    """One amplification per equal slice of [log lo, log hi): spread over the
    range whatever the seed, so the work per round hardly depends on it."""
    edges = np.linspace(math.log(lo), math.log(hi), count + 1)
    return [float(math.exp(rng.uniform(a, b))) for a, b in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class DesignResult:
    scenario: str
    zeta: float
    K: np.ndarray
    reports: tuple
    design: "cmpc.TerminalDesign"
    volume: float

    def digest(self) -> bytes:
        nums = [self.K.ravel(), self.design.S.H.ravel(), self.design.S.h, [self.volume]]
        for rep in self.reports:
            nums.append([float(v) for v in vars(rep).values()])
        return np.concatenate([np.asarray(v, dtype=float).ravel() for v in nums]).tobytes()


class DesignWorkload:
    """One operation evaluates one candidate terminal design (scenario, zeta):
    `zeta_dare`, `full_report` at several horizons, the amplified terminal
    set and its volume -- the workflow for tuning zeta."""

    name = "design"
    HORIZONS = (1, 3, 10, 20)
    # scenario: (lowest zeta, highest zeta, designs per round)
    ZETA_RANGES = {"di-2d": (1.5, 50.0, 4), "ac-4d": (1.5, 12.0, 4)}

    def __init__(self, seed: int, ranges=None, horizons=None):
        rng = np.random.default_rng(seed)
        self.horizons = tuple(horizons or self.HORIZONS)
        self.problems = {}
        self.cases = []
        for name, (lo, hi, count) in (ranges or self.ZETA_RANGES).items():
            self.problems[name] = scenarios.load_scenario(name).constrained_problem()
            self.cases += [(name, z) for z in _stratified_zetas(rng, lo, hi, count)]
        self.mc_seed = int(rng.integers(2**31))

    @property
    def ops_per_round(self) -> int:
        return len(self.cases)

    def op(self, scenario: str, zeta: float) -> DesignResult:
        prob = self.problems[scenario]
        K = riccati.zeta_dare(prob.sys, zeta)
        reports = tuple(bounds.full_report(prob.sys, K, ell) for ell in self.horizons)
        design = cmpc.TerminalDesign.for_amplified_cost(prob, zeta)
        vol = polytope.volume(design.S, n_samples=MC_SAMPLES, seed=self.mc_seed)
        return DesignResult(scenario, zeta, K, reports, design, vol)

    def parts(self) -> list:
        """One round as (key, call) pairs: one part per design."""
        return [(i, functools.partial(self.op, *case)) for i, case in enumerate(self.cases)]

    def round(self, each=attempt) -> list:
        """Results in case order; an operation that raises gives its exception.
        `each` runs one part (the timed run passes a timing `attempt`)."""
        return [each(call) for _, call in self.parts()]


def lattice_spec(box, resolution: int, offset) -> dict:
    """Cell-centred lattice over the box: `resolution` points per axis at
    spacing w = width / resolution, starting `offset` * w above the low edge
    (offset in [0, 1) per axis), so every point lies inside the box."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    w = (hi - lo) / resolution
    first = lo + np.asarray(offset) * w
    last = first + (resolution - 1) * w
    return {"resolution": resolution, "bounds": (tuple(first), tuple(last))}


class _SweepWorkload:
    """Grid sweeps on `di-2d` at the scenario horizon over a seeded lattice;
    one operation is one grid cell."""

    def __init__(self, seed: int, resolution: int, kinds):
        rng = np.random.default_rng(seed)
        sc = scenarios.load_scenario("di-2d")
        self.prob = sc.constrained_problem()
        self.ell = sc.horizon
        self.designs = {}
        for kind in kinds:
            if kind == "amplified":
                self.designs[kind] = cmpc.TerminalDesign.for_amplified_cost(
                    self.prob, sc.amplification())
            else:
                self.designs[kind] = cmpc.TerminalDesign.for_optimal_cost(self.prob)
        self.spec = lattice_spec(self.prob.box, resolution, rng.uniform(0.0, 1.0, size=2))
        self.resolution = resolution
        self.sample_seed = int(rng.integers(2**31))

    @property
    def ops_per_round(self) -> int:
        return len(self.designs) * self.resolution**2

    def parts(self) -> list:
        """One round as (key, call) pairs: one sweep per design kind."""
        return [(kind, functools.partial(self.sweep, self.prob, design, self.ell, self.spec,
                                         workers=WORKERS))
                for kind, design in self.designs.items()]

    def round(self, each=attempt) -> dict:
        """Grid per design kind; a sweep that raises gives its exception, and
        every cell of it counts as failed.  `each` runs one part."""
        return {kind: each(call) for kind, call in self.parts()}

    def points(self):
        """Grid cells in row-major order, as (iy, ix, x0)."""
        xs, ys = self.axes()
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                yield iy, ix, np.array([x, y])

    def axes(self):
        (x_lo, y_lo), (x_hi, y_hi) = self.spec["bounds"]
        n = self.resolution
        return np.linspace(x_lo, x_hi, n), np.linspace(y_lo, y_hi, n)


class RegionWorkload(_SweepWorkload):
    """`feasible_region_grid` for the amplified and the optimal design:
    cold-started QPs, infeasibility verdicts and the process pool."""

    name = "region"
    RESOLUTION = 41

    def __init__(self, seed: int, resolution: int = RESOLUTION):
        super().__init__(seed, resolution, ("amplified", "optimal"))

    @staticmethod
    def sweep(*args, **kw):
        return cmpc.feasible_region_grid(*args, **kw)

    def replay(self, kind: str):
        """The sweep's cells in this process, through `MpcController.solve`."""
        ctl = cmpc.MpcController(self.prob, self.designs[kind], self.ell)
        n = self.resolution
        feas = np.zeros((n, n), dtype=bool)
        cost = np.full((n, n), math.inf)
        for iy, ix, x0 in self.points():
            step = ctl.solve(x0)
            feas[iy, ix] = step.feasible
            if step.feasible:
                cost[iy, ix] = step.value
        return feas, cost, np.full((n, n), math.nan)


class SubmapWorkload(_SweepWorkload):
    """`suboptimality_map` for the amplified design: closed loops of
    warm-started QPs at the scenario horizon and at horizon 100."""

    name = "submap"
    RESOLUTION = 15

    def __init__(self, seed: int, resolution: int = RESOLUTION):
        super().__init__(seed, resolution, ("amplified",))

    @staticmethod
    def sweep(*args, **kw):
        return cmpc.suboptimality_map(*args, **kw)

    def replay(self, kind: str):
        """The sweep's cells in this process, through `simulate_cost`."""
        design = self.designs[kind]
        ctl = cmpc.MpcController(self.prob, design, self.ell)
        ctl_opt = cmpc.MpcController(self.prob, design, APPROX_OPT_HORIZON)
        n = self.resolution
        feas = np.zeros((n, n), dtype=bool)
        cost = np.full((n, n), math.inf)
        rel = np.full((n, n), math.nan)
        for iy, ix, x0 in self.points():
            J = ctl.simulate_cost(x0)
            feas[iy, ix] = math.isfinite(J)
            cost[iy, ix] = J
            if not math.isfinite(J) or not np.any(x0):
                continue
            J_opt = ctl_opt.simulate_cost(x0)
            if J_opt > 0 and math.isfinite(J_opt):
                rel[iy, ix] = abs(J - J_opt) / J_opt
        return feas, cost, rel


WORKLOADS = {w.name: w for w in (DesignWorkload, RegionWorkload, SubmapWorkload)}

