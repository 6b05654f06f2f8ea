"""Constrained MPC engine and closed-loop analysis.

The finite-horizon problem with terminal cost x'Kx and terminal set S is
solved as a condensed QP.  The engine evaluates the receding-horizon policy,
simulates closed loops to measure realized infinite-horizon cost, and sweeps
feasibility / suboptimality maps over 2-D grids.

Infeasibility is identified with infinite cost (indicator-function semantics
of the state constraint set).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .matcore import symmetrize
from .polytope import HPolytope, bounding_box, contains, lp_solve, maximal_invariant_set
from .qp import QP_COMP_TOL, QP_DUAL_TOL, QP_FEAS_TOL, QpProblem, QpSolution, solve_qp
from .riccati import (
    GainPolicy,
    LqSystem,
    closed_loop_cost,
    greedy_gain,
    in_region_of_decreasing,
    iterate_bellman,
)

__all__ = [
    "ConstrainedProblem",
    "TerminalDesign",
    "MpcController",
    "MpcStep",
    "CostMapGrid",
    "mpc_policy",
    "bellman_apply",
    "closed_loop_cost_fn",
    "approx_optimal_cost",
    "feasible_region_grid",
    "suboptimality_map",
    "boundary_points",
]

_SIM_CAP = 10_000
_BALL_RTOL = 1e-6
_BISECTIONS = 5
_APPROX_OPT_HORIZON = 100
# a stored infeasibility certificate answers a query only when its lower
# bound on the Phase-1 optimum exceeds this, ten times HiGHS's primal
# feasibility tolerance (1e-7), so Phase 1 would call the query infeasible too
_CERT_MARGIN = 1e-6


@dataclass(frozen=True)
class ConstrainedProblem:
    """LQ problem with compact state/input constraint sets (origin interior)."""

    sys: LqSystem
    Xhat: HPolytope
    U: HPolytope
    # tight axis-aligned bounds (lo, hi) of Xhat and of U, found by the
    # boundedness LPs
    box: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    input_box: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.Xhat.dim != self.sys.n:
            raise ValueError("state constraint dimension mismatch")
        if self.U.dim != self.sys.m:
            raise ValueError("input constraint dimension mismatch")
        boxes = {}
        for name, P in (("state", self.Xhat), ("input", self.U)):
            if not P.origin_interior():
                raise ValueError(f"{name} constraint set must contain the origin strictly")
            try:
                boxes[name] = bounding_box(P)
            except ValueError:
                raise ValueError(f"{name} constraint set must be bounded") from None
        object.__setattr__(self, "box", boxes["state"])
        object.__setattr__(self, "input_box", boxes["input"])

    @property
    def box_radius(self) -> float:
        lo, hi = self.box
        return float(np.max(np.maximum(np.abs(lo), np.abs(hi))))

    def state_set_contains(self, S: HPolytope) -> bool:
        """True iff S lies in Xhat within 1e-7, by one support LP of S per
        row of Xhat (stopping at the first violated row); an empty or
        unbounded S fails."""
        H, h = self.Xhat.H, self.Xhat.h
        return all(lp_solve(H[i], S).value <= h[i] + 1e-7 for i in range(h.size))


@dataclass(frozen=True)
class TerminalDesign:
    """Terminal ingredients (K, S) with the local control law that renders S
    invariant, and the amplification parameter K was designed with."""

    K: np.ndarray
    S: HPolytope
    gain: GainPolicy
    zeta: float = 1.0
    # controllers built by the module-level wrappers, by horizon; they live
    # and die with the design, and are not pickled with it
    _controllers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_controllers": {}}

    @classmethod
    def for_optimal_cost(cls, prob: ConstrainedProblem) -> "TerminalDesign":
        """K = K* with S the maximal admissible invariant set of u = L*x."""
        Kstar, Lstar = prob.sys.optimal
        S = maximal_invariant_set(Lstar.closed_loop, prob.Xhat, prob.U, Lstar)
        return cls(K=Kstar, S=S, gain=Lstar, zeta=1.0)

    @classmethod
    def for_amplified_cost(cls, prob: ConstrainedProblem, zeta: float) -> "TerminalDesign":
        """K solves the input-weight-amplified fixed point; S is invariant
        under the gain that K is optimal for (the amplified problem's greedy
        gain), which keeps x'Kx a certified decrease function on S:
        D'KD + Q + L'RL = K - (zeta-1) L'RL <= K."""
        K, gain = prob.sys.amplified(zeta).optimal
        S = maximal_invariant_set(gain.closed_loop, prob.Xhat, prob.U, gain)
        return cls(K=K, S=S, gain=gain, zeta=float(zeta))

    def validate(self, prob: ConstrainedProblem, n_samples: int = 200, seed: int = 0) -> None:
        """Structural checks: S inside Xhat, S invariant under the gain with
        admissible inputs, K in the unconstrained region of decreasing."""
        from .polytope import sample_interior

        if not prob.state_set_contains(self.S):
            raise ValueError("terminal set is not contained in the state constraints")
        if not in_region_of_decreasing(prob.sys, self.K):
            raise ValueError("terminal cost is outside the region of decreasing")
        D = self.gain.closed_loop
        X = sample_interior(self.S, n_samples, seed=seed)
        for x in X:
            if not contains(self.S, D @ x, tol=1e-7):
                raise ValueError("terminal set is not invariant under its gain")
            if not contains(prob.U, self.gain.L @ x, tol=1e-7):
                raise ValueError("terminal gain violates input constraints on S")


@dataclass(frozen=True)
class MpcStep:
    feasible: bool
    u0: Optional[np.ndarray]
    value: float


class MpcController:
    """Precondensed ell-step MPC for one (problem, design, horizon) triple.

    Everything that does not depend on the initial state x0 is built once:
    the QP's Hessian (validated once, in a template QP), constraint normals
    and prediction maps, and the unconstrained finite-horizon solution, which
    is linear in x0: z = Z x0 with terminal state x_ell = T x0.  That
    solution satisfies every constraint exactly on the polytope
    {x0 | H_u x0 <= g_const}, H_u = G Z - g_map (the critical region of the
    empty active set in explicit MPC).  A query inside that polytope (with
    slack 1e-10) is answered by Z x0 directly, since it is then the QP
    optimum by strict convexity, which makes closed-loop tails cheap.  Any
    other query derives its QP from the template by its affine parts alone
    (reusing the template's factor of P), and the QP's dual active-set
    method starts from the same point, -P^-1 q = Z x0.  A QP result that
    misses the KKT gate raises ArithmeticError naming the residual.

    The controller also keeps the infeasibility certificates of its own
    earlier solves.  G does not depend on x0 and g(x0) = g_const + g_map x0,
    so the verified Farkas vector y (y >= 0, G'y ~ 0) of one infeasible QP
    gives, by weak duality, an affine lower bound on the Phase-1 optimum
    (the least uniform constraint violation) at every x0:
    b + a'x0 = -g(x0)'y / 1'y, less the most that the residual G'y can
    contribute over the input box.  A query that no shortcut answers is
    declared infeasible without an LP when some stored row bounds it above
    1e-6, where Phase 1 would call it infeasible as well; any other query
    goes to the QP, and the store grows by one row whenever that QP is
    infeasible.  A feasible query is never answered from the store, so no
    result depends on what the store holds.
    """

    def __init__(self, prob: ConstrainedProblem, design: TerminalDesign, ell: int):
        if ell < 1:
            raise ValueError("horizon must be >= 1")
        self.prob = prob
        self.design = design
        self.ell = ell
        sys = prob.sys
        n, m = sys.n, sys.m
        A, B = sys.A, sys.B
        K = symmetrize(design.K)

        Apow = [np.eye(n)]
        for _ in range(ell):
            Apow.append(A @ Apow[-1])
        Phi = np.vstack(Apow)
        Gamma = np.zeros(((ell + 1) * n, ell * m))
        for k in range(1, ell + 1):
            for j in range(k):
                Gamma[k * n : (k + 1) * n, j * m : (j + 1) * m] = Apow[k - 1 - j] @ B
        Qbar = np.zeros(((ell + 1) * n, (ell + 1) * n))
        for k in range(ell):
            Qbar[k * n : (k + 1) * n, k * n : (k + 1) * n] = sys.Q
        Qbar[ell * n :, ell * n :] = K
        Rbar = np.kron(np.eye(ell), sys.R)

        P = 2.0 * (Gamma.T @ Qbar @ Gamma + Rbar)
        self._q_map = 2.0 * (Gamma.T @ Qbar @ Phi)  # q = q_map @ x0
        self._off_map = Phi.T @ Qbar @ Phi  # offset = x0' off_map x0

        Xhat, U, S = prob.Xhat, prob.U, design.S
        G_rows, gmap_rows, gconst_rows = [], [], []
        for k in range(ell):
            sl = slice(k * n, (k + 1) * n)
            G_rows.append(Xhat.H @ Gamma[sl])
            gmap_rows.append(-Xhat.H @ Phi[sl])
            gconst_rows.append(Xhat.h)
        for k in range(ell):
            sel = np.zeros((m, ell * m))
            sel[:, k * m : (k + 1) * m] = np.eye(m)
            G_rows.append(U.H @ sel)
            gmap_rows.append(np.zeros((U.nrows, n)))
            gconst_rows.append(U.h)
        sl = slice(ell * n, (ell + 1) * n)
        G_rows.append(S.H @ Gamma[sl])
        gmap_rows.append(-S.H @ Phi[sl])
        gconst_rows.append(S.h)
        G = np.vstack(G_rows)
        self._g_map = np.vstack(gmap_rows)  # g = g_const + g_map @ x0
        self._g_const = np.concatenate(gconst_rows)
        self._qp = QpProblem(P=P, q=np.zeros(ell * m), G=G, g=self._g_const)

        # unconstrained finite-horizon solution: the gain ladder (greedy at
        # F^j(K), applied from j = ell-1 down to 0) run once on the identity
        ladder = []
        Kj = K
        for _ in range(ell):
            ladder.append(greedy_gain(sys, Kj))
            Kj = iterate_bellman(sys, Kj, 1)
        self._value_matrix = Kj  # F^ell(K)
        self._policy_gain = ladder[-1]  # greedy at F^(ell-1)(K)
        Z = np.empty((ell * m, n))
        X = np.eye(n)
        for k in range(ell):
            Z[k * m : (k + 1) * m] = ladder[ell - 1 - k].L @ X
            X = A @ X + B @ Z[k * m : (k + 1) * m]
        self._Z = Z  # z_unc = Z @ x0
        self._T = X  # x_ell = T @ x0
        # the shortcut polytope H_u x0 <= g_const, with 1e-10 of slack
        self._H_u = G @ Z - self._g_map
        self._h_u = self._g_const + 1e-10
        self._tail_cost: Optional[np.ndarray] = None
        # the stored certificates, rows (a, b) of b + a'x0 (see the class
        # docstring), and |z_j| <= z_bound_j for every z in U^ell
        self._cert_a = np.zeros((0, n))
        self._cert_b = np.zeros(0)
        lo, hi = prob.input_box
        self._z_bound = np.tile(np.maximum(-lo, hi), ell)

    @property
    def tail_cost(self) -> np.ndarray:
        """Infinite-horizon cost matrix of the unconstrained policy gain."""
        if self._tail_cost is None:
            self._tail_cost = closed_loop_cost(self.prob.sys, self._policy_gain)
        return self._tail_cost

    def qp_at(self, x0) -> QpProblem:
        x0 = np.asarray(x0, dtype=float).ravel()
        return self._qp.with_linear_terms(
            q=self._q_map @ x0,
            g=self._g_const + self._g_map @ x0,
            objective_offset=float(x0 @ self._off_map @ x0),
        )

    def solve(self, x0) -> MpcStep:
        x0 = np.asarray(x0, dtype=float).ravel()
        if np.all(self._H_u @ x0 <= self._h_u):
            # the first move as the policy gain rounds it; (Z x0)[:m] is the
            # same move, rounded by a longer product
            value = float(x0 @ self._value_matrix @ x0)
            return MpcStep(True, self._policy_gain.L @ x0, value)
        if self._cert_b.size and np.max(self._cert_a @ x0 + self._cert_b) > _CERT_MARGIN:
            return MpcStep(False, None, math.inf)
        sol: QpSolution = solve_qp(self.qp_at(x0))
        if sol.status == "infeasible":
            self._keep_certificate(sol.farkas)
            return MpcStep(False, None, math.inf)
        if sol.status != "optimal":
            over = [f"{name} residual {val:.2e} > {tol:.0e}" for name, val, tol in (
                ("primal", sol.primal_residual, QP_FEAS_TOL),
                ("dual", sol.dual_residual, QP_DUAL_TOL),
                ("complementarity", sol.comp_residual, QP_COMP_TOL)) if not val <= tol]
            raise ArithmeticError(
                f"QP at x0 = {x0.tolist()} is not solved (status {sol.status}"
                f"{': ' if over else ''}{', '.join(over)}, after {sol.iterations} iterations)"
            )
        return MpcStep(True, sol.z[: self.prob.sys.m].copy(), sol.objective)

    def _keep_certificate(self, y: np.ndarray) -> None:
        """Store the verified Farkas vector y of an infeasible QP as one row.

        Scale y to 1'y = 1.  Any z with G z <= g(x0) + eps meets the input
        rows of G, so |z| <= z_bound, and since y >= 0,
        -g(x0)'y <= eps - (G'y)'z <= eps + |G'y|'z_bound.  The row's value
        at x0 is thus a lower bound on the Phase-1 optimum eps there,
        whatever residual G'y the vector's check let pass.
        """
        s = float(y.sum())
        slack = np.abs(self._qp.G.T @ y) @ self._z_bound
        self._cert_a = np.vstack([self._cert_a, -(self._g_map.T @ y) / s])
        self._cert_b = np.append(self._cert_b, -(self._g_const @ y + slack) / s)

    def _move(self, x) -> tuple[MpcStep, float, Optional[np.ndarray]]:
        """One closed-loop move from x: (step, stage cost, successor state),
        or (step, inf, None) when the step is infeasible."""
        step = self.solve(x)
        if not step.feasible:
            return step, math.inf, None
        sys = self.prob.sys
        u = step.u0
        return step, float(x @ sys.Q @ x + u @ sys.R @ u), sys.A @ x + sys.B @ u

    def simulate_cost(self, x0) -> float:
        """Realized infinite-horizon closed-loop cost from x0 (inf if any
        step is infeasible).

        Simulates x+ = Ax + B u(x) accumulating stage costs until the state
        is inside the terminal set with ||x|| at most `_BALL_RTOL` times the
        state box radius, then adds the quadratic tail of the unconstrained
        receding-horizon gain.
        """
        x = np.asarray(x0, dtype=float).ravel()
        ball_tol = _BALL_RTOL * self.prob.box_radius
        total = 0.0
        for _ in range(_SIM_CAP):
            if contains(self.design.S, x) and float(np.linalg.norm(x)) <= ball_tol:
                return total + float(x @ self.tail_cost @ x)
            step, stage, x = self._move(x)
            if not step.feasible:
                return math.inf
            total += stage
        raise ArithmeticError(
            f"closed loop did not reach the terminal ball in {_SIM_CAP} steps"
        )

    def simulate_trajectory(self, x0, max_steps: int = 200) -> list[dict]:
        """Step records (k, x, u, stage cost, horizon value) for exactly
        max_steps steps, stopping early only on an infeasible step."""
        x = np.asarray(x0, dtype=float).ravel()
        out = []
        for k in range(max_steps):
            step, stage, x_next = self._move(x)
            out.append({"k": k, "x": x.copy(), "u": step.u0, "stage": stage,
                        "value": step.value, "feasible": step.feasible})
            if not step.feasible:
                break
            x = x_next
        return out


def _controller(prob: ConstrainedProblem, design: TerminalDesign, ell: int) -> MpcController:
    ctl = design._controllers.get(ell)
    if ctl is None or ctl.prob is not prob:
        ctl = design._controllers[ell] = MpcController(prob, design, ell)
    return ctl


def mpc_policy(prob: ConstrainedProblem, design: TerminalDesign, ell: int, x) -> MpcStep:
    """First optimal control and optimal value of the ell-step QP at x.

    Infeasible x yields MpcStep(feasible=False, value=inf).
    """
    return _controller(prob, design, ell).solve(x)


def bellman_apply(prob: ConstrainedProblem, design: TerminalDesign, x) -> float:
    """One-step Bellman value: stage cost plus terminal cost after one move.

    min_u  x'Qx + u'Ru + (Ax+Bu)'K(Ax+Bu)  s.t. u in U, Ax+Bu in S,
    with value +inf when x is outside the state constraints or no u is
    feasible.
    """
    return _controller(prob, design, 1).solve(x).value


def closed_loop_cost_fn(prob: ConstrainedProblem, design: TerminalDesign, ell: int, x0) -> float:
    """Realized cost of the ell-step receding-horizon policy from x0."""
    return _controller(prob, design, ell).simulate_cost(x0)


def approx_optimal_cost(prob: ConstrainedProblem, design: TerminalDesign, x0) -> float:
    """Upper approximation of the optimal cost: the ell=100 closed loop."""
    return _controller(prob, design, _APPROX_OPT_HORIZON).simulate_cost(x0)


@dataclass
class CostMapGrid:
    """Row-major grid of feasibility verdicts and costs over a 2-D box."""

    xs: np.ndarray
    ys: np.ndarray
    feasible: np.ndarray  # bool (len(ys), len(xs))
    cost: np.ndarray  # float, +inf where infeasible
    rel_gap: np.ndarray  # float, NaN where not computed
    meta: dict

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            kv = ";".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
            f.write(f"# {kv}\n")
            f.write("x1,x2,feasible,cost,rel_gap\n")
            for iy, y in enumerate(self.ys):
                for ix, x in enumerate(self.xs):
                    c = self.cost[iy, ix]
                    r = self.rel_gap[iy, ix]
                    f.write(
                        f"{x:.12g},{y:.12g},{int(self.feasible[iy, ix])},"
                        f"{c:.12g},{r:.12g}\n"
                    )


def _grid_axes(prob: ConstrainedProblem, grid_spec) -> tuple[np.ndarray, np.ndarray]:
    if prob.sys.n != 2:
        raise ValueError("grid sweeps are implemented for 2-D state spaces")
    resolution = int(grid_spec.get("resolution", 101))
    bounds = grid_spec.get("bounds")
    if bounds is None:
        lo, hi = prob.box
    else:
        lo, hi = np.asarray(bounds[0], float), np.asarray(bounds[1], float)
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    return xs, ys


# Grid sweeps run as a map over rows on a process pool; each row is
# independent (pure QP solves).  The workers are spawned interpreters that
# load BLAS with a one-thread limit, for every worker count: a BLAS thread
# pool per worker would oversubscribe the cores the workers already fill, and
# a threaded LU (100x100 and up, as at horizon 100) rounds differently from a
# serial one, so one-thread BLAS everywhere keeps the output identical for
# any worker count and any core count.
_ROW_STATE: dict = {}
_WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _init_row_state(prob, design, ell, xs, ys, kind) -> None:
    _ROW_STATE["ctl"] = MpcController(prob, design, ell)
    _ROW_STATE["ctl_opt"] = (
        MpcController(prob, design, _APPROX_OPT_HORIZON) if kind == "submap" else None
    )
    _ROW_STATE["xs"] = xs
    _ROW_STATE["ys"] = ys
    _ROW_STATE["kind"] = kind


def _sweep_row(iy: int):
    ctl: MpcController = _ROW_STATE["ctl"]
    xs = _ROW_STATE["xs"]
    y = _ROW_STATE["ys"][iy]
    feas = np.zeros(xs.size, dtype=bool)
    cost = np.full(xs.size, math.inf)
    rel = np.full(xs.size, math.nan)
    if _ROW_STATE["kind"] == "region":
        for ix, x in enumerate(xs):
            step = ctl.solve(np.array([x, y]))
            feas[ix] = step.feasible
            if step.feasible:
                cost[ix] = step.value
        return iy, feas, cost, rel
    ctl_opt: MpcController = _ROW_STATE["ctl_opt"]
    for ix, x in enumerate(xs):
        pt = np.array([x, y])
        J = ctl.simulate_cost(pt)
        feas[ix] = math.isfinite(J)
        cost[ix] = J
        if not math.isfinite(J) or (x == 0.0 and y == 0.0):
            continue
        Jopt = ctl_opt.simulate_cost(pt)
        if Jopt > 0 and math.isfinite(Jopt):
            rel[ix] = abs(J - Jopt) / Jopt
    return iy, feas, cost, rel


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("LQMPC_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _run_sweep(prob, design, ell, grid_spec, kind, workers) -> CostMapGrid:
    xs, ys = _grid_axes(prob, grid_spec or {})
    nw = min(_resolve_workers(workers), ys.size)
    # children read BLAS limits from the environment at start-up; the
    # parent's own environment is restored once they are started
    saved = {k: os.environ.get(k) for k in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        pool = multiprocessing.get_context("spawn").Pool(
            nw, initializer=_init_row_state,
            initargs=(prob, design, ell, xs, ys, kind),
        )
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v
    with pool:
        rows = pool.map(_sweep_row, range(ys.size), chunksize=1)
    nf = np.zeros((ys.size, xs.size), dtype=bool)
    cost = np.full((ys.size, xs.size), math.inf)
    rel = np.full((ys.size, xs.size), math.nan)
    for iy, f, c, r in rows:
        nf[iy], cost[iy], rel[iy] = f, c, r
    return CostMapGrid(
        xs=xs, ys=ys, feasible=nf, cost=cost, rel_gap=rel,
        meta={"kind": kind, "ell": ell, "zeta": design.zeta, "resolution": xs.size},
    )


def feasible_region_grid(
    prob: ConstrainedProblem, design: TerminalDesign, ell: int, grid_spec=None,
    workers: Optional[int] = None,
) -> CostMapGrid:
    """Feasibility verdict (and QP value) of the ell-step problem per grid point.

    Rows run on a pool of `workers` spawned processes (default: the
    LQMPC_WORKERS environment variable, else the CPU count), so a script
    that calls a sweep needs an ``if __name__ == "__main__":`` guard.
    """
    return _run_sweep(prob, design, ell, grid_spec, "region", workers)


def suboptimality_map(
    prob: ConstrainedProblem, design: TerminalDesign, ell: int, grid_spec=None,
    workers: Optional[int] = None,
) -> CostMapGrid:
    """Relative closed-loop suboptimality |J_pol - J_opt| / J_opt per grid point.

    J_pol is the realized ell-step receding-horizon cost; J_opt the ell=100
    approximation of the optimal cost.  The origin cell is excluded (0/0).
    Runs on the same process pool as `feasible_region_grid`.
    """
    return _run_sweep(prob, design, ell, grid_spec, "submap", workers)


def boundary_points(
    prob: ConstrainedProblem,
    design: TerminalDesign,
    ell: int,
    grid: CostMapGrid,
) -> np.ndarray:
    """Feasibility-boundary refinement along grid edges (`_BISECTIONS`
    bisection steps per edge)."""
    ctl = _controller(prob, design, ell)

    def feas(pt) -> bool:
        return ctl.solve(pt).feasible

    pts = []
    F = grid.feasible
    for iy in range(F.shape[0]):
        for ix in range(F.shape[1]):
            for dy, dx in ((0, 1), (1, 0)):
                jy, jx = iy + dy, ix + dx
                if jy >= F.shape[0] or jx >= F.shape[1]:
                    continue
                if F[iy, ix] == F[jy, jx]:
                    continue
                a = np.array([grid.xs[ix], grid.ys[iy]])
                b = np.array([grid.xs[jx], grid.ys[jy]])
                fa = F[iy, ix]
                for _ in range(_BISECTIONS):
                    mid = 0.5 * (a + b)
                    if feas(mid) == fa:
                        a = mid
                    else:
                        b = mid
                pts.append(0.5 * (a + b))
    return np.array(pts) if pts else np.zeros((0, 2))
