"""Constrained MPC engine and closed-loop analysis.

The finite-horizon problem with terminal cost x'Kx and terminal set S is
solved as a condensed QP.  The engine evaluates the receding-horizon policy,
simulates closed loops to measure realized infinite-horizon cost, sweeps
feasibility / suboptimality maps over 2-D grids, and gives the exact
feasible set in any dimension by support LPs.  One row pass tests queries,
one state, a grid row or the live states of many closed loops stepped
together, against the controller's stores (shortcut, infeasibility
certificates, critical regions, each kept once as stacked arrays) and
answers them as arrays of verdicts, first moves and values, each store's
from stacked products; the rest reach the QP.

Infeasibility is identified with infinite cost (indicator-function semantics
of the state constraint set).  The module returns arrays and grids and
writes no files; `cli` owns every output format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial import ConvexHull

from .polytope import HPolytope, bounding_box, lp_solve, maximal_invariant_set, vertices
from .qp import QP_COMP_TOL, QP_DUAL_TOL, QP_FEAS_TOL, QpProblem, QpSolution, solve_qp
from .riccati import (
    GainPolicy,
    LqSystem,
    _horizon_ladder,
    closed_loop_cost,
    in_region_of_decreasing,
)

__all__ = [
    "ConstrainedProblem",
    "TerminalDesign",
    "MpcController",
    "MpcStep",
    "CostMapGrid",
    "feasible_region_grid",
    "suboptimality_map",
    "feasible_set",
]

_SIM_CAP = 10_000
# `feasible_set` adds a support LP's point when it passes the facet in whose
# outward normal it was found by more than this, relative to max(1, offset)
_FACET_RTOL = 1e-9
# the horizon whose closed loop stands in for the optimal cost J_opt
APPROX_OPT_HORIZON = 100
# a stored infeasibility certificate answers a query only when its lower
# bound on the Phase-1 optimum exceeds this, ten times HiGHS's primal
# feasibility tolerance (1e-7), so Phase 1 would call the query infeasible too
_CERT_MARGIN = 1e-6
# a stored critical region answers a query only when each of its membership
# rows is at least this, relative to the query's KKT scale max(1, |q|, |g|),
# so that no two stored regions can both hold a query
_REGION_MARGIN = 1e-9
# the Schur complement of an active set counts as singular when the diagonal
# of its Cholesky factor spans more than this ratio (condition number ~1e14)
_SCHUR_RATIO = 1e-7


@dataclass(frozen=True)
class ConstrainedProblem:
    """LQ problem with compact state/input constraint sets (origin interior)."""

    sys: LqSystem
    Xhat: HPolytope
    U: HPolytope
    # tight axis-aligned bounds (lo, hi) of Xhat and of U, from their vertices
    box: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    input_box: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.Xhat.dim != self.sys.n:
            raise ValueError("state constraint dimension mismatch")
        if self.U.dim != self.sys.m:
            raise ValueError("input constraint dimension mismatch")
        for name, attr, P in (("state", "box", self.Xhat), ("input", "input_box", self.U)):
            if not P.origin_interior():
                raise ValueError(f"{name} constraint set must contain the origin strictly")
            try:
                object.__setattr__(self, attr, bounding_box(P))
            except ValueError:
                raise ValueError(f"{name} constraint set must be bounded") from None

    def state_set_contains(self, S: HPolytope) -> bool:
        """True iff S lies in Xhat within 1e-7 at every vertex of S (so on
        all of S).  Raises ValueError as `vertices`."""
        return bool(np.all(vertices(S) @ self.Xhat.H.T <= self.Xhat.h + 1e-7))


@dataclass(frozen=True)
class TerminalDesign:
    """Terminal ingredients (K, S) with the local control law that renders S
    invariant, and the amplification parameter K was designed with."""

    K: np.ndarray
    S: HPolytope
    gain: GainPolicy
    zeta: float = 1.0

    @classmethod
    def for_optimal_cost(cls, prob: ConstrainedProblem) -> "TerminalDesign":
        """K = K*, S the maximal admissible invariant set of u = L*x: zeta = 1."""
        return cls.for_amplified_cost(prob, 1.0)

    @classmethod
    def for_amplified_cost(cls, prob: ConstrainedProblem, zeta: float) -> "TerminalDesign":
        """K solves the input-weight-amplified fixed point; S is invariant
        under the gain that K is optimal for (the amplified problem's greedy
        gain), which keeps x'Kx a certified decrease function on S:
        D'KD + Q + L'RL = K - (zeta-1) L'RL <= K."""
        K, gain = prob.sys.amplified(zeta).optimal
        S = maximal_invariant_set(gain.closed_loop, prob.Xhat, prob.U, gain)
        return cls(K=K, S=S, gain=gain, zeta=float(zeta))

    def validate(self, prob: ConstrainedProblem) -> None:
        """Structural checks: K in the unconstrained region of decreasing,
        S inside Xhat, S invariant under the gain with admissible inputs.

        S in Xhat, D S in S and L S in U are linear in x, so they hold on S
        exactly when they hold, within 1e-7, at S's vertices, computed once
        (`vertices` raises ValueError for an unbounded S or h <= 0).
        """
        if not in_region_of_decreasing(prob.sys, self.K):
            raise ValueError("terminal cost is outside the region of decreasing")
        V = vertices(self.S)
        for target, M, what in (
            (prob.Xhat, np.eye(self.S.dim), "set is not contained in the state constraints"),
            (self.S, self.gain.closed_loop, "set is not invariant under its gain"),
            (prob.U, self.gain.L, "gain violates input constraints on S"),
        ):
            excess = float(np.max(V @ M.T @ target.H.T - target.h))
            if not excess <= 1e-7:
                raise ValueError(f"terminal {what} (by {excess:.3g} at a vertex)")


def _over_tolerance(residuals) -> list[str]:
    """The (name, value, tol) triples whose value is not within tol, as text."""
    return [f"{name} residual {val:.2e} > {tol:.0e}" for name, val, tol in residuals
            if not val <= tol]


@dataclass(frozen=True)
class MpcStep:
    feasible: bool
    u0: Optional[np.ndarray]
    value: float


_INFEASIBLE = MpcStep(False, None, math.inf)


def _linear(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M x per row x of X (M stacked or not), with the bits of `M @ x`."""
    return (M @ X[:, :, None])[:, :, 0]


def _quadratic(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x'Mx per row x of X (M stacked or not), with the bits of `x @ M @ x`."""
    return (X[:, None, :] @ M @ X[:, :, None])[:, 0, 0]


class MpcController:
    """Precondensed ell-step MPC for one (problem, design, horizon) triple.

    Everything that does not depend on the initial state x0 is built once,
    in O(ell) array operations: the QP's Hessian (validated once, in a
    template QP), constraint normals and prediction maps, and the
    unconstrained finite-horizon solution, which is linear in x0: z = Z x0.
    That solution satisfies every constraint exactly on the polytope
    {x0 | H_u x0 <= g_const}, H_u = G Z - g_map (the critical region of the
    empty active set in explicit MPC).  A query
    inside that polytope (with slack 1e-10) is answered by Z x0 directly,
    since it is then the QP optimum by strict convexity, which makes
    closed-loop tails cheap.  Any other query derives its QP from the
    template by its affine parts alone (reusing the template's factor of
    P), and the QP's dual active-set method starts from the same point,
    -P^-1 q = Z x0.  A QP result that misses the KKT gate raises
    ArithmeticError naming the residual.

    The prediction matrix is one gather from the ell products A^k B (its
    block (k, j) is A^(k-1-j) B below the diagonal), the input rows are one
    Kronecker product, and Z comes from the gains of the receding-horizon
    ladder (`riccati._horizon_ladder`, the recursion `bounds.full_report`
    reads too): one Riccati step per rung, until an iterate repeats an
    earlier one bit for bit; from there the rungs repeat.

    The controller also keeps the infeasibility certificates of its own
    earlier solves.  G does not depend on x0 and g(x0) = g_const + g_map x0,
    so the verified Farkas vector y (y >= 0, G'y ~ 0) of one infeasible QP
    gives, by weak duality, an affine lower bound on the Phase-1 optimum
    (the least uniform constraint violation) at every x0:
    b + a'x0 = -g(x0)'y / 1'y, less the most that the residual G'y can
    contribute over the input box.  A query that no shortcut answers is
    declared infeasible without an LP when some stored row bounds it above
    1e-6, where Phase 1 would call it infeasible as well, and the store
    grows by one row whenever a QP is infeasible.

    Feasible queries are answered from a store of critical regions (Bemporad
    et al., Automatica 2002).  On the optimal active set W of one QP, the
    solution and W's multipliers are affine in x0 (`_region`), built from
    the template's factor and W's small Schur complement, and gated once on
    their stationarity and active-row residuals (ArithmeticError naming the
    residual).  A region is kept once, in three stacks the row pass reads:
    its membership rows, its first move's law and its value matrix, and a
    dict maps its W to its index there.  So a query runs, in order: the
    empty-active-set shortcut; the certificate rows; the region rows, all
    blocks in one product, where x0 is inside a region when each inactive
    row's slack and each active multiplier is at least 1e-9 of the KKT
    scale; and the QP.  A feasible QP is answered from the region of its own
    active set {i : mu_i > 0}, which is stored then, unless its Schur
    complement is singular or some membership row vanishes identically (a
    degenerate W, which no query can lie strictly inside): then the QP's own
    iterate answers and nothing is stored.  Each answer is thus the law of
    the query's own optimal active set, or the QP's, whatever the store
    holds: with strict margins at most one region holds a query, and there
    the QP finds that region's W too.  Certificates only answer
    "infeasible", and regions only "feasible", so no verdict depends on
    either store.

    The three store tests are written once, for the rows of a state matrix
    (`_stored_answers`): one product each for the shortcut, the certificate
    rows and the region rows.  Its answers are arrays, a verdict, a first
    move and a value per row, and each store's moves and values are
    stacked products over the states it answers (`_linear`, `_quadratic`),
    with the bits of the per-state products.  `solve` is that pass on its
    one state, then the QP (`_qp_step`) when no store answers, as an
    `MpcStep`.  `_solve_rows` passes many states at once, against the
    stores as they stand on entry, and `solve`, in order, for the states
    left over, re-testing those still left together after each QP that
    grows a store.  A region sweep passes it a whole grid row; the closed
    loops (`_closed_loop_costs`) pass it every live state of every loop at
    each lock-step.
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
        gains, iterates = _horizon_ladder(sys, design.K, ell)

        Apow = [np.eye(n)]
        for _ in range(ell):
            Apow.append(A @ Apow[-1])
        Phi = np.vstack(Apow)
        # block (k, j) of Gamma is A^(k-1-j) B for j < k and zero otherwise:
        # one gather from the ell products A^i B and a zero block
        AB = np.stack([Apow[i] @ B for i in range(ell)] + [np.zeros((n, m))])
        idx = np.arange(ell + 1)[:, None] - 1 - np.arange(ell)
        idx[idx < 0] = ell
        Gamma = AB[idx].transpose(0, 2, 1, 3).reshape((ell + 1) * n, ell * m)
        Qbar = np.zeros(((ell + 1) * n, (ell + 1) * n))
        for k in range(ell):
            Qbar[k * n : (k + 1) * n, k * n : (k + 1) * n] = sys.Q
        Qbar[ell * n :, ell * n :] = iterates[0]  # K, symmetrized
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
        # block diagonal; adding 0.0 clears the sign of its zeros, as the
        # selector products it replaces did
        G_rows.append(np.kron(np.eye(ell), U.H) + 0.0)
        gmap_rows.append(np.zeros((ell * U.nrows, n)))
        gconst_rows.append(np.tile(U.h, ell))
        sl = slice(ell * n, (ell + 1) * n)
        G_rows.append(S.H @ Gamma[sl])
        gmap_rows.append(-S.H @ Phi[sl])
        gconst_rows.append(S.h)
        G = np.vstack(G_rows)
        self._g_map = np.vstack(gmap_rows)  # g = g_const + g_map @ x0
        self._g_const = np.concatenate(gconst_rows)
        self._qp = QpProblem(P=P, q=np.zeros(ell * m), G=G, g=self._g_const)

        # unconstrained finite-horizon solution: gains[j], the greedy gain
        # at F^j(K), applied from j = ell-1 down to 0 on the identity
        self._value_matrix = iterates[-1]  # F^ell(K)
        self._policy_gain = GainPolicy.from_system(sys, gains[-1])
        Z = np.empty((ell * m, n))
        X = np.eye(n)
        for k in range(ell):
            Z[k * m : (k + 1) * m] = gains[ell - 1 - k] @ X
            X = A @ X + B @ Z[k * m : (k + 1) * m]
        self._Z = Z  # z_unc = Z @ x0
        # the shortcut polytope H_u x0 <= g_const, with 1e-10 of slack
        self._H_u = G @ Z - self._g_map
        self._h_u = self._g_const + 1e-10
        # the stored certificates, rows (a, b) of b + a'x0 (see the class
        # docstring), and |z_j| <= z_bound_j for every z in U^ell
        self._cert_a = np.zeros((0, n))
        self._cert_b = np.zeros(0)
        lo, hi = prob.input_box
        self._z_bound = np.tile(np.maximum(-lo, hi), ell)
        # with y = (x0, 1), q = q_aug y and g = g_aug y (stacked in qg_aug),
        # and the unconstrained minimiser -P^-1 q is z_free y
        J = self._qp.factor
        self._q_aug = np.column_stack([self._q_map, np.zeros(ell * m)])
        self._g_aug = np.column_stack([self._g_map, self._g_const])
        self._qg_aug = np.vstack([self._q_aug, self._g_aug])
        self._z_free = -(J @ (J.T @ self._q_aug))
        self._law_scale = max(1.0, float(np.max(np.abs(self._qg_aug))))
        # the critical regions, each active set -> its index in the stacks of
        # membership rows, first-move laws and value matrices (`_region`)
        self._regions: dict[tuple, int] = {}
        self._region_rows = np.zeros((0, n + 1))
        self._region_laws = np.zeros((0, m, n + 1))
        self._region_values = np.zeros((0, n + 1, n + 1))

    @cached_property
    def tail_cost(self) -> np.ndarray:
        """Infinite-horizon cost matrix of the unconstrained policy gain."""
        return closed_loop_cost(self.prob.sys, self._policy_gain)

    @cached_property
    def tail_set(self) -> HPolytope:
        """Maximal invariant set O of the policy gain's loop inside the
        shortcut polytope {H_u x0 <= g_const}.  From a state in O the
        shortcut answers every later move, so the closed loop applies the
        policy gain forever and its cost to go is exactly x' tail_cost x."""
        # a zero row of H_u holds at every x0 (its offset is positive)
        keep = np.any(self._H_u != 0.0, axis=1)
        shortcut = HPolytope(self._H_u[keep], self._g_const[keep])
        return maximal_invariant_set(
            self._policy_gain.closed_loop, shortcut, self.prob.U, self._policy_gain)

    def qp_at(self, x0) -> QpProblem:
        x0 = np.asarray(x0, dtype=float).ravel()
        return self._qp.with_linear_terms(
            q=self._q_map @ x0,
            g=self._g_const + self._g_map @ x0,
            objective_offset=float(x0 @ self._off_map @ x0),
        )

    def solve(self, x0) -> MpcStep:
        """The ell-step answer at x0: the row pass `_stored_answers` on the
        one state, and the QP (`_qp_step`) when no store answers it."""
        x0 = np.asarray(x0, dtype=float).ravel()
        answered, feasible, u0, value = self._stored_answers(x0[None])
        if not answered[0]:
            return self._qp_step(x0)
        return MpcStep(True, u0[0], float(value[0])) if feasible[0] else _INFEASIBLE

    def _solve_rows(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(feasible, u0, value) of `solve` at each row of X (inf and nan
        where infeasible): the rows tested at once against the stores as
        they stand on entry (`_stored_answers`), and each state left over
        passed, in order, to `solve`; the states still left over are tested
        at once again whenever that QP grows a store.  So the same states
        reach the QP in the same order as with one `solve` per row; and as
        the stores only grow, each answer is that loop's too."""
        X = np.asarray(X, dtype=float)
        answered, feasible, u0, value = self._stored_answers(X)
        for i in np.flatnonzero(~answered):
            if answered[i]:
                continue
            stored = len(self._regions) + self._cert_b.size
            step = self.solve(X[i])
            feasible[i], value[i] = step.feasible, step.value
            if step.feasible:
                u0[i] = step.u0
            rest = i + 1 + np.flatnonzero(~answered[i + 1:])
            if rest.size and len(self._regions) + self._cert_b.size > stored:
                answered[rest], feasible[rest], u0[rest], value[rest] = \
                    self._stored_answers(X[rest])
        return feasible, u0, value

    def _stored_answers(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """(answered, feasible, u0, value) per row x0 of X from the stores
        as they stand: the shortcut (u0 as the policy gain rounds it, which
        (Z x0)[:m] rounds by a longer product, and x0' F^ell(K) x0), a
        certificate (infeasible) or the first stored region that holds x0
        with its own KKT-scale margin (see the class docstring).  One
        product each tests all states against the shortcut polytope and
        the certificate rows, and those left against every region's
        membership rows; each store's answers are stacked products over
        its states."""
        k, n = X.shape
        shortcut = (X @ self._H_u.T <= self._h_u).all(axis=1)
        certified = (X @ self._cert_a.T + self._cert_b > _CERT_MARGIN).any(axis=1) & ~shortcut
        feasible = shortcut.copy()
        u0 = np.full((k, self.prob.sys.m), math.nan)
        value = np.full(k, math.inf)
        Xs = X[shortcut]
        u0[shortcut] = _linear(self._policy_gain.L, Xs)
        value[shortcut] = _quadratic(Xs, self._value_matrix)
        rest = np.flatnonzero(~(shortcut | certified))
        if self._regions and rest.size:
            Y = np.ones((rest.size, n + 1))
            Y[:, :-1] = X[rest]
            scale = np.abs(Y @ self._qg_aug.T).max(axis=1, initial=1.0)
            inside = (Y @ self._region_rows.T >= _REGION_MARGIN * scale[:, None]).reshape(
                rest.size, len(self._regions), -1).all(axis=2)
            held = inside.any(axis=1)
            rows = rest[held]
            u0[rows], value[rows] = self._region_answers(inside[held].argmax(axis=1), Y[held])
            feasible[rows] = True
        return feasible | certified, feasible, u0, value

    def _region_answers(self, held: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u0, value) at each row y = (x0, 1) of Y from the stored region
        whose index is the same row of `held`: its law's first move and
        y'Vy."""
        return _linear(self._region_laws[held], Y), _quadratic(Y, self._region_values[held])

    def _qp_step(self, x0: np.ndarray) -> MpcStep:
        """The QP's answer at x0, which grows the certificate store when the
        QP is infeasible and the region stacks when its active set is new."""
        sol: QpSolution = solve_qp(self.qp_at(x0))
        if sol.status == "infeasible":
            self._keep_certificate(sol.farkas)
            return _INFEASIBLE
        if sol.status != "optimal":
            over = _over_tolerance((("primal", sol.primal_residual, QP_FEAS_TOL),
                                    ("dual", sol.dual_residual, QP_DUAL_TOL),
                                    ("complementarity", sol.comp_residual, QP_COMP_TOL)))
            raise ArithmeticError(
                f"QP at x0 = {x0.tolist()} is not solved (status {sol.status}"
                f"{': ' if over else ''}{', '.join(over)}, after {sol.iterations} iterations)"
            )
        active = tuple(int(i) for i in np.flatnonzero(sol.duals_ineq > 0.0))
        held = self._regions.get(active)
        if held is None:
            region = self._region(active)
            if region is None:
                return MpcStep(True, sol.z[:self.prob.sys.m].copy(), sol.objective)
            rows, law, V = region
            held = self._regions[active] = len(self._regions)
            self._region_rows = np.vstack([self._region_rows, rows])
            self._region_laws = np.concatenate([self._region_laws, law[None]])
            self._region_values = np.concatenate([self._region_values, V[None]])
        u0, value = self._region_answers(np.array([held]), np.append(x0, 1.0)[None])
        return MpcStep(True, u0[0], float(value[0]))

    def _region_law(self, active: tuple) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(law, lam) of the active rows W, with z = law y and W's
        multipliers lam y (y = (x0, 1), rows in the order of `active`), or
        None when their Schur complement S = (G_W J)(G_W J)' is singular.

        KKT on W: P z + q + G_W' lam = 0 and G_W z = g_W, so
        z = z_free y - J M' lam with M = G_W J, and S lam = G_W z_free y - g_W.
        Only S (|W| x |W|) is factored.
        """
        w = list(active)
        G = self._qp.G[w]
        M = G @ self._qp.factor
        try:
            L = np.linalg.cholesky(M @ M.T)
        except np.linalg.LinAlgError:
            return None
        d = np.diag(L)
        if d.size and d.min() <= _SCHUR_RATIO * d.max():
            return None
        lam = cho_solve((L, True), G @ self._z_free - self._g_aug[w])
        return self._z_free - self._qp.factor @ (M.T @ lam), lam

    def _region(self, active: tuple) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(rows, law, value) of the critical region of the active rows W,
        gated on its law's residuals; None when W is degenerate (see the
        class docstring).  With y = (x0, 1), row i of `rows` is G's row i's
        slack off W and its multiplier on W, so x0 is in the region where all
        are nonnegative; the first move there is law y, the value y'Vy."""
        out = self._region_law(active)
        if out is None:
            return None
        law, lam = out
        w = list(active)
        p = self._qp
        rows = self._g_aug - p.G @ law
        stat = p.P @ law + self._q_aug + p.G[w].T @ lam
        over = _over_tolerance((
            ("stationarity", float(np.max(np.abs(stat))) / self._law_scale, QP_DUAL_TOL),
            ("active-row", float(np.max(np.abs(rows[w]), initial=0.0)) / self._law_scale,
             QP_FEAS_TOL)))
        if over:
            raise ArithmeticError(
                f"affine law of active set {list(active)} misses its gate: {', '.join(over)}")
        rows[w] = lam
        if np.any(np.max(np.abs(rows), axis=1) <= QP_FEAS_TOL * self._law_scale):
            return None
        n = self.prob.sys.n
        offset = np.zeros((n + 1, n + 1))
        offset[:n, :n] = self._off_map
        value = 0.5 * law.T @ p.P @ law + self._q_aug.T @ law + offset
        return rows, law[:self.prob.sys.m], 0.5 * (value + value.T)

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

    def _moves(self, X, U) -> tuple[np.ndarray, np.ndarray]:
        """The closed-loop move u from x, per row of X and the same row of
        U: (stage cost x'Qx + u'Ru, successor Ax + Bu)."""
        sys = self.prob.sys
        return _quadratic(X, sys.Q) + _quadratic(U, sys.R), _linear(sys.A, X) + _linear(sys.B, U)

    def simulate_cost(self, x0) -> float:
        """Realized infinite-horizon closed-loop cost from x0 (inf if any
        step is infeasible): the one-state case of `_closed_loop_costs`."""
        return float(self._closed_loop_costs(np.reshape(x0, (1, -1)))[0])

    def _closed_loop_costs(self, X) -> np.ndarray:
        """The realized closed-loop cost from each row of X (inf if any step
        is infeasible), all loops stepped together.

        Each lock-step tests every live state against `tail_set` in one
        product (without slack, so inside the shortcut polytope too) and
        closes those inside with the exact cost to go x' tail_cost x; the
        rest move by one row pass (`_solve_rows`), and an infeasible step
        closes its loop at inf.  The tail costs, stage costs and successors
        are stacked products over the states they concern, one product per
        state with the bits of that state's own.  Each loop sums its own
        stage costs in its own order, and each answer is the law of the
        state's own active set whichever loop reached the QP first, so every
        cost has the bits of its loop run alone.
        """
        X = np.array(X, dtype=float)  # each row steps in place
        cost = np.full(len(X), math.inf)
        total = np.zeros(len(X))
        live = np.arange(len(X))
        O = self.tail_set
        for _ in range(_SIM_CAP):
            inside = (X[live] @ O.H.T <= O.h).all(axis=1)
            done = live[inside]
            cost[done] = total[done] + _quadratic(X[done], self.tail_cost)
            live = live[~inside]
            if not live.size:
                return cost
            feasible, U, _ = self._solve_rows(X[live])
            live = live[feasible]
            stage, X[live] = self._moves(X[live], U[feasible])
            total[live] += stage
        if live.size:
            raise ArithmeticError(
                f"closed loop did not reach the tail set in {_SIM_CAP} steps"
            )
        return cost

    def simulate_trajectory(self, x0, max_steps: int = 200) -> list[dict]:
        """Step records (k, x, u, stage cost, horizon value) for exactly
        max_steps steps, stopping early only on an infeasible step."""
        x = np.asarray(x0, dtype=float).ravel()
        out = []
        for k in range(max_steps):
            step = self.solve(x)
            stage, X_next = (self._moves(x[None], step.u0[None]) if step.feasible
                             else ([math.inf], None))
            out.append({"k": k, "x": x.copy(), "u": step.u0, "stage": float(stage[0]),
                        "value": step.value, "feasible": step.feasible})
            if not step.feasible:
                break
            x = X_next[0]
        return out


@dataclass
class CostMapGrid:
    """Row-major grid of feasibility verdicts and costs over a 2-D box."""

    xs: np.ndarray
    ys: np.ndarray
    feasible: np.ndarray  # bool (len(ys), len(xs))
    cost: np.ndarray  # float, +inf where infeasible
    rel_gap: np.ndarray  # float, NaN where not computed (read-only for a region)
    meta: dict


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


def feasible_region_grid(
    prob: ConstrainedProblem, design: TerminalDesign, ell: int, grid_spec=None,
    workers: Optional[int] = None,
) -> CostMapGrid:
    """Feasibility verdict (and QP value) of the ell-step problem per grid point.

    The sweep runs in the calling process on a fresh controller, so its
    results do not depend on earlier calls, one grid row at a time
    (`MpcController._solve_rows`): the cells that the shortcut, a stored
    certificate or a stored region answers at the start of the row are
    answered together, and the rest go to the QP in order, tested together
    again after each QP that grows a store, so the grid and the QPs it runs
    are those of one `solve` per cell.  The grids stack the rows' verdict
    and value arrays.  No gap is computed: one read-only NaN stands for
    every cell.  `workers` is accepted and ignored, for callers that still
    pass it; it selects nothing.
    """
    xs, ys = _grid_axes(prob, grid_spec or {})
    ctl = MpcController(prob, design, ell)
    rows = [ctl._solve_rows(np.column_stack([xs, np.full(xs.size, y)])) for y in ys]
    return CostMapGrid(
        xs=xs, ys=ys, feasible=np.array([feasible for feasible, _, _ in rows]),
        cost=np.array([value for _, _, value in rows]),
        rel_gap=np.broadcast_to(math.nan, (ys.size, xs.size)),
        meta={"kind": "region", "ell": ell, "zeta": design.zeta, "resolution": xs.size},
    )


def suboptimality_map(
    prob: ConstrainedProblem, design: TerminalDesign, ell: int, grid_spec=None,
    workers: Optional[int] = None,
) -> CostMapGrid:
    """Relative closed-loop suboptimality |J_pol - J_opt| / J_opt per grid point.

    J_pol is the realized ell-step receding-horizon cost; J_opt the ell=100
    approximation of the optimal cost.  The origin cell is excluded (0/0).
    The sweep runs in the calling process on fresh controllers, every cell's
    closed loop stepped together (`MpcController._closed_loop_costs`): the
    ell-step loops of all cells in row-major order, then the ell=100 loops
    of the feasible cells other than the origin.  `workers` is accepted and
    ignored, for callers that still pass it; it selects nothing.
    """
    xs, ys = _grid_axes(prob, grid_spec or {})
    X = np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])
    cost = MpcController(prob, design, ell)._closed_loop_costs(X)
    rel = np.full(cost.shape, math.nan)
    asked = np.flatnonzero(np.isfinite(cost) & X.any(axis=1))
    J_opt = MpcController(prob, design, APPROX_OPT_HORIZON)._closed_loop_costs(X[asked])
    ok = (J_opt > 0) & np.isfinite(J_opt)
    rel[asked[ok]] = np.abs(cost[asked[ok]] - J_opt[ok]) / J_opt[ok]
    cost, rel = cost.reshape(ys.size, xs.size), rel.reshape(ys.size, xs.size)
    return CostMapGrid(
        xs=xs, ys=ys, feasible=np.isfinite(cost), cost=cost, rel_gap=rel,
        meta={"kind": "submap", "ell": ell, "zeta": design.zeta, "resolution": xs.size},
    )


def feasible_set(prob: ConstrainedProblem, design: TerminalDesign, ell: int) -> np.ndarray:
    """Vertices of the feasible set X_ell, counterclockwise in 2-D.

    X_ell = {x0 | G z - g_map x0 <= g_const for some z} is the projection
    onto x0 of a polytope in (x0, z), built from the controller's rows (less
    its zero rows, which hold everywhere).  A support LP on that polytope
    (`lp_solve`) gives a point of X_ell that is extreme in any direction, so
    the hull of such points is exact after finitely many LPs (Lassez &
    Lassez 1992): seed it in the 2n axis and 2^n diagonal directions, then
    solve one LP in the outward normal of each facet not yet confirmed and
    rebuild it, until no LP passes its facet by more than `_FACET_RTOL`.
    A 1-D state raises ValueError, from Qhull.
    """
    n = prob.sys.n
    ctl = MpcController(prob, design, ell)
    lifted = np.hstack([-ctl._g_map, ctl._qp.G])
    keep = np.any(lifted != 0.0, axis=1)
    P = HPolytope(lifted[keep], ctl._g_const[keep])

    def support(c) -> np.ndarray:
        r = lp_solve(np.concatenate([c, np.zeros(P.dim - n)]), P)
        if r.status != "optimal":
            raise ValueError(f"support LP of the feasible set {r.status}")
        return r.x[:n] + 0.0  # clears the sign of a zero

    seeds = np.vstack([np.eye(n), -np.eye(n), list(itertools.product((1.0, -1.0), repeat=n))])
    points = [support(c) for c in seeds]
    confirmed = set()  # facet planes of X_ell, by their equation to 12 digits
    while True:
        hull = ConvexHull(points)
        kept = []
        # one LP per unconfirmed plane, normal' x + eq[n] <= 0 inside the hull;
        # a rounded key that misses costs one LP more, never a wrong answer
        for key, eq in {tuple(np.round(eq, 12)): eq for eq in hull.equations}.items():
            if key not in confirmed:
                p = support(eq[:n])
                if eq[:n] @ p + eq[n] > _FACET_RTOL * max(1.0, abs(eq[n])):
                    kept.append(p)
                else:
                    confirmed.add(key)
        if not kept:
            return hull.points[hull.vertices]
        points += kept
