"""Correctness checks on the benchmark's results, made apart from `lqmpc`.

Every check either recomputes a quantity with scipy alone (the Riccati
solution, support LPs, vertices and hull volumes, LP feasibility and QP
values of the uncondensed problem with the states as variables) or tests a
property the method must have (decrease of the terminal cost, bounds above
the gap, invariance of the terminal set, containment of feasible regions,
cost ordering in closed loop).  None compares against stored output.

Each `check_*` function returns a dict from an operation's key to the list of
checks that operation failed; an operation that is not in the dict passed.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy import sparse
from scipy.linalg import solve_discrete_are
from scipy.optimize import linprog, minimize
from scipy.spatial import ConvexHull, HalfspaceIntersection

# largest relative closed-loop suboptimality the amplified design may show
MAX_REL_GAP = 5e-3
# |LP margin| below which a cell counts as on the feasibility boundary, where
# either verdict is right (ten times HiGHS's primal feasibility tolerance)
BOUNDARY_MARGIN = 1e-6
# Monte Carlo standard errors a volume above two dimensions may be off by
MC_SIGMAS = 5.0
# feasible cells per design whose QP value is checked against SLSQP
QP_SAMPLE = 12


def _norm2(M) -> float:
    return float(np.linalg.norm(M, 2))


def riccati_operator(A, B, Q, R, K) -> np.ndarray:
    """F(K) = A'KA - A'KB (B'KB + R)^-1 B'KA + Q."""
    KA = K @ A
    F = A.T @ KA - KA.T @ B @ np.linalg.solve(B.T @ K @ B + R, B.T @ KA) + Q
    return 0.5 * (F + F.T)


def support(c, H, h) -> float:
    """max c'x over {Hx <= h}."""
    res = linprog(-np.asarray(c, float), A_ub=H, b_ub=h,
                  bounds=[(None, None)] * H.shape[1], method="highs")
    if res.status != 0:
        raise ArithmeticError(f"support LP failed: {res.message}")
    return float(-res.fun)


def vertices(H, h) -> np.ndarray:
    """Vertices of a bounded full-dimensional {Hx <= h}, by halfspace
    intersection around its Chebyshev centre."""
    norms = np.linalg.norm(H, axis=1)
    n = H.shape[1]
    res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([H, norms[:, None]]), b_ub=h,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if res.status != 0 or res.x[-1] <= 0:
        raise ArithmeticError("polytope has an empty interior")
    return HalfspaceIntersection(np.hstack([H, -h[:, None]]), res.x[:n]).intersections


def _within(H, h, X, rtol=1e-7) -> bool:
    """Every row of X satisfies Hx <= h up to a tolerance scaled to h."""
    return bool(np.all(X @ H.T <= h + rtol * np.maximum(1.0, np.abs(h))))


# --------------------------------------------------------------------------
# design
# --------------------------------------------------------------------------

def check_design(prob, res, mc_samples: int) -> list[str]:
    """Checks of one terminal design (a `workloads.DesignResult`)."""
    sys = prob.sys
    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R
    K, S = res.K, res.design.S
    fails = []

    K_ref = solve_discrete_are(A, B, Q, res.zeta * R)
    if _norm2(K - K_ref) > 1e-8 * _norm2(K_ref):
        fails.append(f"dare: |K - K_scipy| = {_norm2(K - K_ref):.3e}")

    margin = float(np.linalg.eigvalsh(K - riccati_operator(A, B, Q, R, K))[0])
    if margin < -1e-9 * _norm2(K):
        fails.append(f"decrease: min eig(K - F(K)) = {margin:.3e}")

    for rep in res.reports:
        for name in ("bound_contraction", "bound_monotone", "bound_newton"):
            bound = getattr(rep, name)
            if not rep.actual_gap <= bound * (1 + 1e-9):
                fails.append(f"bounds: ell={rep.ell} gap {rep.actual_gap:.6e} > {name} {bound:.6e}")

    X = prob.Xhat
    for i in range(X.nrows):
        top = support(X.H[i], S.H, S.h)
        if top > X.h[i] + 1e-7 * max(1.0, abs(X.h[i])):
            fails.append(f"contained: row {i} of the state set reaches {top:.6g} on S")

    V = vertices(S.H, S.h)
    # the amplified problem's greedy gain, which S must be invariant under
    L = -np.linalg.solve(B.T @ K @ B + res.zeta * R, B.T @ K @ A)
    if not _within(S.H, S.h, V @ (A + B @ L).T):
        fails.append("invariant: D v leaves S at a vertex v")
    if not _within(prob.U.H, prob.U.h, V @ L.T):
        fails.append("admissible: L v leaves U at a vertex v")

    hull = ConvexHull(V).volume
    if S.dim == 2:
        tol = 1e-9 * hull
    else:
        box = float(np.prod(V.max(axis=0) - V.min(axis=0)))
        p = min(hull / box, 1.0)
        tol = MC_SIGMAS * box * math.sqrt(p * (1.0 - p) / mc_samples) + 1e-9 * hull
    if abs(res.volume - hull) > tol:
        fails.append(f"volume: {res.volume:.9g} vs hull {hull:.9g} (tolerance {tol:.3g})")
    return fails


# --------------------------------------------------------------------------
# grid sweeps
# --------------------------------------------------------------------------

class StackedProblem:
    """The ell-step problem from x0 with the states kept as variables:
    w = (x_0, ..., x_ell, u_0, ..., u_{ell-1}) subject to x_0 = x0,
    x_{k+1} = A x_k + B u_k, x_k in Xhat (k < ell), u_k in U, x_ell in S, and
    cost sum_k x_k'Q x_k + u_k'R u_k + x_ell'K x_ell."""

    def __init__(self, prob, design, ell: int):
        sys = prob.sys
        n, m = sys.n, sys.m
        nx = (ell + 1) * n
        self.nv = nx + ell * m
        xs = lambda k: slice(k * n, (k + 1) * n)  # noqa: E731
        us = lambda k: slice(nx + k * m, nx + (k + 1) * m)  # noqa: E731

        Aeq = np.zeros(((ell + 1) * n, self.nv))
        Aeq[:n, :n] = np.eye(n)
        for k in range(ell):
            rows = slice((k + 1) * n, (k + 2) * n)
            Aeq[rows, xs(k + 1)] = np.eye(n)
            Aeq[rows, xs(k)] = -sys.A
            Aeq[rows, us(k)] = -sys.B
        blocks = [(xs(k), prob.Xhat) for k in range(ell)]
        blocks += [(us(k), prob.U) for k in range(ell)] + [(xs(ell), design.S)]
        Aub = np.zeros((sum(P.nrows for _, P in blocks), self.nv))
        bub = np.zeros(Aub.shape[0])
        r = 0
        for sl, P in blocks:
            Aub[r:r + P.nrows, sl] = P.H
            bub[r:r + P.nrows] = P.h
            r += P.nrows
        W = np.zeros((self.nv, self.nv))
        for k in range(ell):
            W[xs(k), xs(k)] = sys.Q
            W[us(k), us(k)] = sys.R
        W[xs(ell), xs(ell)] = design.K
        self.Aeq, self.Aub, self.bub, self.W, self.n = Aeq, Aub, bub, 0.5 * (W + W.T), n

    def _beq(self, x0) -> np.ndarray:
        beq = np.zeros(self.Aeq.shape[0])
        beq[: self.n] = x0
        return beq

    def margins(self, x0s) -> tuple[np.ndarray, np.ndarray]:
        """Per start state, the least uniform relaxation t of the inequalities
        that admits a solution, and that solution; t <= 0 iff the problem
        from that state is feasible.  The states' LPs are independent blocks
        of one block-diagonal LP, solved together to spare per-call cost."""
        k, nr, ne = len(x0s), self.Aub.shape[0], self.Aeq.shape[0]
        A_ub = np.hstack([self.Aub, -np.ones((nr, 1))])
        A_eq = np.hstack([self.Aeq, np.zeros((ne, 1))])
        res = linprog(
            np.tile(np.r_[np.zeros(self.nv), 1.0], k),
            A_ub=sparse.block_diag([A_ub] * k, format="csr"), b_ub=np.tile(self.bub, k),
            A_eq=sparse.block_diag([A_eq] * k, format="csr"),
            b_eq=np.concatenate([self._beq(x0) for x0 in x0s]),
            bounds=(None, None), method="highs",
        )
        if res.status != 0:
            raise ArithmeticError(f"feasibility LP failed: {res.message}")
        sol = res.x.reshape(k, self.nv + 1)
        return sol[:, -1], sol[:, :-1]

    def value(self, x0, w0) -> float:
        """Optimal cost from the feasible start w0, certified.

        SLSQP finds the minimizer and so the active rows.  The KKT system on
        those rows is then solved exactly, and its solution must be primal
        feasible with nonnegative multipliers, which makes it the optimum.
        (At ftol 1e-12 SLSQP may stop at the optimum with "positive
        directional derivative", status 8; the certificate decides.)"""
        W, Aeq, beq, Aub, bub = self.W, self.Aeq, self._beq(x0), self.Aub, self.bub
        res = minimize(
            lambda w: w @ W @ w, w0, jac=lambda w: 2.0 * W @ w, method="SLSQP",
            constraints=[
                {"type": "eq", "fun": lambda w: Aeq @ w - beq, "jac": lambda w: Aeq},
                {"type": "ineq", "fun": lambda w: bub - Aub @ w, "jac": lambda w: -Aub},
            ],
            options={"ftol": 1e-12, "maxiter": 1000},
        )
        scale = np.maximum(1.0, np.abs(bub))
        active = bub - Aub @ res.x <= 1e-7 * scale
        M = np.vstack([Aeq, Aub[active]])
        kkt = np.block([[2.0 * W, M.T], [M, np.zeros((M.shape[0], M.shape[0]))]])
        sol = np.linalg.lstsq(kkt, np.r_[np.zeros(self.nv), beq, bub[active]], rcond=None)[0]
        w, mu = sol[: self.nv], sol[self.nv + Aeq.shape[0]:]
        if not (np.all(Aub @ w <= bub + 1e-9 * scale)
                and np.max(np.abs(Aeq @ w - beq), initial=0.0) <= 1e-9 * max(1.0, np.abs(beq).max())
                and np.all(mu >= -1e-9 * max(1.0, np.abs(mu).max(initial=0.0)))):
            raise ArithmeticError(f"no certified QP optimum (SLSQP: {res.message})")
        return float(w @ W @ w)


def _verdicts(wl, kind: str):
    """The design's stacked problem, and (iy, ix) -> (LP margin, solution)
    for every lattice cell, one LP per lattice row."""
    stacked = StackedProblem(wl.prob, wl.designs[kind], wl.ell)
    cells = list(wl.points())
    out = {}
    for i in range(0, len(cells), wl.resolution):
        row = cells[i:i + wl.resolution]
        t, w = stacked.margins([x0 for _, _, x0 in row])
        for j, (iy, ix, _) in enumerate(row):
            out[(iy, ix)] = (float(t[j]), w[j])
    return stacked, out


def _axes_fail(wl, grid) -> bool:
    xs, ys = wl.axes()
    return not (np.array_equal(grid.xs, xs) and np.array_equal(grid.ys, ys))


def check_region(wl, grids: dict) -> dict:
    """Checks of one round of `feasible_region_grid` results, keyed by
    (design kind, iy, ix)."""
    fails = defaultdict(list)
    rng = np.random.default_rng(wl.sample_seed)
    points = {(iy, ix): x0 for iy, ix, x0 in wl.points()}
    for kind, grid in grids.items():
        if _axes_fail(wl, grid):
            for cell in points:
                fails[(kind, *cell)].append("lattice: grid axes differ from the lattice")
            continue
        stacked, verdicts = _verdicts(wl, kind)
        for (iy, ix), (t, _) in verdicts.items():
            feasible = bool(grid.feasible[iy, ix])
            if abs(t) > BOUNDARY_MARGIN and feasible != (t <= 0):
                fails[(kind, iy, ix)].append(f"verdict: {feasible} but the LP margin is {t:.3e}")
            if feasible != math.isfinite(grid.cost[iy, ix]):
                fails[(kind, iy, ix)].append("verdict: feasibility and cost disagree")
        inside = sorted(c for c, (t, _) in verdicts.items() if t < -BOUNDARY_MARGIN)
        pick = rng.choice(len(inside), size=min(QP_SAMPLE, len(inside)), replace=False)
        for j in pick:
            iy, ix = inside[j]
            ref = stacked.value(points[(iy, ix)], verdicts[(iy, ix)][1])
            got = float(grid.cost[iy, ix])
            if not abs(got - ref) <= 1e-8 * max(1.0, abs(ref)):
                fails[(kind, iy, ix)].append(f"value: {got:.9g} vs reference {ref:.9g}")
    if "amplified" in grids and "optimal" in grids:
        amp, opt = grids["amplified"], grids["optimal"]
        for iy, ix in zip(*np.nonzero(opt.feasible & ~amp.feasible)):
            fails[("amplified", int(iy), int(ix))].append(
                "containment: feasible for the optimal design only")
    return dict(fails)


def check_submap(wl, grids: dict) -> dict:
    """Checks of one round of `suboptimality_map` results, keyed by
    (design kind, iy, ix)."""
    sys = wl.prob.sys
    Kstar = solve_discrete_are(sys.A, sys.B, sys.Q, sys.R)
    fails = defaultdict(list)
    for kind, grid in grids.items():
        if _axes_fail(wl, grid):
            for iy, ix, _ in wl.points():
                fails[(kind, iy, ix)].append("lattice: grid axes differ from the lattice")
            continue
        stacked, verdicts = _verdicts(wl, kind)
        for iy, ix, x0 in wl.points():
            key = (kind, iy, ix)
            t, w0 = verdicts[(iy, ix)]
            J, r = float(grid.cost[iy, ix]), float(grid.rel_gap[iy, ix])
            if abs(t) > BOUNDARY_MARGIN and math.isfinite(J) != (t <= 0):
                fails[key].append(f"recursive_feasibility: cost {J:.6g}, LP margin {t:.3e}")
            if bool(grid.feasible[iy, ix]) != math.isfinite(J):
                fails[key].append("recursive_feasibility: verdict and cost disagree")
            if not math.isfinite(J) or t > 0 or not np.any(x0):
                continue
            floor = float(x0 @ Kstar @ x0)
            if not math.isfinite(r):
                fails[key].append("rel_gap: missing on a feasible cell")
                continue
            # J_opt is J / (1 + r) or J / (1 - r); both lie above the smaller
            if floor > J / (1.0 + r) * (1 + 1e-9):
                fails[key].append(f"opt_lower_bound: x0'K*x0 {floor:.9g} > J_opt")
            if floor > J * (1 + 1e-9):
                fails[key].append(f"pol_lower_bound: x0'K*x0 {floor:.9g} > J_pol {J:.9g}")
            V = stacked.value(x0, w0)
            if J > V * (1 + 1e-8) + 1e-9:
                fails[key].append(f"value_bound: J_pol {J:.9g} > V_ell {V:.9g}")
            if not r < MAX_REL_GAP:
                fails[key].append(f"max_gap: relative gap {r:.3e}")
    return dict(fails)
