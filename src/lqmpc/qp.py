"""Dense strictly convex quadratic programming.

minimize    0.5 z'Pz + q'z         (+ a fixed offset, for reporting)
subject to  G z <= g

The condensed MPC query has inequality rows only: condensing eliminates the
dynamics, and the state, input and terminal sets give the rows of G.

The solver is the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983).  It starts at the unconstrained minimiser -P^-1 q
(for a condensed MPC query, the unconstrained MPC solution Z x0) and adds
the most violated row, one at a time; a row whose multiplier would turn
negative leaves.  Every iterate is dual feasible, so the first that violates
no row is optimal: no feasible start is needed.  A violated row that no dual
step can add proves infeasibility, which a Phase-1 LP confirms with a
verified Farkas vector.  If that LP finds a point within HiGHS's tolerance
instead, the Farkas vector the dual method read off the blocked row is
verified in its place, and the solver raises ArithmeticError only when that
check fails too.  An optimal return passes a KKT gate: primal, dual and
complementarity residuals, relative to max(1, |q|_inf, |g|_inf), within
QP_FEAS_TOL, QP_DUAL_TOL and QP_COMP_TOL; a solution that misses it has the
status "inaccurate".

The Phase-1 LP goes through the module attribute `linprog`, which is
`matcore.linprog`: scipy's solver, imported at the first LP, so a run whose
QPs are all feasible never loads `scipy.optimize`.  It stays an attribute of
this module so that a test or a tracer can count the Phase-1 LPs by
patching `qp.linprog`.

A `QpProblem` validates and factors its Hessian once, at construction.
Problems that share P and G with it, such as the per-state QPs of one MPC
controller, are derived by `QpProblem.with_linear_terms`, which reuses the
check and the factor.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .matcore import linprog, symmetrize

__all__ = ["QP_FEAS_TOL", "QP_DUAL_TOL", "QP_COMP_TOL", "QpProblem", "QpSolution",
           "solve_qp"]

QP_FEAS_TOL = 1e-8
QP_DUAL_TOL = 1e-8
QP_COMP_TOL = 1e-8

_TIKHONOV = 1e-10
# a row counts as violated when it exceeds its offset by more than this,
# relative to max(1, |q|_inf, |g|_inf)
_VIOL_TOL = 1e-12
# a row lies in the span of the active rows when the part of J'n outside
# their span is at most this fraction of |J'n|
_SPAN_TOL = 1e-12
# a Farkas vector y is verified when its relative residuals (see
# `_farkas_residuals`) have |G'y| at most the first and g'y below minus the second
_FARKAS_STAT_TOL = 1e-9
_FARKAS_GAP_TOL = 1e-12


@dataclass(frozen=True)
class QpProblem:
    """Dense convex QP data; G/g may be empty (shape (0, n))."""

    P: np.ndarray
    q: np.ndarray
    G: np.ndarray
    g: np.ndarray
    objective_offset: float = 0.0
    # computed once: J = L^-T for the Cholesky factor L of P (of
    # P + _TIKHONOV I when P is nearly singular), so that J'PJ = I and
    # JJ' = P^-1
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P = symmetrize(self.P)
        q = np.asarray(self.q, dtype=float).ravel()
        n = q.size
        if P.shape != (n, n):
            raise ValueError(f"P shape {P.shape} does not match q length {n}")
        G = np.zeros((0, n)) if self.G is None else np.atleast_2d(np.asarray(self.G, float))
        g = np.zeros(0) if self.g is None else np.asarray(self.g, float).ravel()
        if G.size == 0:
            G = G.reshape(0, n)
        if G.shape != (g.size, n):
            raise ValueError("inconsistent inequality dimensions")
        # ascending eigenvalues of the symmetric P; |P|_2 is the larger end
        lam = np.linalg.eigvalsh(P) if n else np.zeros(1)
        if lam[0] < -1e-9 * max(1.0, abs(lam[0]), abs(lam[-1])):
            raise ValueError("P must be positive semidefinite")
        P_reg = P + _TIKHONOV * np.eye(n) if lam[0] < _TIKHONOV else P
        try:
            L = np.linalg.cholesky(P_reg)
            J = solve_triangular(L, np.eye(n), lower=True, check_finite=False).T
        except np.linalg.LinAlgError:
            # too ill-conditioned for Cholesky (a long horizon of an unstable
            # system): eigenvalues clipped at _TIKHONOV; the KKT gate judges
            w, V = np.linalg.eigh(P_reg)
            J = V / np.sqrt(np.maximum(w, _TIKHONOV))
        for name, val in (("P", P), ("q", q), ("G", G), ("g", g), ("factor", J)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.q.size

    def with_linear_terms(self, q, g, objective_offset: float = 0.0) -> "QpProblem":
        """The same P and G with a new q, g and offset.

        P was validated and factored when this problem was built, so the
        derived problem skips that along with the rest of the set-up.
        """
        q = np.asarray(q, dtype=float).ravel()
        g = np.asarray(g, dtype=float).ravel()
        if q.shape != self.q.shape or g.shape != self.g.shape:
            raise ValueError("new linear terms do not match the problem's dimensions")
        out = copy.copy(self)
        for name, val in (("q", q), ("g", g), ("objective_offset", float(objective_offset))):
            object.__setattr__(out, name, val)
        return out


@dataclass(frozen=True)
class QpSolution:
    status: str  # "optimal" | "infeasible" | "inaccurate" | "max_iter"
    z: Optional[np.ndarray]
    duals_ineq: Optional[np.ndarray]
    objective: float
    # KKT residuals relative to max(1, |q|_inf, |g|_inf)
    primal_residual: float
    dual_residual: float
    comp_residual: float
    # over the rows of G: y >= 0, G'y = 0, g'y < 0
    farkas: Optional[np.ndarray] = None
    iterations: int = 0


def _phase1(p: QpProblem) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Feasible point for {Gz <= g}, or (None, verified Farkas vector)."""
    n, mi = p.n, p.g.size
    if mi == 0:
        return np.zeros(n), None
    # min t  s.t.  Gz - t <= g,  t >= 0: always feasible, and bounded by t >= 0
    res = linprog(
        np.r_[np.zeros(n), 1.0], A_ub=np.hstack([p.G, -np.ones((mi, 1))]), b_ub=p.g,
        bounds=[(None, None)] * n + [(0, None)], method="highs",
    )
    if res.status != 0:
        raise ArithmeticError(
            f"Phase-1 LP failed (HiGHS status {res.status}: {res.message})")
    if res.x[-1] <= QP_FEAS_TOL:
        return res.x[:n], None
    # the LP's duals on Gz - t <= g
    farkas = np.maximum(-np.asarray(res.ineqlin.marginals), 0.0)
    stat, gap = _farkas_residuals(p, farkas)
    if not (stat <= _FARKAS_STAT_TOL and gap < -_FARKAS_GAP_TOL):
        raise ArithmeticError(
            "Phase-1 LP gave no verified infeasibility certificate "
            f"(relative |G'y| {stat:.2e}, relative g'y {gap:.2e})"
        )
    return None, farkas


def _farkas_residuals(p: QpProblem, farkas: np.ndarray) -> tuple[float, float]:
    """Relative residuals of a Farkas vector y >= 0 over the rows of G.

    Returns |G'y|_inf / (|y|_1 max|G|) and g'y / (|y|_1 max|g|): {Gz <= g}
    is infeasible when the first is ~0 and the second negative.  A zero
    vector, or one with a negative entry, gives (inf, 0).
    """
    y1 = float(np.abs(farkas).sum())
    if y1 == 0.0 or np.any(farkas < 0.0):
        return float("inf"), 0.0
    stat = float(np.max(np.abs(p.G.T @ farkas), initial=0.0))
    stat /= y1 * max(float(np.max(np.abs(p.G), initial=0.0)), 1e-300)
    gap = float(p.g @ farkas) / (y1 * max(float(np.max(np.abs(p.g))), 1e-300))
    return stat, gap


def _kkt_residuals(p: QpProblem, z, mu) -> tuple[float, float, float]:
    """Primal, dual and complementarity residuals of (z, mu), relative to
    max(1, |q|_inf, |g|_inf)."""
    slack = p.G @ z - p.g
    r_prim = float(np.max(slack, initial=0.0))
    r_dual = float(np.max(np.abs(p.P @ z + p.q + p.G.T @ mu), initial=0.0))
    r_comp = float(np.max(np.abs(mu * slack), initial=0.0))
    scale = _kkt_scale(p)
    return r_prim / scale, r_dual / scale, r_comp / scale


def _kkt_scale(p: QpProblem) -> float:
    return max(1.0, float(np.max(np.abs(p.q), initial=0.0)),
               float(np.max(np.abs(p.g), initial=0.0)))


def _dual_active_set(p: QpProblem):
    """Goldfarb-Idnani iterations from the unconstrained minimiser.

    Returns (z, mu, iterations, blocked): blocked is None when z is optimal,
    "cap" (with zero multipliers) when the iteration cap is reached, and
    otherwise the index of a violated row of G that no dual step can add,
    which proves the problem infeasible.  Such a row is r'N for the active
    rows N with r <= 0, so mu is then the Farkas vector 1 on that row and
    -r on the active rows.

    The active rows N are kept with J'PJ = I, J1'N = R upper triangular and
    J2'N = 0 for J = [J1 J2], J1 with one column per active row.  A
    candidate row c then moves z along -J2 J2'c and the active multipliers
    along -R^-1 J1'c.
    """
    n, mi = p.n, p.g.size
    J = p.factor.copy()
    R = np.zeros((n, n))
    u = np.zeros(n)  # multipliers of the active rows
    rows: list[int] = []  # their indices in G
    z = -(J @ (J.T @ p.q))
    tol = _VIOL_TOL * _kkt_scale(p)
    iters, cap = 0, 50 + 10 * (mi + n)
    mu = np.zeros(mi)

    def drop(l: int) -> None:
        # delete column l of R and rotate R back to triangular, applying the
        # same rotations to J's columns
        k = len(rows)
        R[:k, l:k - 1] = R[:k, l + 1:k]
        R[:k, k - 1] = 0.0
        for i in range(l, k - 1):
            a, c = R[i, i], R[i + 1, i]
            h = math.hypot(a, c)
            if h > 0.0:
                rot = np.array([[a / h, c / h], [-c / h, a / h]])
                R[i:i + 2, i:k - 1] = rot @ R[i:i + 2, i:k - 1]
                J[:, i:i + 2] = J[:, i:i + 2] @ rot.T
        u[l:k - 1] = u[l + 1:k]
        u[k - 1] = 0.0
        del rows[l]

    def add(row: int) -> str:
        """Step until the row is active: "added", "blocked" or "cap"."""
        nonlocal z, iters
        normal, offset = p.G[row], p.g[row]
        up = 0.0
        while iters < cap:
            iters += 1
            k = len(rows)
            d = J.T @ normal
            d2 = d[k:]
            d2n = float(d2 @ d2)
            r = solve_triangular(R[:k, :k], d[:k], check_finite=False) if k else d[:0]
            s = float(normal @ z) - offset
            t2 = s / d2n if d2n > _SPAN_TOL**2 * float(d @ d) else math.inf
            t1, l = math.inf, -1
            free = np.flatnonzero(r > 0.0)
            if free.size:
                ratios = u[free] / r[free]
                j = int(np.argmin(ratios))
                t1, l = float(ratios[j]), int(free[j])
            t = min(t1, t2)
            if t == math.inf:
                # the row is r'N: 1 on it and -r on the active rows is a
                # Farkas vector
                mu[row] = 1.0
                mu[rows] -= r
                return "blocked"
            if t2 < math.inf:
                z = z - t * (J[:, k:] @ d2)
            u[:k] -= t * r
            up += t
            if t2 > t1:
                drop(l)
                continue
            # a Householder reflection of J2 maps d2 onto its first axis
            beta = float(d2[0])
            if d2.size > 1:
                beta = -math.copysign(math.sqrt(d2n), beta)
                v = d2.copy()
                v[0] -= beta
                J[:, k:] -= np.outer(J[:, k:] @ v, v * (2.0 / float(v @ v)))
            R[:k, k] = d[:k]
            R[k, k] = beta
            u[k] = up
            rows.append(row)
            return "added"
        return "cap"

    while True:
        viol = p.G @ z - p.g
        i = int(np.argmax(viol)) if mi else -1
        if i < 0 or viol[i] <= tol:
            break
        out = add(i)
        if out != "added":
            return z, mu, iters, i if out == "blocked" else out
    for row, ui in zip(rows, u):
        mu[row] = max(ui, 0.0)
    return z, mu, iters, None


def solve_qp(p: QpProblem) -> QpSolution:
    """Solve the QP by the dual active-set method from -P^-1 q.

    Returns status "optimal" when the solution passes the KKT gate,
    "inaccurate" when it does not, "infeasible" with a verified Farkas
    certificate, or "max_iter" with the last iterate.  Raises
    ArithmeticError when the dual method finds the problem infeasible but
    the Phase-1 LP finds a feasible point and the dual method's own Farkas
    vector fails its check.
    """
    z, mu, iters, blocked = _dual_active_set(p)
    if isinstance(blocked, int):
        z_lp, farkas = _phase1(p)
        if farkas is None:
            # HiGHS accepts a point within its own 1e-7 tolerance, so a query
            # a few 1e-8 outside the feasible set gets t = 0; the dual
            # method's own vector then decides
            farkas = mu
            stat, gap = _farkas_residuals(p, farkas)
            if not (stat <= _FARKAS_STAT_TOL and gap < -_FARKAS_GAP_TOL):
                margin = float(np.max(p.G @ z_lp - p.g, initial=0.0))
                raise ArithmeticError(
                    f"dual active set found no step for row {blocked} of G, "
                    f"but the Phase-1 LP found a point within {margin:.2e} of every "
                    f"row and the dual Farkas vector fails its check (relative "
                    f"|G'y| {stat:.2e}, relative g'y {gap:.2e})"
                )
        inf = float("inf")
        return QpSolution(
            status="infeasible", z=None, duals_ineq=None, objective=inf,
            primal_residual=inf, dual_residual=inf, comp_residual=inf,
            farkas=farkas, iterations=iters,
        )
    rp, rd, rc = _kkt_residuals(p, z, mu)
    if blocked == "cap":
        status = "max_iter"
    elif rp <= QP_FEAS_TOL and rd <= QP_DUAL_TOL and rc <= QP_COMP_TOL:
        status = "optimal"
    else:
        status = "inaccurate"
    return QpSolution(
        status=status, z=z, duals_ineq=mu,
        objective=float(0.5 * z @ p.P @ z + p.q @ z + p.objective_offset),
        primal_residual=rp, dual_residual=rd, comp_residual=rc, iterations=iters,
    )
