"""Dense strictly convex quadratic programming.

minimize    0.5 z'Pz + q'z         (+ a fixed offset, for reporting)
subject to  G z <= g,   E z = e

The solver is the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983).  It starts at the unconstrained minimiser -P^-1 q
(for a condensed MPC query, the unconstrained MPC solution Z x0), adds E's
rows, which never leave, then the most violated row of G, one at a time; a
row whose multiplier would turn negative leaves.  Every iterate is dual
feasible, so the first that violates no row is optimal: no feasible start
is needed.  A violated row that no dual step can add proves infeasibility,
which a Phase-1 LP confirms with a verified Farkas vector (if that LP finds
a feasible point instead, the solver raises ArithmeticError).  An optimal
return passes a KKT gate: primal, dual and complementarity residuals,
relative to max(1, |q|_inf, |g|_inf), within QP_FEAS_TOL, QP_DUAL_TOL and
QP_COMP_TOL; a solution that misses it has the status "inaccurate".

A `QpProblem` validates and factors its Hessian once, at construction.
Problems that share P, G and E with it, such as the per-state QPs of one
MPC controller, are derived by `QpProblem.with_linear_terms`, which reuses
the check and the factor.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import linprog

from .matcore import symmetrize

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


@dataclass(frozen=True)
class QpProblem:
    """Dense convex QP data; E/e may be empty (shape (0, n))."""

    P: np.ndarray
    q: np.ndarray
    G: np.ndarray
    g: np.ndarray
    E: np.ndarray = field(default=None)  # type: ignore[assignment]
    e: np.ndarray = field(default=None)  # type: ignore[assignment]
    objective_offset: float = 0.0
    # computed once: the smallest eigenvalue of P, the 2-norms of G's rows,
    # and J = L^-T for the Cholesky factor L of P (of P + _TIKHONOV I when P
    # is nearly singular), so that J'PJ = I and JJ' = P^-1
    min_eig: float = field(init=False, repr=False, compare=False)
    row_scale: np.ndarray = field(init=False, repr=False, compare=False)
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
        E = np.zeros((0, n)) if self.E is None else np.atleast_2d(np.asarray(self.E, float))
        e = np.zeros(0) if self.e is None else np.asarray(self.e, float).ravel()
        if E.size == 0:
            E = E.reshape(0, n)
        if G.shape != (g.size, n):
            raise ValueError("inconsistent inequality dimensions")
        if E.shape != (e.size, n):
            raise ValueError("inconsistent equality dimensions")
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
        for name, val in (("P", P), ("q", q), ("G", G), ("g", g), ("E", E), ("e", e),
                          ("min_eig", float(lam[0])),
                          ("row_scale", np.linalg.norm(G, axis=1)), ("factor", J)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.q.size

    def with_linear_terms(self, q, g, objective_offset: float = 0.0) -> "QpProblem":
        """The same P, G, E and e with a new q, g and offset.

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
    duals_eq: Optional[np.ndarray]
    objective: float
    # KKT residuals relative to max(1, |q|_inf, |g|_inf)
    primal_residual: float
    dual_residual: float
    comp_residual: float
    # over the rows of [G; E]: y >= 0 on G's rows, G'y + E'w = 0, g'y + e'w < 0
    farkas: Optional[np.ndarray] = None
    regularized: bool = False
    iterations: int = 0


def _phase1(p: QpProblem) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Feasible point for {Gz<=g, Ez=e}, or (None, verified Farkas vector)."""
    n = p.n
    mi, me = p.g.size, p.e.size
    if mi == 0 and me == 0:
        return np.zeros(n), None
    # min t  s.t.  Gz - t <= g,  Ez = e,  t >= 0
    c = np.r_[np.zeros(n), 1.0]
    A_ub = np.hstack([p.G, -np.ones((mi, 1))]) if mi else None
    b_ub = p.g if mi else None
    A_eq = np.hstack([p.E, np.zeros((me, 1))]) if me else None
    b_eq = p.e if me else None
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=[(None, None)] * n + [(0, None)], method="highs",
    )
    if res.status == 0:
        t = res.x[-1]
        if t <= QP_FEAS_TOL:
            return res.x[:n], None
        # the LP's duals: y >= 0 on Gz - t <= g, w free on Ez = e
        y = np.maximum(-np.asarray(res.ineqlin.marginals), 0.0) if mi else np.zeros(0)
        w = -np.asarray(res.eqlin.marginals) if me else np.zeros(0)
    else:
        # the Phase-1 LP is infeasible only when Ez = e is: the least-squares
        # residual r is orthogonal to range(E), so w = -r has E'w = 0 and
        # e'w = -|r|^2 < 0
        y = np.zeros(mi)
        w = np.zeros(0)
        if me:
            w = p.E @ np.linalg.lstsq(p.E, p.e, rcond=None)[0] - p.e
    farkas = np.r_[y, w]
    stat, gap = _farkas_residuals(p, farkas)
    if not (stat <= 1e-9 and gap < -1e-12):
        raise ArithmeticError(
            "Phase-1 LP gave no verified infeasibility certificate "
            f"(HiGHS status {res.status}: {res.message}; "
            f"relative |M'y| {stat:.2e}, relative b'y {gap:.2e})"
        )
    return None, farkas


def _farkas_residuals(p: QpProblem, farkas: np.ndarray) -> tuple[float, float]:
    """Relative residuals of a Farkas vector over the rows of M = [G; E].

    With y = (y_G, w), y_G >= 0 and b = (g, e), returns
    |M'y|_inf / (|y|_1 max|M|) and b'y / (|y|_1 max|b|): {Gz <= g, Ez = e}
    is infeasible when the first is ~0 and the second negative.  A zero
    vector gives (inf, 0).
    """
    M = np.vstack([p.G, p.E])
    b = np.r_[p.g, p.e]
    y1 = float(np.abs(farkas).sum())
    if y1 == 0.0 or np.any(farkas[: p.g.size] < 0.0):
        return float("inf"), 0.0
    stat = float(np.max(np.abs(M.T @ farkas), initial=0.0))
    stat /= y1 * max(float(np.max(np.abs(M), initial=0.0)), 1e-300)
    gap = float(b @ farkas) / (y1 * max(float(np.max(np.abs(b))), 1e-300))
    return stat, gap


def _kkt_residuals(p: QpProblem, z, mu, nu) -> tuple[float, float, float]:
    """Primal, dual and complementarity residuals of (z, mu, nu), relative
    to max(1, |q|_inf, |g|_inf)."""
    slack = p.G @ z - p.g
    r_prim = max(float(np.max(slack, initial=0.0)),
                 float(np.max(np.abs(p.E @ z - p.e), initial=0.0)))
    grad = p.P @ z + p.q + p.G.T @ mu + p.E.T @ nu
    r_dual = float(np.max(np.abs(grad), initial=0.0))
    r_comp = float(np.max(np.abs(mu * slack), initial=0.0))
    scale = _kkt_scale(p)
    return r_prim / scale, r_dual / scale, r_comp / scale


def _kkt_scale(p: QpProblem) -> float:
    return max(1.0, float(np.max(np.abs(p.q), initial=0.0)),
               float(np.max(np.abs(p.g), initial=0.0)))


def _dual_active_set(p: QpProblem):
    """Goldfarb-Idnani iterations from the unconstrained minimiser.

    Returns (z, mu, nu, iterations, blocked): blocked is None when z is
    optimal, "cap" (with zero multipliers) when the iteration cap is
    reached, and otherwise the index in [G; E] of a violated row that no
    dual step can add, which proves the problem infeasible.

    The active rows N, each oriented as an upper bound, are kept with
    J'PJ = I, J1'N = R upper triangular and J2'N = 0 for J = [J1 J2], J1
    with one column per active row.  A candidate row c then moves z along
    -J2 J2'c and the active multipliers along -R^-1 J1'c.
    """
    n, mi, me = p.n, p.g.size, p.e.size
    J = p.factor.copy()
    R = np.zeros((n, n))
    u = np.zeros(n)  # multipliers of the oriented active rows
    rows: list[int] = []  # their indices in [G; E]
    signs: list[float] = []  # -1 for an E row taken as -E_i z <= -e_i
    z = -(J @ (J.T @ p.q))
    tol = _VIOL_TOL * _kkt_scale(p)
    n_eq = 0  # E rows come first among the active rows and never leave
    iters, cap = 0, 50 + 10 * (mi + me + n)

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
        del rows[l], signs[l]

    def add(row: int, sign: float) -> str:
        """Step until the row is active: "added", "redundant" (an E row in
        the span of earlier ones, already met), "blocked" or "cap"."""
        nonlocal z, iters
        normal, offset = (sign * p.G[row], sign * p.g[row]) if row < mi else \
            (sign * p.E[row - mi], sign * p.e[row - mi])
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
            if row >= mi and t2 == math.inf:
                return "redundant" if abs(s) <= tol else "blocked"
            t1, l = math.inf, -1
            free = np.flatnonzero(r[n_eq:] > 0.0) + n_eq
            if free.size:
                ratios = u[free] / r[free]
                j = int(np.argmin(ratios))
                t1, l = float(ratios[j]), int(free[j])
            t = min(t1, t2)
            if t == math.inf:
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
            signs.append(sign)
            return "added"
        return "cap"

    mu, nu = np.zeros(mi), np.zeros(me)
    for i in range(me):
        out = add(mi + i, -1.0 if p.E[i] @ z < p.e[i] else 1.0)
        if out == "added":
            n_eq += 1
        elif out != "redundant":
            return z, mu, nu, iters, mi + i if out == "blocked" else out
    while True:
        viol = p.G @ z - p.g
        i = int(np.argmax(viol)) if mi else -1
        if i < 0 or viol[i] <= tol:
            break
        out = add(i, 1.0)
        if out != "added":
            return z, mu, nu, iters, i if out == "blocked" else out
    for row, sign, ui in zip(rows, signs, u):
        if row < mi:
            mu[row] = max(ui, 0.0)
        else:
            nu[row - mi] = sign * ui
    return z, mu, nu, iters, None


def solve_qp(p: QpProblem) -> QpSolution:
    """Solve the QP by the dual active-set method from -P^-1 q.

    Returns status "optimal" when the solution passes the KKT gate,
    "inaccurate" when it does not, "infeasible" with a verified Farkas
    certificate, or "max_iter" with the last iterate.  Raises
    ArithmeticError when the dual method finds the problem infeasible but
    the Phase-1 LP finds a feasible point.
    """
    regularized = bool(p.n) and p.min_eig < _TIKHONOV
    z, mu, nu, iters, blocked = _dual_active_set(p)
    if isinstance(blocked, int):
        z_lp, farkas = _phase1(p)
        if farkas is None:
            margin = max(float(np.max(p.G @ z_lp - p.g, initial=0.0)),
                         float(np.max(np.abs(p.E @ z_lp - p.e), initial=0.0)))
            raise ArithmeticError(
                f"dual active set found no step for row {blocked} of [G; E], "
                f"but the Phase-1 LP found a point within {margin:.2e} of every row"
            )
        inf = float("inf")
        return QpSolution(
            status="infeasible", z=None, duals_ineq=None, duals_eq=None,
            objective=inf, primal_residual=inf, dual_residual=inf, comp_residual=inf,
            farkas=farkas, regularized=regularized, iterations=iters,
        )
    rp, rd, rc = _kkt_residuals(p, z, mu, nu)
    if blocked == "cap":
        status = "max_iter"
    elif rp <= QP_FEAS_TOL and rd <= QP_DUAL_TOL and rc <= QP_COMP_TOL:
        status = "optimal"
    else:
        status = "inaccurate"
    return QpSolution(
        status=status, z=z, duals_ineq=mu, duals_eq=nu,
        objective=float(0.5 * z @ p.P @ z + p.q @ z + p.objective_offset),
        primal_residual=rp, dual_residual=rd, comp_residual=rc,
        regularized=regularized, iterations=iters,
    )
