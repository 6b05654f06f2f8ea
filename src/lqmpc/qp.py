"""Dense convex quadratic programming.

minimize    0.5 z'Pz + q'z         (+ a fixed offset, for reporting)
subject to  G z <= g,   E z = e

The solver is a primal active-set method for (strictly) convex dense
problems: a Phase-1 LP supplies a feasible start (or a Farkas certificate of
infeasibility), then equality-constrained subproblems are solved on a working
set until all multipliers are nonnegative.  Optimal returns carry certified
KKT residuals; infeasible returns carry a Farkas vector that is verified
before it is returned.

A `QpProblem` validates its Hessian (positive semidefinite) once, at
construction.  Problems that share P, G and E with a validated one, such as
the per-state QPs of one MPC controller, are derived from it by
`QpProblem.with_linear_terms` without repeating that check.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import qr as scipy_qr
from scipy.optimize import linprog

from .matcore import symmetrize

__all__ = [
    "QP_FEAS_TOL",
    "QP_DUAL_TOL",
    "QP_COMP_TOL",
    "QpProblem",
    "QpSolution",
    "solve_qp",
]

QP_FEAS_TOL = 1e-8
QP_DUAL_TOL = 1e-8
QP_COMP_TOL = 1e-8

_TIKHONOV = 1e-10
_ACT_TOL = 1e-9


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
    # smallest eigenvalue of P and the 2-norms of G's rows, computed once
    min_eig: float = field(init=False, repr=False, compare=False)
    row_scale: np.ndarray = field(init=False, repr=False, compare=False)

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
        for name, val in (("P", P), ("q", q), ("G", G), ("g", g), ("E", E), ("e", e),
                          ("min_eig", float(lam[0])),
                          ("row_scale", np.linalg.norm(G, axis=1))):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.q.size

    def with_linear_terms(self, q, g, objective_offset: float = 0.0) -> "QpProblem":
        """The same P, G, E and e with a new q, g and offset.

        P was validated when this problem was built, so the derived problem
        skips that check along with the rest of the set-up.
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
    status: str  # "optimal" | "infeasible" | "max_iter"
    z: Optional[np.ndarray]
    duals_ineq: Optional[np.ndarray]
    duals_eq: Optional[np.ndarray]
    objective: float
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
    r_prim = 0.0
    if p.g.size:
        r_prim = max(r_prim, float(np.max(p.G @ z - p.g)))
    if p.e.size:
        r_prim = max(r_prim, float(np.max(np.abs(p.E @ z - p.e))))
    grad = p.P @ z + p.q
    if p.g.size:
        grad = grad + p.G.T @ mu
    if p.e.size:
        grad = grad + p.E.T @ nu
    r_dual = float(np.linalg.norm(grad, np.inf)) if grad.size else 0.0
    r_comp = 0.0
    if p.g.size:
        r_comp = float(np.max(np.abs(mu * (p.G @ z - p.g))))
    return max(r_prim, 0.0), r_dual, r_comp


def _independent_rows(M: np.ndarray) -> list[int]:
    """Indices of a maximal linearly independent subset of M's rows
    (pivoted QR on the transpose)."""
    if M.shape[0] == 0:
        return []
    _, R, piv = scipy_qr(M.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return []
    rank = int(np.sum(diag > max(M.shape) * np.finfo(float).eps * diag[0]))
    return sorted(int(i) for i in piv[:rank])


def _null_space_step(P, grad, C, n):
    """Minimizing step restricted to {s : Cs = 0}.

    Computed through a complete QR of C', so the returned step satisfies
    C @ step = 0 to machine precision (raw KKT solves drift off the working
    set when it is large and ill-conditioned, which stalls the outer loop).
    """
    k = C.shape[0]
    if k == 0:
        Z = np.eye(n)
    else:
        Qf, _ = np.linalg.qr(C.T, mode="complete")
        Z = Qf[:, k:]
    if Z.shape[1] == 0:
        return np.zeros(n)
    H = Z.T @ P @ Z
    rhs = -(Z.T @ grad)
    try:
        y = np.linalg.solve(H, rhs)
        # one round of iterative refinement; the reduced Hessian of a long
        # condensed horizon can be very ill-conditioned
        y += np.linalg.solve(H, rhs - H @ y)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(H, rhs, rcond=None)
    return Z @ y


def solve_qp(p: QpProblem, z0: Optional[np.ndarray] = None, max_iter: int = 0) -> QpSolution:
    """Solve the QP by a primal active-set method.

    `z0` may supply a feasible warm start (verified; ignored when violated).
    Returns status "optimal" with certified KKT residuals, "infeasible" with
    a verified Farkas certificate, or "max_iter" with the last iterate's
    residuals.
    """
    n = p.n
    P = p.P
    regularized = False
    if n and p.min_eig < _TIKHONOV:
        P = P + _TIKHONOV * np.eye(n)
        regularized = True
    mi, me = p.g.size, p.e.size
    if max_iter <= 0:
        max_iter = 50 + 10 * (mi + me + n)

    if z0 is not None:
        z0 = np.asarray(z0, dtype=float).ravel()
        ok = z0.size == n
        if ok and mi:
            Gz0 = p.G @ z0
            ok = bool(np.all(Gz0 <= p.g + QP_FEAS_TOL))
        if ok and me:
            ok = bool(np.max(np.abs(p.E @ z0 - p.e)) <= QP_FEAS_TOL)
        if not ok:
            z0 = None
    warm = z0 is not None
    if z0 is None:
        z0, farkas = _phase1(p)
        if z0 is None:
            return QpSolution(
                status="infeasible", z=None, duals_ineq=None, duals_eq=None,
                objective=float("inf"), primal_residual=float("inf"),
                dual_residual=float("inf"), comp_residual=float("inf"),
                farkas=farkas, regularized=regularized,
            )

    z = z0.astype(float)
    # Independent equality rows (duplicates are redundant once feasibility
    # is established).
    eq_keep = _independent_rows(p.E) if me else []
    E = p.E[eq_keep] if me else p.E
    # Working-set initialization: a verified warm start is usually near the
    # optimum, so its active rows are a good guess.  A Phase-1 point is an
    # LP vertex with up to n spurious tight rows; starting empty and letting
    # the ratio test build the set is far cheaper than unwinding those.
    work: list[int] = []
    if warm and mi:
        active = np.flatnonzero(Gz0 >= p.g - _ACT_TOL)
        if active.size:
            GA = p.G[active]
            if E.shape[0]:
                # independence relative to E: test rows projected onto E's
                # null space
                Qe, _ = np.linalg.qr(E.T, mode="complete")
                Ze = Qe[:, E.shape[0]:]
                keep = _independent_rows(GA @ Ze)
            else:
                keep = _independent_rows(GA)
            work = [int(active[k]) for k in keep]

    mu_full = np.zeros(mi)
    nu_full = np.zeros(me)
    iters = 0
    while iters < max_iter:
        iters += 1
        C = np.vstack([E, p.G[work]]) if (E.shape[0] or work) else np.zeros((0, n))
        grad = P @ z + p.q
        step = _null_space_step(P, grad, C, n)

        at_minimizer = (
            np.linalg.norm(step, np.inf) <= 1e-11 * max(1.0, np.linalg.norm(z, np.inf))
        )
        if not at_minimizer:
            # Ratio test over rows outside the working set.  The null-space
            # step keeps working rows at equality, so any blocking row is
            # linearly independent of the working set and appended directly.
            alpha, blocker = 1.0, -1
            if mi:
                in_work = np.zeros(mi, dtype=bool)
                if work:
                    in_work[work] = True
                Gs = p.G @ step
                thresh = 1e-13 * np.maximum(1.0, p.row_scale * np.linalg.norm(step))
                viable = np.flatnonzero(~in_work & (Gs > thresh))
                if viable.size:
                    room = np.maximum(p.g[viable] - p.G[viable] @ z, 0.0)
                    ratios = room / Gs[viable]
                    j = int(np.argmin(ratios))
                    if ratios[j] < 1.0:
                        alpha, blocker = float(ratios[j]), int(viable[j])
            z = z + alpha * step
            if blocker >= 0:
                work.append(blocker)
                continue
            # A full (unblocked) step lands on the subproblem minimizer for
            # this working set; fall through to the multiplier check rather
            # than re-deriving stationarity numerically, which can stall on
            # ill-conditioned reduced Hessians.
            grad = P @ z + p.q

        if C.shape[0]:
            lam, *_ = np.linalg.lstsq(C.T, -grad, rcond=None)
        else:
            lam = np.zeros(0)
        lam_w = lam[E.shape[0]:]
        if lam_w.size == 0 or np.min(lam_w) >= -QP_DUAL_TOL:
            mu_full[:] = 0.0
            for idx, li in zip(work, lam_w):
                mu_full[idx] = max(li, 0.0)
            nu_full[:] = 0.0
            for idx, li in zip(eq_keep, lam[: E.shape[0]]):
                nu_full[idx] = li
            rp, rd, rc = _kkt_residuals(p, z, mu_full, nu_full)
            obj = float(0.5 * z @ p.P @ z + p.q @ z + p.objective_offset)
            return QpSolution(
                status="optimal", z=z, duals_ineq=mu_full, duals_eq=nu_full,
                objective=obj, primal_residual=rp, dual_residual=rd,
                comp_residual=rc, regularized=regularized, iterations=iters,
            )
        work.pop(int(np.argmin(lam_w)))

    mu_full[:] = 0.0
    nu_full[:] = 0.0
    rp, rd, rc = _kkt_residuals(p, z, mu_full, nu_full)
    return QpSolution(
        status="max_iter", z=z, duals_ineq=mu_full, duals_eq=nu_full,
        objective=float(0.5 * z @ p.P @ z + p.q @ z + p.objective_offset),
        primal_residual=rp, dual_residual=rd, comp_residual=rc,
        regularized=regularized, iterations=iters,
    )

