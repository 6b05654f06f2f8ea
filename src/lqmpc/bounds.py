"""Performance bounds for finite-horizon (receding-horizon) LQ control.

Given a terminal cost matrix K in the region of decreasing and a horizon ell,
the receding-horizon policy is u = L~ x with L~ the greedy gain at
F^(ell-1)(K).  Its suboptimality ||K_L~ - K*|| admits three computable upper
bounds:

* a contraction bound built from a weighted operator norm,
* a monotonicity bound alpha * beta_ell * ||K - K*||,
* a Newton-step bound gamma * beta_ell^2 * ||K - K*||^2, reflecting that one
  greedy step is a Newton/Kleinman step on the Riccati equation.

`full_report` evaluates all constants, the three bounds, and the exact gap
in one pass; callers read the fields they need from its `BoundsReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    build_weighted_norm,
    induced_two_norm,
    is_stable,
    min_eigenvalue,
    psd_order_holds,
    solve_dlyap,
    spectral_radius,
)
from .riccati import GainPolicy, LqSystem, _horizon_ladder, greedy_gain

__all__ = [
    "BoundsReport",
    "alpha_const",
    "beta_const",
    "newton_gamma",
    "full_report",
]

_GAMMA_SERIES_RTOL = 1e-12
_GAMMA_SERIES_CAP = 200_000
_GAMMA_SERIES_BLOCK = 64


@dataclass(frozen=True)
class BoundsReport:
    """All constants and bounds for one (K, ell) receding-horizon design."""

    ell: int
    alpha: float
    beta_ell: float
    rho: float
    c1: float
    c2: float
    gamma: float
    bound_contraction: float
    bound_monotone: float
    bound_newton: float
    actual_gap: float
    design_distance: float  # ||K - K*||


def alpha_const(sys: LqSystem, Lstar: GainPolicy) -> float:
    """alpha = min(||A + B L*||^2, 1)."""
    return min(induced_two_norm(Lstar.closed_loop) ** 2, 1.0)


def beta_const(sys: LqSystem, Lstar: GainPolicy, ell: int) -> float:
    """beta_ell = min(||(A + B L*)^(ell-1)||^2, 1); beta_1 = 1."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    Dpow = np.linalg.matrix_power(Lstar.closed_loop, ell - 1)
    return min(induced_two_norm(Dpow) ** 2, 1.0)


def newton_gamma(sys: LqSystem, Kbar) -> float:
    """Quadratic-contraction constant gamma with gap(L~) <= gamma ||Kbar - K*||^2.

    gamma = eta^2 ||B'K*B + R|| sum_{i>=1} ||D~^i||^2 with D~ the closed loop
    of the greedy gain at Kbar and

        eta = ||(B'K*B+R)^-1|| (||B'|| ||A|| +
              ||B'|| ||B|| ||(B'Kbar B+R)^-1|| ||B'Kbar A||).

    The series is summed starting at i = 1 (the i = 0 term overstates the
    constant: the Lyapunov representation of the gap has no identity term
    multiplying the quadratic residual once the fixed point is subtracted).
    Truncation: terms are accumulated until, with the current power inside the
    unit ball, the next term contributes less than 1e-12 of the partial sum;
    the remaining geometric tail is added in closed form.  An exactly zero
    power (a nilpotent loop) ends the sum.  A series still running after
    `_GAMMA_SERIES_CAP` terms raises, since its partial sum understates gamma.
    """
    Kbar = np.asarray(Kbar, dtype=float)
    return _newton_gamma(sys, Kbar, greedy_gain(sys, Kbar).closed_loop)


def _power_norms(D: np.ndarray, count: int):
    """Yield ||D^i|| for i = 1, ..., count.  Each power is one product
    D^(i+1) = D^i D, written into a preallocated stack, in blocks of 16,
    then 32, then `_GAMMA_SERIES_BLOCK` powers; the norms of a block take one
    LAPACK call.  A series that stops early has formed at most one block past
    its last term, and no power past `count`."""
    stack = np.empty((_GAMMA_SERIES_BLOCK,) + D.shape)
    prev, size, start = D, 16, 0
    while start < count:
        block = stack[: min(size, count - start)]
        block[0] = D if start == 0 else prev @ D
        for i in range(1, len(block)):
            np.matmul(block[i - 1], D, out=block[i])
        prev = block[-1]
        yield from induced_two_norm(block).tolist()
        start += len(block)
        size = min(2 * size, _GAMMA_SERIES_BLOCK)


def _newton_gamma(sys: LqSystem, Kbar: np.ndarray, Dt: np.ndarray) -> float:
    """`newton_gamma` with D~, the closed loop of the greedy gain at Kbar, given."""
    Kstar, _ = sys.optimal
    A, B, R = sys.A, sys.B, sys.R
    Mstar = B.T @ Kstar @ B + R
    Mbar = B.T @ Kbar @ B + R
    eta = induced_two_norm(np.linalg.inv(Mstar)) * (
        induced_two_norm(B.T) * induced_two_norm(A)
        + induced_two_norm(B.T)
        * induced_two_norm(B)
        * induced_two_norm(np.linalg.inv(Mbar))
        * induced_two_norm(B.T @ Kbar @ A)
    )
    if not is_stable(Dt):
        raise ValueError(
            f"greedy closed loop unstable (spectral radius "
            f"{spectral_radius(Dt):.6g}); Kbar is outside the region of decreasing"
        )
    total = 0.0
    prev = 0.0  # read from the second term on
    for term_norm in _power_norms(Dt, _GAMMA_SERIES_CAP):
        total += term_norm**2
        if term_norm == 0.0:
            break
        if term_norm < 1.0 and term_norm**2 < _GAMMA_SERIES_RTOL * total:
            r = term_norm / prev if prev > 0 else 0.0  # one-step decay estimate
            r = min(max(r, 0.0), 1.0 - 1e-12)
            total += term_norm**2 * r * r / (1.0 - r * r)
            break
        prev = term_norm
    else:
        raise ArithmeticError(
            f"gamma series not converged in {_GAMMA_SERIES_CAP} terms: last term "
            f"||D~^i||^2 = {term_norm**2:.3e}, partial sum {total:.6e}"
        )
    return eta**2 * induced_two_norm(Mstar) * total


def gap_of_policy(sys: LqSystem, policy: GainPolicy) -> float:
    """Exact suboptimality ||K_L - K*|| of a stabilizing linear policy.

    Evaluated through the Lyapunov representation

        K_L - K* = dlyap(A+BL, (L - L*)' (B'K*B + R) (L - L*)),

    which is algebraically identical to closed_loop_cost(L) - K* but avoids
    the catastrophic cancellation of subtracting two O(||K*||) solves when the
    gap is tiny (e.g. 1e-13 against ||K*|| ~ 10).
    """
    Kstar, Lstar = sys.optimal
    Mstar = sys.B.T @ Kstar @ sys.B + sys.R
    dL = policy.L - Lstar.L
    Delta = solve_dlyap(policy.closed_loop, dL.T @ Mstar @ dL)
    return induced_two_norm(Delta)


def full_report(sys: LqSystem, K, ell: int) -> BoundsReport:
    """Compute every constant, all three bounds, and the exact gap at (K, ell),
    from K*, L* (the system's cached pair) and one receding-horizon ladder
    from K: F(K) for the region-of-decreasing check, Kbar = F^(ell-1)(K) and
    the greedy gain L~ at Kbar.  The contraction bound is

        (c2 / (c1 (1 - rho))) * (rho + (c2/c1) alpha) * beta_ell * ||K - K*||,

    with (rho, c1, c2) from the weighted norm built for the closed loop of L~.
    """
    K = np.asarray(K, dtype=float)
    Kstar, Lstar = sys.optimal
    beta = beta_const(sys, Lstar, ell)
    gains, iterates = _horizon_ladder(sys, K, ell)
    if not psd_order_holds(iterates[0], iterates[1]):
        raise ValueError(
            "K is not in the region of decreasing: "
            f"min eig(K - F(K)) = {min_eigenvalue(K - iterates[1]):.3e} < 0"
        )
    dist = induced_two_norm(K - Kstar)
    alpha = alpha_const(sys, Lstar)
    Kbar = iterates[ell - 1]
    Lt = GainPolicy.from_system(sys, gains[ell - 1])
    wn = build_weighted_norm(Lt.closed_loop)
    ratio = wn.c2 / wn.c1
    gamma = _newton_gamma(sys, Kbar, Lt.closed_loop)
    return BoundsReport(
        ell=ell,
        alpha=alpha,
        beta_ell=beta,
        rho=wn.rho,
        c1=wn.c1,
        c2=wn.c2,
        gamma=gamma,
        bound_contraction=ratio / (1.0 - wn.rho) * (wn.rho + ratio * alpha) * beta * dist,
        bound_monotone=alpha * beta * dist,
        bound_newton=gamma * beta**2 * dist**2,
        actual_gap=gap_of_policy(sys, Lt),
        design_distance=dist,
    )
