"""Linear-quadratic operator layer.

The Bellman operator F, discrete algebraic Riccati solutions, greedy policy
extraction, region-of-decreasing membership, and the amplified-input-cost
terminal design (the DARE with R replaced by zeta * R).

One Riccati step is written once, in `_riccati_step`: from B'K and
B'KB + R, formed once, it gives both the greedy gain L at K and the Bellman
step F(K).  `bellman_op` and `greedy_gain` validate K and call it once;
`solve_dare` loops it on iterates that are already symmetric, without
validating each one again.

The finite-horizon recursion, ell-step MPC read as ell - 1 Bellman steps
from K and one greedy step, is written once, in `_horizon_ladder`: its
callers are `bounds.full_report` (F(K), F^(ell-1)(K) and the last gain) and
`cmpc.MpcController` (every gain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matcore import (
    PSD_TOL,
    STABILITY_TOL,
    check_square,
    induced_two_norm,
    is_stable,
    min_eigenvalue,
    psd_order_holds,
    solve_dlyap,
    spectral_radius,
    symmetrize,
)

__all__ = [
    "DARE_TOL",
    "LqSystem",
    "GainPolicy",
    "bellman_op",
    "greedy_gain",
    "solve_dare",
    "zeta_dare",
    "in_region_of_decreasing",
    "closed_loop_cost",
]

DARE_TOL = 1e-12

_MAX_VALUE_ITERS = 100_000
_MAX_NEWTON_ITERS = 50


@dataclass(frozen=True)
class LqSystem:
    """Discrete-time linear dynamics x+ = Ax + Bu with stage cost x'Qx + u'Ru.

    R must be positive definite and Q positive semidefinite.  Stabilizability
    of (A, B) is certified operationally: `solve_dare` succeeds and returns a
    stabilizing gain, or raises, at once when the PBH rank test finds an
    eigenvalue of A on or outside the unit circle that B cannot steer.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = check_square(np.asarray(self.A, dtype=float), "A")
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        Q = symmetrize(self.Q)
        R = symmetrize(self.R)
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
        if Q.shape != A.shape:
            raise ValueError(f"Q shape {Q.shape} does not match A {A.shape}")
        if R.shape != (B.shape[1], B.shape[1]):
            raise ValueError(f"R shape {R.shape} does not match B columns {B.shape[1]}")
        if min_eigenvalue(R) <= PSD_TOL:
            raise ValueError("R must be positive definite")
        if min_eigenvalue(Q) < -PSD_TOL * max(1.0, induced_two_norm(Q)):
            raise ValueError("Q must be positive semidefinite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def optimal(self) -> tuple[np.ndarray, "GainPolicy"]:
        """The stabilizing Riccati pair (K*, L*), solved by `solve_dare` once per
        instance and kept; its arrays are read-only, so every reader sees the
        same pair."""
        Kstar, Lstar = solve_dare(self)
        for a in (Kstar, Lstar.L, Lstar.closed_loop):
            a.setflags(write=False)
        return Kstar, Lstar

    def __getstate__(self):
        # unpickled arrays are writable again, so the pair is solved afresh
        # (and the kept amplified system with it)
        return {k: v for k, v in self.__dict__.items()
                if k not in ("optimal", "_amplified")}

    def amplified(self, zeta: float) -> "LqSystem":
        """The same system with input weight zeta * R, for zeta >= 1 (itself at 1).

        The last result is kept (not pickled): a call with the same zeta
        returns the same instance, whose `optimal` pair is then solved once
        for `zeta_dare` and the terminal design at that zeta together.
        """
        if zeta < 1.0:
            raise ValueError(f"zeta must be >= 1, got {zeta}")
        if zeta == 1.0:
            return self
        last = self.__dict__.get("_amplified")
        if last is None or last[0] != zeta:
            last = (zeta, LqSystem(self.A, self.B, self.Q, zeta * self.R))
            object.__setattr__(self, "_amplified", last)
        return last[1]


@dataclass(frozen=True)
class GainPolicy:
    """Linear feedback u = Lx with the closed-loop matrix A + BL cached."""

    L: np.ndarray
    closed_loop: np.ndarray = field(repr=False)

    @classmethod
    def from_system(cls, sys: LqSystem, L) -> "GainPolicy":
        L = np.atleast_2d(np.asarray(L, dtype=float))
        if L.shape != (sys.m, sys.n):
            raise ValueError(f"gain shape {L.shape}, expected {(sys.m, sys.n)}")
        return cls(L=L, closed_loop=sys.A + sys.B @ L)


def _check_cost(sys: LqSystem, K) -> np.ndarray:
    K = symmetrize(K)
    if K.shape != sys.A.shape:
        raise ValueError(f"cost matrix shape {K.shape}, expected {sys.A.shape}")
    return K


def _riccati_step(sys: LqSystem, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, F(K)) for a K that is already validated and exactly symmetric.

    L = -(B'KB + R)^-1 B'KA is the greedy gain at K and
    F(K) = A'(K - KB(B'KB + R)^-1 B'K)A + Q the Bellman step.  B'K and
    B'KB + R are formed once; the two solves stay separate, because with
    n = 1 a joined right-hand side [B'KA | B'K] would take LAPACK's
    multi-column path instead of the one-column path and change the last
    bits of both.  F(K) is symmetrized but not checked for finite entries:
    callers that loop the step check their last iterate.
    """
    A, B = sys.A, sys.B
    BK = B.T @ K
    M = BK @ B + sys.R
    try:
        L = -np.linalg.solve(M, BK @ A)
        X = np.linalg.solve(M, BK)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"B'KB + R singular: {exc}") from exc
    FK = A.T @ (K - K @ B @ X) @ A + sys.Q
    return L, 0.5 * (FK + FK.T)


def bellman_op(sys: LqSystem, K) -> np.ndarray:
    """One Riccati/Bellman step F(K) = A'(K - KB(B'KB+R)^-1 B'K)A + Q."""
    return check_square(_riccati_step(sys, _check_cost(sys, K))[1], "F(K)")


def greedy_gain(sys: LqSystem, Kbar) -> GainPolicy:
    """Gain of the policy attaining the Bellman minimum at Kbar.

    L = -(B' Kbar B + R)^-1 B' Kbar A, so that F_L(Kbar) = F(Kbar).
    """
    return GainPolicy.from_system(sys, _riccati_step(sys, _check_cost(sys, Kbar))[0])


def closed_loop_cost(sys: LqSystem, policy: GainPolicy) -> np.ndarray:
    """Infinite-horizon cost matrix K_L of the policy u = Lx.

    Solves the Lyapunov fixed point K_L = (A+BL)'K_L(A+BL) + Q + L'RL.
    Raises if the closed loop is unstable (no finite cost).
    """
    D = policy.closed_loop
    if not is_stable(D):
        raise ValueError(
            f"closed loop unstable (spectral radius {spectral_radius(D):.6g}); "
            "policy has no finite infinite-horizon cost"
        )
    L = policy.L
    return solve_dlyap(D, sys.Q + L.T @ sys.R @ L)


def _dare_residual(sys: LqSystem, K) -> float:
    return induced_two_norm(bellman_op(sys, K) - K)


def solve_dare(sys: LqSystem) -> tuple[np.ndarray, GainPolicy]:
    """Stabilizing solution of the Riccati equation K = F(K), with its gain.

    Value iteration from Q is globally convergent; once the greedy closed loop
    is stable the tail is finished by Kleinman (policy-iteration) steps, which
    converge quadratically, until a Kleinman step's residual |F(K) - K| is
    within DARE_TOL of max(1, |K|); after the last step, a Kleinman iterate
    within DARE_TOL max(1, |D|)^2 max(1, |K|), the rounding of D'KD for its
    closed loop D, is accepted too.  Each iterate takes one `_riccati_step`,
    which gives its greedy gain and its Bellman step (the residual) together.
    Raises ArithmeticError when no iterate stabilizes or one overflows first,
    and before any iterate when the PBH rank test fails: some eigenvalue
    lam of A with |lam| >= 1 - STABILITY_TOL leaves [A - lam I, B] with a
    smallest singular value within 1e-9 of max(1, its largest).
    """
    for lam in np.linalg.eigvals(sys.A):
        if abs(lam) >= 1.0 - STABILITY_TOL:
            s = np.linalg.svd(np.hstack([sys.A - lam * np.eye(sys.n), sys.B]), compute_uv=False)
            if s[-1] <= 1e-9 * max(1.0, s[0]):
                raise ArithmeticError(f"eigenvalue {lam:.6g} of A is not controllable "
                                      "(PBH rank test); (A, B) may not be stabilizable")
    K = sys.Q.copy()
    for j in range(_MAX_VALUE_ITERS):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            L, FK = _riccati_step(sys, K)
        if is_stable(GainPolicy.from_system(sys, L).closed_loop):
            break
        if not np.all(np.isfinite(FK)):
            raise ArithmeticError(f"value iteration overflowed at step {j + 1}; "
                                  "(A, B) may not be stabilizable")
        K = FK
    else:
        raise ArithmeticError(
            f"value iteration produced no stabilizing iterate in {_MAX_VALUE_ITERS} "
            f"steps (last residual {_dare_residual(sys, K):.3e}); "
            "(A, B) may not be stabilizable"
        )
    for _ in range(_MAX_NEWTON_ITERS):
        policy = GainPolicy.from_system(sys, L)
        # Kleinman step; should it leave the stabilizing region (numerically
        # unlikely), a plain Bellman step instead
        kleinman = is_stable(policy.closed_loop)
        K = closed_loop_cost(sys, policy) if kleinman else check_square(FK, "F(K)")
        L, FK = _riccati_step(sys, K)
        if kleinman and (induced_two_norm(check_square(FK, "F(K)") - K)
                         <= DARE_TOL * max(1.0, induced_two_norm(K))):
            return K, GainPolicy.from_system(sys, L)
    # a far-from-normal Kleinman loop D leaves |F(K) - K| at the rounding of
    # D'KD, which no further step removes: accept the last Kleinman iterate
    # within that scale, DARE_TOL max(1, |D|)^2 max(1, |K|), as `solve_dlyap`
    if kleinman:
        resid, K_norm, D_norm = induced_two_norm(np.stack([FK - K, K, policy.closed_loop]))
        if resid <= DARE_TOL * max(1.0, D_norm) ** 2 * max(1.0, K_norm):
            return K, GainPolicy.from_system(sys, L)
    raise ArithmeticError(
        f"Riccati refinement stalled; last residual {_dare_residual(sys, K):.3e}"
    )


def zeta_dare(sys: LqSystem, zeta: float) -> np.ndarray:
    """Solution of K = A'(K - KB(B'KB + zeta*R)^-1 B'K)A + Q for zeta >= 1.

    The fixed point of the Bellman operator with input weight inflated to
    zeta * R.  zeta = 1 recovers the ordinary Riccati solution; larger zeta
    yields a larger cost matrix whose greedy control is weaker.  The result
    lies in the region of decreasing of the original system.  The matrix is
    the read-only K of `sys.amplified(zeta).optimal`.
    """
    return sys.amplified(zeta).optimal[0]


def _horizon_ladder(sys: LqSystem, K, ell: int) -> tuple[list, list]:
    """(gains, iterates): iterates[j] = F^j(K) for j <= ell and gains[j], the
    greedy gain at F^j(K), for j < ell, one `_riccati_step` per rung.

    The iterates converge, and in floating point they often end in a short
    cycle of last-bit changes; the step is a function of its input's bits, so
    once an iterate repeats an earlier one bit for bit, the remaining rungs
    repeat that cycle.  The last iterate is checked for finite entries.
    """
    K = _check_cost(sys, K)
    gains, iterates, seen = [], [K], {K.tobytes(): 0}
    for j in range(1, ell + 1):
        L, Kj = _riccati_step(sys, iterates[-1])
        gains.append(L)
        first = seen.setdefault(Kj.tobytes(), j)
        if first < j:
            period = j - first
            gains += [gains[first + (i - first) % period] for i in range(j, ell)]
            iterates += [iterates[first + (i - first) % period] for i in range(j, ell + 1)]
            break
        iterates.append(Kj)
    check_square(iterates[-1], f"F^{ell}(K)")
    return gains, iterates


def in_region_of_decreasing(sys: LqSystem, K) -> bool:
    """True iff F(K) <= K in the positive-semidefinite order.

    The tolerance scales with ||K - F(K)|| so that fixed points (where the
    difference is numerically zero) report True.
    """
    return psd_order_holds(K, bellman_op(sys, K))
