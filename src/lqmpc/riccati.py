"""Linear-quadratic operator layer.

The Bellman operator F, policy operators F_L, discrete algebraic Riccati
solutions, greedy policy extraction, region-of-decreasing membership, and the
amplified-input-cost terminal design (the DARE with R replaced by zeta * R).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matcore import (
    PSD_TOL,
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
    "policy_bellman_op",
    "greedy_gain",
    "solve_dare",
    "zeta_dare",
    "iterate_bellman",
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
    stabilizing gain, or raises.
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
        return {k: v for k, v in self.__dict__.items() if k != "optimal"}

    def amplified(self, zeta: float) -> "LqSystem":
        """The same system with input weight zeta * R, for zeta >= 1."""
        if zeta < 1.0:
            raise ValueError(f"zeta must be >= 1, got {zeta}")
        return LqSystem(self.A, self.B, self.Q, zeta * self.R)


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


def bellman_op(sys: LqSystem, K) -> np.ndarray:
    """One Riccati/Bellman step F(K) = A'(K - KB(B'KB+R)^-1 B'K)A + Q."""
    K = _check_cost(sys, K)
    A, B = sys.A, sys.B
    M = B.T @ K @ B + sys.R
    try:
        X = np.linalg.solve(M, B.T @ K)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"B'KB + R singular: {exc}") from exc
    return symmetrize(A.T @ (K - K @ B @ X) @ A + sys.Q)


def policy_bellman_op(sys: LqSystem, policy: GainPolicy, K) -> np.ndarray:
    """Policy evaluation step F_L(K) = (A+BL)'K(A+BL) + Q + L'RL."""
    K = _check_cost(sys, K)
    D = policy.closed_loop
    L = policy.L
    return symmetrize(D.T @ K @ D + sys.Q + L.T @ sys.R @ L)


def greedy_gain(sys: LqSystem, Kbar) -> GainPolicy:
    """Gain of the policy attaining the Bellman minimum at Kbar.

    L = -(B' Kbar B + R)^-1 B' Kbar A, so that F_L(Kbar) = F(Kbar).
    """
    Kbar = _check_cost(sys, Kbar)
    B = sys.B
    M = B.T @ Kbar @ B + sys.R
    L = -np.linalg.solve(M, B.T @ Kbar @ sys.A)
    return GainPolicy.from_system(sys, L)


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


def solve_dare(sys: LqSystem, tol: float = DARE_TOL) -> tuple[np.ndarray, GainPolicy]:
    """Stabilizing solution of the Riccati equation K = F(K), with its gain.

    Value iteration from Q is globally convergent; once the greedy closed loop
    is stable the tail is finished by Kleinman (policy-iteration) steps, which
    converge quadratically.
    """
    K = sys.Q.copy()
    for _ in range(_MAX_VALUE_ITERS):
        policy = greedy_gain(sys, K)
        if is_stable(policy.closed_loop):
            break
        K = bellman_op(sys, K)
    else:
        raise ArithmeticError(
            f"value iteration produced no stabilizing iterate in {_MAX_VALUE_ITERS} "
            f"steps (last residual {_dare_residual(sys, K):.3e}); "
            "(A, B) may not be stabilizable"
        )
    for _ in range(_MAX_NEWTON_ITERS):
        policy = greedy_gain(sys, K)
        if not is_stable(policy.closed_loop):
            # Kleinman step left the stabilizing region (numerically unlikely);
            # fall back to a plain Bellman step.
            K = bellman_op(sys, K)
            continue
        K_next = closed_loop_cost(sys, policy)
        K = K_next
        if _dare_residual(sys, K) <= tol * max(1.0, induced_two_norm(K)):
            policy = greedy_gain(sys, K)
            return K, policy
    raise ArithmeticError(
        f"Riccati refinement stalled; last residual {_dare_residual(sys, K):.3e}"
    )


def zeta_dare(sys: LqSystem, zeta: float) -> np.ndarray:
    """Solution of K = A'(K - KB(B'KB + zeta*R)^-1 B'K)A + Q for zeta >= 1.

    The fixed point of the Bellman operator with input weight inflated to
    zeta * R.  zeta = 1 recovers the ordinary Riccati solution; larger zeta
    yields a larger cost matrix whose greedy control is weaker.  The result
    lies in the region of decreasing of the original system.
    """
    K, _ = solve_dare(sys.amplified(zeta))
    return K


def iterate_bellman(sys: LqSystem, K, steps: int) -> np.ndarray:
    """steps-fold composition F^steps(K); steps = 0 returns K unchanged."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    K = _check_cost(sys, K)
    for _ in range(steps):
        K = bellman_op(sys, K)
    return K


def in_region_of_decreasing(sys: LqSystem, K) -> bool:
    """True iff F(K) <= K in the positive-semidefinite order.

    The tolerance scales with ||K - F(K)|| so that fixed points (where the
    difference is numerically zero) report True.
    """
    K = _check_cost(sys, K)
    FK = bellman_op(sys, K)
    return psd_order_holds(K, FK, tol=PSD_TOL)
