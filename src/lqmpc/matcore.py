"""Dense symmetric/general matrix utilities.

Induced 2-norms, spectral radii, discrete Lyapunov equations, the
positive-semidefinite ordering, and the construction of a weighted norm
``||M||_s = ||W M W^-1||`` that certifies a contraction factor for a given
stable closed-loop matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PSD_TOL",
    "STABILITY_TOL",
    "DLYAP_TOL",
    "WeightedNorm",
    "symmetrize",
    "check_square",
    "induced_two_norm",
    "spectral_radius",
    "is_stable",
    "solve_dlyap",
    "psd_order_holds",
    "min_eigenvalue",
    "build_weighted_norm",
]

PSD_TOL = 1e-9
STABILITY_TOL = 1e-9
DLYAP_TOL = 1e-11

_DLYAP_MAX_DOUBLINGS = 200


def check_square(M, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square 2-D float array."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def symmetrize(M) -> np.ndarray:
    """Return the symmetric part (M + M') / 2 as a new array."""
    M = check_square(M)
    return 0.5 * (M + M.T)


def induced_two_norm(M):
    """Largest singular value of M (induced 2-norm).

    M is a matrix, giving a float, or a stack of matrices (shape
    (..., rows, cols)), giving an array of their norms from one LAPACK call.
    Each value is the one `np.linalg.norm(M, 2)` gives, bit for bit, and zero
    exactly for a zero matrix.  Raises on a non-finite entry or on fewer than
    two dimensions.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    if M.ndim > 2:
        return np.linalg.svd(M, compute_uv=False)[..., 0]
    if not np.any(M):
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def spectral_radius(M) -> float:
    """max |eigenvalue| of a square matrix."""
    M = check_square(M)
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ArithmeticError(f"eigenvalue iteration failed: {exc}") from exc
    return float(np.max(np.abs(ev))) if ev.size else 0.0


def is_stable(M) -> bool:
    """True iff every eigenvalue lies strictly inside the unit circle, by
    more than STABILITY_TOL."""
    return spectral_radius(M) < 1.0 - STABILITY_TOL


def min_eigenvalue(K) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    K = symmetrize(K)
    return float(np.linalg.eigvalsh(K)[0])


def solve_dlyap(D, Q) -> np.ndarray:
    """Solve the discrete Lyapunov equation P = D'PD + Q for stable D.

    Uses the doubling iteration: with P_j = sum_{k<2^j} (D^k)' Q D^k,

        P_{j+1} = P_j + (D^{2^j})' P_j D^{2^j},   D_{j+1} = D_j^2,

    which converges quadratically for spectral_radius(D) < 1.  Both the
    stopping test and the residual check are relative to ||P||, so the
    solution is accurate for any scale of Q (P is linear in Q).  The
    residual check allows DLYAP_TOL max(1, ||D||^2) ||P||, the size of the
    rounding in D'PD: a converged P of a stable but far-from-normal D
    (||D|| ~ 100) leaves a residual of ~1e-11 ||P|| that no further
    doubling removes.  Each test takes its norms in one `induced_two_norm`
    call on a stack.  A step whose Frobenius norms already reject it,
    |incr|_F > sqrt(n) DLYAP_TOL |P_next|_F, skips that call: |incr|_2 >=
    |incr|_F / sqrt(n) and |P_next|_2 <= |P_next|_F, so the 2-norm test
    would reject it too, with a factor of 2 to spare for rounding, and every
    accepting decision is still the 2-norm test's.
    """
    D = check_square(D, "D")
    Q = symmetrize(Q)
    if D.shape != Q.shape:
        raise ValueError(f"dimension mismatch: D {D.shape} vs Q {Q.shape}")
    if not is_stable(D):
        raise ValueError(
            f"unstable dynamics: spectral radius {spectral_radius(D):.6g} >= 1"
        )
    P = Q.copy()
    Dk = D.copy()
    reject = np.sqrt(D.shape[0]) * DLYAP_TOL
    for _ in range(_DLYAP_MAX_DOUBLINGS):
        incr = Dk.T @ P @ Dk
        P_next = P + incr
        if np.linalg.norm(incr) <= reject * np.linalg.norm(P_next):
            incr_norm, P_next_norm = induced_two_norm(np.stack([incr, P_next]))
            if incr_norm <= 0.5 * DLYAP_TOL * P_next_norm:
                P = 0.5 * (P_next + P_next.T)
                resid, P_norm, D_norm = induced_two_norm(
                    np.stack([P - D.T @ P @ D - Q, P, D]))
                if resid <= DLYAP_TOL * max(1.0, D_norm * D_norm) * P_norm:
                    return P
        P = P_next
        Dk = Dk @ Dk
    raise ArithmeticError(
        f"Lyapunov doubling did not converge in {_DLYAP_MAX_DOUBLINGS} doublings"
    )


def psd_order_holds(K1, K2) -> bool:
    """True iff K1 >= K2 in the positive-semidefinite order (up to PSD_TOL).

    The comparison is ``min eig(K1 - K2) >= -PSD_TOL * max(1, ||K1 - K2||)``.
    """
    K1 = symmetrize(K1)
    K2 = symmetrize(K2)
    if K1.shape != K2.shape:
        raise ValueError(f"dimension mismatch: {K1.shape} vs {K2.shape}")
    Delta = K1 - K2
    return min_eigenvalue(Delta) >= -PSD_TOL * max(1.0, induced_two_norm(Delta))


@dataclass(frozen=True)
class WeightedNorm:
    """Weighted Euclidean matrix norm ||M||_s = ||W M W^-1||.

    Built for a specific stable matrix D so that ||D||_s <= sqrt(rho) < 1,
    together with equivalence constants c1 ||M|| <= ||M||_s <= c2 ||M||.
    """

    W: np.ndarray
    rho: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must be in (0,1), got {self.rho}")
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError("need 0 < c1 <= c2")


def build_weighted_norm(D) -> WeightedNorm:
    """Construct a weighted norm certifying ||D||_s <= sqrt(rho) < 1.

    rho is the midpoint (spectral_radius(D)^2 + 1) / 2.  W = P^{1/2} where P
    solves the scaled Lyapunov equation (D/sqrt(rho))' P (D/sqrt(rho)) - P = -I,
    i.e. P = sum_k rho^{-k} (D^k)' D^k.  The equivalence constants are
    c1 = sqrt(lmin(P)/lmax(P)) and c2 = sqrt(lmax(P)/lmin(P)), tight for the
    extreme eigendirections of W'W = P.
    """
    D = check_square(D, "D")
    sr = spectral_radius(D)
    if sr >= 1.0 - STABILITY_TOL:
        raise ValueError(f"unstable matrix: spectral radius {sr:.6g}")
    rho = (sr * sr + 1.0) / 2.0
    Ds = D / np.sqrt(rho)
    P = solve_dlyap(Ds, np.eye(D.shape[0]))
    lam, V = np.linalg.eigh(P)
    if lam[0] <= 0:
        raise ArithmeticError("Lyapunov solution lost positive definiteness")
    W = (V * np.sqrt(lam)) @ V.T
    c1 = float(np.sqrt(lam[0] / lam[-1]))
    c2 = float(np.sqrt(lam[-1] / lam[0]))
    return WeightedNorm(W=W, rho=float(rho), c1=c1, c2=c2)
