"""Half-space polytope algebra and maximal invariant set computation.

A polytope is stored as ``{x | Hx <= h}``.  The module provides containment
and LP support queries, the maximal constraint-admissible positively
invariant set of a stable linear loop (determined in finitely many steps by
redundancy checks), exact 2-D areas by vertex enumeration + shoelace, and
seeded Monte Carlo volume for higher dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "FEAS_TOL",
    "LP_TOL",
    "HPolytope",
    "LpResult",
    "lp_solve",
    "contains",
    "maximal_invariant_set",
    "remove_redundancy",
    "vertices_2d",
    "volume",
    "volume_mc",
    "bounding_box",
    "sample_interior",
]

FEAS_TOL = 1e-9
LP_TOL = 1e-9

_INVSET_CAP = 500


@dataclass(frozen=True)
class HPolytope:
    """Convex polytope {x | Hx <= h} in half-space form."""

    H: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        h = np.asarray(self.h, dtype=float).ravel()
        if H.shape[0] != h.shape[0]:
            raise ValueError(f"{H.shape[0]} rows in H but {h.shape[0]} offsets")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h))):
            raise ValueError("non-finite entries in half-space data")
        row_norms = np.linalg.norm(H, axis=1)
        if np.any(row_norms == 0.0):
            raise ValueError("zero rows in H are forbidden")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h", h)

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    @property
    def nrows(self) -> int:
        return self.H.shape[0]

    @classmethod
    def box(cls, lo, hi) -> "HPolytope":
        """Axis-aligned box lo <= x <= hi."""
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        n = lo.size
        I = np.eye(n)
        return cls(np.vstack([I, -I]), np.concatenate([hi, -lo]))

    @classmethod
    def symmetric_box(cls, radii) -> "HPolytope":
        """Box |x_i| <= radii_i."""
        r = np.asarray(radii, dtype=float).ravel()
        return cls.box(-r, r)

    def intersect(self, other: "HPolytope") -> "HPolytope":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in intersection")
        return HPolytope(np.vstack([self.H, other.H]), np.concatenate([self.h, other.h]))

    def origin_interior(self) -> bool:
        return bool(np.all(self.h > 0))

    def to_csv(self, path) -> None:
        """One half-space per row: H entries, then h."""
        data = np.hstack([self.H, self.h[:, None]])
        header = ",".join([f"H{i+1}" for i in range(self.dim)] + ["h"])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    value: float


def lp_solve(c, P: HPolytope) -> LpResult:
    """Maximize c'x over the polytope; returns maximizer, value, status."""
    c = np.asarray(c, dtype=float).ravel()
    if c.size != P.dim:
        raise ValueError(f"cost has {c.size} entries, polytope dim {P.dim}")
    res = linprog(
        -c, A_ub=P.H, b_ub=P.h, bounds=[(None, None)] * P.dim, method="highs"
    )
    if res.status == 2:
        return LpResult("infeasible", None, float("nan"))
    if res.status == 3:
        return LpResult("unbounded", None, float("inf"))
    if not res.success:  # pragma: no cover - solver internal failure
        raise ArithmeticError(f"LP solver failed: {res.message}")
    return LpResult("optimal", res.x, float(-res.fun))


def contains(P: HPolytope, x, tol: float = FEAS_TOL) -> bool:
    """True iff Hx <= h + tol componentwise."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != P.dim:
        raise ValueError(f"point has {x.size} entries, polytope dim {P.dim}")
    return bool(np.all(P.H @ x <= P.h + tol))


def _support(P: HPolytope, c) -> float:
    r = lp_solve(c, P)
    if r.status != "optimal":
        raise ValueError(f"support LP {r.status}; polytope must be bounded and nonempty")
    return r.value


def remove_redundancy(P: HPolytope, tol: float = LP_TOL) -> HPolytope:
    """Drop half-spaces implied by the remaining ones."""
    keep = list(range(P.nrows))
    i = 0
    while i < len(keep):
        rows = keep[:i] + keep[i + 1 :]
        if not rows:
            break
        r = lp_solve(P.H[keep[i]], HPolytope(P.H[rows], P.h[rows]))
        if r.status == "optimal" and r.value <= P.h[keep[i]] + tol:
            keep.pop(i)
        else:
            i += 1
    return HPolytope(P.H[keep], P.h[keep])


def maximal_invariant_set(
    closed_loop,
    Xhat: HPolytope,
    U: HPolytope,
    L,
    cap: int = _INVSET_CAP,
) -> HPolytope:
    """Maximal constraint-admissible positively invariant set of x+ = Dx.

    Returns S = {x | D^k x in Xhat and L D^k x in U for all k <= k_det}, where
    D = closed_loop and k_det is the first step at which every newly generated
    half-space is redundant with respect to the accumulated ones (each checked
    by an LP); the redundant rows of S are then removed.  Finiteness of k_det
    is guaranteed for stable D and compact constraint sets containing the
    origin in their interior.
    """
    D = np.atleast_2d(np.asarray(closed_loop, dtype=float))
    L = np.atleast_2d(np.asarray(getattr(L, "L", L), dtype=float))
    sr = float(np.max(np.abs(np.linalg.eigvals(D))))
    if sr >= 1.0:
        raise ValueError(f"closed loop unstable (spectral radius {sr:.6g})")
    if L.shape[1] != D.shape[0] or L.shape[0] != U.dim or Xhat.dim != D.shape[0]:
        raise ValueError("dimension mismatch between loop, gain and constraint sets")

    def _drop_vacuous(Hm, hv):
        # rows H_i = 0 encode 0 <= h_i: always true for h_i >= 0 (the offsets
        # come from origin-interior sets), so they carry no constraint
        norms = np.linalg.norm(Hm, axis=1)
        dead = norms <= 1e-12
        if np.any(hv[dead] < -LP_TOL):
            raise ValueError("contradictory zero half-space produced")
        return Hm[~dead], hv[~dead]

    base_h = np.concatenate([Xhat.h, U.h])
    H0, h0 = _drop_vacuous(np.vstack([Xhat.H, U.H @ L]), base_h)
    Hs = [H0]
    hs = [h0]
    M = D.copy()
    for _ in range(1, cap + 1):
        cur = HPolytope(np.vstack(Hs), np.concatenate(hs))
        candH, candh = _drop_vacuous(np.vstack([Xhat.H @ M, U.H @ L @ M]), base_h)
        redundant = True
        for i in range(candH.shape[0]):
            if _support(cur, candH[i]) > candh[i] + LP_TOL:
                redundant = False
                break
        if redundant:
            return remove_redundancy(cur)
        Hs.append(candH)
        hs.append(candh)
        M = M @ D
    raise ArithmeticError(
        f"invariant set not finitely determined within {cap} steps "
        "(closed loop may be marginally stable)"
    )


def vertices_2d(P: HPolytope, tol: float = FEAS_TOL) -> np.ndarray:
    """Counterclockwise vertex array of a bounded 2-D polytope.

    Vertices are intersections of constraint pairs that satisfy all other
    constraints; duplicates within tol are merged.  Empty interior yields an
    empty array.
    """
    if P.dim != 2:
        raise ValueError("vertex enumeration implemented for dim = 2 only")
    pts = []
    H, h = P.H, P.h
    for i in range(P.nrows):
        for j in range(i + 1, P.nrows):
            Aij = np.array([H[i], H[j]])
            det = Aij[0, 0] * Aij[1, 1] - Aij[0, 1] * Aij[1, 0]
            scale = max(np.abs(Aij).max(), 1.0)
            if abs(det) < 1e-12 * scale * scale:
                continue
            v = np.linalg.solve(Aij, np.array([h[i], h[j]]))
            if np.all(H @ v <= h + max(tol, 1e-7 * max(1.0, np.abs(v).max()))):
                pts.append(v)
    if not pts:
        return np.zeros((0, 2))
    pts = np.array(pts)
    center = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))
    pts = pts[order]
    dedup = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - dedup[-1]) > 1e-9 * max(1.0, np.abs(p).max()):
            dedup.append(p)
    if len(dedup) > 1 and np.linalg.norm(dedup[0] - dedup[-1]) <= 1e-9:
        dedup.pop()
    return np.array(dedup)


def bounding_box(P: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Tight axis-aligned bounds (lo, hi) of a polytope, by 2 dim LPs.

    Raises ValueError when the polytope is unbounded or empty.
    """
    lo = np.empty(P.dim)
    hi = np.empty(P.dim)
    for k in range(P.dim):
        e = np.zeros(P.dim)
        e[k] = 1.0
        hi[k] = _support(P, e)
        lo[k] = -_support(P, -e)
    return lo, hi


def _volume_mc_in_box(P: HPolytope, lo, hi, n_samples: int, seed: int) -> tuple[float, float]:
    box_vol = float(np.prod(hi - lo))
    if box_vol == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 100_000
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        X = rng.uniform(lo, hi, size=(m, P.dim))
        hits += int(np.sum(np.all(X @ P.H.T <= P.h + FEAS_TOL, axis=1)))
        remaining -= m
    frac = hits / n_samples
    vol = box_vol * frac
    se = box_vol * float(np.sqrt(max(frac * (1.0 - frac), 0.0) / n_samples))
    return vol, se


def volume_mc(P: HPolytope, n_samples: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo volume estimate with its standard error (seeded)."""
    lo, hi = bounding_box(P)
    return _volume_mc_in_box(P, lo, hi, n_samples, seed)


def volume(P: HPolytope, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Volume of a bounded polytope.

    dim = 2: exact area (vertex enumeration + shoelace).
    dim >= 3: Monte Carlo over the bounding box (use `volume_mc` to get the
    standard error as well).  dim = 1: interval length.
    """
    lo, hi = bounding_box(P)  # also rejects an unbounded or empty P
    if P.dim == 1:
        return float(max(hi[0] - lo[0], 0.0))
    if P.dim == 2:
        V = vertices_2d(P)
        if len(V) < 3:
            return 0.0
        x, y = V[:, 0], V[:, 1]
        return float(0.5 * abs(np.dot(x, np.roll(y, 1)) - np.dot(np.roll(x, 1), y)))
    return _volume_mc_in_box(P, lo, hi, n_samples, seed)[0]


def sample_interior(P: HPolytope, n: int, seed: int = 0, burn: int = 20) -> np.ndarray:
    """Hit-and-run samples from a bounded polytope (deterministic per seed)."""
    bounding_box(P)  # rejects an unbounded or empty P
    rng = np.random.default_rng(seed)
    # Chebyshev-ish start: analytic center surrogate via LP on slack.
    H, h = P.H, P.h
    norms = np.linalg.norm(H, axis=1)
    res = linprog(
        np.r_[np.zeros(P.dim), -1.0],
        A_ub=np.hstack([H, norms[:, None]]),
        b_ub=h,
        bounds=[(None, None)] * P.dim + [(0, None)],
        method="highs",
    )
    if res.status != 0 or res.x[-1] <= 0:
        raise ValueError("polytope has empty interior")
    x = res.x[: P.dim]
    out = np.empty((n, P.dim))
    total = burn + n
    for it in range(total):
        d = rng.normal(size=P.dim)
        d /= np.linalg.norm(d)
        Hd = H @ d
        slack = h - H @ x
        tmax = np.inf
        tmin = -np.inf
        pos = Hd > 1e-14
        neg = Hd < -1e-14
        if np.any(pos):
            tmax = np.min(slack[pos] / Hd[pos])
        if np.any(neg):
            tmin = np.max(slack[neg] / Hd[neg])
        if not (np.isfinite(tmax) and np.isfinite(tmin)):
            raise ValueError("polytope unbounded along sampled direction")
        t = rng.uniform(tmin, tmax)
        x = x + t * d
        if it >= burn:
            out[it - burn] = x
    return out
