"""Half-space polytope algebra and maximal invariant set computation.

A polytope is stored as ``{x | Hx <= h}``.  Row i is a facet exactly when
its polar point H_i / (h_i - H_i c) about an interior point c is a vertex of
the polar points' convex hull (Qhull).  That one test removes redundant rows,
decides when the maximal admissible invariant set of a stable linear loop is
determined, and gives the 2-D vertices for exact areas (shoelace).  LPs give
support values, bounding boxes and the Chebyshev centre; volume above 2-D is
seeded Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

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
# hit-and-run steps discarded before the first sample
_HIT_AND_RUN_BURN = 20


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


def _chebyshev_centre(P: HPolytope) -> Optional[np.ndarray]:
    """Centre of the largest ball inside P, by one LP, or None when P has an
    empty interior."""
    res = linprog(
        np.r_[np.zeros(P.dim), -1.0],
        A_ub=np.hstack([P.H, np.linalg.norm(P.H, axis=1)[:, None]]),
        b_ub=P.h,
        bounds=[(None, None)] * P.dim + [(0, None)],
        method="highs",
    )
    if res.status == 3:
        raise ValueError("polytope is unbounded")
    return res.x[: P.dim] if res.status == 0 and res.x[-1] > 0 else None


def _polar_points(P: HPolytope) -> Optional[np.ndarray]:
    """Polar point H_i / (h_i - H_i c) of each row about an interior point c,
    the origin when h > 0; None when P has an empty interior."""
    c = np.zeros(P.dim) if P.origin_interior() else _chebyshev_centre(P)
    return None if c is None else P.H / (P.h - P.H @ c)[:, None]


def _hull_rows(G: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows of G that are vertices of their convex hull
    (in 1-D: the two extreme points), counting the last of identical rows.

    For the polar points of a polytope these are its facet rows.  Raises
    ValueError unless the origin is inside the hull (the polytope bounded).
    """
    _, first_reversed = np.unique(G[::-1], axis=0, return_index=True)
    idx = np.sort(G.shape[0] - 1 - first_reversed)
    pts = G[idx]
    if G.shape[1] == 1:
        verts = [np.argmin(pts[:, 0]), np.argmax(pts[:, 0])]
        offsets = pts[verts, 0] * [1.0, -1.0]
    else:
        try:
            hull = ConvexHull(pts)
        except QhullError:  # the points span no full-dimensional hull
            raise ValueError("polytope is unbounded") from None
        verts, offsets = hull.vertices, hull.equations[:, -1]
    # facets a'y + b <= 0 with unit a: -b is the origin's distance to each
    if np.any(offsets >= -LP_TOL * np.abs(pts).max()):
        raise ValueError("polytope is unbounded (origin not inside the polar hull)")
    return np.sort(idx[verts])


def remove_redundancy(P: HPolytope) -> HPolytope:
    """Drop half-spaces implied by the remaining ones (of identical rows the
    last stays).  Raises ValueError for an unbounded P or an empty interior."""
    G = _polar_points(P)
    if G is None:
        raise ValueError("polytope has empty interior")
    keep = _hull_rows(G)
    return HPolytope(P.H[keep], P.h[keep])


def maximal_invariant_set(closed_loop, Xhat: HPolytope, U: HPolytope, L) -> HPolytope:
    """Maximal constraint-admissible positively invariant set of x+ = Dx.

    Returns S = {x | D^k x in Xhat and L D^k x in U for all k <= k_det}
    without redundant rows, where D = closed_loop and k_det is the first step
    whose new rows are all redundant given the accumulated ones (read from the
    polar hull, so no LP is solved).  The offsets of Xhat and U must be
    positive; k_det is finite for stable D and compact constraint sets.
    """
    D = np.atleast_2d(np.asarray(closed_loop, dtype=float))
    L = np.atleast_2d(np.asarray(getattr(L, "L", L), dtype=float))
    sr = float(np.max(np.abs(np.linalg.eigvals(D))))
    if sr >= 1.0:
        raise ValueError(f"closed loop unstable (spectral radius {sr:.6g})")
    if L.shape[1] != D.shape[0] or L.shape[0] != U.dim or Xhat.dim != D.shape[0]:
        raise ValueError("dimension mismatch between loop, gain and constraint sets")
    base_h = np.concatenate([Xhat.h, U.h])
    if not np.all(base_h > 0):
        raise ValueError("constraint offsets must be positive (origin in the interior)")
    m = base_h.size
    H, h = np.vstack([Xhat.H, U.H @ L]), base_h
    M = D.copy()
    for _ in range(_INVSET_CAP):
        candH = np.vstack([Xhat.H @ M, U.H @ L @ M])
        # candidates first: of identical rows the accumulated one counts; a
        # zero row has polar point 0, inside the hull, and is never a facet
        keep = _hull_rows(np.vstack([candH / base_h[:, None], H / h[:, None]]))
        if keep[0] >= m:
            return HPolytope(H[keep - m], h[keep - m])
        H, h = np.vstack([H, candH]), np.concatenate([h, base_h])
        M = M @ D
    raise ArithmeticError(
        f"invariant set not finitely determined within {_INVSET_CAP} steps "
        "(closed loop may be marginally stable)"
    )


def vertices_2d(P: HPolytope) -> np.ndarray:
    """Counterclockwise vertex array of a bounded 2-D polytope.

    Each vertex is solved from two facet rows adjacent on the polar hull, in
    index order.  Empty interior yields an empty array; an unbounded P raises
    ValueError.
    """
    if P.dim != 2:
        raise ValueError("vertex enumeration implemented for dim = 2 only")
    G = _polar_points(P)
    if G is None:
        return np.zeros((0, 2))
    rows = _hull_rows(G)
    # facets in polar-angle order; neighbours meet at a vertex
    rows = rows[np.argsort(np.arctan2(G[rows, 1], G[rows, 0]))]
    pairs = sorted(tuple(sorted(p)) for p in zip(rows, np.roll(rows, -1)))
    V = np.array([np.linalg.solve(P.H[[i, j]], P.h[[i, j]]) for i, j in pairs])
    # ordered by angle about the vertex mean, the mean summed in pair order
    center = V.mean(axis=0)
    return V[np.argsort(np.arctan2(V[:, 1] - center[1], V[:, 0] - center[0]))]


def bounding_box(P: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Tight axis-aligned bounds (lo, hi) of a polytope, by 2 dim LPs.

    Raises ValueError when the polytope is unbounded or empty.
    """
    lo = np.array([-_support(P, -e) for e in np.eye(P.dim)])
    hi = np.array([_support(P, e) for e in np.eye(P.dim)])
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

    dim = 2: exact area (vertex enumeration + shoelace), with no LP when the
    origin is interior.  dim >= 3: Monte Carlo over the bounding box (use
    `volume_mc` to get the standard error as well).  dim = 1: interval
    length.  Raises ValueError for an unbounded or empty P.
    """
    if P.dim == 2:
        V = vertices_2d(P)  # rejects an unbounded P with an interior
        if V.size == 0:
            bounding_box(P)  # no interior: rejects an unbounded or empty P
            return 0.0
        x, y = V[:, 0], V[:, 1]
        return float(0.5 * abs(np.dot(x, np.roll(y, 1)) - np.dot(np.roll(x, 1), y)))
    lo, hi = bounding_box(P)  # also rejects an unbounded or empty P
    if P.dim == 1:
        return float(max(hi[0] - lo[0], 0.0))
    return _volume_mc_in_box(P, lo, hi, n_samples, seed)[0]


def sample_interior(P: HPolytope, n: int, seed: int = 0) -> np.ndarray:
    """Hit-and-run samples from a bounded polytope (deterministic per seed),
    started at its Chebyshev centre."""
    bounding_box(P)  # rejects an unbounded or empty P
    rng = np.random.default_rng(seed)
    x = _chebyshev_centre(P)
    if x is None:
        raise ValueError("polytope has empty interior")
    H, h = P.H, P.h
    out = np.empty((n, P.dim))
    for it in range(_HIT_AND_RUN_BURN + n):
        d = rng.normal(size=P.dim)
        d /= np.linalg.norm(d)
        Hd = H @ d
        slack = h - H @ x
        pos = Hd > 1e-14
        neg = Hd < -1e-14
        tmax = np.min(slack[pos] / Hd[pos], initial=np.inf)
        tmin = np.max(slack[neg] / Hd[neg], initial=-np.inf)
        if not (np.isfinite(tmax) and np.isfinite(tmin)):
            raise ValueError("polytope unbounded along sampled direction")
        t = rng.uniform(tmin, tmax)
        x = x + t * d
        if it >= _HIT_AND_RUN_BURN:
            out[it - _HIT_AND_RUN_BURN] = x
    return out
