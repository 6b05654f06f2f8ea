"""Half-space polytope algebra and maximal invariant set computation.

A polytope is stored as ``{x | Hx <= h}``.  Row i is a facet exactly when
its polar point H_i / (h_i - H_i c) about an interior point c is a vertex of
the polar points' convex hull (Qhull).  That one test gives:

* the maximal admissible invariant set of a stable linear loop, without
  redundant rows: one incremental hull per set takes each step's new polar
  points, and the set is determined at the first step none of whose points
  is a vertex;
* the vertices: each facet of the polar hull is one, and Qhull's volume of
  their hull is the polytope's exact volume in every dimension above 1-D.

LPs give support values, bounding boxes and the Chebyshev centre.  The
module writes no files; `cli` writes a polytope's half-spaces."""

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
    "vertices",
    "volume",
    "bounding_box",
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


def _polar_points(P: HPolytope) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(c, G): an interior point c, the origin when h > 0, and the polar
    point H_i / (h_i - H_i c) of each row about it; None when P has an empty
    interior."""
    c = np.zeros(P.dim) if P.origin_interior() else _chebyshev_centre(P)
    return None if c is None else (c, P.H / (P.h - P.H @ c)[:, None])


def _last_copies(G: np.ndarray) -> np.ndarray:
    """Sorted indices of the distinct rows of G, the last of identical rows
    counting."""
    _, first_reversed = np.unique(G[::-1], axis=0, return_index=True)
    return np.sort(G.shape[0] - 1 - first_reversed)


class _Hull1d:
    """The hull of 1-D points, with the part of `ConvexHull`'s interface
    that this module uses: its vertices are the two extreme points."""

    def __init__(self, points: np.ndarray):
        self.points = points

    def add_points(self, points: np.ndarray) -> None:
        self.points = np.vstack([self.points, points])

    @property
    def vertices(self) -> np.ndarray:
        return np.array([np.argmin(self.points[:, 0]), np.argmax(self.points[:, 0])])

    @property
    def equations(self) -> np.ndarray:
        # -y + min <= 0 and y - max <= 0
        return np.array([[-1.0, self.points[:, 0].min()], [1.0, -self.points[:, 0].max()]])

    def close(self) -> None:
        pass


def _polar_hull(pts: np.ndarray, incremental: bool = False):
    """Convex hull of the polar points pts: Qhull's, or `_Hull1d` in 1-D.
    Raises ValueError when the points span no full-dimensional hull."""
    if pts.shape[1] == 1:
        return _Hull1d(pts)
    try:
        return ConvexHull(pts, incremental=incremental)
    except QhullError:
        raise ValueError("polytope is unbounded") from None


def _require_origin_inside(hull, scale: float) -> None:
    """Raise ValueError unless the origin is inside the polar hull (the
    polytope bounded), by a margin relative to scale, the points' largest
    absolute entry."""
    # facets a'y + b <= 0 with unit a: -b is the origin's distance to each
    if np.any(hull.equations[:, -1] >= -LP_TOL * scale):
        raise ValueError("polytope is unbounded (origin not inside the polar hull)")


def _hull_rows(G: np.ndarray):
    """(rows, hull): the sorted indices of the rows of G that are vertices of
    their convex hull (in 1-D: the two extreme points), counting the last of
    identical rows, and the hull of those distinct rows.

    For the polar points of a polytope these are its facet rows.  Raises
    ValueError unless the origin is inside the hull (the polytope bounded).
    """
    idx = _last_copies(G)
    hull = _polar_hull(G[idx])
    _require_origin_inside(hull, np.abs(G).max())
    return np.sort(idx[hull.vertices]), hull


def maximal_invariant_set(closed_loop, Xhat: HPolytope, U: HPolytope, L) -> HPolytope:
    """Maximal constraint-admissible positively invariant set of x+ = Dx.

    Returns S = {x | D^k x in Xhat and L D^k x in U for all k <= k_det}
    without redundant rows, where D = closed_loop and k_det is the first step
    whose new rows are all redundant given the accumulated ones.  That is
    read from one polar hull, grown by Qhull's incremental algorithm: its
    first batch is the rows of steps 0 and 1, each later step adds only its
    own rows' polar points, and the loop stops at the first step none of
    whose points is a hull vertex.  So no LP is solved, and a step costs its
    new points, not all the accumulated ones.  The rows come in the order
    they were accumulated.  The offsets of Xhat and U must be positive;
    k_det is finite for stable D and compact constraint sets.
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
    M = D.copy()
    # blocks[k] holds the rows of step k: D^k x in Xhat and L D^k x in U
    blocks = [np.vstack([Xhat.H, U.H @ L]), np.vstack([Xhat.H @ M, U.H @ L @ M])]
    # step 1's rows first: of identical rows the accumulated one counts
    G = np.vstack([blocks[1], blocks[0]]) / np.tile(base_h, 2)[:, None]
    new = _last_copies(G)
    pos = (new + m) % (2 * m)  # the index of each hull point in the stacked blocks
    scale = np.abs(G).max()
    hull = _polar_hull(G[new], incremental=True)
    try:
        for k in range(1, _INVSET_CAP + 1):
            if k > 1:
                M = M @ D
                blocks.append(np.vstack([Xhat.H @ M, U.H @ L @ M]))
                # a point identical to one already in the hull is no new
                # vertex, and a zero row's polar point 0 is never one
                G = blocks[k] / base_h[:, None]
                hull.add_points(G)
                pos = np.concatenate([pos, k * m + np.arange(m)])
                scale = max(scale, np.abs(G).max())
            _require_origin_inside(hull, scale)
            rows = pos[hull.vertices]
            if rows.max() < k * m:  # no row of step k is a facet
                rows = np.sort(rows)
                return HPolytope(np.vstack(blocks)[rows], np.tile(base_h, k + 1)[rows])
    finally:
        hull.close()
    raise ArithmeticError(
        f"invariant set not finitely determined within {_INVSET_CAP} steps "
        "(closed loop may be marginally stable)"
    )


def _vertex_offsets(P: HPolytope) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(c, Y): an interior point c and the vertices of P less c, one per
    facet of the polar hull about c (the facet a'y + b = 0 gives the vertex
    c - a/b; in 1-D the extreme polar point p gives c + 1/p).  None when P
    has an empty interior; an unbounded P raises ValueError."""
    polar = _polar_points(P)
    if polar is None:
        return None
    c, G = polar
    rows, hull = _hull_rows(G)  # rejects an unbounded P
    if P.dim == 1:
        return c, 1.0 / G[rows]
    # when every distinct row is a facet, G[rows] is the hull's own input
    facets = (hull if rows.size == hull.points.shape[0] else ConvexHull(G[rows])).equations
    return c, -facets[:, :-1] / facets[:, -1:]


def vertices(P: HPolytope) -> np.ndarray:
    """Vertices of a bounded polytope, one row each, in no particular order.

    Empty interior yields an empty array; an unbounded P raises ValueError.
    """
    offsets = _vertex_offsets(P)
    if offsets is None:
        return np.zeros((0, P.dim))
    c, Y = offsets
    return c + Y


def bounding_box(P: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Tight axis-aligned bounds (lo, hi) of a polytope, by 2 dim LPs.

    Raises ValueError when the polytope is unbounded or empty.
    """
    lo = np.array([-_support(P, -e) for e in np.eye(P.dim)])
    hi = np.array([_support(P, e) for e in np.eye(P.dim)])
    return lo, hi


def volume(P: HPolytope, n_samples: Optional[int] = None, seed: Optional[int] = None) -> float:
    """Exact volume of a bounded polytope; 0.0 when its interior is empty.

    dim = 1: interval length.  dim >= 2: Qhull's volume (in 2-D, the area)
    of the hull of P's vertices, taken about an interior point (see
    `_vertex_offsets`), which does not change it; no LP is solved when the
    origin is interior.  `n_samples` and `seed` are accepted and ignored;
    they select nothing.  Raises ValueError for an unbounded or empty P.
    """
    if P.dim == 1:
        lo, hi = bounding_box(P)  # also rejects an unbounded or empty P
        return float(max(hi[0] - lo[0], 0.0))
    offsets = _vertex_offsets(P)
    if offsets is None:
        bounding_box(P)  # no interior: rejects an unbounded or empty P
        return 0.0
    return float(ConvexHull(offsets[1]).volume)
