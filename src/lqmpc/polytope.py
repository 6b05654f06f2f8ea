"""Half-space polytope algebra and maximal invariant set computation.

A polytope is stored as ``{x | Hx <= h}`` and must hold the origin strictly
inside (h > 0), as every set the package forms does.  Row i is then a facet
exactly when its polar point H_i / h_i is a vertex of the polar points'
convex hull (Qhull).  That one hull gives:

* the maximal admissible invariant set of a stable linear loop, without
  redundant rows: one incremental hull per set takes each step's new polar
  points, and the set is determined at the first step none of whose points
  is a vertex;
* the vertices: each facet of the polar hull is one.  The exact volume
  (their hull's, their span in 1-D) and the bounding box come from them.

None of these solves an LP; `lp_solve` serves `cmpc.feasible_set`.  The
module writes no files; `cli` writes a polytope's half-spaces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .matcore import is_stable, spectral_radius

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


def _polar_points(P: HPolytope) -> np.ndarray:
    """The polar point H_i / h_i of each row about the origin.  Raises
    ValueError unless the origin lies strictly inside P (h > 0)."""
    if not P.origin_interior():
        raise ValueError("polytope must hold the origin strictly inside (h > 0)")
    return P.H / P.h[:, None]


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
    own rows' polar points that the hull does not already hold by more than
    LP_TOL of the points' scale, and the loop stops at the first step none
    of whose points is a hull vertex.  So no LP is solved, and a step costs
    its new points, not all the accumulated ones.  The rows come in the order
    they were accumulated.  The offsets of Xhat and U must be positive;
    k_det is finite for stable D and compact constraint sets.  D must pass
    `matcore.is_stable` (spectral radius below 1 - STABILITY_TOL), as every
    layer's loops do; any other D raises ValueError naming its radius.
    """
    D = np.atleast_2d(np.asarray(closed_loop, dtype=float))
    L = np.atleast_2d(np.asarray(getattr(L, "L", L), dtype=float))
    if not is_stable(D):
        raise ValueError(f"closed loop unstable (spectral radius {spectral_radius(D):.6g})")
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
                # a point inside the hull by more than LP_TOL * scale is no
                # new vertex (nor is a zero row's polar point 0), so only the
                # others are added; when none is left, step k adds no facet
                G = blocks[k] / base_h[:, None]
                scale = max(scale, np.abs(G).max())
                eq = hull.equations
                out = np.flatnonzero((G @ eq[:, :-1].T + eq[:, -1] > -LP_TOL * scale).any(axis=1))
                if out.size:
                    hull.add_points(G[out])
                    pos = np.concatenate([pos, k * m + out])
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


def vertices(P: HPolytope) -> np.ndarray:
    """Vertices of a bounded polytope with the origin strictly inside, one
    row each, in no particular order.

    The facet a'y + b = 0 of the polar hull gives the vertex -a/b; in 1-D
    the two extreme rows give h_i / H_i.  Raises ValueError unless h > 0
    and P is bounded.
    """
    G = _polar_points(P)
    rows, hull = _hull_rows(G)  # rejects an unbounded P
    if P.dim == 1:
        return (P.h[rows] / P.H[rows, 0])[:, None]
    # when every distinct row is a facet, G[rows] is the hull's own input
    facets = (hull if rows.size == hull.points.shape[0] else ConvexHull(G[rows])).equations
    return -facets[:, :-1] / facets[:, -1:]


def bounding_box(P: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Tight axis-aligned bounds (lo, hi) of a polytope: the least and
    greatest coordinates of its vertices.  Raises ValueError as `vertices`."""
    V = vertices(P)
    return V.min(axis=0), V.max(axis=0)


def volume(P: HPolytope, n_samples: Optional[int] = None, seed: Optional[int] = None) -> float:
    """Exact volume of a bounded polytope with the origin strictly inside.

    dim = 1: the span of its two vertices.  dim >= 2: Qhull's volume (in
    2-D, the area) of the hull of its vertices.  `n_samples` and `seed` are
    accepted and ignored; they select nothing.  Raises ValueError as
    `vertices`.
    """
    V = vertices(P)
    if P.dim == 1:
        return float(V.max() - V.min())
    return float(ConvexHull(V).volume)
