"""Half-space polytope layer: membership, LPs, vertex enumeration,
volumes, and the maximal constraint-admissible invariant set."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmpc import (
    HPolytope,
    LqSystem,
    MpcController,
    TerminalDesign,
    bounding_box,
    contains,
    greedy_gain,
    lp_solve,
    maximal_invariant_set,
    vertices,
    volume,
    zeta_dare,
)
from lqmpc.cli import _write_polytope
from conftest import ZEFF_2D, ZEFF_4D
from _checks import (
    assert_same_vertices,
    check_terminal_invariance,
    lp_maximal_invariant_set,
    lp_remove_redundancy,
    pairwise_vertices_2d,
    reference_maximal_invariant_set,
    reference_volume_mc_in_box,
    remove_redundancy,
    sample_interior,
)

BOX5 = HPolytope.symmetric_box([5.0, 5.0])
# the unit square [0, 1]^2 and the triangle with vertices (0, 0), (1, 0) and
# (0, 1), less SHIFT, so that each holds the origin strictly inside; the
# tests add SHIFT back (exactly, in binary) to compare with their vertices
SHIFT = np.array([0.25, 0.25])
UNIT_SQUARE = HPolytope.box(-SHIFT, 1.0 - SHIFT)
TRIANGLE = HPolytope(
    np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([0.25, 0.25, 0.5])
)


def _zeta_design_gain(sys, zeta):
    # gain construction used by the terminal designs: greedy with respect to
    # the amplified input weight
    K = zeta_dare(sys, zeta)
    amplified = LqSystem(sys.A, sys.B, sys.Q, zeta * sys.R)
    return greedy_gain(amplified, K)


@pytest.fixture(scope="module")
def di2d_sets(di2d_sys):
    Xhat = BOX5
    U = HPolytope.symmetric_box([1.0])
    return Xhat, U


# ---------------------------------------------------------------------------
# contains
# ---------------------------------------------------------------------------

def test_contains_origin():
    assert contains(BOX5, np.zeros(2))


def test_contains_outside_face():
    assert not contains(BOX5, np.array([5.1, 0.0]))


def test_contains_vertex_within_tol():
    assert contains(BOX5, np.array([5.0, 5.0]))


def test_contains_dim_mismatch():
    with pytest.raises(ValueError):
        contains(BOX5, np.zeros(3))


def test_zero_rows_forbidden():
    with pytest.raises(ValueError):
        HPolytope(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


def test_origin_interior_flag():
    assert BOX5.origin_interior()
    shifted = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -0.5]))
    assert not shifted.origin_interior()


# ---------------------------------------------------------------------------
# lp_solve
# ---------------------------------------------------------------------------

def test_lp_unit_square():
    c = np.array([1.0, 0.0])
    r = lp_solve(c, UNIT_SQUARE)
    assert r.status == "optimal"
    assert r.value + c @ SHIFT == pytest.approx(1.0)


def test_lp_triangle():
    c = np.array([1.0, 1.0])
    r = lp_solve(c, TRIANGLE)
    assert r.status == "optimal"
    assert r.value + c @ SHIFT == pytest.approx(1.0)


def test_lp_detects_redundant_row():
    # duplicated face: maximizing its normal cannot exceed the tighter copy
    P = HPolytope(
        np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([1.0, 2.0, 1.0, 1.0, 1.0]),
    )
    r = lp_solve(np.array([1.0, 0.0]), P)
    assert r.value <= 1.0 + 1e-9  # the h = 2 row is redundant
    trimmed = remove_redundancy(P)
    assert trimmed.nrows == 4


def test_lp_infeasible_status():
    empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    assert lp_solve(np.array([1.0, 0.0]), empty).status == "infeasible"


def test_lp_unbounded_status():
    quadrant = HPolytope(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([0.0, 0.0]))
    assert lp_solve(np.array([1.0, 1.0]), quadrant).status == "unbounded"


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------

def test_vertices_unit_square():
    V = vertices(UNIT_SQUARE) + SHIFT
    assert len(V) == 4
    expected = {(0, 0), (1, 0), (1, 1), (0, 1)}
    got = {(round(v[0]), round(v[1])) for v in V}
    assert got == expected


def test_vertices_triangle():
    # `vertices` keeps no order; the counterclockwise order of a 2-D
    # `feasible_set` is tested in tests/test_cmpc.py
    V = vertices(TRIANGLE) + SHIFT
    assert len(V) == 3
    np.testing.assert_allclose(sorted(V.sum(axis=1)), [0.0, 1.0, 1.0], atol=1e-9)


def test_vertices_empty_interior(monkeypatch):
    empty = HPolytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([1.0, -2.0, 1.0, 1.0]),
    )
    calls = _lp_counting(monkeypatch)
    with pytest.raises(ValueError, match="origin strictly inside"):
        vertices(empty)
    assert calls == []


def test_vertices_inside_polytope():
    V = vertices(TRIANGLE)
    for v in V:
        assert contains(TRIANGLE, v)


@pytest.mark.parametrize("lo, hi", [
    ([-1.0], [2.0]),
    # [1, 3] less 1.5, and [0.5, 1.5] x [1, 3] x [2, 2.5] less (1, 1.5, 2.25)
    ([-0.5], [1.5]),
    ([-0.5, -0.5, -0.25], [0.5, 1.5, 0.25]),
    ([-1.0, -2.0, -0.5, -1.0], [1.0, 0.5, 0.5, 3.0]),
])
def test_vertices_of_a_box_are_its_corners(lo, hi):
    V = vertices(HPolytope.box(lo, hi))
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    assert V.shape == corners.shape
    for c in corners:
        assert np.min(np.abs(V - c).max(axis=1)) <= 1e-12


def test_vertices_1d_are_the_offsets_of_unit_rows():
    # h_i / H_i is exact for H_i = +-1, where 1 / (H_i / h_i) can miss by an ulp
    rng = np.random.default_rng(7)
    for lo, hi in zip(-rng.uniform(0.01, 10.0, 200), rng.uniform(0.01, 10.0, 200)):
        P = HPolytope.box([lo], [hi])
        assert sorted(vertices(P).ravel()) == [lo, hi]
        box_lo, box_hi = bounding_box(P)
        assert box_lo.tolist() == [lo] and box_hi.tolist() == [hi]
        assert volume(P) == hi - lo


def test_vertices_match_pairwise_vertices_2d(di2d_design_eff):
    for P in (TRIANGLE, BOX5, di2d_design_eff.S):
        assert_same_vertices(vertices(P), pairwise_vertices_2d(P))


def test_vertices_empty_interior_and_unbounded():
    flat = HPolytope.box([-1.0, -1.0, 0.0], [1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="origin strictly inside"):
        vertices(flat)
    with pytest.raises(ValueError, match="unbounded"):
        vertices(HPolytope(np.array([[1.0, 0.0, 0.0]]), np.array([1.0])))


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def test_volume_unit_square():
    assert volume(UNIT_SQUARE) == pytest.approx(1.0)


def test_volume_box5():
    assert volume(BOX5) == pytest.approx(100.0)


def test_volume_unbounded_raises():
    halfplane = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        volume(halfplane)


def _lp_counting(monkeypatch):
    """Patch both of `polytope`'s LP entry points to record their calls."""
    from lqmpc import polytope

    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polytope, "lp_solve", counting(polytope.lp_solve))
    monkeypatch.setattr(polytope, "linprog", counting(polytope.linprog))
    return calls


def _simplex(dim):
    """The unit simplex {x >= 0, sum x <= 1} less 1/8 in every coordinate."""
    return HPolytope(np.vstack([-np.eye(dim), np.ones((1, dim))]),
                     np.r_[np.full(dim, 0.125), 1.0 - 0.125 * dim])


# the 4-D cross-polytope |x|_1 <= 1: its polar is the 4-cube, whose facets
# are not simplices
_SIGNS_4D = np.array(np.meshgrid(*[[-1.0, 1.0]] * 4)).reshape(4, -1).T
CROSS_4D = HPolytope(_SIGNS_4D, np.ones(16))


@pytest.mark.parametrize("P, exact", [
    (CROSS_4D, 2.0 / 3.0),
    (_simplex(3), 1.0 / 6.0),
    (_simplex(4), 1.0 / 24.0),
    # [1, 2]^4 less 1.25, and [-1, 0] x [0.5, 2] x [-2, 1] less (-0.5, 1, 0)
    (HPolytope.box(-0.25 * np.ones(4), 0.75 * np.ones(4)), 1.0),
    (HPolytope.box([-0.5, -0.5, -2.0], [0.5, 1.0, 1.0]), 4.5),
], ids=["cross-4d", "simplex-3d", "simplex-4d", "box-4d", "box-3d"])
def test_volume_above_2d_is_exact(P, exact):
    assert volume(P) == pytest.approx(exact, rel=1e-12)


def test_volume_4d_one_bounding_box(monkeypatch):
    calls = _lp_counting(monkeypatch)
    P = HPolytope.symmetric_box([1.0, 2.0, 0.5, 1.5]).intersect(
        HPolytope(np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([1.0]))
    )
    # the 2 x 4 x 1 x 3 box less its part where x1 + x2 + x3 + x4 > 1; with
    # the origin inside, no LP is solved
    assert volume(P) == pytest.approx(139.0 / 8.0, rel=1e-12)
    assert calls == []


def test_volume_above_2d_regressions():
    # an empty interior holds no origin strictly inside
    flat = HPolytope.box(-np.ones(3), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="origin strictly inside"):
        volume(flat)
    # a 4-D slab, bounded in three directions only
    slab = HPolytope(np.vstack([np.eye(3, 4), -np.eye(3, 4)]), np.ones(6))
    with pytest.raises(ValueError, match="unbounded"):
        volume(slab)
    empty = HPolytope.box(-np.ones(3), np.ones(3)).intersect(
        HPolytope(np.array([[1.0, 1.0, 1.0]]), np.array([-1.0])))
    with pytest.raises(ValueError, match="origin strictly inside"):
        volume(empty)
    # duplicate rows change nothing
    P = CROSS_4D.intersect(HPolytope(np.array([[1.0, 0.5, 0.0, 0.0]]), np.array([0.4])))
    assert volume(P.intersect(P)) == volume(P)


def _assert_near_monte_carlo(P, n_samples, seed):
    """The volume lies within five standard errors (plus rounding) of an
    independent Monte Carlo estimate over the bounding box."""
    v = volume(P)
    lo, hi = bounding_box(P)
    ref, se = reference_volume_mc_in_box(P, lo, hi, n_samples, seed)
    assert abs(v - ref) <= 5.0 * se + 1e-9 * v


@st.composite
def _random_polytopes(draw):
    """3-D and 4-D polytopes: a box cut by up to 12 random half-spaces, all
    with the origin inside."""
    dim = draw(st.sampled_from([3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 12))
    H = np.vstack([np.eye(dim), -np.eye(dim), rng.standard_normal((k, dim))])
    h = np.concatenate([rng.uniform(0.5, 3.0, 2 * dim), rng.uniform(0.1, 2.0, k)])
    return HPolytope(H, h)


@settings(max_examples=40, deadline=None)
@given(P=_random_polytopes())
def test_volume_above_2d_matches_monte_carlo(P):
    _assert_near_monte_carlo(P, 200_000, 5)


# the ac-4d amplifications of the benchmark's `design` workload at seed 1
@pytest.mark.parametrize("zeta", [1.7639823060253186, 3.143686464145352,
                                  6.523921605646444, 8.826624675786405])
def test_volume_of_ac4d_terminal_sets_matches_monte_carlo(ac4d_prob, zeta):
    S = TerminalDesign.for_amplified_cost(ac4d_prob, zeta).S
    _assert_near_monte_carlo(S, 1_000_000, 1382612245)


def test_volume_of_a_4d_terminal_set_builds_two_hulls(monkeypatch, ac4d_design_eff):
    from lqmpc import polytope

    # every polar point of an irredundant S is a hull vertex, so the facets
    # of the first hull are those a second hull of the same rows would give
    S = ac4d_design_eff.S
    G = polytope._polar_points(S)
    rows, _ = polytope._hull_rows(G)
    facets = polytope.ConvexHull(G[rows]).equations
    expected = polytope.ConvexHull(-facets[:, :-1] / facets[:, -1:]).volume
    built = []

    class CountingHull(polytope.ConvexHull):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(polytope, "ConvexHull", CountingHull)
    assert volume(S) == expected
    assert len(built) == 2


def test_volume_2d_solves_no_lp(monkeypatch, di2d_design_eff):
    from lqmpc import polytope

    S = di2d_design_eff.S
    expected = float(polytope.volume(S))
    calls = _lp_counting(monkeypatch)
    # the shoelace area of the pair-loop vertices, within 1e-15, without an LP
    for P in (S, BOX5, HPolytope.box(np.array([-1.0, -2.0]), np.array([3.0, 1.0]))):
        V = pairwise_vertices_2d(P)
        x, y = V[:, 0], V[:, 1]
        area = float(0.5 * abs(np.dot(x, np.roll(y, 1)) - np.dot(np.roll(x, 1), y)))
        assert abs(volume(P) - area) <= 1e-15 * area
    assert volume(S) == expected
    assert calls == []


def test_volume_2d_rejects_empty_and_unbounded(monkeypatch):
    empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                      np.array([-1.0, -1.0, 1.0, 1.0]))
    strip = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]))
    line = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, 0.0]))
    # a segment is bounded and nonempty, but its interior is empty
    segment = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                        np.array([0.0, 0.0, 1.0, 1.0]))
    calls = _lp_counting(monkeypatch)
    for P, message in ((empty, "origin strictly inside"), (strip, "unbounded"),
                       (line, "origin strictly inside"), (segment, "origin strictly inside")):
        with pytest.raises(ValueError, match=message):
            volume(P)
    assert calls == []


# ---------------------------------------------------------------------------
# maximal_invariant_set
# ---------------------------------------------------------------------------

def test_invariant_set_one_step_determined(di2d_sets):
    # nilpotent-to-zero loop: admissibility is decided entirely at k = 0
    Xhat, U = di2d_sets
    L = np.array([[0.0, 0.0]])
    S = maximal_invariant_set(np.zeros((2, 2)), Xhat, U, L)
    # with an all-zero gain the input constraint never binds: S = Xhat
    assert volume(S) == pytest.approx(volume(Xhat))


def test_invariant_set_optimal_design(di2d_sys, di2d_dare, di2d_sets):
    Xhat, U = di2d_sets
    _, Lstar = di2d_dare
    S = maximal_invariant_set(Lstar.closed_loop, Xhat, U, Lstar.L)
    assert volume(S) == pytest.approx(16.0780899464, rel=1e-9)
    V = vertices(S)
    # the binding faces cross the state box at x1 = +-5
    top = sorted(v[1] for v in V if abs(v[0] - 5.0) < 1e-7)
    np.testing.assert_allclose(top, [-2.50047435765, -0.892665363009], rtol=1e-8)


def test_invariant_set_amplified_ratios(di2d_sys, di2d_sets):
    """Volume ratios of the amplified designs over the optimal design.

    Frozen values of this construction (greedy gain of the amplified
    problem); the externally reported ratios (1.23, 1.56, 1.65, 1.63) are
    not reproduced by any gain construction we could document.
    """
    Xhat, U = di2d_sets
    base = maximal_invariant_set(
        *_design_args(di2d_sys, 1.0, Xhat, U)
    )
    v0 = volume(base)
    expected = {5.0: 1.358221, 15.0: 1.743594, 25.0: 1.957227, 35.0: 2.108646}
    for z, want in expected.items():
        S = maximal_invariant_set(*_design_args(di2d_sys, z, Xhat, U))
        assert volume(S) / v0 == pytest.approx(want, abs=5e-6)
        # dominance over the optimal design (the reported trend)
        assert volume(S) >= v0 - 1e-9


def _design_args(sys, zeta, Xhat, U):
    gain = _zeta_design_gain(sys, zeta)
    return gain.closed_loop, Xhat, U, gain.L


def test_invariant_set_effective_zeta(di2d_sys, di2d_sets):
    Xhat, U = di2d_sets
    S = maximal_invariant_set(*_design_args(di2d_sys, ZEFF_2D, Xhat, U))
    assert volume(S) == pytest.approx(25.603480, rel=1e-6)


def test_invariant_set_unstable_raises(di2d_sets):
    Xhat, U = di2d_sets
    with pytest.raises(ValueError):
        maximal_invariant_set(1.5 * np.eye(2), Xhat, U, np.zeros((1, 2)))


def test_invariance_at_vertices(di2d_prob, di2d_design_eff, di2d_design_opt,
                                ac4d_prob, ac4d_design_eff):
    """Every vertex of each terminal set stays in it under its gain, with
    admissible input, inside the state set."""
    instances = [(di2d_prob, di2d_design_eff), (di2d_prob, di2d_design_opt),
                 (ac4d_prob, ac4d_design_eff)]
    msg = check_terminal_invariance(instances)
    # the same vertices as the program's own (4, 4 and 244 of them)
    assert msg.startswith(f"{sum(len(vertices(d.S)) for _, d in instances)} vertices")


def _wrong_gain(prob, design):
    """The design's S under the optimal gain u = L*x (see
    test_design_with_the_wrong_gain_fails_at_a_vertex)."""
    Kstar, Lstar = prob.sys.optimal
    return TerminalDesign(K=Kstar, S=design.S, gain=Lstar)


def _grown(prob, design):
    """S scaled by 1 + 1e-4: still invariant, but its gain asks for 1e-4 more
    input than U allows near two vertices, where 1000 hit-and-run samples
    found no violation."""
    return TerminalDesign(K=design.K, S=HPolytope(design.S.H, 1.0001 * design.S.h),
                          gain=design.gain)


@pytest.mark.parametrize("study, change, message", [
    ("di2d", _wrong_gain, "gain violates input set by 1.08"),
    ("ac4d", _wrong_gain, "closed loop leaves S by 0.31"),
    ("di2d", _grown, "gain violates input set by 0.0001"),
])
def test_invariance_check_fails_an_invalid_design(request, study, change, message):
    prob = request.getfixturevalue(f"{study}_prob")
    design = change(prob, request.getfixturevalue(f"{study}_design_eff"))
    with pytest.raises(AssertionError, match=message):
        check_terminal_invariance([(prob, design)])


def test_invariant_set_maximality(di2d_sys, di2d_dare, di2d_sets):
    """Scaled-out vertices must eventually violate admissibility."""
    Xhat, U = di2d_sets
    _, Lstar = di2d_dare
    D, L = Lstar.closed_loop, Lstar.L
    S = maximal_invariant_set(D, Xhat, U, L)
    for v in vertices(S):
        y = 1.001 * v
        if contains(S, y):
            continue  # vertex direction still inside at this inflation
        ok = False
        x = y.copy()
        for _ in range(200):
            if not (contains(Xhat, x) and contains(U, L @ x)):
                ok = True
                break
            x = D @ x
        assert ok, f"point {y} outside S never violates constraints"


def test_invariant_set_subset_of_state_box(di2d_design_eff, di2d_sets):
    Xhat, _ = di2d_sets
    for v in vertices(di2d_design_eff.S):
        assert contains(Xhat, v)


# ---------------------------------------------------------------------------
# polar-hull path against the LP and pair-loop references
# ---------------------------------------------------------------------------

def _assert_same_rows(P, Q):
    assert P.H.shape == Q.H.shape
    assert np.array_equal(P.H, Q.H) and np.array_equal(P.h, Q.h)


def _assert_invariant_set_matches_lp(prob, zeta):
    gain = _zeta_design_gain(prob.sys, zeta)
    S = maximal_invariant_set(gain.closed_loop, prob.Xhat, prob.U, gain.L)
    _assert_same_rows(S, lp_maximal_invariant_set(gain.closed_loop, prob.Xhat, prob.U, gain.L))
    return S


@settings(max_examples=30, deadline=None)
@given(st.floats(1.0, 60.0))
def test_invariant_set_matches_lp_reference_di2d(di2d_prob, zeta):
    S = _assert_invariant_set_matches_lp(di2d_prob, zeta)
    assert_same_vertices(vertices(S), pairwise_vertices_2d(S))


@settings(max_examples=3, deadline=None)
@given(st.floats(1.0, 14.0))
def test_invariant_set_matches_lp_reference_ac4d(ac4d_prob, zeta):
    _assert_invariant_set_matches_lp(ac4d_prob, zeta)


def test_invariant_set_1d_matches_lp_reference():
    # x+ = -0.9 x flips the sign, so the lower state bound produces a new
    # facet at step 1 (x <= 1/0.9) and k_det is 2
    Xhat = HPolytope.box([-1.0], [3.0])
    U = HPolytope.symmetric_box([2.0])
    D, L = np.array([[-0.9]]), np.array([[-0.5]])
    S = maximal_invariant_set(D, Xhat, U, L)
    _assert_same_rows(S, lp_maximal_invariant_set(D, Xhat, U, L))
    np.testing.assert_allclose(S.h / np.abs(S.H[:, 0]), [1.0, 1.0 / 0.9])  # -1 <= x <= 1/0.9


def test_invariant_set_candidate_identical_to_accumulated_row():
    # the shift x+ = (x2, 0) maps the box rows onto box rows: step 1 adds
    # nothing, and the rows keep the box's order
    D = np.array([[0.0, 1.0], [0.0, 0.0]])
    S = maximal_invariant_set(D, BOX5, HPolytope.symmetric_box([1.0]), np.zeros((1, 2)))
    _assert_same_rows(S, BOX5)


def test_duplicate_row_keeps_the_later_copy():
    # the last row is the first one scaled by 2: the same polar point
    P = HPolytope(np.vstack([BOX5.H, [[2.0, 0.0]]]), np.r_[BOX5.h, 10.0])
    kept = remove_redundancy(P)
    _assert_same_rows(kept, HPolytope(P.H[1:], P.h[1:]))
    _assert_same_rows(kept, lp_remove_redundancy(P))


def test_invariant_set_solves_no_lp(monkeypatch, di2d_prob, ac4d_prob):
    from lqmpc import polytope

    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polytope, "lp_solve", counting(polytope.lp_solve))
    monkeypatch.setattr(polytope, "linprog", counting(polytope.linprog))
    for prob, zeta in ((di2d_prob, ZEFF_2D), (ac4d_prob, 8.0)):
        maximal_invariant_set(*_design_args(prob.sys, zeta, prob.Xhat, prob.U))
    assert calls == []


def test_origin_outside_raises_without_an_lp(monkeypatch):
    # [10, 12] x [3, 4] with a redundant cut x1 + x2 <= 20 in the middle
    P = HPolytope(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([12.0, 4.0, 20.0, -10.0, -3.0]),
    )
    calls = _lp_counting(monkeypatch)
    for fn in (remove_redundancy, vertices, volume, bounding_box):
        with pytest.raises(ValueError, match="origin strictly inside"):
            fn(P)
    assert calls == []
    # its translate by -(11, 3.5) holds the origin: the same rows and vertices
    Q = HPolytope(P.H, P.h - P.H @ np.array([11.0, 3.5]))
    kept = remove_redundancy(Q)
    V = vertices(Q) + np.array([11.0, 3.5])
    _assert_same_rows(kept, lp_remove_redundancy(Q))
    _assert_same_rows(kept, HPolytope(Q.H[[0, 1, 3, 4]], Q.h[[0, 1, 3, 4]]))
    assert_same_vertices(V - np.array([11.0, 3.5]), pairwise_vertices_2d(Q))
    assert_same_vertices(V, np.array([[10.0, 3.0], [12.0, 3.0], [12.0, 4.0], [10.0, 4.0]]))


# ---------------------------------------------------------------------------
# the incremental polar hull against one fresh hull per step
# ---------------------------------------------------------------------------

def _terminal_gains(prob, zeta_scenario):
    """The gains of the optimal design and of zeta = 1.5, 2, 5, 12 and the
    scenario's amplification."""
    return [prob.sys.optimal[1]] + [
        prob.sys.amplified(z).optimal[1] for z in (1.5, 2.0, 5.0, 12.0, zeta_scenario)]


def _assert_matches_one_hull_per_step(D, Xhat, U, L):
    _assert_same_rows(maximal_invariant_set(D, Xhat, U, L),
                      reference_maximal_invariant_set(D, Xhat, U, L))


@pytest.mark.parametrize("study", ["di2d", "ac4d"])
def test_terminal_set_matches_one_hull_per_step(request, study):
    prob = request.getfixturevalue(f"{study}_prob")
    for gain in _terminal_gains(prob, ZEFF_2D if study == "di2d" else ZEFF_4D):
        _assert_matches_one_hull_per_step(gain.closed_loop, prob.Xhat, prob.U, gain)


@settings(max_examples=30, deadline=None)
@given(st.floats(1.0, 60.0))
def test_terminal_set_matches_one_hull_per_step_di2d(di2d_prob, zeta):
    gain = _zeta_design_gain(di2d_prob.sys, zeta)
    _assert_matches_one_hull_per_step(gain.closed_loop, di2d_prob.Xhat, di2d_prob.U, gain)


@settings(max_examples=10, deadline=None)
@given(st.floats(1.0, 14.0))
def test_terminal_set_matches_one_hull_per_step_ac4d(ac4d_prob, zeta):
    gain = _zeta_design_gain(ac4d_prob.sys, zeta)
    _assert_matches_one_hull_per_step(gain.closed_loop, ac4d_prob.Xhat, ac4d_prob.U, gain)


def _assert_same_rows_up_to(P, Q, tol=1e-12):
    """The same row count, and every row of each within tol of a row of the
    other once both are normalized by their offsets: near-duplicate rows of
    a tail set may swap their representatives."""
    assert P.H.shape == Q.H.shape
    A, B = P.H / P.h[:, None], Q.H / Q.h[:, None]
    gap = np.abs(A[:, None, :] - B[None, :, :]).max(axis=2)
    assert gap.min(axis=1).max() <= tol and gap.min(axis=0).max() <= tol


@pytest.mark.parametrize("study", ["di2d", "ac4d"])
@pytest.mark.parametrize("ell", [1, 3, 10, 100])
def test_tail_set_rows_match_one_hull_per_step(request, study, ell):
    prob = request.getfixturevalue(f"{study}_prob")
    zeta = ZEFF_2D if study == "di2d" else ZEFF_4D
    for design in (TerminalDesign.for_optimal_cost(prob),
                   TerminalDesign.for_amplified_cost(prob, zeta)):
        ctl = MpcController(prob, design, ell)
        # the shortcut polytope as `tail_set` builds it
        keep = np.any(ctl._H_u != 0.0, axis=1)
        shortcut = HPolytope(ctl._H_u[keep], ctl._g_const[keep])
        gain = ctl._policy_gain
        _assert_same_rows_up_to(ctl.tail_set, reference_maximal_invariant_set(
            gain.closed_loop, shortcut, prob.U, gain))


@st.composite
def _stable_3d_4d_loops(draw):
    """(D, Xhat, U, L): a stable 3-D or 4-D loop, a box cut by up to 7
    random half-spaces, an input box and a random gain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, nu = draw(st.sampled_from([3, 4])), draw(st.integers(1, 2))
    M = rng.standard_normal((n, n))
    D = M * (draw(st.floats(0.2, 0.95)) / np.max(np.abs(np.linalg.eigvals(M))))
    k = draw(st.integers(0, 7))
    Xhat = HPolytope(np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((k, n))]),
                     np.concatenate([rng.uniform(0.5, 3.0, 2 * n), rng.uniform(0.2, 2.0, k)]))
    return D, Xhat, HPolytope.symmetric_box(rng.uniform(0.5, 2.0, nu)), rng.standard_normal((nu, n))


@settings(max_examples=60, deadline=None)
@given(_stable_3d_4d_loops())
def test_tail_set_rows_match_one_hull_per_step_random_loops(loop):
    _assert_same_rows_up_to(maximal_invariant_set(*loop), reference_maximal_invariant_set(*loop))


def test_invariant_set_bounded_only_with_the_step_1_rows():
    # the strip |x2| <= 1 is unbounded; x+ = 0.5 (x2, x1) turns its rows into
    # |x1| <= 2 at step 1, and step 2 adds 0.25 of the strip's rows again
    D = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    strip = HPolytope(np.array([[0.0, 1.0], [0.0, -1.0]]), np.ones(2))
    U, L = HPolytope.symmetric_box([1.0]), np.zeros((1, 2))
    S = maximal_invariant_set(D, strip, U, L)
    _assert_same_rows(S, HPolytope(np.array([[0.0, 1.0], [0.0, -1.0], [0.5, 0.0], [-0.5, 0.0]]),
                                   np.ones(4)))
    _assert_same_rows(S, reference_maximal_invariant_set(D, strip, U, L))
    _assert_same_rows(S, lp_maximal_invariant_set(D, strip, U, L))


def test_invariant_set_of_a_nilpotent_loop():
    # D^3 = 0: the rows of step 3 are zero, polar point 0, which the
    # incremental hull gets as added points
    D = 0.7 * np.eye(3, k=1)
    Xhat = HPolytope.symmetric_box([1.0, 2.0, 3.0])
    U, L = HPolytope.symmetric_box([1.0]), np.array([[0.4, -0.3, 0.2]])
    S = maximal_invariant_set(D, Xhat, U, L)
    _assert_same_rows(S, reference_maximal_invariant_set(D, Xhat, U, L))
    _assert_same_rows(S, lp_maximal_invariant_set(D, Xhat, U, L))


def test_invariant_set_of_a_marginally_stable_loop_raises_at_the_cap(monkeypatch):
    from lqmpc import polytope

    # a rotation by 1 rad, shrunk by 1e-8 a step (stable by `is_stable`):
    # every new row is tangent to the (nearly) unit circle, so each step adds
    # facets; at the real cap the set is determined, so the cap is lowered
    c, s = np.cos(1.0), np.sin(1.0)
    D = (1.0 - 1e-8) * np.array([[c, -s], [s, c]])
    added = []

    class CountingHull(polytope.ConvexHull):
        def add_points(self, points, restart=False):
            added.append(len(points))
            super().add_points(points, restart)

    monkeypatch.setattr(polytope, "ConvexHull", CountingHull)
    monkeypatch.setattr(polytope, "_INVSET_CAP", 20)
    with pytest.raises(ArithmeticError, match="within 20 steps"):
        maximal_invariant_set(D, BOX5, HPolytope.symmetric_box([1.0]), np.zeros((1, 2)))
    # steps 2 to the cap, each adding its own 4 state rows' points; its 2
    # input rows (the zero gain's) have the polar point 0, inside the hull
    assert added == [4] * 19


def test_invariant_set_of_a_loop_within_the_stability_tolerance_raises_at_once(monkeypatch):
    from lqmpc import polytope

    # shrunk by 1e-12 a step, the rotation's spectral radius is within
    # STABILITY_TOL of 1: `is_stable` rejects it before any hull is built
    c, s = np.cos(1.0), np.sin(1.0)
    D = (1.0 - 1e-12) * np.array([[c, -s], [s, c]])
    monkeypatch.setattr(polytope, "ConvexHull", None)
    with pytest.raises(ValueError, match=r"closed loop unstable \(spectral radius 1\)"):
        maximal_invariant_set(D, BOX5, HPolytope.symmetric_box([1.0]), np.zeros((1, 2)))


def test_invariant_set_step_inside_the_hull_adds_no_points(monkeypatch):
    from lqmpc import polytope

    # a rotation by 45 degrees, shrunk by 0.9 a step: the box's polar
    # diamond and step 1's rotated points span the hull, and step 2's points
    # (the box's, turned by 90 degrees and shrunk by 0.81) lie inside it
    c = np.cos(np.pi / 4)
    D = 0.9 * np.array([[c, -c], [c, c]])
    added = []

    class CountingHull(polytope.ConvexHull):
        def add_points(self, points, restart=False):
            added.append(len(points))
            super().add_points(points, restart)

    monkeypatch.setattr(polytope, "ConvexHull", CountingHull)
    U, L = HPolytope.symmetric_box([1.0]), np.zeros((1, 2))
    S = maximal_invariant_set(D, BOX5, U, L)
    assert added == [] and S.nrows == 8
    _assert_matches_one_hull_per_step(D, BOX5, U, L)


def test_invariant_set_with_the_origin_on_the_polar_hull_raises():
    # x1 <= 1, |x2| <= 1 is unbounded to the left: the polar points span a
    # triangle, but the origin lies on its edge
    half_strip = HPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(3))
    with pytest.raises(ValueError, match="unbounded"):
        maximal_invariant_set(0.5 * np.eye(2), half_strip, HPolytope.symmetric_box([1.0]),
                              np.zeros((1, 2)))


@pytest.mark.parametrize("d", [-0.95, -0.5, 0.0, 0.9])
def test_invariant_set_1d_matches_one_hull_per_step(d):
    Xhat, U = HPolytope.box([-1.0], [3.0]), HPolytope.symmetric_box([2.0])
    D, L = np.array([[d]]), np.array([[-0.5]])
    _assert_matches_one_hull_per_step(D, Xhat, U, L)


def test_invariant_set_1d_unbounded_raises():
    # x <= 3 and u = 0.5 x <= 2 under x+ = 0.5 x: every row bounds x above
    with pytest.raises(ValueError, match="unbounded"):
        maximal_invariant_set(np.array([[0.5]]), HPolytope(np.array([[1.0]]), np.array([3.0])),
                              HPolytope(np.array([[1.0]]), np.array([2.0])), np.array([[0.5]]))


STRIP = HPolytope(np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]), np.array([1.0, 1.0, 1.0]))
SEGMENT = HPolytope(
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 1.0, 0.0, 0.0])
)


@pytest.mark.parametrize("P", [
    STRIP,  # origin interior, unbounded to the left
    HPolytope(np.array([[1.0, 0.0]]), np.array([-1.0])),  # half-plane off the origin
    HPolytope(np.array([[1.0]]), np.array([1.0])),  # 1-D half-line
    SEGMENT,  # empty interior
    HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0])),  # empty
], ids=["strip", "half-plane", "half-line", "segment", "empty"])
def test_remove_redundancy_rejects_unbounded_or_flat(P):
    with pytest.raises(ValueError):
        remove_redundancy(P)


def test_unbounded_inputs_raise_elsewhere(di2d_sets):
    _, U = di2d_sets
    with pytest.raises(ValueError):
        vertices(STRIP)
    with pytest.raises(ValueError):  # state set unbounded
        maximal_invariant_set(0.5 * np.eye(2), STRIP, U, np.zeros((1, 2)))
    with pytest.raises(ValueError):  # origin on the boundary
        maximal_invariant_set(0.5 * np.eye(2), SEGMENT, U, np.zeros((1, 2)))
    with pytest.raises(ValueError):  # empty interior
        vertices(SEGMENT)


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------

def test_bounding_box():
    lo, hi = bounding_box(TRIANGLE)
    np.testing.assert_allclose(lo + SHIFT, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(hi + SHIFT, [1.0, 1.0], atol=1e-9)


def test_sample_interior_stays_inside():
    X = sample_interior(TRIANGLE, 200, seed=2)
    assert X.shape == (200, 2)
    for x in X:
        assert contains(TRIANGLE, x)


def test_csv_serialization(tmp_path):
    out = tmp_path / "poly.csv"
    _write_polytope(BOX5, str(out))
    rows = out.read_text().strip().splitlines()
    # one half-space per row after the header: H entries then h
    assert len(rows) == 1 + BOX5.nrows
    first = [float(t) for t in rows[1].split(",")]
    assert len(first) == 3
