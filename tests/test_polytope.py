"""Half-space polytope layer: membership, LPs, 2-D vertex enumeration,
volumes, and the maximal constraint-admissible invariant set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmpc import (
    HPolytope,
    LqSystem,
    bounding_box,
    contains,
    greedy_gain,
    lp_solve,
    maximal_invariant_set,
    remove_redundancy,
    sample_interior,
    vertices_2d,
    volume,
    volume_mc,
    zeta_dare,
)
from conftest import ZEFF_2D
from _checks import (
    check_terminal_invariance,
    lp_maximal_invariant_set,
    lp_remove_redundancy,
    pairwise_vertices_2d,
)

BOX5 = HPolytope.symmetric_box([5.0, 5.0])
UNIT_SQUARE = HPolytope.box(np.zeros(2), np.ones(2))
TRIANGLE = HPolytope(
    np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 1.0])
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
    r = lp_solve(np.array([1.0, 0.0]), UNIT_SQUARE)
    assert r.status == "optimal"
    assert r.value == pytest.approx(1.0)


def test_lp_triangle():
    r = lp_solve(np.array([1.0, 1.0]), TRIANGLE)
    assert r.status == "optimal"
    assert r.value == pytest.approx(1.0)


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
# vertices_2d
# ---------------------------------------------------------------------------

def test_vertices_unit_square():
    V = vertices_2d(UNIT_SQUARE)
    assert len(V) == 4
    expected = {(0, 0), (1, 0), (1, 1), (0, 1)}
    got = {(round(v[0]), round(v[1])) for v in V}
    assert got == expected


def test_vertices_triangle_ccw():
    V = vertices_2d(TRIANGLE)
    assert len(V) == 3
    # shoelace signed area positive <=> counterclockwise
    x, y = V[:, 0], V[:, 1]
    signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert signed > 0
    np.testing.assert_allclose(sorted(V.sum(axis=1)), [0.0, 1.0, 1.0], atol=1e-9)


def test_vertices_empty_interior():
    empty = HPolytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([1.0, -2.0, 1.0, 1.0]),
    )
    assert len(vertices_2d(empty)) == 0


def test_vertices_inside_polytope():
    V = vertices_2d(TRIANGLE)
    for v in V:
        assert contains(TRIANGLE, v)


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


def test_volume_mc_matches_exact():
    area, se = volume_mc(TRIANGLE, n_samples=200_000, seed=4)
    assert abs(area - 0.5) <= 3 * se
    assert se < 0.01


def test_volume_mc_deterministic():
    a1, _ = volume_mc(UNIT_SQUARE, n_samples=50_000, seed=9)
    a2, _ = volume_mc(UNIT_SQUARE, n_samples=50_000, seed=9)
    assert a1 == a2


def test_volume_4d_one_bounding_box(monkeypatch):
    from lqmpc import polytope

    calls = []

    def counting_lp_solve(c, P):
        calls.append(1)
        return lp_solve(c, P)

    monkeypatch.setattr(polytope, "lp_solve", counting_lp_solve)
    P = HPolytope.symmetric_box([1.0, 2.0, 0.5, 1.5]).intersect(
        HPolytope(np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([1.0]))
    )
    v = volume(P, n_samples=200_000, seed=3)
    # one LP per face of the bounding box, shared by the boundedness check
    # and the Monte Carlo box
    assert len(calls) <= 2 * P.dim
    # the same samples in the same box as before the box was shared
    assert v == 17.34864
    assert volume_mc(P, n_samples=200_000, seed=3)[0] == v


def test_volume_2d_solves_no_lp(monkeypatch, di2d_design_eff):
    from lqmpc import polytope

    S = di2d_design_eff.S
    expected = float(polytope.volume(S))
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polytope, "lp_solve", counting(polytope.lp_solve))
    monkeypatch.setattr(polytope, "linprog", counting(polytope.linprog))
    # the shoelace area of the hull vertices, bit for bit, without an LP
    for P in (S, BOX5, HPolytope.box(np.array([-1.0, -2.0]), np.array([3.0, 1.0]))):
        V = vertices_2d(P)
        x, y = V[:, 0], V[:, 1]
        area = float(0.5 * abs(np.dot(x, np.roll(y, 1)) - np.dot(np.roll(x, 1), y)))
        assert volume(P) == area
    assert volume(S) == expected
    assert calls == []


def test_volume_2d_rejects_empty_and_unbounded():
    empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                      np.array([-1.0, -1.0, 1.0, 1.0]))
    strip = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]))
    line = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, 0.0]))
    for P in (empty, strip, line):
        with pytest.raises(ValueError):
            volume(P)
    # a segment is bounded and nonempty, with area 0
    segment = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                        np.array([0.0, 0.0, 1.0, 1.0]))
    assert volume(segment) == 0.0


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
    V = vertices_2d(S)
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


def test_invariance_sampling(di2d_sys, di2d_sets, di2d_prob, di2d_design_eff,
                             di2d_design_opt):
    """1000 sampled states per set stay invariant and admissible."""
    msg = check_terminal_invariance(
        [(di2d_prob, di2d_design_eff), (di2d_prob, di2d_design_opt)],
        n_samples=1000,
    )
    assert "2000" in msg


def test_invariant_set_maximality(di2d_sys, di2d_dare, di2d_sets):
    """Scaled-out vertices must eventually violate admissibility."""
    Xhat, U = di2d_sets
    _, Lstar = di2d_dare
    D, L = Lstar.closed_loop, Lstar.L
    S = maximal_invariant_set(D, Xhat, U, L)
    for v in vertices_2d(S):
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
    for v in vertices_2d(di2d_design_eff.S):
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
    V = vertices_2d(S)
    W = pairwise_vertices_2d(S)
    assert V.shape == W.shape and np.array_equal(V, W)


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


def test_origin_outside_uses_one_lp(monkeypatch):
    from lqmpc import polytope

    # [10, 12] x [3, 4] with a redundant cut x1 + x2 <= 20 in the middle
    P = HPolytope(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([12.0, 4.0, 20.0, -10.0, -3.0]),
    )
    reference = lp_remove_redundancy(P)
    calls = []
    linprog = polytope.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(polytope, "linprog", counting_linprog)
    kept = remove_redundancy(P)
    V = vertices_2d(P)
    assert len(calls) == 2  # one Chebyshev centre each
    _assert_same_rows(kept, reference)
    _assert_same_rows(kept, HPolytope(P.H[[0, 1, 3, 4]], P.h[[0, 1, 3, 4]]))
    np.testing.assert_array_equal(V, pairwise_vertices_2d(P))
    np.testing.assert_allclose(V, [[10.0, 3.0], [12.0, 3.0], [12.0, 4.0], [10.0, 4.0]])


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
        vertices_2d(STRIP)
    with pytest.raises(ValueError):  # state set unbounded
        maximal_invariant_set(0.5 * np.eye(2), STRIP, U, np.zeros((1, 2)))
    with pytest.raises(ValueError):  # origin on the boundary
        maximal_invariant_set(0.5 * np.eye(2), SEGMENT, U, np.zeros((1, 2)))
    assert len(vertices_2d(SEGMENT)) == 0


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------

def test_bounding_box():
    lo, hi = bounding_box(TRIANGLE)
    np.testing.assert_allclose(lo, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(hi, [1.0, 1.0], atol=1e-9)


def test_sample_interior_stays_inside():
    X = sample_interior(TRIANGLE, 200, seed=2)
    assert X.shape == (200, 2)
    for x in X:
        assert contains(TRIANGLE, x)


def test_csv_serialization(tmp_path):
    out = tmp_path / "poly.csv"
    BOX5.to_csv(out)
    rows = out.read_text().strip().splitlines()
    # one half-space per row after the header: H entries then h
    assert len(rows) == 1 + BOX5.nrows
    first = [float(t) for t in rows[1].split(",")]
    assert len(first) == 3
