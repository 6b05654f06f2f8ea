"""Constrained MPC engine: policy evaluation, the function-space Bellman
step, closed-loop costs, and the grid sweeps."""

import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from lqmpc import (
    ConstrainedProblem,
    HPolytope,
    MpcController,
    TerminalDesign,
    closed_loop_cost,
    contains,
    feasible_region_grid,
    feasible_set,
    greedy_gain,
    in_region_of_decreasing,
    load_scenario,
    solve_qp,
    suboptimality_map,
    vertices,
)
from lqmpc import cmpc, polytope, qp
from lqmpc.cli import _write_grid_csv
from conftest import ZEFF_2D, ZEFF_4D
from _checks import (assert_same_vertices, ball_loop_cost, check_policy_cost_below_value,
                     controller_arrays, iterate_bellman, pairwise_vertices_2d,
                     reference_closed_loop_cost, reference_condensation,
                     reference_region_sweep, reference_results, reference_store_answer,
                     reference_stored_region, reference_vertices, sample_interior)


SMALL_GRID = {"resolution": 21}


# one controller per (design, horizon), shared by the tests that only query
# it: no answer depends on what its stores hold
# (test_verdict_does_not_depend_on_the_store)

@pytest.fixture(scope="module")
def di2d_ctl1(di2d_prob, di2d_design_eff):
    return MpcController(di2d_prob, di2d_design_eff, 1)


@pytest.fixture(scope="module")
def di2d_ctl3(di2d_prob, di2d_design_eff):
    return MpcController(di2d_prob, di2d_design_eff, 3)


@pytest.fixture(scope="module")
def di2d_ctl_opt(di2d_prob, di2d_design_eff):
    return MpcController(di2d_prob, di2d_design_eff, cmpc.APPROX_OPT_HORIZON)


# ---------------------------------------------------------------------------
# problem and design validation
# ---------------------------------------------------------------------------

def test_problem_rejects_unbounded(di2d_sys):
    halfplane = HPolytope(np.array([[1.0, 0.0]]), np.array([5.0]))
    with pytest.raises(ValueError):
        ConstrainedProblem(di2d_sys, halfplane, HPolytope.symmetric_box([1.0]))


def test_problem_setup_solves_no_lp(di2d_sys, di2d_design_eff, monkeypatch):
    calls = []
    linprog = polytope.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(polytope, "linprog", counting_linprog)
    prob = ConstrainedProblem(
        di2d_sys, HPolytope.symmetric_box([5.0, 5.0]), HPolytope.symmetric_box([1.0])
    )
    # the boxes are the vertices' least and greatest coordinates
    lo, hi = prob.box
    assert lo.tolist() == [-5.0, -5.0] and hi.tolist() == [5.0, 5.0]
    lo, hi = prob.input_box
    assert lo.tolist() == [-1.0] and hi.tolist() == [1.0]
    assert prob.state_set_contains(di2d_design_eff.S)
    # closed loops solve no LP either: the tail set comes from the polar hull
    ctl = MpcController(prob, di2d_design_eff, 3)
    for x0 in ([-4.0, 1.8], [2.0, -1.0], [0.5, 0.5]):
        assert math.isfinite(ctl.simulate_cost(np.array(x0)))
    assert calls == []


def test_state_set_contains(di2d_prob, di2d_design_eff):
    assert di2d_prob.state_set_contains(di2d_design_eff.S)
    assert di2d_prob.state_set_contains(HPolytope.symmetric_box([5.0, 5.0]))
    # within 1e-7 of a face counts as inside; 1e-6 past it does not
    assert di2d_prob.state_set_contains(HPolytope.symmetric_box([5.0 + 5e-8, 1.0]))
    assert not di2d_prob.state_set_contains(HPolytope.symmetric_box([5.0 + 1e-6, 1.0]))
    # an empty set, and one without the origin strictly inside, raise; so
    # does an unbounded one
    empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    quadrant = HPolytope(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([0.0, 0.0]))
    strip = HPolytope(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 1.0]))
    for S, message in ((empty, "origin strictly inside"), (quadrant, "origin strictly inside"),
                       (strip, "unbounded")):
        with pytest.raises(ValueError, match=message):
            di2d_prob.state_set_contains(S)


@pytest.mark.parametrize("study", ["di2d", "ac4d"])
def test_every_polytope_holds_the_origin_strictly_inside(request, study):
    """The polytope layer's one precondition, h > 0, holds for every set the
    studies form: Xhat and U; S at zeta = 1, at the scenario's zeta and at
    `terminal-set`'s default list; the tail sets of both designs'
    controllers; and the rows of `feasible_set`'s lifted polytope."""
    prob = request.getfixturevalue(f"{study}_prob")
    zeta = ZEFF_2D if study == "di2d" else ZEFF_4D
    assert prob.Xhat.origin_interior() and prob.U.origin_interior()
    designs = [TerminalDesign.for_amplified_cost(prob, z)
               for z in (1.0, zeta, 5.0, 15.0, 25.0, 35.0)]
    for design in designs:
        assert design.S.origin_interior()
    for design in designs[:2]:
        for ell in (1, 3, 10):
            ctl = MpcController(prob, design, ell)
            assert ctl.tail_set.origin_interior()
            # `feasible_set`'s lifted rows, less the zero rows
            keep = np.any(np.hstack([-ctl._g_map, ctl._qp.G]) != 0.0, axis=1)
            assert np.all(ctl._g_const[keep] > 0)


def test_design_outside_the_state_set_fails_at_a_vertex(di2d_prob, di2d_design_eff):
    # a box 1 % larger than Xhat fails the first of the three vertex checks
    grown = TerminalDesign(K=di2d_design_eff.K, S=HPolytope.symmetric_box([5.05, 5.05]),
                           gain=di2d_design_eff.gain)
    with pytest.raises(ValueError, match="terminal set is not contained in the state "
                                         "constraints \\(by 0.05 at a vertex\\)"):
        grown.validate(di2d_prob)
    # an S without the origin strictly inside has no vertices to check
    shifted = TerminalDesign(K=di2d_design_eff.K, S=HPolytope.box([0.0, -1.0], [1.0, 1.0]),
                             gain=di2d_design_eff.gain)
    with pytest.raises(ValueError, match="origin strictly inside"):
        shifted.validate(di2d_prob)


def test_problem_rejects_origin_on_boundary(di2d_sys):
    shifted = HPolytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([5.0, 0.0, 5.0, 5.0]),
    )
    with pytest.raises(ValueError):
        ConstrainedProblem(di2d_sys, shifted, HPolytope.symmetric_box([1.0]))


def test_design_validates(di2d_prob, di2d_design_eff, di2d_design_opt, ac4d_prob,
                          ac4d_design_eff):
    di2d_design_eff.validate(di2d_prob)
    di2d_design_opt.validate(di2d_prob)
    ac4d_design_eff.validate(ac4d_prob)
    TerminalDesign.for_optimal_cost(ac4d_prob).validate(ac4d_prob)


@pytest.mark.parametrize("study, message", [
    ("di2d", "terminal gain violates input constraints on S \\(by 1.08 at a vertex\\)"),
    ("ac4d", "terminal set is not invariant under its gain \\(by 0.31 at a vertex\\)"),
])
def test_design_with_the_wrong_gain_fails_at_a_vertex(request, study, message):
    # the amplified design's S with the optimal gain u = L*x: its loop stays
    # in S on di-2d but asks for more input than U allows at a vertex, and
    # leaves S on ac-4d
    prob = request.getfixturevalue(f"{study}_prob")
    design = request.getfixturevalue(f"{study}_design_eff")
    Kstar, Lstar = prob.sys.optimal
    with pytest.raises(ValueError, match=message):
        TerminalDesign(K=Kstar, S=design.S, gain=Lstar).validate(prob)


def test_design_terminal_matrix_in_region(di2d_sys, di2d_design_eff):
    assert in_region_of_decreasing(di2d_sys, di2d_design_eff.K)


def test_design_terminal_set_inside_state_set(di2d_prob, di2d_design_eff):
    V = vertices(di2d_design_eff.S)
    assert_same_vertices(V, pairwise_vertices_2d(di2d_design_eff.S))
    for v in V:
        assert contains(di2d_prob.Xhat, v)


def test_design_zeta_provenance(di2d_design_eff, di2d_design_opt):
    assert di2d_design_opt.zeta == 1.0
    assert di2d_design_eff.zeta > 1.0


# ---------------------------------------------------------------------------
# the ell-step policy
# ---------------------------------------------------------------------------

def test_policy_at_origin(di2d_ctl3):
    step = di2d_ctl3.solve(np.zeros(2))
    assert step.feasible
    np.testing.assert_allclose(step.u0, np.zeros(1), atol=1e-9)
    assert step.value == pytest.approx(0.0, abs=1e-12)


def test_policy_interior_matches_gain(di2d_ctl3, di2d_design_eff, di2d_sys):
    x = np.array([0.2, -0.15])
    step = di2d_ctl3.solve(x)
    Kbar = iterate_bellman(di2d_sys, di2d_design_eff.K, 2)
    expected = greedy_gain(di2d_sys, Kbar).L @ x
    assert step.feasible
    assert abs(step.u0[0] - expected[0]) <= 1e-6


def test_policy_infeasible_far_out(di2d_ctl3):
    step = di2d_ctl3.solve(np.array([0.0, 4.9]))
    assert not step.feasible
    assert math.isinf(step.value)


def test_policy_deterministic(di2d_ctl3):
    x = np.array([-3.0, 1.0])
    a = di2d_ctl3.solve(x)
    b = di2d_ctl3.solve(x)
    assert a.value == b.value
    np.testing.assert_array_equal(a.u0, b.u0)


def test_policy_value_matches_raw_qp(di2d_prob, di2d_design_eff):
    # dual route: the controller's value equals an independent solve of the
    # condensed program it emits
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    x = np.array([-4.0, 1.8])
    step = ctl.solve(x)
    sol = solve_qp(ctl.qp_at(x))
    assert step.feasible and sol.status == "optimal"
    assert step.value == pytest.approx(sol.objective, rel=1e-9)


# ---------------------------------------------------------------------------
# the one-step Bellman value: the ell = 1 controller's value,
# min_u x'Qx + u'Ru + (Ax+Bu)'K(Ax+Bu) s.t. u in U, Ax+Bu in S, x in Xhat
# ---------------------------------------------------------------------------

def test_bellman_apply_origin(di2d_ctl1):
    assert di2d_ctl1.solve(np.zeros(2)).value == pytest.approx(0.0, abs=1e-12)


def test_bellman_apply_outside_state_set(di2d_ctl1):
    assert math.isinf(di2d_ctl1.solve(np.array([5.5, 0.0])).value)


def test_quadratic_dominates_bellman_on_terminal_set(di2d_ctl1, di2d_design_eff):
    """Terminal design certificate: (TJ)(x) <= x'Kx on 500 sampled x in S."""
    K = di2d_design_eff.K
    X = sample_interior(di2d_design_eff.S, 500, seed=21)
    worst = -np.inf
    for x in X:
        tj = di2d_ctl1.solve(x).value
        jx = x @ K @ x
        worst = max(worst, tj - jx)
        assert tj <= jx + 1e-7, f"decrease violated at {x}: TJ={tj} J={jx}"
    assert worst <= 1e-7


# ---------------------------------------------------------------------------
# closed-loop cost and the optimal-cost approximation
# ---------------------------------------------------------------------------

def test_cost_fn_origin(di2d_ctl3):
    assert di2d_ctl3.simulate_cost(np.zeros(2)) == 0.0


def test_cost_fn_infeasible(di2d_ctl3):
    assert math.isinf(di2d_ctl3.simulate_cost(np.array([0.0, 4.9])))


def test_policy_cost_below_horizon_value(di2d_prob, di2d_design_eff):
    """Closed-loop cost never exceeds the horizon value (500 states)."""
    msg = check_policy_cost_below_value(di2d_prob, di2d_design_eff, 3, n_states=500)
    assert "500" in msg


def test_longer_horizon_dominates(di2d_prob, di2d_ctl3, di2d_ctl_opt):
    # the ell=100 approximation of the optimal cost is never worse than the
    # ell=3 policy cost
    X = sample_interior(di2d_prob.Xhat, 60, seed=33)
    checked = 0
    for x in X:
        j3 = di2d_ctl3.simulate_cost(x)
        if math.isinf(j3):
            continue
        j_opt = di2d_ctl_opt.simulate_cost(x)
        assert j_opt <= j3 + 1e-7
        checked += 1
    assert checked >= 20


def test_approx_optimal_origin(di2d_ctl_opt):
    assert di2d_ctl_opt.simulate_cost(np.zeros(2)) == 0.0


def test_tail_truncation_consistency(di2d_prob, di2d_design_eff, di2d_sys):
    """Where the tail-truncation rule fires (inside S, near the origin) the
    loop follows the unconstrained gain and the accumulated cost matches the
    quadratic tail within 1%.

    Note the rule triggers at x in S with a tiny norm; at S's outer corners
    the policy gain can still saturate the input, so the quadratic is only
    exact deep inside.
    """
    ell = 3
    ctl = MpcController(di2d_prob, di2d_design_eff, ell)
    Kbar = iterate_bellman(di2d_sys, di2d_design_eff.K, ell - 1)
    gain = greedy_gain(di2d_sys, Kbar)
    K_tail = closed_loop_cost(di2d_sys, gain)
    # scale samples toward the origin so every input along the tail is interior
    X = 0.2 * sample_interior(di2d_design_eff.S, 40, seed=8)
    for x in X:
        total = 0.0
        xt = x.copy()
        for _ in range(400):
            step = ctl.solve(xt)
            assert step.feasible
            u = step.u0
            assert contains(di2d_prob.U, u)
            total += xt @ di2d_sys.Q @ xt + u @ di2d_sys.R @ u
            xt = di2d_sys.A @ xt + di2d_sys.B @ u
            if np.linalg.norm(xt) < 1e-9:
                break
        tail = x @ K_tail @ x
        if tail > 1e-12:
            assert total == pytest.approx(tail, rel=0.01)


def test_value_decrease_along_loop(di2d_prob, di2d_design_eff, di2d_sys):
    ell = 3
    ctl = MpcController(di2d_prob, di2d_design_eff, ell)
    x = np.array([-4.0, 1.8])
    prev = None
    for _ in range(40):
        step = ctl.solve(x)
        assert step.feasible
        stage = x @ di2d_sys.Q @ x + step.u0 @ di2d_sys.R @ step.u0
        if prev is not None:
            # standard MPC decrease: V(x+) <= V(x) - stage(x)
            assert step.value <= prev - prev_stage + 1e-6
        prev, prev_stage = step.value, stage
        x = di2d_sys.A @ x + di2d_sys.B @ step.u0


def test_recursive_feasibility_from_grid(di2d_prob, di2d_design_eff, di2d_sys):
    grid = feasible_region_grid(di2d_prob, di2d_design_eff, 3, grid_spec=SMALL_GRID)
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    rng = np.random.default_rng(0)
    pts = [
        (x, y)
        for iy, y in enumerate(grid.ys)
        for ix, x in enumerate(grid.xs)
        if grid.feasible[iy, ix]
    ]
    for x0 in rng.choice(np.asarray(pts), size=25, replace=False):
        x = np.array(x0, dtype=float)
        for _ in range(60):
            step = ctl.solve(x)
            assert step.feasible, f"lost feasibility from {x0} at {x}"
            x = di2d_sys.A @ x + di2d_sys.B @ step.u0


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_region_points_inside_state_set(di2d_prob, di2d_design_eff):
    grid = feasible_region_grid(di2d_prob, di2d_design_eff, 3, grid_spec=SMALL_GRID)
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            if grid.feasible[iy, ix]:
                assert contains(di2d_prob.Xhat, np.array([x, y]))
            else:
                assert math.isinf(grid.cost[iy, ix])


def test_region_amplified_contains_optimal(di2d_prob, di2d_design_eff,
                                           di2d_design_opt):
    g_eff = feasible_region_grid(di2d_prob, di2d_design_eff, 3, grid_spec=SMALL_GRID)
    g_opt = feasible_region_grid(di2d_prob, di2d_design_opt, 3, grid_spec=SMALL_GRID)
    assert not (g_opt.feasible & ~g_eff.feasible).any()
    assert g_eff.feasible.sum() > g_opt.feasible.sum()


def test_region_shrunken_terminal_subset(di2d_prob, di2d_design_opt):
    # scaling the terminal set toward the origin keeps it invariant; the
    # region stays inside the state box
    d = di2d_design_opt
    tiny = TerminalDesign(
        K=d.K, S=HPolytope(d.S.H, 1e-6 * d.S.h), gain=d.gain, zeta=d.zeta
    )
    grid = feasible_region_grid(di2d_prob, tiny, 8, grid_spec={"resolution": 11})
    assert grid.feasible.any()
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            if grid.feasible[iy, ix]:
                assert contains(di2d_prob.Xhat, np.array([x, y]))


def _polygon_facets(V):
    """Unit outward normals N and offsets h of the counterclockwise polygon
    V, one per edge V[i] -> V[i + 1]: the polygon is {x | N x <= h}."""
    nxt = np.roll(V, -1, axis=0)
    N = np.column_stack([nxt[:, 1] - V[:, 1], V[:, 0] - nxt[:, 0]])
    N /= np.hypot(N[:, 0], N[:, 1])[:, None]
    return N, np.sum(N * V, axis=1)


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("ell", [1, 3, 10])
def test_feasible_set_2d_matches_the_grid_verdicts(di2d_prob, request, which, ell):
    """Membership in X_ell, with slack 1e-9, against the region sweep's
    verdict on every cell of the example-3 grid (101x101)."""
    design = request.getfixturevalue(f"di2d_design_{which}")
    N, h = _polygon_facets(feasible_set(di2d_prob, design, ell))
    grid = feasible_region_grid(di2d_prob, design, ell, load_scenario("di-2d").grid_spec())
    assert grid.feasible.shape == (101, 101)
    assert 0 < grid.feasible.sum() < grid.feasible.size
    X, Y = np.meshgrid(grid.xs, grid.ys)
    points = np.column_stack([X.ravel(), Y.ravel()])
    inside = np.all(points @ N.T <= h + 1e-9, axis=1)
    mismatched = inside != grid.feasible.ravel()
    assert not mismatched.any(), points[mismatched]


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("ell", [1, 3, 10])
def test_feasible_set_2d_is_exact(di2d_prob, request, which, ell):
    """Each vertex of X_ell, pulled in by 1e-9 relative, is feasible, and
    each edge's midpoint, moved 1e-6 outward, is not."""
    design = request.getfixturevalue(f"di2d_design_{which}")
    V = feasible_set(di2d_prob, design, ell)
    N, _ = _polygon_facets(V)
    ctl = MpcController(di2d_prob, design, ell)
    for v in V:
        assert ctl.solve((1.0 - 1e-9) * v).feasible, v
    for a, b, n in zip(V, np.roll(V, -1, axis=0), N):
        assert not ctl.solve(0.5 * (a + b) + 1e-6 * n).feasible, (a, b)


@pytest.mark.parametrize("which, ell, area", [
    ("eff", 1, 35.3973), ("opt", 1, 26.9291),
    ("eff", 3, 48.2183), ("opt", 3, 43.9668),
    ("eff", 10, 50.0), ("opt", 10, 50.0),
])
def test_feasible_set_2d_is_a_counterclockwise_polygon(di2d_prob, request, which, ell, area):
    # every turn is strictly to the left, so no vertex is collinear with its
    # neighbours; the shoelace area is pinned to 4 decimals
    V = feasible_set(di2d_prob, request.getfixturevalue(f"di2d_design_{which}"), ell)
    edges = np.roll(V, -1, axis=0) - V
    turns = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
    assert len(V) >= 3 and np.all(turns > 0.0)
    x, y = V[:, 0], V[:, 1]
    assert round(0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)), 4) == area


@pytest.mark.parametrize("ell", [1, 3, 10])
def test_amplified_feasible_set_contains_the_optimal(di2d_prob, di2d_design_eff,
                                                     di2d_design_opt, ell):
    N, h = _polygon_facets(feasible_set(di2d_prob, di2d_design_eff, ell))
    V = feasible_set(di2d_prob, di2d_design_opt, ell)
    assert np.max(V @ N.T - h) <= 1e-9


@pytest.fixture(scope="module")
def ac4d_feasible_sets(ac4d_prob, ac4d_design_eff, ac4d_design_opt):
    """X_ell of ac-4d at the scenario's horizon ell = 2, per design."""
    return {"eff": feasible_set(ac4d_prob, ac4d_design_eff, 2),
            "opt": feasible_set(ac4d_prob, ac4d_design_opt, 2)}


@pytest.mark.parametrize("case", [
    ("di-2d", "eff", 1), ("di-2d", "opt", 1), ("di-2d", "eff", 3), ("di-2d", "opt", 3),
    ("di-2d", "eff", 10), ("di-2d", "opt", 10), ("ac-4d", "eff", 2),
], ids=lambda case: "-".join(map(str, case)))
def test_feasible_set_facets_are_supporting(request, case):
    """No support LP on the lifted polytope, built from the reference
    condensation, passes a facet plane of X_ell's hull by more than 1e-9
    relative to max(1, the facet's offset)."""
    scenario, which, ell = case
    name = scenario.replace("-", "")
    prob = request.getfixturevalue(f"{name}_prob")
    design = request.getfixturevalue(f"{name}_design_{which}")
    if scenario == "ac-4d":
        V = request.getfixturevalue("ac4d_feasible_sets")[which]
    else:
        V = feasible_set(prob, design, ell)
    ref = reference_condensation(prob, design, ell)
    n, nz = prob.sys.n, ref["G"].shape[1]
    A_ub = np.hstack([-ref["g_map"], ref["G"]])
    planes = np.unique(np.round(ConvexHull(V).equations, 12), axis=0)
    worst = 0.0
    for eq in planes:
        lp = linprog(np.r_[-eq[:n], np.zeros(nz)], A_ub=A_ub, b_ub=ref["g_const"],
                     bounds=[(None, None)] * (n + nz), method="highs")
        assert lp.status == 0, lp.message
        worst = max(worst, (-lp.fun + eq[n]) / max(1.0, abs(eq[n])))
    assert worst <= 1e-9, worst


def test_amplified_feasible_set_of_ac4d_is_smaller(ac4d_prob, ac4d_design_eff,
                                                   ac4d_design_opt, ac4d_feasible_sets):
    """On ac-4d, at its own zeta_eff = 8 and ell = 2, the amplified design's
    X_ell is the smaller set and misses part of the optimal design's: a
    counterexample to "can have a larger feasible region"."""
    V_eff, V_opt = ac4d_feasible_sets["eff"], ac4d_feasible_sets["opt"]
    hull = ConvexHull(V_eff)
    assert f"{hull.volume:.4g}" == "2.971e+04"
    assert f"{ConvexHull(V_opt).volume:.4g}" == "3.29e+04"
    excess = np.max(V_opt @ hull.equations[:, :-1].T + hull.equations[:, -1], axis=1)
    assert round(float(np.max(excess)), 2) == 1.77
    # the vertex of largest excess, pulled in by 1e-9 relative, is a witness
    # by the controllers alone, apart from the projection
    witness = (1.0 - 1e-9) * V_opt[np.argmax(excess)]
    assert MpcController(ac4d_prob, ac4d_design_opt, 2).solve(witness).feasible
    assert not MpcController(ac4d_prob, ac4d_design_eff, 2).solve(witness).feasible


def test_submap_properties(di2d_prob, di2d_design_eff):
    sub = suboptimality_map(di2d_prob, di2d_design_eff, 3, grid_spec=SMALL_GRID)
    gaps = sub.rel_gap[np.isfinite(sub.rel_gap)]
    assert gaps.size > 0
    assert (gaps >= -1e-9).all()
    # origin cell is excluded from the relative map
    iy0 = int(np.argmin(np.abs(sub.ys)))
    ix0 = int(np.argmin(np.abs(sub.xs)))
    assert math.isnan(sub.rel_gap[iy0, ix0])
    # the largest loss sits near the origin
    iy, ix = np.unravel_index(np.nanargmax(np.where(np.isfinite(sub.rel_gap),
                                                    sub.rel_gap, -np.inf)),
                              sub.rel_gap.shape)
    assert np.hypot(sub.xs[ix], sub.ys[iy]) <= 2.5


def test_grid_csv_round_trip(di2d_prob, di2d_design_eff, tmp_path):
    grid = feasible_region_grid(
        di2d_prob, di2d_design_eff, 3, grid_spec={"resolution": 9}
    )
    out = tmp_path / "grid.csv"
    _write_grid_csv(grid, str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert "ell=3" in lines[0]
    assert lines[1] == "x1,x2,feasible,cost,rel_gap"
    assert len(lines) == 2 + 9 * 9
    # row-major: first data row is the lower-left corner
    assert lines[2].startswith("-5,-5,")


def _no_process(*args, **kwargs):
    raise AssertionError("a grid sweep started a process")


def test_grid_parallel_matches_serial(di2d_prob, di2d_design_eff, monkeypatch):
    """The region sweep gives the same bits for any `workers` value, starts no
    process, and equals a replay of `solve` on a controller built for each
    cell alone."""
    monkeypatch.setattr(multiprocessing, "get_context", _no_process)
    monkeypatch.setattr(multiprocessing, "Pool", _no_process)
    spec = {"resolution": 7}
    a = feasible_region_grid(di2d_prob, di2d_design_eff, 3, grid_spec=spec, workers=1)
    b = feasible_region_grid(di2d_prob, di2d_design_eff, 3, grid_spec=spec, workers=2)
    assert a.feasible.tobytes() == b.feasible.tobytes()
    assert a.cost.tobytes() == b.cost.tobytes()

    feas, cost = np.zeros((7, 7), dtype=bool), np.full((7, 7), math.inf)
    for iy, y in enumerate(a.ys):
        for ix, x in enumerate(a.xs):
            step = MpcController(di2d_prob, di2d_design_eff, 3).solve(np.array([x, y]))
            feas[iy, ix], cost[iy, ix] = step.feasible, step.value
    assert feas.any() and not feas.all()
    assert a.feasible.tobytes() == feas.tobytes()
    assert a.cost.tobytes() == cost.tobytes()


def test_submap_parallel_matches_serial(di2d_prob, di2d_design_eff, monkeypatch):
    """The suboptimality map gives the same bits for any `workers` value,
    starts no process, leaves the environment as it was, and equals a replay
    of `simulate_cost` at ell and at ell = 100 (origin excluded) on
    controllers built for each cell alone."""
    monkeypatch.setattr(multiprocessing, "get_context", _no_process)
    monkeypatch.setattr(multiprocessing, "Pool", _no_process)
    spec = {"resolution": 7}
    a = suboptimality_map(di2d_prob, di2d_design_eff, 3, grid_spec=spec, workers=1)
    env_before = dict(os.environ)
    b = suboptimality_map(di2d_prob, di2d_design_eff, 3, grid_spec=spec, workers=2)
    assert dict(os.environ) == env_before
    assert a.feasible.tobytes() == b.feasible.tobytes()
    assert a.cost.tobytes() == b.cost.tobytes()
    assert a.rel_gap.tobytes() == b.rel_gap.tobytes()

    J_pol, rel = np.full((7, 7), math.inf), np.full((7, 7), math.nan)
    for iy, y in enumerate(a.ys):
        for ix, x in enumerate(a.xs):
            pt = np.array([x, y])
            J = MpcController(di2d_prob, di2d_design_eff, 3).simulate_cost(pt)
            J_pol[iy, ix] = J
            if math.isfinite(J) and not (x == 0.0 and y == 0.0):
                ctl_opt = MpcController(di2d_prob, di2d_design_eff, cmpc.APPROX_OPT_HORIZON)
                Jopt = ctl_opt.simulate_cost(pt)
                if Jopt > 0 and math.isfinite(Jopt):
                    rel[iy, ix] = abs(J - Jopt) / Jopt
    assert np.isfinite(J_pol).any() and not np.isfinite(J_pol).all()
    assert a.feasible.tobytes() == np.isfinite(J_pol).tobytes()
    assert a.cost.tobytes() == J_pol.tobytes()
    assert a.rel_gap.tobytes() == rel.tobytes()


# ---------------------------------------------------------------------------
# the region sweep's row pass
# ---------------------------------------------------------------------------

def _recording_solve_qp(monkeypatch) -> list:
    """Patch `cmpc.solve_qp` to record, in call order, the bytes of each
    QP's q and g (which fix its cell)."""
    seen = []

    def recording_solve_qp(p, *args, **kwargs):
        seen.append(np.concatenate([p.q, p.g]).tobytes())
        return solve_qp(p, *args, **kwargs)

    monkeypatch.setattr(cmpc, "solve_qp", recording_solve_qp)
    return seen


def _region_lattice(prob, seed, resolution=41):
    """The seeded lattice of the benchmark's `region` workload, as
    `perfbench/workloads.lattice_spec` builds it: cell-centred points over
    the state box, offset by the seed's first two uniform draws."""
    lo, hi = prob.box
    w = (hi - lo) / resolution
    first = lo + np.random.default_rng(seed).uniform(0.0, 1.0, size=2) * w
    last = first + (resolution - 1) * w
    return {"resolution": resolution, "bounds": (tuple(first), tuple(last))}


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("seed, ell", [(None, 3), (None, 10), (2, 3), (5, 3), (11, 3)],
                         ids=["example3-ell3", "example3-ell10", "lattice-seed2",
                              "lattice-seed5", "lattice-seed11"])
def test_region_sweep_matches_the_cell_loop(di2d_prob, request, which, seed, ell,
                                            monkeypatch):
    """The row pass of `feasible_region_grid` against one `solve` per cell
    (`_checks.reference_region_sweep`), on the four example-3 grids
    (101x101) and three of the benchmark's seeded 41x41 lattices: the same
    bits of every verdict and cost, and the same cells reaching the QP in
    the same order.  The pass leaves few cells to `solve`."""
    design = request.getfixturevalue(f"di2d_design_{which}")
    spec = (load_scenario("di-2d").grid_spec() if seed is None
            else _region_lattice(di2d_prob, seed))
    qps = _recording_solve_qp(monkeypatch)
    feas, cost = reference_region_sweep(di2d_prob, design, ell, spec)
    loop_qps = list(qps)
    qps.clear()
    solved = []
    solve = MpcController.solve
    monkeypatch.setattr(MpcController, "solve",
                        lambda self, x0: solved.append(x0) or solve(self, x0))
    grid = feasible_region_grid(di2d_prob, design, ell, spec)
    assert feas.any() and not feas.all()
    assert grid.feasible.tobytes() == feas.tobytes()
    assert grid.cost.tobytes() == cost.tobytes()
    assert len(qps) == len(loop_qps) > 0
    first = next((k for k, (a, b) in enumerate(zip(qps, loop_qps)) if a != b), None)
    assert first is None, f"QP {first} of {len(qps)} is at another cell"
    assert len(qps) <= len(solved) < feas.size / 10


def _check_store_answers(ctl, X, answers) -> list[str]:
    """Assert that `answers`, the arrays (answered, feasible, u0, value) of
    `_stored_answers(X)`, come row by row from the store that
    `reference_store_answer` picks, with the bits of u0 and value that the
    one-state tests' own expressions give there; returns each row's store
    name ("region" for any region, "qp" for none)."""
    paths = []
    for x0, answered, feasible, u0, value in zip(X, *answers):
        answer = reference_store_answer(ctl, x0)
        if answer is None:
            assert not answered, x0
            paths.append("qp")
            continue
        assert answered, (x0, answer)
        if answer == "certificate":
            assert not feasible and value == math.inf, x0
            paths.append(answer)
            continue
        if answer == "shortcut":
            ref_u, ref_v = ctl._policy_gain.L @ x0, float(x0 @ ctl._value_matrix @ x0)
        else:
            y = np.append(x0, 1.0)
            ref_u = ctl._region_laws[answer] @ y
            ref_v = float(y @ ctl._region_values[answer] @ y)
        assert feasible and u0.tobytes() == ref_u.tobytes(), (x0, answer)
        assert np.float64(value).tobytes() == np.float64(ref_v).tobytes(), (x0, answer)
        paths.append("region" if isinstance(answer, int) else answer)
    return paths


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("ell", [3, 10])
def test_store_answers_match_the_one_state_tests_on_every_grid_cell(
        di2d_prob, request, which, ell):
    """`_stored_answers` against the one-state store tests it replaced
    (`_checks.reference_store_answer`) on every cell of an example-3 grid
    (101x101), in the sweep's order: each grid row against the stores as
    they stand at its start, and each cell alone against the stores as
    `solve` meets them.  Both pick the same store and region, with the same
    bits of u0 and value, and every store answers some cells."""
    design = request.getfixturevalue(f"di2d_design_{which}")
    xs, ys = cmpc._grid_axes(di2d_prob, load_scenario("di-2d").grid_spec())
    ctl = MpcController(di2d_prob, design, ell)
    paths = {}
    for y in ys:
        row = np.column_stack([xs, np.full(xs.size, y)])
        _check_store_answers(ctl, row, ctl._stored_answers(row))
        for x0 in row:
            [path] = _check_store_answers(ctl, x0[None], ctl._stored_answers(x0[None]))
            paths[path] = paths.get(path, 0) + 1
            ctl.solve(x0)
    assert sum(paths.values()) == 101 * 101
    assert set(paths) == {"shortcut", "certificate", "region", "qp"}, paths


def test_store_answers_match_the_one_state_tests_in_closed_loops(
        di2d_prob, di2d_design_eff, monkeypatch):
    """Every state of the closed loops of a 15x15 di-2d suboptimality map,
    at ell = 3 and at ell = 100, gets from `_stored_answers` the store,
    region and bits that the one-state tests give (see the grid test
    above): every row of every pass, the lock-step passes of the loops,
    the re-tests after a QP grows a store and the one-state passes of
    `solve` alike, against the stores as they stand at that pass; and the
    map is the one without the check."""
    spec = {**load_scenario("di-2d").grid_spec(), "resolution": 15}
    paths = {}
    stored_answers = MpcController._stored_answers

    def checked(self, X):
        answers = stored_answers(self, X)
        for path in _check_store_answers(self, X, answers):
            paths[self.ell, path] = paths.get((self.ell, path), 0) + 1
        return answers

    plain = suboptimality_map(di2d_prob, di2d_design_eff, 3, spec)
    monkeypatch.setattr(MpcController, "_stored_answers", checked)
    grid = suboptimality_map(di2d_prob, di2d_design_eff, 3, spec)
    for a, b in ((grid.cost, plain.cost), (grid.rel_gap, plain.rel_gap)):
        assert a.tobytes() == b.tobytes()
    for ell in (3, cmpc.APPROX_OPT_HORIZON):
        assert paths.get((ell, "region"), 0) > 0 and paths.get((ell, "qp"), 0) > 0, paths
    assert paths.get((3, "certificate"), 0) > 0, paths


def _grid_controllers(prob, designs):
    """A controller per (design, ell) example-3 grid, each after the region
    sweep of that grid, so that its stores hold what the sweep stored."""
    xs, ys = cmpc._grid_axes(prob, load_scenario("di-2d").grid_spec())
    for design in designs:
        for ell in (3, 10):
            ctl = MpcController(prob, design, ell)
            for y in ys:
                ctl._solve_rows(np.column_stack([xs, np.full(xs.size, y)]))
            yield ctl


def test_stacked_store_products_match_the_per_state_products(
        di2d_prob, di2d_design_eff, di2d_design_opt, ac4d_prob, ac4d_design_eff):
    """The stacked products of the row pass and the closed loops against
    the per-state products they replaced, bit for bit, on seeded states:
    every stored region's first move law[:m] y and value y'Vy (y = (x0, 1))
    on the four example-3 grids' controllers and on an ac-4d controller at
    ell = 2 after 300 seeded solves, each state with a seeded region from
    the stacked laws and values, the shortcut's move L x0 and value
    x0' F^ell(K) x0, the tail cost x' tail_cost x, and the closed-loop move
    (x'Qx + u'Ru, Ax + Bu) at seeded inputs."""
    rng = np.random.default_rng(20261020)
    ac4d = MpcController(ac4d_prob, ac4d_design_eff, 2)
    lo, hi = ac4d_prob.box
    for x0 in rng.uniform(lo, hi, size=(300, 4)):
        ac4d.solve(x0)
    controllers = [*_grid_controllers(di2d_prob, (di2d_design_eff, di2d_design_opt)), ac4d]
    for ctl in controllers:
        sys, m = ctl.prob.sys, ctl.prob.sys.m
        lo, hi = ctl.prob.box
        X = rng.uniform(1.2 * lo, 1.2 * hi, size=(2000, sys.n))
        U = rng.uniform(*ctl.prob.input_box, size=(2000, m))
        Y = np.column_stack([X, np.ones(len(X))])
        held = rng.integers(len(ctl._regions), size=len(Y))
        u0, value = ctl._region_answers(held, Y)
        assert u0.tobytes() == np.array(
            [ctl._region_laws[i] @ y for i, y in zip(held, Y)]).tobytes()
        assert value.tobytes() == np.array(
            [float(y @ ctl._region_values[i] @ y) for i, y in zip(held, Y)]).tobytes()
        assert len(set(held.tolist())) == len(ctl._regions) > 1
        for got, ref in (
            (cmpc._linear(ctl._policy_gain.L, X), [ctl._policy_gain.L @ x for x in X]),
            (cmpc._quadratic(X, ctl._value_matrix), [float(x @ ctl._value_matrix @ x) for x in X]),
            (cmpc._quadratic(X, ctl.tail_cost), [float(x @ ctl.tail_cost @ x) for x in X]),
        ):
            assert got.tobytes() == np.array(ref).tobytes()
        stage, X_next = ctl._moves(X, U)
        assert stage.tobytes() == np.array(
            [float(x @ sys.Q @ x + u @ sys.R @ u) for x, u in zip(X, U)]).tobytes()
        assert X_next.tobytes() == np.array(
            [sys.A @ x + sys.B @ u for x, u in zip(X, U)]).tobytes()


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("ell", [3, 10])
def test_submap_matches_the_per_cell_loop_on_every_grid_cell(di2d_prob, request, which, ell):
    """`suboptimality_map`, every cell's closed loop stepped together,
    against one closed loop per cell (`_checks.reference_closed_loop_cost`,
    one `solve` per state) on fresh controllers at ell and at ell = 100,
    cell by cell in row-major order, on an example-3 grid (101x101): the
    same bits of every verdict, cost and gap."""
    design = request.getfixturevalue(f"di2d_design_{which}")
    grid = suboptimality_map(di2d_prob, design, ell, load_scenario("di-2d").grid_spec())
    ctl, ctl_opt = (MpcController(di2d_prob, design, h) for h in (ell, cmpc.APPROX_OPT_HORIZON))
    cost, rel = np.full((101, 101), math.inf), np.full((101, 101), math.nan)
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            pt = np.array([x, y])
            J = cost[iy, ix] = reference_closed_loop_cost(ctl, pt)
            if math.isfinite(J) and pt.any():
                J_opt = reference_closed_loop_cost(ctl_opt, pt)
                if J_opt > 0 and math.isfinite(J_opt):
                    rel[iy, ix] = abs(J - J_opt) / J_opt
    assert grid.feasible.tobytes() == np.isfinite(cost).tobytes()
    assert grid.cost.tobytes() == cost.tobytes()
    assert grid.rel_gap.tobytes() == rel.tobytes()
    assert 3000 < np.isfinite(rel).sum() < np.isfinite(cost).sum() < 101 * 101 - 3000


def _answer_paths(ctl, X) -> str:
    """Per row of X, what answers it from the controller's stores as they
    stand: S (shortcut), C (certificate), R (stored region) or Q (none)."""
    paths = ""
    for x0 in X:
        answer = reference_store_answer(ctl, x0)
        paths += {"shortcut": "S", "certificate": "C", None: "Q"}.get(answer, "R")
    return paths


def _rows_against_the_loop(prob, design, history, X, monkeypatch):
    """`_solve_rows(X)` and `[solve(x0) for x0 in X]`, each on a controller
    at ell = 3 that first solved the states in `history`: every row must
    have the same verdict and the same bits of value and u0 (of a feasible
    row) as the loop's step, and the same cells must reach the QP in the
    same order.  Returns the answer paths at the start of the row, the
    loop's steps and the row's QPs."""
    X = np.asarray(X, dtype=float)
    qps = _recording_solve_qp(monkeypatch)
    runs = []
    for batched in (False, True):
        ctl = MpcController(prob, design, 3)
        for x0 in history:
            ctl.solve(np.asarray(x0, dtype=float))
        paths = _answer_paths(ctl, X)
        qps.clear()
        steps = ctl._solve_rows(X) if batched else [ctl.solve(x0) for x0 in X]
        runs.append((paths, steps, list(qps)))
    (_, loop, loop_qps), (paths, (feasible, u0, value), row_qps) = runs
    assert len(feasible) == len(u0) == len(value) == len(loop) == len(X)
    for x0, f, u, v, step in zip(X, feasible, u0, value, loop):
        assert f == step.feasible and np.float64(v).tobytes() == np.float64(step.value).tobytes()
        assert not f or u.tobytes() == step.u0.tobytes(), x0
    assert row_qps == loop_qps
    return paths, loop, row_qps


@pytest.mark.parametrize("history, paths",
                         [([], "SQQ"), ([(-3.0, 2.5), (6.0, 0.0)], "SRC")],
                         ids=["empty-stores", "stored"])
def test_row_pass_of_one_cell(di2d_prob, di2d_design_eff, history, paths, monkeypatch):
    for x0, path in zip([(0.0, 0.0), (-3.0, 2.5), (6.0, 0.0)], paths):
        got, _, qps = _rows_against_the_loop(di2d_prob, di2d_design_eff, history,
                                             [x0], monkeypatch)
        assert got == path and len(qps) == (path == "Q"), x0


@pytest.mark.parametrize("bounds", [None, ((-3.0, 2.5), (4.0, 4.0))],
                         ids=["box-corner", "feasible-cell"])
def test_one_by_one_region_grid(di2d_prob, di2d_design_eff, bounds):
    spec = {"resolution": 1} if bounds is None else {"resolution": 1, "bounds": bounds}
    grid = feasible_region_grid(di2d_prob, di2d_design_eff, 3, spec)
    feas, cost = reference_region_sweep(di2d_prob, di2d_design_eff, 3, spec)
    assert grid.feasible.shape == (1, 1)
    assert grid.feasible[0, 0] == (bounds is not None)
    assert grid.feasible.tobytes() == feas.tobytes()
    assert grid.cost.tobytes() == cost.tobytes()


@pytest.mark.parametrize("history", [[], [(-3.0, 2.5), (6.0, 0.0)]],
                         ids=["empty-stores", "stored"])
def test_row_pass_through_the_origin(di2d_prob, di2d_design_eff, history, monkeypatch):
    X = np.column_stack([np.linspace(-5.0, 5.0, 41), np.zeros(41)])
    assert X[20].tolist() == [0.0, 0.0]
    paths, steps, _ = _rows_against_the_loop(di2d_prob, di2d_design_eff, history, X,
                                             monkeypatch)
    assert paths[20] == "S" and steps[20].value == 0.0 and not np.any(steps[20].u0)


def test_row_pass_across_all_four_answers(di2d_prob, di2d_design_eff, monkeypatch):
    """With a certificate (from (-5, 5)) and two regions (from (-3, 2.5)
    and (-1, 2.5)) stored, the row x2 = 2.5 runs from the shortcut through
    the regions and the QP to the certificate."""
    X = np.column_stack([np.linspace(-5.0, 5.0, 21), np.full(21, 2.5)])
    history = [(-5.0, 5.0), (-3.0, 2.5), (-1.0, 2.5)]
    paths, steps, qps = _rows_against_the_loop(di2d_prob, di2d_design_eff, history, X,
                                               monkeypatch)
    assert set(paths) == set("SCRQ")
    assert 0 < len(qps) < paths.count("Q")
    assert all(s.feasible == (p != "C") for s, p in zip(steps, paths) if p != "Q")


def test_row_outside_the_state_set_after_its_first_certificate(di2d_prob, di2d_design_eff,
                                                               monkeypatch):
    """The row x2 = 6 lies outside Xhat: its first cell's QP is infeasible,
    and the certificate stored then answers every later cell."""
    X = np.column_stack([np.linspace(-6.0, 6.0, 25), np.full(25, 6.0)])
    paths, steps, qps = _rows_against_the_loop(di2d_prob, di2d_design_eff, [], X,
                                               monkeypatch)
    assert paths == "Q" * 25
    assert len(qps) == 1 and not any(s.feasible for s in steps)


def test_region_stored_in_a_row_answers_its_later_cells(di2d_prob, di2d_design_eff,
                                                        monkeypatch):
    """From (-4.5, 2.5) to (-3.25, 2.5) the same two input bounds are
    active: the region that the first cell's QP stores answers the rest of
    the row, with no second QP."""
    X = np.column_stack([np.linspace(-4.5, -3.25, 6), np.full(6, 2.5)])
    paths, steps, qps = _rows_against_the_loop(di2d_prob, di2d_design_eff, [], X,
                                               monkeypatch)
    assert paths == "Q" * 6
    assert len(qps) == 1 and all(s.feasible for s in steps)


def test_region_grown_mid_row_is_tested_against_the_cells_left_over(di2d_prob, di2d_design_eff,
                                                                    monkeypatch):
    """Along x2 = 1 the shortcut answers the first nine cells.  The tenth
    cell's QP stores a region in mid-row, and the eleven cells left over are
    tested against it at once; so are the seven left after the fourteenth
    cell's QP stores another.  The nineteenth cell's QP stores nothing, so
    the twentieth goes straight to `solve`; its QP is infeasible, and the
    certificate it stores answers the last cell.  The same cells reach the
    QP in the same order as with one `solve` per cell."""
    X = np.column_stack([np.linspace(-5.0, 5.0, 21), np.full(21, 1.0)])
    sizes = []
    stored_answers = MpcController._stored_answers
    monkeypatch.setattr(MpcController, "_stored_answers",
                        lambda self, Y: sizes.append(len(Y)) or stored_answers(self, Y))
    paths, steps, qps = _rows_against_the_loop(di2d_prob, di2d_design_eff, [], X,
                                               monkeypatch)
    assert paths == "S" * 9 + "Q" * 12
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    assert qps == [np.concatenate([ctl.qp_at(X[i]).q, ctl.qp_at(X[i]).g]).tobytes()
                   for i in (9, 13, 18, 19)]
    assert [k for k in sizes if k > 1] == [21, 11, 7]
    assert [s.feasible for s in steps] == [True] * 19 + [False] * 2


def test_grid_requires_2d(ac4d_prob, ac4d_design_eff):
    with pytest.raises(ValueError):
        feasible_region_grid(ac4d_prob, ac4d_design_eff, 2, grid_spec=SMALL_GRID)


# ---------------------------------------------------------------------------
# the controller's arrays against the block-by-block construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ell", [1, 2, 3, 10, 100])
@pytest.mark.parametrize("kind", ["eff", "opt"])
@pytest.mark.parametrize("name", ["di2d", "ac4d"])
def test_construction_matches_the_block_loops(request, name, kind, ell):
    """Every x0-independent array, bit for bit: the prediction matrix from
    one gather, the input rows from one Kronecker product and the gain
    ladder from the shared Riccati step, against one product per block, one
    selector product per step and a greedy gain and Bellman step (each with
    its own solve) per rung."""
    prob = request.getfixturevalue(f"{name}_prob")
    design = (request.getfixturevalue(f"{name}_design_eff") if kind == "eff"
              else TerminalDesign.for_optimal_cost(prob))
    got = controller_arrays(MpcController(prob, design, ell))
    for key, ref in reference_condensation(prob, design, ell).items():
        assert got[key].shape == ref.shape and got[key].tobytes() == ref.tobytes(), key


# ---------------------------------------------------------------------------
# the unconstrained fast path against the gain-ladder loop it replaced
# ---------------------------------------------------------------------------

def _gain_ladder(sys, K, ell):
    """ladder[j] is the greedy gain at F^j(K)."""
    ladder = []
    for _ in range(ell):
        ladder.append(greedy_gain(sys, K).L)
        K = iterate_bellman(sys, K, 1)
    return ladder


def _ladder_candidate(sys, ladder, x0):
    """Unconstrained minimizer by running the ladder on x0."""
    ell = len(ladder)
    z = np.empty(ell * sys.m)
    x = x0
    for k in range(ell):
        u = ladder[ell - 1 - k] @ x
        z[k * sys.m : (k + 1) * sys.m] = u
        x = sys.A @ x + sys.B @ u
    return z


@pytest.mark.parametrize("name", ["di2d", "ac4d"])
@pytest.mark.parametrize("ell", [1, 3, 100])
def test_unconstrained_map_matches_gain_ladder(request, name, ell):
    prob = request.getfixturevalue(f"{name}_prob")
    design = request.getfixturevalue(f"{name}_design_eff")
    ctl = MpcController(prob, design, ell)
    ladder = _gain_ladder(prob.sys, design.K, ell)
    lo, hi = prob.box
    for x0 in np.random.default_rng(ell).uniform(lo, hi, size=(20, prob.sys.n)):
        z_ref = _ladder_candidate(prob.sys, ladder, x0)
        assert np.abs(ctl._Z @ x0 - z_ref).max() <= 1e-12 * np.abs(z_ref).max()


@pytest.mark.parametrize("ell", [3, 100])
def test_shortcut_polytope_matches_candidate_test(di2d_prob, di2d_design_eff, ell):
    ctl = MpcController(di2d_prob, di2d_design_eff, ell)
    ladder = _gain_ladder(di2d_prob.sys, di2d_design_eff.K, ell)
    G = ctl._qp.G
    lo, hi = di2d_prob.box
    verdicts = []
    for x2 in np.linspace(lo[1], hi[1], 41):
        for x1 in np.linspace(lo[0], hi[0], 41):
            x0 = np.array([x1, x2])
            z_unc = _ladder_candidate(di2d_prob.sys, ladder, x0)
            excess = float(np.max(G @ z_unc - (ctl._g_const + ctl._g_map @ x0)))
            if abs(excess - 1e-10) <= 1e-9:
                continue  # too close to the slack for rounding to settle
            old = excess <= 1e-10
            new = bool(np.all(ctl._H_u @ x0 <= ctl._g_const + 1e-10))
            assert new == old, x0
            if new:
                # the applied move rounds exactly as the loop's first move,
                # which keeps closed-loop costs bit for bit
                np.testing.assert_array_equal(ctl.solve(x0).u0, z_unc[:1])
            verdicts.append(old)
    assert len(verdicts) >= 41 * 41 - 41
    assert 0 < sum(verdicts) < len(verdicts)


def test_hessian_validated_once_per_controller(di2d_prob, di2d_design_eff, monkeypatch):
    eig_calls, qp_calls = [], []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        eig_calls.append(1)
        return eigvalsh(a, *args, **kwargs)

    def counting_solve_qp(p, *args, **kwargs):
        qp_calls.append(1)
        return solve_qp(p, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(cmpc, "solve_qp", counting_solve_qp)
    ctl = MpcController(di2d_prob, di2d_design_eff, 100)
    lo, hi = di2d_prob.box
    for x0 in np.random.default_rng(5).uniform(lo, hi, size=(50, 2)):
        ctl.solve(x0)
    assert qp_calls
    assert len(eig_calls) <= 1


def _perturbed(name, p, z, mu):
    """A copy of the dual method's solution that breaks one KKT condition:
    z moved out along an active row (primal, and dual with it), that row's
    multiplier raised (dual), or both multipliers of a pair of opposite rows
    raised, one of them slack (complementarity)."""
    active = int(np.argmax(mu))
    row_norms = np.linalg.norm(p.G, axis=1)
    if name == "primal":
        return z + 1e-5 * p.G[active] / row_norms[active], mu
    mu = mu.copy()
    if name == "dual":
        mu[active] += 1e-5
        return z, mu
    i, j = next((i, j) for i in range(p.g.size) for j in range(i)
                if row_norms[i] > 0 and np.array_equal(p.G[i], -p.G[j]))
    mu[[i, j]] += 1e-4
    return z, mu


@pytest.mark.parametrize("name", ["primal", "dual", "complementarity"])
def test_controller_names_the_residual_over_its_tolerance(di2d_prob, di2d_design_eff,
                                                         monkeypatch, name):
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    x0 = np.array([-3.0, 2.5])  # two input bounds active
    exact = solve_qp(ctl.qp_at(x0))
    assert exact.status == "optimal" and exact.duals_ineq.max() > 0.0
    dual_active_set = qp._dual_active_set

    def perturbed(p):
        z, mu, iters, blocked = dual_active_set(p)
        return (*_perturbed(name, p, z, mu), iters, blocked)

    monkeypatch.setattr(qp, "_dual_active_set", perturbed)
    sol = solve_qp(ctl.qp_at(x0))
    value = {"primal": sol.primal_residual, "dual": sol.dual_residual,
             "complementarity": sol.comp_residual}[name]
    assert sol.status == "inaccurate" and value > 1e-8
    with pytest.raises(ArithmeticError, match=f"{name} residual {value:.2e} > 1e-08"):
        ctl.solve(x0)


# ---------------------------------------------------------------------------
# infeasibility certificates kept by the controller
# ---------------------------------------------------------------------------

def _count_linprog(monkeypatch) -> list:
    calls = []
    linprog = qp.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(qp, "linprog", counting_linprog)
    return calls


def _forget(ctl: MpcController) -> MpcController:
    """Empty both stores: the certificate rows and the critical regions."""
    ctl._cert_a = ctl._cert_a[:0]
    ctl._cert_b = ctl._cert_b[:0]
    ctl._regions = {}
    ctl._region_rows = ctl._region_rows[:0]
    ctl._region_laws = ctl._region_laws[:0]
    ctl._region_values = ctl._region_values[:0]
    return ctl


def _same_step(a, b) -> bool:
    """Same verdict, and the same bits of value and u0."""
    return (a.feasible == b.feasible
            and np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
            and (a.u0 is None) == (b.u0 is None)
            and (a.u0 is None or a.u0.tobytes() == b.u0.tobytes()))


def test_certificate_outside_state_set_is_the_state_facet(di2d_prob, di2d_design_eff,
                                                          monkeypatch):
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    assert not ctl.solve(np.array([6.0, 0.0])).feasible
    # the k = 0 rows of G are zero, so the certificate is the facet x1 <= 5
    # of the state constraints
    assert ctl._cert_b.size == 1
    np.testing.assert_allclose(ctl._cert_a[0], [1.0, 0.0], atol=1e-12)
    assert ctl._cert_b[0] == pytest.approx(-5.0, abs=1e-12)
    calls = _count_linprog(monkeypatch)
    assert not ctl.solve(np.array([7.0, 2.0])).feasible
    assert calls == []


def test_certificate_margin_at_the_boundary(di2d_prob, di2d_design_eff, monkeypatch):
    def one_row_controller():
        ctl = MpcController(di2d_prob, di2d_design_eff, 3)
        assert not ctl.solve(np.array([0.0, 4.9])).feasible
        assert ctl._cert_b.size == 1
        return ctl

    ctl = one_row_controller()
    a, b = ctl._cert_a[0], ctl._cert_b[0]
    calls = _count_linprog(monkeypatch)
    # well past the stored facet: answered from the store, no LP
    far = np.array([0.0, 4.0])
    assert a @ far + b > 0.5
    assert not ctl.solve(far).feasible
    assert calls == []
    # on or just outside the facet, inside the margin: the QP decides, as it
    # does for a controller that has stored nothing, and runs its LP exactly
    # when it finds the query infeasible
    for excess in (0.0, 2e-7, 9e-7):
        x0 = np.array([0.0, (excess - b) / a[1]])
        ctl = one_row_controller()
        assert 0.0 <= ctl._cert_a[0] @ x0 + ctl._cert_b[0] <= cmpc._CERT_MARGIN
        n = len(calls)
        step = ctl.solve(x0)
        assert len(calls) == n + (not step.feasible)
        assert _same_step(step, MpcController(di2d_prob, di2d_design_eff, 3).solve(x0))


# a state a few 1e-8 outside the feasible set of the amplified di-2d design
# at ell = 1: the dual method blocks a row, while the Phase-1 LP, within
# HiGHS's 1e-7 primal tolerance, returns t = 0
_NEAR_BOUNDARY = np.array([-0.9128409584918091, 1.9966121760177573])


def _violation(ctl, x) -> float:
    """Largest row violation of the QP solution at a feasible state x (the
    dual method accepts up to 1e-12 relative)."""
    p = ctl.qp_at(x)
    return max(float(np.max(p.G @ solve_qp(p).z - p.g)), 0.0)


def _stored_row_is_sound(ctl, x_infeasible, feasible_points):
    """The last stored row is a lower bound on the least violation: above 0
    at the infeasible query that stored it, and not above the violation of
    the solution at any state found feasible."""
    a, b = ctl._cert_a[-1], ctl._cert_b[-1]
    assert a @ x_infeasible + b > 0.0
    for x in feasible_points:
        assert a @ x + b <= _violation(ctl, x) + 1e-13, x


def test_near_boundary_query_is_certified_infeasible(di2d_prob, di2d_design_eff):
    ctl = MpcController(di2d_prob, di2d_design_eff, 1)
    p = ctl.qp_at(_NEAR_BOUNDARY)
    assert qp._phase1(p)[1] is None  # the LP alone would call it feasible
    sol = solve_qp(p)
    assert sol.status == "infeasible"
    stat, gap = qp._farkas_residuals(p, sol.farkas)
    assert stat <= qp._FARKAS_STAT_TOL and gap < -qp._FARKAS_GAP_TOL
    assert not ctl.solve(_NEAR_BOUNDARY).feasible
    assert ctl._cert_b.size == 1
    _stored_row_is_sound(ctl, _NEAR_BOUNDARY, [np.zeros(2), 0.999 * _NEAR_BOUNDARY])
    # under the store's margin at its own query, so a QP answers its neighbours
    assert ctl._cert_a[0] @ _NEAR_BOUNDARY + ctl._cert_b[0] <= cmpc._CERT_MARGIN


@pytest.mark.parametrize("angle", [None, 0.3, 1.4, 2.2, 3.5, 5.0])
def test_bisection_onto_the_boundary_never_raises(di2d_prob, di2d_design_eff, angle):
    # 40 halvings from the origin (feasible) toward an infeasible state along
    # one ray; each row stored on the way must stay sound at every state
    # found feasible
    d = _NEAR_BOUNDARY if angle is None else 6.0 * np.array([np.cos(angle), np.sin(angle)])
    ctl = MpcController(di2d_prob, di2d_design_eff, 1)
    lo, hi = 0.0, 1.25
    assert not ctl.solve(hi * d).feasible
    feasible = [np.zeros(2)]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        n = ctl._cert_b.size
        if ctl.solve(mid * d).feasible:
            lo = mid
            feasible.append(mid * d)
        else:
            hi = mid
            if ctl._cert_b.size > n:
                _stored_row_is_sound(ctl, mid * d, feasible)
    assert hi - lo <= 1.25 * 2.0**-40
    for x in feasible:
        assert np.max(ctl._cert_a @ x + ctl._cert_b) <= _violation(ctl, x) + 1e-13, x


@settings(max_examples=25, deadline=None)
@given(
    which=st.sampled_from(["eff", "opt"]),
    ell=st.sampled_from([3, 10]),
    points=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                    min_size=1, max_size=30),
)
def test_verdict_does_not_depend_on_the_store(di2d_prob, di2d_design_eff, di2d_design_opt,
                                              which, ell, points):
    design = di2d_design_eff if which == "eff" else di2d_design_opt
    keeper = MpcController(di2d_prob, design, ell)
    fresh = MpcController(di2d_prob, design, ell)
    for pt in points:
        x0 = np.array(pt)
        before = keeper._cert_b.size and float(np.max(keeper._cert_a @ x0 + keeper._cert_b))
        ref = _forget(fresh).solve(x0)
        assert _same_step(keeper.solve(x0), ref), x0
        if ref.feasible:
            assert before <= cmpc._CERT_MARGIN, x0


@pytest.mark.parametrize("which", ["eff", "opt"])
def test_certificate_store_growth_on_a_region_sweep(di2d_prob, request, which, monkeypatch):
    design = request.getfixturevalue(f"di2d_design_{which}")
    infeasible_qps = []

    def recording_solve_qp(p, *args, **kwargs):
        sol = solve_qp(p, *args, **kwargs)
        infeasible_qps.append(sol.status == "infeasible")
        return sol

    monkeypatch.setattr(cmpc, "solve_qp", recording_solve_qp)
    ctl = MpcController(di2d_prob, design, 3)
    lo, hi = di2d_prob.box
    verdicts = []
    for x2 in np.linspace(lo[1], hi[1], 41):
        for x1 in np.linspace(lo[0], hi[0], 41):
            n = ctl._cert_b.size
            k = sum(infeasible_qps)
            verdicts.append(ctl.solve(np.array([x1, x2])).feasible)
            # a row is stored exactly when a QP came back infeasible
            assert ctl._cert_b.size - n == sum(infeasible_qps) - k
    assert ctl._cert_b.size == sum(infeasible_qps) <= 36
    # most infeasible cells were answered from the store
    assert verdicts.count(False) > 10 * ctl._cert_b.size


# ---------------------------------------------------------------------------
# critical regions kept by the controller
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["eff", "opt"])
def test_region_store_stays_bounded_on_a_region_sweep(di2d_prob, request, which,
                                                      monkeypatch):
    design = request.getfixturevalue(f"di2d_design_{which}")
    feasible_qps = []

    def recording_solve_qp(p, *args, **kwargs):
        sol = solve_qp(p, *args, **kwargs)
        feasible_qps.append(sol.status == "optimal")
        return sol

    monkeypatch.setattr(cmpc, "solve_qp", recording_solve_qp)
    ctl = MpcController(di2d_prob, design, 3)
    lo, hi = di2d_prob.box
    stored = 0
    for x2 in np.linspace(lo[1], hi[1], 41):
        for x1 in np.linspace(lo[0], hi[0], 41):
            x0 = np.array([x1, x2])
            shortcut = np.all(ctl._H_u @ x0 <= ctl._h_u)
            n, k = len(ctl._regions), len(feasible_qps)
            step = ctl.solve(x0)
            # a region is stored only after a feasible QP, one per active set
            assert len(ctl._regions) - n <= sum(feasible_qps[k:])
            stored += step.feasible and not shortcut and len(feasible_qps) == k
    actives = list(ctl._regions)
    assert len(set(actives)) == len(actives) <= 12
    assert ctl._region_rows.shape == (len(actives) * ctl._qp.g.size, 3)
    # most feasible cells outside the shortcut were answered from the store
    assert stored > 10 * sum(feasible_qps)


@pytest.mark.parametrize("which", ["eff", "opt"])
def test_region_stacks_keep_each_active_set_once(di2d_prob, request, which):
    """A 41x41 region sweep at ell = 3, one grid row at a time: each stored
    active set maps to its own index, every stack entry has the bits of
    `_region` recomputed for its active set, and a second QP at each
    feasible cell off the shortcut finds a known (or degenerate) active set,
    so it grows no stack and answers with the bits of the sweep."""
    design = request.getfixturevalue(f"di2d_design_{which}")
    ctl = MpcController(di2d_prob, design, 3)
    lo, hi = di2d_prob.box
    xs = np.linspace(lo[0], hi[0], 41)
    X = np.array([(x, y) for y in np.linspace(lo[1], hi[1], 41) for x in xs])
    feasible, u0, value = map(np.concatenate, zip(
        *(ctl._solve_rows(X[i:i + xs.size]) for i in range(0, len(X), xs.size))))
    k, g = len(ctl._regions), ctl._qp.g.size
    assert sorted(ctl._regions.values()) == list(range(k)) and k > 1
    assert (len(ctl._region_rows), len(ctl._region_laws), len(ctl._region_values)) == (
        k * g, k, k)
    for active, i in ctl._regions.items():
        rows, law, V = ctl._region(active)
        assert rows.tobytes() == ctl._region_rows[i * g:(i + 1) * g].tobytes(), active
        assert law.tobytes() == ctl._region_laws[i].tobytes(), active
        assert V.tobytes() == ctl._region_values[i].tobytes(), active
    stacks, regions = (ctl._region_rows, ctl._region_laws, ctl._region_values), dict(ctl._regions)
    shortcut = (X @ ctl._H_u.T <= ctl._h_u).all(axis=1)
    asked = np.flatnonzero(feasible & ~shortcut)
    assert asked.size > 100
    for j in asked:
        step = ctl._qp_step(X[j])
        assert step.feasible and step.u0.tobytes() == u0[j].tobytes(), X[j]
        assert np.float64(step.value).tobytes() == value[j].tobytes(), X[j]
    assert ctl._regions == regions
    assert all(a is b for a, b in zip(stacks, (ctl._region_rows, ctl._region_laws,
                                                ctl._region_values)))


def test_region_law_off_by_1e_6_raises_naming_the_residual(di2d_prob, di2d_design_eff,
                                                          monkeypatch):
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    x0 = np.array([-3.0, 2.5])  # two input bounds active
    region_law = MpcController._region_law

    def patched(self, active):
        law, lam = region_law(self, active)
        return law + 1e-6, lam

    monkeypatch.setattr(MpcController, "_region_law", patched)
    with pytest.raises(ArithmeticError, match=r"active set \[.*\] misses its gate: "
                                              r"stationarity residual .* > 1e-08"):
        ctl.solve(x0)
    assert ctl._regions == {}


def test_degenerate_active_set_is_answered_by_the_qp(di2d_prob, di2d_design_eff):
    """Input constraints given twice: wherever one copy of a row is active,
    the other is at equality too, on the whole region, which thus has no
    interior.  Such a query is answered by the QP's own iterate, and no
    region is stored."""
    U = di2d_prob.U
    twice = ConstrainedProblem(di2d_prob.sys, di2d_prob.Xhat,
                               HPolytope(np.vstack([U.H, U.H]), np.append(U.h, U.h)))
    ctl = MpcController(twice, di2d_design_eff, 3)
    x0 = np.array([-3.0, 2.5])  # two input bounds active
    sol = solve_qp(ctl.qp_at(x0))
    assert sol.status == "optimal"
    active = tuple(int(i) for i in np.flatnonzero(sol.duals_ineq > 0.0))
    assert active and ctl._region_law(active) is not None
    assert ctl._region(active) is None
    step = ctl.solve(x0)
    assert step.u0.tobytes() == sol.z[:1].tobytes()
    assert np.float64(step.value).tobytes() == np.float64(sol.objective).tobytes()
    assert ctl._regions == {} and ctl._region_rows.shape[0] == 0
    # both copies of a row taken as active: their Schur complement is singular
    G, g = ctl._qp.G, ctl._qp.g
    r = active[0]
    copy = next(j for j in range(g.size)
                if j != r and np.array_equal(G[j], G[r]) and g[j] == g[r])
    assert ctl._region_law(tuple(sorted(active + (copy,)))) is None


def test_nearly_parallel_active_rows_count_as_singular(ac4d_prob, ac4d_design_eff):
    """An ac-4d input bound and a copy tilted by 1e-8: the Cholesky factor
    of their Schur complement exists, but its diagonal spans 1e-8, so the
    pair counts as singular and gets no law."""
    U = ac4d_prob.U
    tilted = HPolytope(np.vstack([U.H, [[1.0, 1e-8]]]), np.append(U.h, U.h[0]))
    assert np.array_equal(U.H[0], [1.0, 0.0])
    ctl = MpcController(ConstrainedProblem(ac4d_prob.sys, ac4d_prob.Xhat, tilted),
                        ac4d_design_eff, 2)
    first = 2 * ac4d_prob.Xhat.nrows  # the input rows of the first move
    pair = (first, first + tilted.nrows - 1)
    M = ctl._qp.G[list(pair)] @ ctl._qp.factor
    d = np.diag(np.linalg.cholesky(M @ M.T))
    assert d.min() < 1e-7 * d.max()
    assert ctl._region_law(pair) is None


def test_query_on_a_region_boundary_is_answered_by_the_qp(di2d_prob, di2d_design_eff):
    """States within 1e-15 of the boundary between two stored regions lie
    strictly inside neither, so the QP answers them, as it does for a
    controller that has stored nothing."""
    keeper = MpcController(di2d_prob, di2d_design_eff, 3)
    x_a, x_b = np.array([-3.0, 2.5]), np.array([-1.0, 2.5])

    def active(x0):
        sol = solve_qp(keeper.qp_at(x0))
        return tuple(int(i) for i in np.flatnonzero(sol.duals_ineq > 0.0))

    w_a = active(x_a)
    assert w_a != active(x_b)
    for x0 in (x_a, x_b):
        keeper.solve(x0)
    assert len(keeper._regions) == 2
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if active(x_a + mid * (x_b - x_a)) == w_a else (lo, mid)
    for t in (lo, hi):
        x0 = x_a + t * (x_b - x_a)
        assert reference_stored_region(keeper, x0) is None, x0
        fresh = MpcController(di2d_prob, di2d_design_eff, 3)
        assert _same_step(keeper.solve(x0), fresh.solve(x0)), x0


@pytest.fixture(scope="module")
def grid_reference(di2d_prob, di2d_design_eff, di2d_design_opt):
    """`reference_results` on every cell of the example-3 grid (101x101), row
    by row, as (xs, ys, [(status, objective)]), per (design, ell): one
    Phase-1 LP of its own per cell, and on a feasible cell the primal
    active-set solver.  Each grid is computed once, in a pool of 2
    processes, and read by both grid tests below."""
    designs = {"eff": di2d_design_eff, "opt": di2d_design_opt}
    xs, ys = cmpc._grid_axes(di2d_prob, load_scenario("di-2d").grid_spec())
    points = np.array([(x, y) for y in ys for x in xs])
    references = {}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        def reference(which, ell):
            if (which, ell) not in references:
                chunks = [(di2d_prob, designs[which], ell, c) for c in np.array_split(points, 2)]
                references[which, ell] = (
                    xs, ys, [r for part in pool.map(reference_results, chunks) for r in part])
            return references[which, ell]
        yield reference


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("ell", [3, 10])
def test_certificates_match_lp_on_every_grid_cell(di2d_prob, request, which, ell,
                                                  grid_reference):
    """The example-3 grid (101x101) of the sweep against the LP-every-time
    path.

    The store only ever answers "infeasible", and a cell it does not answer
    runs the same QP as a controller without a store.  So the two can differ
    only on cells the sweep calls infeasible, and each of those gets a
    Phase-1 LP of its own, in the reference.
    """
    design = request.getfixturevalue(f"di2d_design_{which}")
    grid = feasible_region_grid(di2d_prob, design, ell, load_scenario("di-2d").grid_spec())
    assert grid.feasible.shape == (101, 101)
    xs, ys, reference = grid_reference(which, ell)
    assert np.array_equal(grid.xs, xs) and np.array_equal(grid.ys, ys)
    iy, ix = np.nonzero(~grid.feasible)
    assert iy.size > 5000
    assert np.all(grid.cost[iy, ix] == math.inf)
    lp_feasible = np.array([status != "infeasible" for status, _ in reference])
    lp_feasible = lp_feasible.reshape(grid.feasible.shape)[iy, ix]
    assert not lp_feasible.any(), np.column_stack([xs[ix], ys[iy]])[lp_feasible]


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("ell", [3, 10])
def test_dual_qp_matches_reference_on_every_grid_cell(di2d_prob, request, which, ell,
                                                      grid_reference):
    """The example-3 grid (101x101) against the Phase-1 LP and primal
    active-set solver that the dual method replaced: the controller's verdict
    on every cell, and on every feasible cell both the controller's value
    and the dual method's own objective (no shortcut), within 1e-12 of the
    reference's, relative to max(1, |reference|)."""
    design = request.getfixturevalue(f"di2d_design_{which}")
    xs, ys, reference = grid_reference(which, ell)
    points = np.array([(x, y) for y in ys for x in xs])
    assert len(points) == 101 * 101
    ctl = MpcController(di2d_prob, design, ell)
    n_feasible = 0
    n_stored = 0
    for x0, (status, objective) in zip(points, reference):
        assert status in ("optimal", "infeasible"), (x0, status)
        shortcut = np.all(ctl._H_u @ x0 <= ctl._h_u)
        i = None if shortcut else reference_stored_region(ctl, x0)
        active = None if i is None else list(ctl._regions)[i]
        step = ctl.solve(x0)
        assert step.feasible == (status == "optimal"), x0
        if step.feasible:
            n_feasible += 1
            tol = 1e-12 * max(1.0, abs(objective))
            assert abs(step.value - objective) <= tol, x0
            sol = solve_qp(ctl.qp_at(x0))
            assert sol.status == "optimal" and abs(sol.objective - objective) <= tol, x0
            if active is not None:
                # a cell the region store answered: the QP's own active set
                # and, within 1e-12, its value and first move
                n_stored += 1
                assert tuple(np.flatnonzero(sol.duals_ineq > 0.0)) == active, x0
                assert abs(step.value - sol.objective) <= 1e-12 * max(1.0, abs(sol.objective))
                u_qp = sol.z[: di2d_prob.sys.m]
                assert np.max(np.abs(step.u0 - u_qp)) <= 1e-12 * max(1.0, np.max(np.abs(u_qp)))
        else:
            assert active is None, x0
    assert 3000 < n_feasible < 101 * 101 - 3000
    assert n_stored > 2000


_BITS_CODE = """\
import sys
import numpy as np
from lqmpc import MpcController, TerminalDesign, cmpc, load_scenario, suboptimality_map
from lqmpc.cli import _write_grid_csv
qps = []
solve_qp = cmpc.solve_qp
cmpc.solve_qp = lambda p: qps.append(1) or solve_qp(p)
sc = load_scenario("di-2d")
prob = sc.constrained_problem()
design = TerminalDesign.for_amplified_cost(prob, sc.amplification())
ctl_opt = MpcController(prob, design, cmpc.APPROX_OPT_HORIZON)
costs = [ctl_opt.simulate_cost(np.array(x0)) for x0 in ([-4.5, 2.9], [-2.0, 3.0])]
print(len(qps), np.array(costs).tobytes().hex())
_write_grid_csv(suboptimality_map(prob, design, 3, {"resolution": 9}), sys.argv[1])
"""


def test_horizon_100_costs_do_not_depend_on_blas_threads(tmp_path):
    """The ell = 100 closed loops of two di-2d states, with horizon-100 QPs on
    their way, and a 9x9 di-2d suboptimality map (ell = 3, with its ell = 100
    loops) give the same bits under one- and two-thread BLAS, each in a
    fresh interpreter (the thread count is read when BLAS loads)."""
    out, csvs = [], []
    for threads in ("1", "2"):
        env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.path.dirname(os.path.dirname(cmpc.__file__))}
        csv = tmp_path / f"submap-{threads}.csv"
        proc = subprocess.run([sys.executable, "-c", _BITS_CODE, str(csv)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
        csvs.append(csv.read_bytes())
    assert int(out[0][0]) > 0
    assert out[0] == out[1]
    assert csvs[0].count(b"\n") == 2 + 9 * 9
    assert csvs[0] == csvs[1]


# ---------------------------------------------------------------------------
# trajectory simulation
# ---------------------------------------------------------------------------

def test_trajectory_from_origin(di2d_prob, di2d_design_eff):
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    rows = ctl.simulate_trajectory(np.zeros(2), 10)
    assert len(rows) == 10
    for r in rows:
        assert r["feasible"]
        np.testing.assert_allclose(r["x"], np.zeros(2), atol=1e-12)
        if r["u"] is not None:
            np.testing.assert_allclose(r["u"], np.zeros(1), atol=1e-12)


def test_trajectory_records_fields(di2d_prob, di2d_design_eff):
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    rows = ctl.simulate_trajectory(np.array([-4.0, 1.8]), 12)
    assert len(rows) == 12
    assert rows[0]["k"] == 0
    assert {"k", "x", "u", "stage", "value", "feasible"} <= set(rows[0])
    values = [r["value"] for r in rows]
    assert values == sorted(values, reverse=True)  # decreasing along the loop


def test_simulate_cost_is_the_trajectory_cost_to_the_tail_set(di2d_prob, di2d_design_eff):
    """Both closed loops run the same moves: the realized cost is the sum of
    the trajectory's stage costs, in order, up to the first state in the
    tail set, plus the tail cost there, bit for bit."""
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    x0 = np.array([-2.0, 3.0])  # four moves from the tail set
    rows = ctl.simulate_trajectory(x0, 200)
    O = ctl.tail_set
    k_tail = next(r["k"] for r in rows if np.all(O.H @ r["x"] <= O.h))
    assert 0 < k_tail < len(rows) and all(r["feasible"] for r in rows)
    total = 0.0
    for r in rows[:k_tail]:
        total += r["stage"]
    x = rows[k_tail]["x"]
    assert ctl.simulate_cost(x0) == total + float(x @ ctl.tail_cost @ x)


# ---------------------------------------------------------------------------
# the tail set: where a closed loop's cost to go is the quadratic tail
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario, ell", [("di-2d", None), ("di-2d", 100),
                                           ("ac-4d", None), ("ac-4d", 100)])
def test_tail_set_is_invariant_inside_the_shortcut_polytope(request, scenario, ell):
    """O is invariant under the policy gain's loop, lies in the shortcut
    polytope and keeps the gain's inputs admissible, checked at O's
    vertices (scipy's, apart from `lqmpc.polytope`) within 1e-7, each
    being linear in x.  None stands for the scenario's horizon; di-2d at
    ell = 100 has all-zero rows in H_u."""
    key = scenario.replace("-", "")
    prob = request.getfixturevalue(f"{key}_prob")
    design = request.getfixturevalue(f"{key}_design_eff")
    ctl = MpcController(prob, design, ell or load_scenario(scenario).horizon)
    if (scenario, ell) == ("di-2d", 100):
        assert np.any(np.all(ctl._H_u == 0.0, axis=1))
    O = ctl.tail_set
    V = reference_vertices(O)
    assert V.shape[0] > prob.sys.n
    gain = ctl._policy_gain
    for what, Y, H, h in (("not invariant", V @ gain.closed_loop.T, O.H, O.h),
                          ("outside the shortcut polytope", V, ctl._H_u, ctl._g_const),
                          ("inputs not admissible", V @ gain.L.T, prob.U.H, prob.U.h)):
        excess = Y @ H.T - h
        worst = int(np.argmax(np.max(excess, axis=1)))
        assert np.max(excess) <= 1e-7, f"{what} by {np.max(excess):.3g} at {V[worst].tolist()}"


def test_tail_set_is_built_once_per_controller(di2d_prob, di2d_design_eff, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return polytope.maximal_invariant_set(*args)

    monkeypatch.setattr(cmpc, "maximal_invariant_set", counting)
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    assert not calls
    for x0 in ([-4.0, 1.8], [2.0, -1.0], [0.0, 4.9], [0.0, 0.0]):
        ctl.simulate_cost(np.array(x0))
    assert ctl.tail_set is ctl.tail_set
    assert len(calls) == 1
    MpcController(di2d_prob, di2d_design_eff, 3).simulate_cost(np.array([2.0, -1.0]))
    assert len(calls) == 2


def test_simulate_cost_matches_the_ball_loop_on_every_grid_cell(di2d_prob, di2d_design_eff):
    """The example-3 suboptimality map (101x101, amplified design, ell = 3
    and its ell = 100 loops) against `_checks.ball_loop_cost`, the loop that
    ran each cell to a small ball about the origin inside S: the same
    verdict on every cell, and on every feasible cell a cost within 1e-12
    of the reference's, relative."""
    ell = load_scenario("di-2d").horizon
    grid = suboptimality_map(di2d_prob, di2d_design_eff, ell, load_scenario("di-2d").grid_spec())
    assert grid.cost.shape == (101, 101)
    ref, ref_opt, ctl_opt = (MpcController(di2d_prob, di2d_design_eff, h)
                             for h in (ell, cmpc.APPROX_OPT_HORIZON, cmpc.APPROX_OPT_HORIZON))
    n_feasible = 0
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            pt = np.array([x, y])
            J, J_ref = grid.cost[iy, ix], ball_loop_cost(ref, pt)
            assert math.isfinite(J) == math.isfinite(J_ref), pt
            if not math.isfinite(J) or not pt.any():
                continue
            n_feasible += 1
            for new, old in ((J, J_ref), (ctl_opt.simulate_cost(pt), ball_loop_cost(ref_opt, pt))):
                assert abs(new - old) <= 1e-12 * old, (pt, new, old)
    assert 3000 < n_feasible < 101 * 101 - 3000
