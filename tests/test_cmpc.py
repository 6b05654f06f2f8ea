"""Constrained MPC engine: policy evaluation, the function-space Bellman
step, closed-loop costs, and the grid sweeps."""

import gc
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmpc import (
    ConstrainedProblem,
    HPolytope,
    MpcController,
    TerminalDesign,
    approx_optimal_cost,
    bellman_apply,
    closed_loop_cost,
    closed_loop_cost_fn,
    contains,
    feasible_region_grid,
    greedy_gain,
    in_region_of_decreasing,
    iterate_bellman,
    load_scenario,
    lp_solve,
    mpc_policy,
    sample_interior,
    solve_qp,
    suboptimality_map,
)
from lqmpc import cmpc, polytope, qp
from conftest import ZEFF_2D
from _checks import check_policy_cost_below_value, lp_verdicts, reference_results


SMALL_GRID = {"resolution": 21}


# ---------------------------------------------------------------------------
# problem and design validation
# ---------------------------------------------------------------------------

def test_problem_rejects_unbounded(di2d_sys):
    halfplane = HPolytope(np.array([[1.0, 0.0]]), np.array([5.0]))
    with pytest.raises(ValueError):
        ConstrainedProblem(di2d_sys, halfplane, HPolytope.symmetric_box([1.0]))


def test_box_radius_lps_run_once_per_problem(di2d_sys, di2d_design_eff, monkeypatch):
    calls = []

    def counting_lp_solve(c, P):
        calls.append(1)
        return lp_solve(c, P)

    monkeypatch.setattr(polytope, "lp_solve", counting_lp_solve)
    monkeypatch.setattr(cmpc, "lp_solve", counting_lp_solve)
    prob = ConstrainedProblem(
        di2d_sys, HPolytope.symmetric_box([5.0, 5.0]), HPolytope.symmetric_box([1.0])
    )
    assert prob.box_radius == 5.0
    n_setup = len(calls)
    # the box comes from the boundedness LPs: two per axis of each set
    assert 0 < n_setup <= 2 * (di2d_sys.n + di2d_sys.m)
    ctl = MpcController(prob, di2d_design_eff, 3)
    for x0 in ([-4.0, 1.8], [2.0, -1.0], [0.5, 0.5]):
        assert math.isfinite(ctl.simulate_cost(np.array(x0)))
    assert len(calls) == n_setup


def test_state_set_contains(di2d_prob, di2d_design_eff):
    assert di2d_prob.state_set_contains(di2d_design_eff.S)
    assert di2d_prob.state_set_contains(HPolytope.symmetric_box([5.0, 5.0]))
    # within 1e-7 of a face counts as inside; 1e-6 past it does not
    assert di2d_prob.state_set_contains(HPolytope.symmetric_box([5.0 + 5e-8, 1.0]))
    assert not di2d_prob.state_set_contains(HPolytope.symmetric_box([5.0 + 1e-6, 1.0]))
    # an empty or unbounded set has no finite support and is not contained
    empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    quadrant = HPolytope(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([0.0, 0.0]))
    assert not di2d_prob.state_set_contains(empty)
    assert not di2d_prob.state_set_contains(quadrant)


def test_problem_rejects_origin_on_boundary(di2d_sys):
    shifted = HPolytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([5.0, 0.0, 5.0, 5.0]),
    )
    with pytest.raises(ValueError):
        ConstrainedProblem(di2d_sys, shifted, HPolytope.symmetric_box([1.0]))


def test_design_validates(di2d_prob, di2d_design_eff, di2d_design_opt):
    di2d_design_eff.validate(di2d_prob)
    di2d_design_opt.validate(di2d_prob)


def test_design_terminal_matrix_in_region(di2d_sys, di2d_design_eff):
    assert in_region_of_decreasing(di2d_sys, di2d_design_eff.K)


def test_design_terminal_set_inside_state_set(di2d_prob, di2d_design_eff):
    from lqmpc import vertices_2d

    for v in vertices_2d(di2d_design_eff.S):
        assert contains(di2d_prob.Xhat, v)


def test_design_zeta_provenance(di2d_design_eff, di2d_design_opt):
    assert di2d_design_opt.zeta == 1.0
    assert di2d_design_eff.zeta > 1.0


# ---------------------------------------------------------------------------
# mpc_policy
# ---------------------------------------------------------------------------

def test_policy_at_origin(di2d_prob, di2d_design_eff):
    step = mpc_policy(di2d_prob, di2d_design_eff, 3, np.zeros(2))
    assert step.feasible
    np.testing.assert_allclose(step.u0, np.zeros(1), atol=1e-9)
    assert step.value == pytest.approx(0.0, abs=1e-12)


def test_policy_interior_matches_gain(di2d_prob, di2d_design_eff, di2d_sys):
    x = np.array([0.2, -0.15])
    step = mpc_policy(di2d_prob, di2d_design_eff, 3, x)
    Kbar = iterate_bellman(di2d_sys, di2d_design_eff.K, 2)
    expected = greedy_gain(di2d_sys, Kbar).L @ x
    assert step.feasible
    assert abs(step.u0[0] - expected[0]) <= 1e-6


def test_policy_infeasible_far_out(di2d_prob, di2d_design_eff):
    step = mpc_policy(di2d_prob, di2d_design_eff, 3, np.array([0.0, 4.9]))
    assert not step.feasible
    assert math.isinf(step.value)


def test_policy_deterministic(di2d_prob, di2d_design_eff):
    x = np.array([-3.0, 1.0])
    a = mpc_policy(di2d_prob, di2d_design_eff, 3, x)
    b = mpc_policy(di2d_prob, di2d_design_eff, 3, x)
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
# bellman_apply
# ---------------------------------------------------------------------------

def test_bellman_apply_origin(di2d_prob, di2d_design_eff):
    assert bellman_apply(di2d_prob, di2d_design_eff, np.zeros(2)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_bellman_apply_outside_state_set(di2d_prob, di2d_design_eff):
    assert math.isinf(bellman_apply(di2d_prob, di2d_design_eff, np.array([5.5, 0.0])))


def test_quadratic_dominates_bellman_on_terminal_set(di2d_prob, di2d_design_eff):
    """Terminal design certificate: (TJ)(x) <= x'Kx on 500 sampled x in S."""
    K = di2d_design_eff.K
    X = sample_interior(di2d_design_eff.S, 500, seed=21)
    worst = -np.inf
    for x in X:
        tj = bellman_apply(di2d_prob, di2d_design_eff, x)
        jx = x @ K @ x
        worst = max(worst, tj - jx)
        assert tj <= jx + 1e-7, f"decrease violated at {x}: TJ={tj} J={jx}"
    assert worst <= 1e-7


# ---------------------------------------------------------------------------
# closed-loop cost and the optimal-cost approximation
# ---------------------------------------------------------------------------

def test_cost_fn_origin(di2d_prob, di2d_design_eff):
    assert closed_loop_cost_fn(di2d_prob, di2d_design_eff, 3, np.zeros(2)) == 0.0


def test_cost_fn_infeasible(di2d_prob, di2d_design_eff):
    assert math.isinf(
        closed_loop_cost_fn(di2d_prob, di2d_design_eff, 3, np.array([0.0, 4.9]))
    )


def test_policy_cost_below_horizon_value(di2d_prob, di2d_design_eff):
    """Closed-loop cost never exceeds the horizon value (500 states)."""
    msg = check_policy_cost_below_value(di2d_prob, di2d_design_eff, 3, n_states=500)
    assert "500" in msg


def test_longer_horizon_dominates(di2d_prob, di2d_design_eff):
    # the ell=100 approximation of the optimal cost is never worse than the
    # ell=3 policy cost
    X = sample_interior(di2d_prob.Xhat, 60, seed=33)
    checked = 0
    for x in X:
        j3 = closed_loop_cost_fn(di2d_prob, di2d_design_eff, 3, x)
        if math.isinf(j3):
            continue
        j_opt = approx_optimal_cost(di2d_prob, di2d_design_eff, x)
        assert j_opt <= j3 + 1e-7
        checked += 1
    assert checked >= 20


def test_approx_optimal_origin(di2d_prob, di2d_design_eff):
    assert approx_optimal_cost(di2d_prob, di2d_design_eff, np.zeros(2)) == 0.0


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
    grid.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert "ell=3" in lines[0]
    assert lines[1] == "x1,x2,feasible,cost,rel_gap"
    assert len(lines) == 2 + 9 * 9
    # row-major: first data row is the lower-left corner
    assert lines[2].startswith("-5,-5,")


def test_grid_parallel_matches_serial(di2d_prob, di2d_design_eff):
    a = feasible_region_grid(
        di2d_prob, di2d_design_eff, 3, grid_spec={"resolution": 11}, workers=1
    )
    b = feasible_region_grid(
        di2d_prob, di2d_design_eff, 3, grid_spec={"resolution": 11}, workers=2
    )
    np.testing.assert_array_equal(a.feasible, b.feasible)
    np.testing.assert_array_equal(a.cost, b.cost)


def test_submap_parallel_matches_serial(di2d_prob, di2d_design_eff):
    spec = {"resolution": 7}
    a = suboptimality_map(di2d_prob, di2d_design_eff, 3, grid_spec=spec, workers=1)
    env_before = dict(os.environ)
    b = suboptimality_map(di2d_prob, di2d_design_eff, 3, grid_spec=spec, workers=2)
    # worker start-up must not leak its BLAS thread limits into the parent
    assert dict(os.environ) == env_before
    np.testing.assert_array_equal(a.feasible, b.feasible)
    np.testing.assert_array_equal(a.cost, b.cost)
    np.testing.assert_array_equal(a.rel_gap, b.rel_gap)


def test_grid_requires_2d(ac4d_prob, ac4d_design_eff):
    with pytest.raises(ValueError):
        feasible_region_grid(ac4d_prob, ac4d_design_eff, 2, grid_spec=SMALL_GRID)


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
    """Unconstrained minimizer and terminal state by running the ladder on x0."""
    ell = len(ladder)
    z = np.empty(ell * sys.m)
    x = x0
    for k in range(ell):
        u = ladder[ell - 1 - k] @ x
        z[k * sys.m : (k + 1) * sys.m] = u
        x = sys.A @ x + sys.B @ u
    return z, x


@pytest.mark.parametrize("name", ["di2d", "ac4d"])
@pytest.mark.parametrize("ell", [1, 3, 100])
def test_unconstrained_map_matches_gain_ladder(request, name, ell):
    prob = request.getfixturevalue(f"{name}_prob")
    design = request.getfixturevalue(f"{name}_design_eff")
    ctl = MpcController(prob, design, ell)
    ladder = _gain_ladder(prob.sys, design.K, ell)
    lo, hi = prob.box
    for x0 in np.random.default_rng(ell).uniform(lo, hi, size=(20, prob.sys.n)):
        z_ref, x_ref = _ladder_candidate(prob.sys, ladder, x0)
        for got, ref in ((ctl._Z @ x0, z_ref), (ctl._T @ x0, x_ref)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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
            z_unc, _ = _ladder_candidate(di2d_prob.sys, ladder, x0)
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


def test_wrapper_controllers_die_with_their_design(di2d_prob):
    refs = []
    for _ in range(40):
        design = TerminalDesign.for_amplified_cost(di2d_prob, ZEFF_2D)
        assert math.isfinite(approx_optimal_cost(di2d_prob, design, np.array([0.5, -0.3])))
        refs.append(weakref.ref(design))
        del design
    gc.collect()
    assert all(r() is None for r in refs)


def test_wrapper_controllers_follow_the_problem(di2d_sys, di2d_prob):
    design = TerminalDesign.for_amplified_cost(di2d_prob, ZEFF_2D)
    size = len(pickle.dumps(design))
    mpc_policy(di2d_prob, design, 3, np.zeros(2))
    # the cached controllers stay in this process
    assert len(pickle.dumps(design)) == size
    other = ConstrainedProblem(di2d_sys, di2d_prob.Xhat, di2d_prob.U)
    mpc_policy(other, design, 3, np.zeros(2))
    assert design._controllers[3].prob is other


def _perturbed(name, p, z, mu):
    """A copy of the dual method's solution that breaks one KKT condition:
    z moved out along an active row (primal, and dual with it), that row's
    multiplier raised (dual), or both multipliers of a pair of opposite rows
    raised, one of them slack (complementarity)."""
    active = int(np.argmax(mu))
    if name == "primal":
        return z + 1e-5 * p.G[active] / p.row_scale[active], mu
    mu = mu.copy()
    if name == "dual":
        mu[active] += 1e-5
        return z, mu
    i, j = next((i, j) for i in range(p.g.size) for j in range(i)
                if p.row_scale[i] > 0 and np.array_equal(p.G[i], -p.G[j]))
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
        z, mu, nu, iters, blocked = dual_active_set(p)
        return (*_perturbed(name, p, z, mu), nu, iters, blocked)

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
    ctl._cert_a = ctl._cert_a[:0]
    ctl._cert_b = ctl._cert_b[:0]
    return ctl


def _same_step(a, b) -> bool:
    return a.feasible == b.feasible and np.float64(a.value).tobytes() == np.float64(b.value).tobytes()


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


@pytest.fixture(scope="module")
def lp_pool():
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        yield pool


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("ell", [3, 10])
def test_certificates_match_lp_on_every_grid_cell(di2d_prob, request, which, ell, lp_pool):
    """The example-3 grid (101x101) of the sweep against the LP-every-time
    path.

    The store only ever answers "infeasible", and a cell it does not answer
    runs the same QP as a controller without a store.  So the two can differ
    only on cells the sweep calls infeasible, and each of those gets a
    Phase-1 LP of its own.
    """
    design = request.getfixturevalue(f"di2d_design_{which}")
    grid = feasible_region_grid(di2d_prob, design, ell, load_scenario("di-2d").grid_spec(),
                                workers=2)
    assert grid.feasible.shape == (101, 101)
    iy, ix = np.nonzero(~grid.feasible)
    assert iy.size > 5000
    assert np.all(grid.cost[iy, ix] == math.inf)
    points = np.column_stack([grid.xs[ix], grid.ys[iy]])
    chunks = [(di2d_prob, design, ell, c) for c in np.array_split(points, 2)]
    verdicts = np.concatenate(lp_pool.map(lp_verdicts, chunks))
    assert not verdicts.any(), points[verdicts]


@pytest.mark.parametrize("which", ["eff", "opt"])
@pytest.mark.parametrize("ell", [3, 10])
def test_dual_qp_matches_reference_on_every_grid_cell(di2d_prob, request, which, ell,
                                                      lp_pool):
    """The example-3 grid (101x101) against the Phase-1 LP and primal
    active-set solver that the dual method replaced: the controller's verdict
    on every cell, and on every feasible cell both the controller's value
    and the dual method's own objective (no shortcut), within 1e-12 of the
    reference's, relative to max(1, |reference|)."""
    design = request.getfixturevalue(f"di2d_design_{which}")
    xs, ys = cmpc._grid_axes(di2d_prob, load_scenario("di-2d").grid_spec())
    points = np.array([(x, y) for y in ys for x in xs])
    assert len(points) == 101 * 101
    chunks = [(di2d_prob, design, ell, c) for c in np.array_split(points, 2)]
    reference = [r for part in lp_pool.map(reference_results, chunks) for r in part]
    ctl = MpcController(di2d_prob, design, ell)
    n_feasible = 0
    for x0, (status, objective) in zip(points, reference):
        assert status in ("optimal", "infeasible"), (x0, status)
        step = ctl.solve(x0)
        assert step.feasible == (status == "optimal"), x0
        if step.feasible:
            n_feasible += 1
            tol = 1e-12 * max(1.0, abs(objective))
            assert abs(step.value - objective) <= tol, x0
            sol = solve_qp(ctl.qp_at(x0))
            assert sol.status == "optimal" and abs(sol.objective - objective) <= tol, x0
    assert 3000 < n_feasible < 101 * 101 - 3000


_BITS_CODE = """\
import numpy as np
from lqmpc import TerminalDesign, approx_optimal_cost, cmpc, load_scenario
qps = []
solve_qp = cmpc.solve_qp
cmpc.solve_qp = lambda p: qps.append(1) or solve_qp(p)
sc = load_scenario("di-2d")
prob = sc.constrained_problem()
design = TerminalDesign.for_amplified_cost(prob, sc.amplification())
costs = [approx_optimal_cost(prob, design, np.array(x0)) for x0 in ([-4.5, 2.9], [-2.0, 3.0])]
print(len(qps), np.array(costs).tobytes().hex())
"""


def test_horizon_100_costs_do_not_depend_on_blas_threads():
    """The ell = 100 closed loops of two di-2d states, with horizon-100 QPs on
    their way, give the same bits under one- and two-thread BLAS, each in a
    fresh interpreter (the thread count is read when BLAS loads)."""
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.path.dirname(os.path.dirname(cmpc.__file__))}
        proc = subprocess.run([sys.executable, "-c", _BITS_CODE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert int(out[0][0]) > 0
    assert out[0] == out[1]


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


def test_simulate_cost_is_the_trajectory_cost_to_the_ball(di2d_prob, di2d_design_eff):
    """Both closed loops run the same moves: the realized cost is the sum of
    the trajectory's stage costs, in order, up to the first state in the
    terminal ball, plus the tail cost there, bit for bit."""
    ctl = MpcController(di2d_prob, di2d_design_eff, 3)
    x0 = np.array([-4.0, 1.8])
    rows = ctl.simulate_trajectory(x0, 200)
    ball_tol = 1e-6 * di2d_prob.box_radius
    k_ball = next(r["k"] for r in rows
                  if contains(di2d_design_eff.S, r["x"]) and np.linalg.norm(r["x"]) <= ball_tol)
    assert 0 < k_ball < len(rows) and all(r["feasible"] for r in rows)
    total = 0.0
    for r in rows[:k_ball]:
        total += r["stage"]
    x = rows[k_ball]["x"]
    assert ctl.simulate_cost(x0) == total + float(x @ ctl.tail_cost @ x)
