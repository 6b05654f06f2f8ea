"""Riccati/Bellman operator layer: F, F_L, DARE, greedy gains, the region
of decreasing, and closed-loop cost matrices."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmpc import (
    GainPolicy,
    LqSystem,
    bellman_op,
    closed_loop_cost,
    greedy_gain,
    induced_two_norm,
    in_region_of_decreasing,
    iterate_bellman,
    psd_order_holds,
    solve_dare,
    spectral_radius,
    symmetrize,
    zeta_dare,
)
from lqmpc import riccati
from conftest import ZEFF_2D, ZEFF_4D
from _checks import (
    check_operator_monotonicity,
    check_region_invariance,
    policy_bellman_op,
    reference_bellman_op,
    reference_greedy_gain,
    reference_iterate_bellman,
    reference_solve_dare,
)

SCALAR_KSTAR = (121 + math.sqrt(14801)) / 2  # root of 0.25K^2 - 30.25K - 10


# ---------------------------------------------------------------------------
# bellman_op / policy_bellman_op
# ---------------------------------------------------------------------------

def test_bellman_zero_cost(di2d_sys):
    np.testing.assert_allclose(bellman_op(di2d_sys, np.zeros((2, 2))), np.eye(2))


def test_bellman_fixed_point_scalar(scalar_sys):
    K = np.array([[SCALAR_KSTAR]])
    assert abs(bellman_op(scalar_sys, K)[0, 0] - SCALAR_KSTAR) <= 1e-8


def test_bellman_decreases_at_180(scalar_sys):
    # K = 180 sits inside the region of decreasing
    assert bellman_op(scalar_sys, np.array([[180.0]]))[0, 0] < 180.0
    assert in_region_of_decreasing(scalar_sys, np.array([[180.0]]))


def test_bellman_dim_mismatch(scalar_sys):
    with pytest.raises(ValueError):
        bellman_op(scalar_sys, np.eye(2))


def test_policy_op_zero_cost(scalar_sys):
    L = GainPolicy.from_system(scalar_sys, np.array([[-1.0]]))
    out = policy_bellman_op(scalar_sys, L, np.zeros((1, 1)))
    # Q + L'RL = 1 + 10 = 11
    assert out[0, 0] == pytest.approx(11.0)


def test_policy_op_at_optimum(scalar_sys, scalar_dare):
    Kstar, Lstar = scalar_dare
    out = policy_bellman_op(scalar_sys, Lstar, Kstar)
    np.testing.assert_allclose(out, Kstar, rtol=1e-10)


def test_policy_op_direct_formula(scalar_sys):
    # L = 0: (A)'K(A) + Q = 4*1 + 1 = 5
    L0 = GainPolicy.from_system(scalar_sys, np.zeros((1, 1)))
    assert policy_bellman_op(scalar_sys, L0, np.eye(1))[0, 0] == pytest.approx(5.0)


def test_policy_op_dominates_bellman(di2d_sys):
    rng = np.random.default_rng(2)
    for _ in range(20):
        K = rng.standard_normal((2, 2))
        K = K @ K.T
        L = GainPolicy.from_system(di2d_sys, rng.standard_normal((1, 2)))
        FK = bellman_op(di2d_sys, K)
        FLK = policy_bellman_op(di2d_sys, L, K)
        assert psd_order_holds(FLK, FK)


# ---------------------------------------------------------------------------
# greedy_gain
# ---------------------------------------------------------------------------

def test_greedy_at_optimum_scalar(scalar_sys, scalar_dare):
    Kstar, Lstar = scalar_dare
    L = greedy_gain(scalar_sys, Kstar)
    assert L.L[0, 0] == pytest.approx(-3.008242006390309, rel=1e-9)
    np.testing.assert_allclose(L.L, Lstar.L, rtol=1e-9)


def test_greedy_zero_cost(di2d_sys):
    assert np.all(greedy_gain(di2d_sys, np.zeros((2, 2))).L == 0)


def test_greedy_defining_identity(di2d_sys):
    Kbar = zeta_dare(di2d_sys, 50.0)
    L = greedy_gain(di2d_sys, Kbar)
    lhs = policy_bellman_op(di2d_sys, L, Kbar)
    rhs = bellman_op(di2d_sys, Kbar)
    err = induced_two_norm(lhs - rhs)
    assert err <= 1e-9 * max(1.0, induced_two_norm(rhs))


def test_greedy_closed_loop_cached(di2d_sys):
    L = greedy_gain(di2d_sys, np.eye(2))
    np.testing.assert_array_equal(L.closed_loop, di2d_sys.A + di2d_sys.B @ L.L)


# ---------------------------------------------------------------------------
# solve_dare
# ---------------------------------------------------------------------------

def test_dare_scalar_exact(scalar_dare):
    Kstar, Lstar = scalar_dare
    assert Kstar[0, 0] == pytest.approx(SCALAR_KSTAR, rel=1e-12)
    assert spectral_radius(Lstar.closed_loop) < 1


def test_dare_zero_dynamics():
    sys = LqSystem(np.zeros((2, 2)), np.eye(2), 2.0 * np.eye(2), np.eye(2))
    Kstar, Lstar = solve_dare(sys)
    np.testing.assert_allclose(Kstar, 2.0 * np.eye(2), rtol=1e-10)
    np.testing.assert_allclose(Lstar.L, np.zeros((2, 2)), atol=1e-12)


def test_dare_names_a_pair_that_is_not_stabilizable():
    # with B = 0 the unstable mode cannot be steered: the PBH rank test
    # reports it as the documented arithmetic error rather than as an
    # invalid matrix
    sys = LqSystem(np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))
    with pytest.raises(ArithmeticError, match=r"\(A, B\) may not be stabilizable"):
        solve_dare(sys)


@pytest.mark.parametrize("A, B", [([[1.0, 1.0], [0.0, 1.0]], [[0.0], [0.0]]),
                                  ([[1.0, 0.0], [0.0, 0.5]], [[0.0], [1.0]])],
                         ids=["double-integrator-B0", "unsteered-unit-mode"])
def test_dare_rejects_an_unsteerable_unit_mode_at_once(A, B):
    # the value iterates of these pairs grow only polynomially, so without
    # the PBH rank test they run all 100 000 steps (seconds) before raising
    sys = LqSystem(np.array(A), np.array(B), np.eye(2), np.eye(1))
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match=r"eigenvalue 1 of A is not controllable "
                       r"\(PBH rank test\); \(A, B\) may not be stabilizable"):
        solve_dare(sys)
    assert time.perf_counter() - start < 1.0


def _gaussian_draw(index):
    """Draw `index` (from 0) of the seeded Gaussian pairs: per draw n in 1..4,
    m in 1..2, then A and B standard normal."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    return A, B


@pytest.mark.parametrize("index", [783, 806, 1643])
def test_dare_of_a_far_from_normal_kleinman_loop_matches_scipy(index):
    # the Kleinman step's Lyapunov solve on these pairs meets a stable loop
    # with |D|_2 of 75 and 93: its converged P left a residual of about
    # 1.5e-11 |P|, which a check against 1e-11 |P| never passed; the check
    # now allows for the rounding in D'PD, 1e-11 |D|^2 |P|.  On draw 1643
    # (|D|_2 ~ 601) the Riccati residual itself stalls near 7e-4, above
    # DARE_TOL |K| but within DARE_TOL |D|^2 |K|, so the last Kleinman
    # iterate is accepted at that scale
    from scipy.linalg import solve_discrete_are

    A, B = _gaussian_draw(index)
    n, m = B.shape
    Kstar, gain = solve_dare(LqSystem(A, B, np.eye(n), np.eye(m)))
    ref = solve_discrete_are(A, B, np.eye(n), np.eye(m))
    assert induced_two_norm(ref) > 1e4
    assert induced_two_norm(Kstar - ref) <= 1e-9 * induced_two_norm(ref)
    assert spectral_radius(gain.closed_loop) < 1


def test_dare_2d_design_distance(di2d_sys, di2d_dare, di2d_K_eff):
    Kstar, _ = di2d_dare
    assert induced_two_norm(di2d_K_eff - Kstar) == pytest.approx(9.9, rel=1e-9)


def test_dare_cross_check_scipy():
    # dual route: scipy's DARE solver on random stabilizable systems
    from scipy.linalg import solve_discrete_are

    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        W = rng.standard_normal((n, n))
        Q = W @ W.T + 0.1 * np.eye(n)
        R = np.eye(m) * float(rng.uniform(0.5, 5.0))
        sys = LqSystem(A, B, Q, R)
        Kstar, _ = solve_dare(sys)
        ref = solve_discrete_are(A, B, Q, R)
        np.testing.assert_allclose(Kstar, ref, rtol=1e-8, atol=1e-8)


def test_dare_residual(ac4d_sys, ac4d_dare):
    Kstar, _ = ac4d_dare
    resid = induced_two_norm(bellman_op(ac4d_sys, Kstar) - Kstar)
    assert resid <= 1e-10 * max(1.0, induced_two_norm(Kstar))


# ---------------------------------------------------------------------------
# zeta_dare
# ---------------------------------------------------------------------------

def test_zeta_one_recovers_optimum(di2d_sys, di2d_dare):
    Kstar, _ = di2d_dare
    np.testing.assert_allclose(zeta_dare(di2d_sys, 1.0), Kstar, rtol=1e-9)


def test_zeta_one_is_the_system_itself(di2d_prob):
    # the optimal design is the amplified one at zeta = 1, with one solve
    from lqmpc import TerminalDesign

    sys = di2d_prob.sys
    assert sys.amplified(1.0) is sys
    assert zeta_dare(sys, 1.0) is sys.optimal[0]
    design = TerminalDesign.for_optimal_cost(di2d_prob)
    assert design.K is sys.optimal[0] and design.gain is sys.optimal[1]
    assert design.zeta == 1.0


def test_zeta_design_2d_ratio(di2d_dare, di2d_K_eff):
    Kstar, _ = di2d_dare
    ratio = induced_two_norm(di2d_K_eff) / induced_two_norm(Kstar)
    assert ratio == pytest.approx(2.5121540456, rel=1e-9)


def test_zeta_design_4d(ac4d_dare, ac4d_K_eff):
    Kstar, _ = ac4d_dare
    ratio = induced_two_norm(ac4d_K_eff) / induced_two_norm(Kstar)
    dist = induced_two_norm(ac4d_K_eff - Kstar)
    assert ratio == pytest.approx(4.3410777858, rel=1e-9)
    assert dist == pytest.approx(486.1339874734, rel=1e-9)


def test_zeta_design_in_region(di2d_sys, ac4d_sys):
    for sys, z in ((di2d_sys, 50.0), (di2d_sys, ZEFF_2D), (ac4d_sys, ZEFF_4D)):
        assert in_region_of_decreasing(sys, zeta_dare(sys, z))


def test_zeta_satisfies_amplified_equation(di2d_sys):
    # K = A'(K - KB(B'KB + zR)^-1 B'K)A + Q with the inflated input weight
    z = 50.0
    K = zeta_dare(di2d_sys, z)
    amplified = LqSystem(di2d_sys.A, di2d_sys.B, di2d_sys.Q, z * di2d_sys.R)
    resid = induced_two_norm(bellman_op(amplified, K) - K)
    assert resid <= 1e-10 * max(1.0, induced_two_norm(K))


def test_zeta_dare_and_amplified_design_solve_once(di2d_prob, monkeypatch):
    # zeta_dare and the terminal design at the same zeta share one solve
    from lqmpc import ConstrainedProblem, TerminalDesign, riccati

    calls = []

    def counting_solve_dare(*args, **kwargs):
        calls.append(1)
        return solve_dare(*args, **kwargs)

    expected = solve_dare(LqSystem(di2d_prob.sys.A, di2d_prob.sys.B, di2d_prob.sys.Q,
                                   ZEFF_2D * di2d_prob.sys.R))[0]
    prob = ConstrainedProblem(LqSystem(di2d_prob.sys.A, di2d_prob.sys.B,
                                       di2d_prob.sys.Q, di2d_prob.sys.R),
                              di2d_prob.Xhat, di2d_prob.U)
    monkeypatch.setattr(riccati, "solve_dare", counting_solve_dare)
    K = zeta_dare(prob.sys, ZEFF_2D)
    design = TerminalDesign.for_amplified_cost(prob, ZEFF_2D)
    assert len(calls) == 1
    assert design.K is K
    assert K.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        K[0, 0] = 1.0
    # another zeta replaces the kept system; coming back solves afresh
    zeta_dare(prob.sys, 50.0)
    assert zeta_dare(prob.sys, ZEFF_2D).tobytes() == expected.tobytes()
    assert len(calls) == 3


def test_amplified_system_not_pickled(di2d_sys):
    import pickle

    sys = LqSystem(di2d_sys.A, di2d_sys.B, di2d_sys.Q, di2d_sys.R)
    amp = sys.amplified(2.0)
    assert sys.amplified(2.0) is amp
    copy = pickle.loads(pickle.dumps(sys))
    assert "_amplified" not in vars(copy)
    assert copy.amplified(2.0) is not amp
    np.testing.assert_array_equal(copy.amplified(2.0).R, amp.R)


# ---------------------------------------------------------------------------
# iterate_bellman / in_region_of_decreasing
# ---------------------------------------------------------------------------

def test_iterate_zero_steps(di2d_sys, di2d_K_eff):
    np.testing.assert_array_equal(iterate_bellman(di2d_sys, di2d_K_eff, 0), di2d_K_eff)


def test_iterate_converges_scalar(scalar_sys):
    K200 = iterate_bellman(scalar_sys, np.array([[180.0]]), 200)
    assert K200[0, 0] == pytest.approx(SCALAR_KSTAR, rel=1e-10)


def test_region_membership_basics(scalar_sys, scalar_dare):
    Kstar, _ = scalar_dare
    assert in_region_of_decreasing(scalar_sys, Kstar)  # boundary case
    assert not in_region_of_decreasing(scalar_sys, np.zeros((1, 1)))


def test_region_invariance_under_f(scalar_sys, di2d_sys, di2d_K_eff):
    """Iterates of matrices in D stay in D and dominate K* (shared property)."""
    msg = check_region_invariance(scalar_sys, [np.array([[180.0]])], kmax=20)
    assert "20" in msg
    check_region_invariance(di2d_sys, [di2d_K_eff, zeta_dare(di2d_sys, 50.0)], kmax=20)


# ---------------------------------------------------------------------------
# closed_loop_cost
# ---------------------------------------------------------------------------

def test_closed_loop_cost_at_optimum(di2d_sys, di2d_dare):
    Kstar, Lstar = di2d_dare
    np.testing.assert_allclose(closed_loop_cost(di2d_sys, Lstar), Kstar, rtol=1e-9)


def test_closed_loop_cost_scalar_gap(scalar_sys, scalar_dare):
    # one-step design from K = 180: infinite-horizon penalty about 3.3
    Kstar, _ = scalar_dare
    L = greedy_gain(scalar_sys, np.array([[180.0]]))
    gap = induced_two_norm(closed_loop_cost(scalar_sys, L) - Kstar)
    assert gap == pytest.approx(3.2512721253, rel=1e-9)


def test_closed_loop_cost_lyapunov_sum():
    sys = LqSystem(np.array([[0.5]]), np.eye(1), np.eye(1), np.eye(1))
    L0 = GainPolicy.from_system(sys, np.zeros((1, 1)))
    assert closed_loop_cost(sys, L0)[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-11)


def test_closed_loop_cost_unstable_raises(scalar_sys):
    wild = GainPolicy.from_system(scalar_sys, np.array([[5.0]]))
    with pytest.raises(ValueError):
        closed_loop_cost(scalar_sys, wild)


# ---------------------------------------------------------------------------
# operator properties
# ---------------------------------------------------------------------------

def test_operator_monotonicity_suite(scalar_sys, di2d_sys, ac4d_sys):
    msg = check_operator_monotonicity([scalar_sys, di2d_sys, ac4d_sys], n_pairs=200)
    assert "200" in msg


def test_design_ladder_stays_stable(di2d_sys, di2d_K_eff):
    # greedy gains extracted along F^j(K) give stable loops for j = 0..9
    K = di2d_K_eff
    for _ in range(10):
        L = greedy_gain(di2d_sys, K)
        assert spectral_radius(L.closed_loop) < 1
        K = bellman_op(di2d_sys, K)


# ---------------------------------------------------------------------------
# the shared Riccati step against the textbook forms, each with its own
# B'KB + R and solve
# ---------------------------------------------------------------------------

def _assert_step_matches_two_solves(sys, K):
    L = greedy_gain(sys, K)
    L_ref = reference_greedy_gain(sys, K)
    assert L.L.tobytes() == L_ref.tobytes()
    assert L.closed_loop.tobytes() == (sys.A + sys.B @ L_ref).tobytes()
    assert bellman_op(sys, K).tobytes() == reference_bellman_op(sys, K).tobytes()
    for steps in (0, 1, 2, 5):
        assert (iterate_bellman(sys, K, steps).tobytes()
                == reference_iterate_bellman(sys, K, steps).tobytes())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_riccati_step_matches_two_solves(n, m, seed):
    rng = np.random.default_rng(seed)
    Mq, Mr, Mk = (rng.standard_normal((d, d)) for d in (n, m, n))
    sys = LqSystem(rng.standard_normal((n, n)), rng.standard_normal((n, m)),
                   Mq @ Mq.T, Mr @ Mr.T + 0.1 * np.eye(m))
    # a K that is not exactly symmetric exercises the wrappers' validation
    K = Mk @ Mk.T + 1e-3 * rng.standard_normal((n, n))
    _assert_step_matches_two_solves(sys, K)


def test_riccati_step_matches_two_solves_on_the_scenarios(
        scalar_sys, di2d_sys, ac4d_sys, di2d_K_eff, ac4d_K_eff):
    for sys, Ks in ((scalar_sys, [np.array([[180.0]])]),
                    (di2d_sys, [di2d_K_eff]),
                    (ac4d_sys, [ac4d_K_eff])):
        for K in Ks + [sys.Q, np.zeros_like(sys.Q), sys.optimal[0]]:
            _assert_step_matches_two_solves(sys, K)
        for zeta in (1.0, 5.0, 35.0):
            amplified = sys.amplified(zeta)
            K, L = solve_dare(amplified)
            K_ref, L_ref = reference_solve_dare(amplified)
            assert K.tobytes() == K_ref.tobytes()
            assert L.L.tobytes() == L_ref.tobytes()


def test_iterate_bellman_names_an_overflowing_iterate():
    # the first state is unreachable and its cost grows by 1e200 per step
    sys = LqSystem(np.diag([1e100, 0.5]), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1))
    assert np.isfinite(iterate_bellman(sys, np.eye(2), 1)).all()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite entries"):
            iterate_bellman(sys, np.eye(2), 10)


@pytest.mark.parametrize("ell", [0, 1, 2, 25, 26, 100])
@pytest.mark.parametrize("kind", ["eff", "opt"])
@pytest.mark.parametrize("name", ["di2d", "ac4d"])
def test_horizon_ladder_matches_the_step_loop(request, name, kind, ell):
    """Every gain and iterate bit for bit against one `_riccati_step` per
    rung with no cycle shortcut.  The shortcut is taken where the iterates
    repeat: on di-2d's amplified design from step 25, with period 4."""
    sys = request.getfixturevalue(f"{name}_sys")
    K = request.getfixturevalue(f"{name}_K_eff") if kind == "eff" else sys.optimal[0]
    gains, iterates = riccati._horizon_ladder(sys, K, ell)
    ref_gains, ref_iterates = [], [symmetrize(K)]
    for _ in range(ell):
        L, FK = riccati._riccati_step(sys, ref_iterates[-1])
        ref_gains.append(L)
        ref_iterates.append(FK)
    assert len(gains) == ell and len(iterates) == ell + 1
    for got, ref in zip(gains + iterates, ref_gains + ref_iterates):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
