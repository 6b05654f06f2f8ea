"""Dense convex QP solver and the condensed finite-horizon program."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmpc import (
    ConstrainedProblem,
    HPolytope,
    MpcController,
    QpProblem,
    TerminalDesign,
    greedy_gain,
    iterate_bellman,
    solve_qp,
    zeta_dare,
)
from lqmpc import qp
from conftest import ZEFF_2D
from _checks import check_qp_oracle, reference_solve_qp


def _qp(P, q, G=None, g=None, E=None, e=None):
    n = len(q)
    return QpProblem(
        P=np.asarray(P, dtype=float),
        q=np.asarray(q, dtype=float),
        G=np.zeros((0, n)) if G is None else np.asarray(G, dtype=float),
        g=np.zeros(0) if g is None else np.asarray(g, dtype=float),
        E=np.zeros((0, n)) if E is None else np.asarray(E, dtype=float),
        e=np.zeros(0) if e is None else np.asarray(e, dtype=float),
    )


# ---------------------------------------------------------------------------
# solve_qp
# ---------------------------------------------------------------------------

def test_unconstrained_minimum():
    sol = solve_qp(_qp(np.eye(2), [-1.0, -1.0]))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, [1.0, 1.0], atol=1e-9)
    assert sol.objective == pytest.approx(-1.0)


def test_clipping():
    # min (u-3)^2 s.t. |u| <= 1  ->  u = 1
    sol = solve_qp(_qp([[2.0]], [-6.0], G=[[1.0], [-1.0]], g=[1.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(1.0, abs=1e-9)
    # active upper bound carries the positive multiplier 2(u-3) + mu = 0
    assert sol.duals_ineq[0] == pytest.approx(4.0, abs=1e-7)
    assert sol.duals_ineq[1] == pytest.approx(0.0, abs=1e-9)


def test_equality_constraint():
    # min z'z s.t. z1 + z2 = 1  ->  (0.5, 0.5)
    sol = solve_qp(_qp(2 * np.eye(2), [0.0, 0.0], E=[[1.0, 1.0]], e=[1.0]))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-9)


def test_duplicate_equality_rows():
    sol = solve_qp(
        _qp(2 * np.eye(2), [0.0, 0.0], E=[[1.0, 1.0], [2.0, 2.0]], e=[1.0, 2.0])
    )
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-9)


def test_kkt_residuals_certified():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        P = M @ M.T + 0.2 * np.eye(n)
        q = rng.standard_normal(n)
        G = np.vstack([np.eye(n), -np.eye(n)])
        g = np.full(2 * n, 1.5)
        sol = solve_qp(_qp(P, q, G=G, g=g))
        assert sol.status == "optimal"
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert sol.comp_residual <= 1e-8
        assert (sol.duals_ineq >= -1e-9).all()


def test_infeasible_returns_farkas():
    sol = solve_qp(_qp(np.eye(1), [0.0], G=[[1.0], [-1.0]], g=[-2.0, -2.0]))
    assert sol.status == "infeasible"
    y = sol.farkas
    assert y is not None
    # Farkas certificate: y >= 0, G'y = 0, g'y < 0
    assert (y >= -1e-12).all()
    assert abs(np.array([[1.0], [-1.0]]).T @ y).max() <= 1e-9
    assert y @ np.array([-2.0, -2.0]) < -1e-9


def test_infeasible_equalities_return_farkas():
    # z = 0 and z = 1 at once: the Phase-1 LP itself is infeasible
    E, e = np.array([[1.0], [1.0]]), np.array([0.0, 1.0])
    sol = solve_qp(_qp(np.eye(1), [0.0], E=E, e=e))
    assert sol.status == "infeasible"
    w = sol.farkas
    assert np.abs(w).sum() > 0.0
    assert abs(E.T @ w).max() <= 1e-9 * np.abs(w).sum()
    assert e @ w < 0.0


def test_farkas_with_mixed_constraints():
    # z1 + z2 = 4 with z1, z2 <= 1: the certificate spans G's and E's rows
    G, g = np.eye(2), np.ones(2)
    E, e = np.array([[1.0, 1.0]]), np.array([4.0])
    sol = solve_qp(_qp(np.eye(2), [0.0, 0.0], G=G, g=g, E=E, e=e))
    assert sol.status == "infeasible"
    y, w = sol.farkas[:2], sol.farkas[2:]
    assert (y >= 0.0).all()
    assert abs(G.T @ y + E.T @ w).max() <= 1e-9 * np.abs(sol.farkas).sum()
    assert g @ y + e @ w < 0.0


def test_phase1_failure_without_certificate_raises(monkeypatch):
    from types import SimpleNamespace

    from lqmpc import qp

    monkeypatch.setattr(
        qp, "linprog",
        lambda *a, **k: SimpleNamespace(status=4, message="numerical difficulties"),
    )
    with pytest.raises(ArithmeticError, match="HiGHS status 4: numerical difficulties"):
        solve_qp(_qp(np.eye(1), [0.0], G=[[1.0], [-1.0]], g=[-2.0, -2.0]))


def test_qp_oracle_equivalence():
    """200 random small QPs against exhaustive active-set enumeration."""
    msg = check_qp_oracle(n_instances=200)
    assert "agree" in msg


# min z^2/2 s.t. -1 <= z <= 1 and z = 0: z = 0 with zero multipliers.  Each
# perturbed solution below breaks exactly one KKT condition by 1e-6.
_GATE_CASES = {
    "primal": ([1e-6], [0.0, 0.0], [-1e-6]),  # z off the equality, nu balancing it
    "dual": ([0.0], [0.0, 0.0], [1e-6]),  # an unbalanced equality multiplier
    "comp": ([0.0], [1e-6, 1e-6], [0.0]),  # multipliers on two slack rows
}


@pytest.mark.parametrize("name", sorted(_GATE_CASES))
def test_kkt_gate_rejects_each_residual(name, monkeypatch):
    p = _qp([[1.0]], [0.0], G=[[1.0], [-1.0]], g=[1.0, 1.0], E=[[1.0]], e=[0.0])
    exact = solve_qp(p)
    assert exact.status == "optimal" and exact.z[0] == 0.0
    z, mu, nu = (np.array(v) for v in _GATE_CASES[name])
    monkeypatch.setattr(qp, "_dual_active_set", lambda p: (z, mu, nu, 1, None))
    sol = solve_qp(p)
    assert sol.status == "inaccurate"
    residuals = {"primal": sol.primal_residual, "dual": sol.dual_residual,
                 "comp": sol.comp_residual}
    assert residuals.pop(name) == pytest.approx(1e-6, rel=1e-12)
    assert max(residuals.values()) <= 1e-12


def test_blocked_row_on_a_feasible_qp_raises(monkeypatch):
    # a dual method that wrongly finds no step for row 0 of a feasible QP:
    # the Phase-1 LP finds a point, and the solver refuses to call it
    # infeasible
    p = _qp(np.eye(1), [0.0], G=[[1.0], [-1.0]], g=[1.0, 1.0])
    monkeypatch.setattr(qp, "_dual_active_set",
                        lambda p: (np.zeros(1), np.zeros(2), np.zeros(0), 1, 0))
    with pytest.raises(ArithmeticError, match="no step for row 0 .* within 0.00e"):
        solve_qp(p)


def test_derived_qps_reuse_the_template_factor(monkeypatch):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4))
    template = _qp(M @ M.T + np.eye(4), np.zeros(4),
                   G=np.vstack([np.eye(4), -np.eye(4)]), g=np.ones(8))
    np.testing.assert_allclose(template.factor.T @ template.P @ template.factor,
                               np.eye(4), atol=1e-12)
    calls = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a):
        calls.append(1)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    for _ in range(20):
        q = 5.0 * rng.standard_normal(4)
        derived = template.with_linear_terms(q, np.ones(8))
        assert derived.factor is template.factor
        sol = solve_qp(derived)
        assert sol.status == "optimal" and sol.iterations >= 1
    assert calls == []


@st.composite
def _random_qps(draw):
    """Strictly convex QPs with box rows, general rows and equality rows,
    some duplicated, some inconsistent, some with a contradictory pair of
    rows."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((n, n))
    P = M @ M.T + draw(st.sampled_from([1e-3, 0.1, 1.0])) * np.eye(n)
    q = rng.standard_normal(n) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    radius = rng.uniform(0.2, 3.0, size=n)
    n_gen = draw(st.integers(0, 4))
    G = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((n_gen, n))])
    g = np.concatenate([radius, radius, rng.uniform(-1.0, 2.0, size=n_gen)])
    if draw(st.integers(0, 3)) == 0:  # a pair a'z <= -c, -a'z <= -c, c > 0
        a = rng.standard_normal(n)
        G = np.vstack([G, a, -a])
        g = np.r_[g, -rng.uniform(0.01, 1.0, size=2)]
    n_eq = draw(st.integers(0, n - 1))
    E = rng.standard_normal((n_eq, n))
    e = 0.1 * rng.standard_normal(n_eq)
    if n_eq and draw(st.booleans()):  # a scaled copy of an equality row
        k = draw(st.sampled_from([1.0, -2.0, 3.5]))
        E, e = np.vstack([E, k * E[0]]), np.r_[e, k * e[0]]
    if n_eq and draw(st.integers(0, 2)) == 0:  # the same row, another offset
        E, e = np.vstack([E, E[-1]]), np.r_[e, e[-1] + draw(st.sampled_from([0.5, -1.0]))]
    return QpProblem(P=P, q=q, G=G, g=g, E=E.reshape(-1, n), e=e)


@settings(max_examples=300, deadline=None)
@given(p=_random_qps())
def test_dual_active_set_matches_reference(p):
    sol = solve_qp(p)
    status, _, objective = reference_solve_qp(p)
    assert sol.status == status
    if status == "optimal":
        assert abs(sol.objective - objective) <= 1e-10 * max(1.0, abs(objective))
    else:
        assert sol.farkas is not None


def test_psd_validation():
    with pytest.raises(ValueError):
        solve_qp(_qp([[-1.0]], [0.0]))


def test_with_linear_terms_matches_direct_build():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((3, 3))
    P = M @ M.T + 0.1 * np.eye(3)
    G = np.vstack([np.eye(3), -np.eye(3)])
    template = _qp(P, np.zeros(3), G=G, g=np.ones(6))
    q, g = rng.standard_normal(3), np.full(6, 0.5)
    derived = template.with_linear_terms(q, g, objective_offset=2.0)
    direct = QpProblem(P=P, q=q, G=G, g=g, objective_offset=2.0)
    assert derived.min_eig == direct.min_eig
    np.testing.assert_array_equal(derived.row_scale, direct.row_scale)
    a, b = solve_qp(derived), solve_qp(direct)
    np.testing.assert_array_equal(a.z, b.z)
    assert a.objective == b.objective
    # the template itself is left as it was
    np.testing.assert_array_equal(template.q, np.zeros(3))
    with pytest.raises(ValueError):
        template.with_linear_terms(np.zeros(2), g)


# ---------------------------------------------------------------------------
# the condensed QP of MpcController
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def di2d_pieces(di2d_sys):
    Xhat = HPolytope.symmetric_box([5.0, 5.0])
    U = HPolytope.symmetric_box([1.0])
    K = zeta_dare(di2d_sys, ZEFF_2D)
    # terminal set: invariant set of the amplified design (module under test
    # only needs *some* valid S here)
    from lqmpc import LqSystem, maximal_invariant_set

    amplified = LqSystem(di2d_sys.A, di2d_sys.B, di2d_sys.Q, ZEFF_2D * di2d_sys.R)
    gain = greedy_gain(amplified, K)
    S = maximal_invariant_set(gain.closed_loop, Xhat, U, gain.L)
    return Xhat, U, S, K, gain


def _condensed(sys, Xhat, U, S, K, gain, ell, x0) -> QpProblem:
    design = TerminalDesign(K=K, S=S, gain=gain)
    return MpcController(ConstrainedProblem(sys, Xhat, U), design, ell).qp_at(x0)


def test_condensed_one_step_gain(di2d_sys, di2d_pieces):
    # with constraints wide enough to stay inactive, the ell=1 minimizer is
    # the greedy gain applied to x0
    _, _, S, K, gain = di2d_pieces
    big = HPolytope.symmetric_box([1e6, 1e6])
    bigU = HPolytope.symmetric_box([1e6])
    bigS = HPolytope.symmetric_box([1e6, 1e6])
    x0 = np.array([0.7, -0.4])
    prob = _condensed(di2d_sys, big, bigU, bigS, K, gain, 1, x0)
    sol = solve_qp(prob)
    expected = greedy_gain(di2d_sys, K).L @ x0
    np.testing.assert_allclose(sol.z, expected, atol=1e-8)


def test_condensed_origin(di2d_sys, di2d_pieces):
    prob = _condensed(di2d_sys, *di2d_pieces, 3, np.zeros(2))
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, np.zeros(3), atol=1e-9)
    # objective already includes the x0-dependent constant term
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_condensed_objective_value(di2d_sys, di2d_pieces):
    # QP optimum must equal the simulated finite-horizon cost of its minimizer
    K = di2d_pieces[3]
    x0 = np.array([-2.0, 0.8])
    ell = 3
    prob = _condensed(di2d_sys, *di2d_pieces, ell, x0)
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    x = x0.copy()
    total = 0.0
    for k in range(ell):
        u = sol.z[k : k + 1]
        total += x @ di2d_sys.Q @ x + u @ di2d_sys.R @ u
        x = di2d_sys.A @ x + di2d_sys.B @ u
    total += x @ K @ x
    assert sol.objective == pytest.approx(total, rel=1e-9)


def test_condensed_infeasible_outside_box(di2d_sys, di2d_pieces):
    prob = _condensed(di2d_sys, *di2d_pieces, 3, np.array([6.0, 0.0]))
    assert solve_qp(prob).status == "infeasible"


def test_condensed_hessian_psd(di2d_sys, di2d_pieces):
    from lqmpc import min_eigenvalue

    for ell in (1, 2, 5, 8):
        prob = _condensed(di2d_sys, *di2d_pieces, ell, np.zeros(2))
        assert min_eigenvalue(prob.P) >= -1e-9


def test_condensed_feasibility_boundary(di2d_sys, di2d_pieces):
    # status flips from optimal to infeasible across the region boundary
    x_in = np.array([0.0, 1.0])
    x_out = np.array([0.0, 4.9])  # too much velocity to stop within the box
    assert solve_qp(_condensed(di2d_sys, *di2d_pieces, 3, x_in)).status == "optimal"
    assert (
        solve_qp(_condensed(di2d_sys, *di2d_pieces, 3, x_out)).status
        == "infeasible"
    )


def test_condensed_unconstrained_agreement(di2d_sys, di2d_pieces):
    # interior start with inactive constraints: first control equals the
    # ell-horizon design gain
    K = di2d_pieces[3]
    ell = 3
    x0 = np.array([0.15, -0.1])
    prob = _condensed(di2d_sys, *di2d_pieces, ell, x0)
    sol = solve_qp(prob)
    Kbar = iterate_bellman(di2d_sys, K, ell - 1)
    u_gain = greedy_gain(di2d_sys, Kbar).L @ x0
    assert abs(sol.z[0] - u_gain[0]) <= 1e-6
