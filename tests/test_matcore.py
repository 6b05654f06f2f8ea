"""Matrix-utility layer: norms, eigenvalues, Lyapunov solves, PSD order,
and the weighted-norm construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmpc import (
    build_weighted_norm,
    full_report,
    greedy_gain,
    induced_two_norm,
    is_stable,
    load_scenario,
    min_eigenvalue,
    psd_order_holds,
    solve_dlyap,
    spectral_radius,
    symmetrize,
    zeta_dare,
)
from _checks import check_norm_sandwich, reference_solve_dlyap


# ---------------------------------------------------------------------------
# induced_two_norm
# ---------------------------------------------------------------------------

def test_norm_identity():
    assert induced_two_norm(np.eye(3)) == pytest.approx(1.0)


def test_norm_zero():
    assert induced_two_norm(np.zeros((2, 2))) == 0.0


def test_norm_diagonal():
    # singular values of a diagonal matrix are the absolute diagonal entries
    assert induced_two_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(4.0)


def test_norm_rejects_nonfinite():
    with pytest.raises(ValueError):
        induced_two_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        induced_two_norm(np.array([[np.inf]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_norm_submultiplicative(n, seed):
    rng = np.random.default_rng(seed)
    M1 = rng.standard_normal((n, n))
    M2 = rng.standard_normal((n, n))
    prod = induced_two_norm(M1 @ M2)
    assert prod <= induced_two_norm(M1) * induced_two_norm(M2) + 1e-12


# ---------------------------------------------------------------------------
# spectral_radius / is_stable
# ---------------------------------------------------------------------------

def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, 0.25])) == pytest.approx(0.5)


def test_spectral_radius_identity():
    assert spectral_radius(np.eye(2)) == pytest.approx(1.0)


def test_spectral_radius_nilpotent():
    # characteristic polynomial is lambda^2, both eigenvalues zero
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)


def test_is_stable_matches_radius():
    assert is_stable(np.diag([0.99, -0.5]))
    assert not is_stable(np.eye(2))
    assert not is_stable(np.diag([1.5, 0.0]))


def test_spectral_radius_rotation():
    # rotation by 30 degrees scaled by 0.8: complex pair of modulus 0.8
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    M = 0.8 * np.array([[c, -s], [s, c]])
    assert spectral_radius(M) == pytest.approx(0.8, rel=1e-10)


# ---------------------------------------------------------------------------
# solve_dlyap
# ---------------------------------------------------------------------------

def test_dlyap_zero_dynamics():
    P = solve_dlyap(np.array([[0.0]]), np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(1.0)


def test_dlyap_scalar_geometric():
    # P = sum 0.25^k = 1/(1 - 0.25) = 4/3
    P = solve_dlyap(np.array([[0.5]]), np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-11)


def test_dlyap_decoupled_diagonal():
    P = solve_dlyap(np.diag([0.5, 0.5]), np.eye(2))
    np.testing.assert_allclose(P, (4.0 / 3.0) * np.eye(2), rtol=1e-11)


def test_dlyap_unstable_raises():
    with pytest.raises(ValueError):
        solve_dlyap(np.array([[1.5]]), np.eye(1))


def test_dlyap_residual_and_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        M = rng.standard_normal((n, n))
        D = 0.9 * M / max(spectral_radius(M), 1e-6)
        W = rng.standard_normal((n, n))
        Q = W @ W.T
        P = solve_dlyap(D, Q)
        np.testing.assert_allclose(P, P.T, atol=1e-14 * max(1, abs(P).max()))
        resid = induced_two_norm(P - D.T @ P @ D - Q)
        assert resid <= 1e-11 * max(1.0, induced_two_norm(P))
        assert min_eigenvalue(P) >= -1e-9


def test_dlyap_cross_check_scipy():
    # independent route: scipy's Lyapunov solver on the same data
    from scipy.linalg import solve_discrete_lyapunov

    rng = np.random.default_rng(12)
    for _ in range(10):
        M = rng.standard_normal((3, 3))
        D = 0.8 * M / max(spectral_radius(M), 1e-6)
        W = rng.standard_normal((3, 3))
        Q = W @ W.T
        ours = solve_dlyap(D, Q)
        ref = solve_discrete_lyapunov(D.T, Q)
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-10)


def test_dlyap_scale_invariant_for_tiny_q(di2d_dare):
    # P is linear in Q, so the tolerance must be relative to ||P||: an
    # absolute floor stops the doubling after one step when ||P|| << 1
    D = di2d_dare[1].closed_loop
    W = np.array([[1.0, 0.3], [0.3, 0.5]])
    s = 1e-14
    big = solve_dlyap(D, W)
    tiny = solve_dlyap(D, s * W)
    assert induced_two_norm(tiny - s * big) <= 1e-9 * induced_two_norm(s * big)


def _dlyap_cases():
    """Random stable D (n = 1-6, spectral radius up to 0.99), a nilpotent D
    whose increment reaches the zero matrix, and the closed loops the bounds
    and designs of the built-in scenarios solve for."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        D = rng.uniform(0.01, 0.99) * M / max(spectral_radius(M), 1e-6)
        W = rng.standard_normal((n, n))
        cases.append((D, W @ W.T))
    cases.append((np.triu(rng.standard_normal((4, 4)), 1), np.eye(4)))
    for name in ("lqr-scalar", "di-2d", "ac-4d"):
        sys = load_scenario(name).system
        for zeta in (1.0, 5.0):
            L = greedy_gain(sys, zeta_dare(sys, zeta)).L
            cases.append((sys.A + sys.B @ L, sys.Q + L.T @ sys.R @ L))
    return cases


# tolerances spread so that some stopping test lands within a factor of two
# of its threshold; `solve_dlyap` reads its tolerance from the module
@pytest.mark.parametrize("tol", [10.0**-k for k in range(2, 14)])
def test_dlyap_matches_one_norm_per_matrix_reference(monkeypatch, tol):
    from lqmpc import matcore

    cases = _dlyap_cases()  # solves its DAREs at the package's own tolerance
    monkeypatch.setattr(matcore, "DLYAP_TOL", tol)
    for D, Q in cases:
        assert np.array_equal(solve_dlyap(D, Q), reference_solve_dlyap(D, Q, tol))


def test_dlyap_tiny_gap_matches_exact_value(di2d_sys, di2d_K_eff):
    # 2-D, ell = 10: the gap evaluated in 60-digit arithmetic (value
    # iteration for K*, exact vectorized Lyapunov solve) is 1.8914155764e-13
    gap = full_report(di2d_sys, di2d_K_eff, 10).actual_gap
    assert gap == pytest.approx(1.8914155764e-13, rel=1e-6, abs=0.0)


# ---------------------------------------------------------------------------
# psd_order_holds
# ---------------------------------------------------------------------------

def test_psd_order_trivial():
    assert psd_order_holds(2 * np.eye(2), np.eye(2))
    assert not psd_order_holds(np.eye(2), 2 * np.eye(2))


def test_psd_order_dim_mismatch():
    with pytest.raises(ValueError):
        psd_order_holds(np.eye(2), np.eye(3))


def test_psd_order_scalar_dare_vs_q(scalar_dare):
    # optimal cost matrix dominates the state weight
    Kstar, _ = scalar_dare
    assert Kstar[0, 0] == pytest.approx((121 + math.sqrt(14801)) / 2, rel=1e-10)
    assert psd_order_holds(Kstar, np.array([[1.0]]))


def test_psd_order_boundary():
    # equality sits inside the tolerance band
    K = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert psd_order_holds(K, K.copy())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_monotone_norm_under_psd_growth(seed):
    # adding PSD noise can only grow the induced norm of a PSD matrix
    rng = np.random.default_rng(seed)
    M1 = rng.standard_normal((3, 3))
    M2 = rng.standard_normal((3, 3))
    K2 = M1 @ M1.T
    K1 = K2 + M2 @ M2.T
    assert induced_two_norm(K1) >= induced_two_norm(K2) - 1e-12


def test_monotone_norm_bulk():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        M1 = rng.standard_normal((n, n))
        M2 = rng.standard_normal((n, n))
        K2 = M1 @ M1.T
        K1 = K2 + M2 @ M2.T
        assert induced_two_norm(K1) >= induced_two_norm(K2) - 1e-12


# ---------------------------------------------------------------------------
# build_weighted_norm
# ---------------------------------------------------------------------------

def test_weighted_norm_scalar_zero():
    wn = build_weighted_norm(np.array([[0.0]]))
    assert wn.rho == pytest.approx(0.5)
    assert wn.c1 == pytest.approx(1.0)
    assert wn.c2 == pytest.approx(1.0)


def test_weighted_norm_scalar_closed_loop(scalar_sys, scalar_dare):
    # closed loop of the scalar study: A + B L* = 0.49587899680...
    _, Lstar = scalar_dare
    D = Lstar.closed_loop
    assert D[0, 0] == pytest.approx(0.4958789968048456, rel=1e-9)
    wn = build_weighted_norm(D)
    assert wn.rho == pytest.approx((D[0, 0] ** 2 + 1.0) / 2.0, rel=1e-12)
    # any scalar weighting is proportional to the plain absolute value
    assert wn.c1 == pytest.approx(1.0)
    assert wn.c2 == pytest.approx(1.0)


def test_weighted_norm_rejects_unstable():
    with pytest.raises(ValueError):
        build_weighted_norm(np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_weighted_norm_diag_sandwich():
    D = np.diag([0.5, 0.9])
    wn = build_weighted_norm(D)
    Winv = np.linalg.inv(wn.W)
    rng = np.random.default_rng(0)
    for _ in range(100):
        M = rng.standard_normal((2, 2))
        plain = induced_two_norm(M)
        weighted = induced_two_norm(wn.W @ M @ Winv)
        assert wn.c1 * plain <= weighted + 1e-10
        assert weighted <= wn.c2 * plain + 1e-10


def test_weighted_norm_contraction_certificate(di2d_sys, di2d_dare):
    _, Lstar = di2d_dare
    wn = build_weighted_norm(Lstar.closed_loop)
    Winv = np.linalg.inv(wn.W)
    contracted = induced_two_norm(wn.W @ Lstar.closed_loop @ Winv)
    assert contracted <= math.sqrt(wn.rho) + 1e-10
    assert 0 < wn.rho < 1
    assert wn.c1 <= wn.c2


def test_norm_sandwich_suite(scalar_dare, di2d_dare, ac4d_dare):
    """1000 random matrices across several weightings (shared property)."""
    D_list = [
        scalar_dare[1].closed_loop,
        di2d_dare[1].closed_loop,
        ac4d_dare[1].closed_loop,
        np.diag([0.5, 0.9]),
        np.array([[0.3, 0.4, 0.0], [0.0, 0.2, 0.5], [0.1, 0.0, 0.6]]),
    ]
    msg = check_norm_sandwich(D_list, n_matrices=1000)
    assert "1000" in msg


# ---------------------------------------------------------------------------
# symmetrize / min_eigenvalue
# ---------------------------------------------------------------------------

def test_symmetrize_exact():
    M = np.array([[1.0, 2.0], [0.0, 3.0]])
    S = symmetrize(M)
    np.testing.assert_array_equal(S, S.T)
    np.testing.assert_allclose(S, np.array([[1.0, 1.0], [1.0, 3.0]]))


def test_min_eigenvalue_diag():
    assert min_eigenvalue(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0)
