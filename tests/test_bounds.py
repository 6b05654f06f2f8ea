"""Performance-bound layer: the alpha/beta constants, the three bounds,
the exact gap, and the aggregated report."""

import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmpc import (
    LqSystem,
    alpha_const,
    beta_const,
    build_weighted_norm,
    full_report,
    gap_of_policy,
    greedy_gain,
    induced_two_norm,
    iterate_bellman,
    load_scenario,
    newton_gamma,
    solve_dare,
    zeta_dare,
)
from lqmpc import bounds, riccati
from conftest import ZEFF_2D, ZEFF_4D
from _checks import (
    check_bound_sandwich,
    check_inequality_chain,
    check_design_step_quadratic,
    check_monotone_le_contraction,
    reference_full_report,
    reference_newton_gamma,
)

K_SCALAR = np.array([[180.0]])


@pytest.fixture(scope="module")
def corpus(scalar_sys, di2d_sys, ac4d_sys, di2d_K_eff, ac4d_K_eff):
    """(system, terminal matrix, horizon) triples covering all studies."""
    return [
        (scalar_sys, K_SCALAR, 1),
        (di2d_sys, di2d_K_eff, 3),
        (di2d_sys, di2d_K_eff, 10),
        (ac4d_sys, ac4d_K_eff, 3),
        (ac4d_sys, ac4d_K_eff, 10),
        (ac4d_sys, ac4d_K_eff, 20),
    ]


# ---------------------------------------------------------------------------
# alpha / beta constants
# ---------------------------------------------------------------------------

def test_alpha_scalar(scalar_sys, scalar_dare):
    assert alpha_const(scalar_sys, scalar_dare[1]) == pytest.approx(
        0.2458959794722, rel=1e-9
    )


def test_alpha_capped_at_one(ac4d_sys, ac4d_dare):
    # the 4-D optimal loop is non-normal with ||A+BL*|| > 1, so the cap binds
    assert induced_two_norm(ac4d_dare[1].closed_loop) > 1
    assert alpha_const(ac4d_sys, ac4d_dare[1]) == 1.0


def test_alpha_zero_dynamics():
    sys = LqSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    _, Lstar = solve_dare(sys)
    assert alpha_const(sys, Lstar) == 0.0


def test_beta_horizon_one(di2d_sys, di2d_dare):
    assert beta_const(di2d_sys, di2d_dare[1], 1) == 1.0


def test_beta_scalar_matches_alpha(scalar_sys, scalar_dare):
    # for a scalar loop, ||D^(l-1)||^2 at l=2 equals ||D||^2 = alpha
    a = alpha_const(scalar_sys, scalar_dare[1])
    assert beta_const(scalar_sys, scalar_dare[1], 2) == pytest.approx(a, rel=1e-12)


def test_beta_submultiplicative(ac4d_sys, ac4d_dare):
    a = alpha_const(ac4d_sys, ac4d_dare[1])
    for ell in range(1, 11):
        b = beta_const(ac4d_sys, ac4d_dare[1], ell)
        assert b <= a ** (ell - 1) + 1e-12


def test_beta_2d_frozen(di2d_sys, di2d_dare):
    assert beta_const(di2d_sys, di2d_dare[1], 10) == pytest.approx(
        7.24879466e-06, rel=1e-6
    )


# ---------------------------------------------------------------------------
# the three bounds
# ---------------------------------------------------------------------------

def test_contraction_scalar(scalar_sys):
    # frozen value of this construction; the originally reported 534.5 would
    # need rho ~ 0.877 rather than the (spectral radius^2+1)/2 midpoint
    assert full_report(scalar_sys, K_SCALAR, 1).bound_contraction == pytest.approx(
        109.8011273708, rel=1e-9
    )


def test_contraction_2d_bracket(di2d_sys, di2d_K_eff):
    v = full_report(di2d_sys, di2d_K_eff, 3).bound_contraction
    assert v == pytest.approx(1958.5118524, rel=1e-8)
    assert v < 1e10


def test_contraction_at_optimum(di2d_sys, di2d_dare):
    assert full_report(di2d_sys, di2d_dare[0], 3).bound_contraction == pytest.approx(
        0.0, abs=1e-8)


def test_contraction_outside_region_raises(scalar_sys):
    with pytest.raises(ValueError):
        full_report(scalar_sys, np.array([[1.0]]), 1)


def test_monotone_scalar(scalar_sys):
    assert full_report(scalar_sys, K_SCALAR, 1).bound_monotone == pytest.approx(
        14.4267957395, rel=1e-9
    )


def test_monotone_2d(di2d_sys, di2d_K_eff):
    # reported rounded to 9.8; the exact design distance is 9.9 with beta_3 = 1
    mono = full_report(di2d_sys, di2d_K_eff, 3).bound_monotone
    assert mono == pytest.approx(9.9, rel=1e-9)
    assert mono == pytest.approx(9.8, rel=0.05)


def test_monotone_4d(ac4d_sys, ac4d_K_eff):
    assert full_report(ac4d_sys, ac4d_K_eff, 10).bound_monotone == pytest.approx(404.0, rel=0.05)
    assert full_report(ac4d_sys, ac4d_K_eff, 20).bound_monotone == pytest.approx(248.6, rel=0.05)


def test_newton_gamma_scalar(scalar_sys):
    # back-solved from the reported 43.0 = gamma * dist^2 with dist = 58.67
    g = newton_gamma(scalar_sys, K_SCALAR)
    assert g == pytest.approx(43.0 / 58.670319744386745**2, rel=0.10)
    assert g == pytest.approx(0.0124896717, rel=1e-8)


def test_newton_gamma_zero_dynamics():
    # A = 0 gives a nilpotent greedy loop; the tail series vanishes entirely
    sys = LqSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    assert newton_gamma(sys, np.eye(2)) == 0.0


def test_newton_gamma_nilpotent_loop_stops_early(monkeypatch):
    # the zero power ends the series at once, not after _GAMMA_SERIES_CAP terms
    calls = []

    def counting_norm(M):
        calls.append(1)
        return induced_two_norm(M)

    monkeypatch.setattr(bounds, "induced_two_norm", counting_norm)
    sys = LqSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    assert newton_gamma(sys, np.eye(2)) == 0.0
    assert len(calls) <= 12


def test_newton_gamma_series_cap_raises(di2d_sys, di2d_K_eff, monkeypatch):
    # a truncated sum would understate gamma, so hitting the cap is an error
    monkeypatch.setattr(bounds, "_GAMMA_SERIES_CAP", 5)
    with pytest.raises(ArithmeticError, match="partial sum"):
        newton_gamma(di2d_sys, di2d_K_eff)


@st.composite
def _stable_loops(draw):
    """Dense loops scaled to a spectral radius up to 0.999 (series of up to
    about 10 000 terms, many blocks long), and nilpotent ones (a permuted
    strictly triangular matrix, whose powers reach exact zero)."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 4)) == 0:
        perm = rng.permutation(n)
        return np.triu(rng.standard_normal((n, n)), 1)[np.ix_(perm, perm)]
    M = rng.standard_normal((n, n))
    radius = draw(st.one_of(st.floats(0.01, 0.999), st.just(0.999)))
    return M * (radius / max(np.max(np.abs(np.linalg.eigvals(M))), 1e-300))


@settings(max_examples=40, deadline=None)
@given(Dt=_stable_loops())
def test_newton_gamma_matches_term_by_term_reference(di2d_sys, di2d_K_eff, Dt):
    # the series depends on the loop D~ alone, which _newton_gamma takes as given
    assert bounds._newton_gamma(di2d_sys, di2d_K_eff, Dt) == reference_newton_gamma(
        di2d_sys, di2d_K_eff, Dt)


@pytest.mark.parametrize("cap", [1, 5, 63, 64, 65, 100, 130])
def test_newton_gamma_cap_raises_as_reference(di2d_sys, di2d_K_eff, monkeypatch, cap):
    # a series longer than the cap, which falls mid-block or on a block edge
    Dt = np.array([[0.999, 0.5], [0.0, 0.9]])
    formed = []

    def counting_norm(M):
        formed.append(len(M) if np.ndim(M) == 3 else 0)
        return induced_two_norm(M)

    monkeypatch.setattr(bounds, "_GAMMA_SERIES_CAP", cap)
    monkeypatch.setattr(bounds, "induced_two_norm", counting_norm)
    with pytest.raises(ArithmeticError) as new:
        bounds._newton_gamma(di2d_sys, di2d_K_eff, Dt)
    with pytest.raises(ArithmeticError) as ref:
        reference_newton_gamma(di2d_sys, di2d_K_eff, Dt, cap=cap)
    assert str(new.value) == str(ref.value)
    assert sum(formed) == cap  # no power past the cap is formed


@pytest.mark.parametrize("name,zetas", [
    ("di-2d", (1.5, 4.0, 12.0, 50.0)),
    ("ac-4d", (1.5, 3.0, 6.5, 12.0)),
])
def test_newton_gamma_of_design_reports_matches_reference(name, zetas):
    sys = load_scenario(name).system
    for zeta in zetas:
        K = zeta_dare(sys, zeta)
        for ell in (1, 3, 10, 20):
            Kbar = iterate_bellman(sys, K, ell - 1)
            Dt = greedy_gain(sys, Kbar).closed_loop
            assert full_report(sys, K, ell).gamma == reference_newton_gamma(sys, Kbar, Dt)


_POWER_NORM_LOOPS = {
    "stable": np.array([[0.99, 0.3, 0.0], [-0.2, 0.9, 0.1], [0.0, 0.05, 0.95]]),
    "nilpotent": 0.8 * np.eye(4, k=1),
}


@pytest.mark.parametrize("loop", sorted(_POWER_NORM_LOOPS))
@pytest.mark.parametrize("count", [1, 15, 16, 17, 48, 49, 200])
def test_power_norms_match_one_power_at_a_time(loop, count):
    D = _POWER_NORM_LOOPS[loop]
    expected, M = [], D
    for _ in range(count):
        expected.append(float(np.linalg.norm(M, 2)))
        M = M @ D
    assert list(bounds._power_norms(D, count)) == expected


def _counting_blocks(monkeypatch):
    """Patch `bounds.induced_two_norm` to record the size of each block of
    powers it takes the norms of."""
    blocks = []

    def counting_norm(M):
        if np.ndim(M) == 3:
            blocks.append(len(M))
        return induced_two_norm(M)

    monkeypatch.setattr(bounds, "induced_two_norm", counting_norm)
    return blocks


def _assert_blocks_end_at_the_last_used_power(blocks, used):
    # the block sizes double from 16 (the last one may be cut at the
    # count), and every block formed holds a used power
    sizes = [min(16 * 2**i, bounds._GAMMA_SERIES_BLOCK) for i in range(len(blocks))]
    assert blocks[:-1] == sizes[:-1] and blocks[-1] <= sizes[-1]
    assert sum(blocks[:-1]) < used <= sum(blocks)


@pytest.mark.parametrize("used", [1, 15, 16, 17, 48, 49, 200])
def test_power_norms_form_at_most_one_block_past_the_last_used_power(monkeypatch, used):
    blocks = _counting_blocks(monkeypatch)
    norms = list(itertools.islice(bounds._power_norms(_POWER_NORM_LOOPS["stable"], 200), used))
    assert len(norms) == used
    _assert_blocks_end_at_the_last_used_power(blocks, used)


def test_gamma_series_forms_at_most_one_block_past_its_last_term(monkeypatch, di2d_sys,
                                                                 di2d_K_eff):
    power_norms = bounds._power_norms
    used = []

    def counting_power_norms(D, count):
        used.append(0)
        for norm in power_norms(D, count):
            used[-1] += 1
            yield norm

    monkeypatch.setattr(bounds, "_power_norms", counting_power_norms)
    for ell in (1, 3, 10, 20):
        blocks = _counting_blocks(monkeypatch)
        full_report(di2d_sys, di2d_K_eff, ell)
        _assert_blocks_end_at_the_last_used_power(blocks, used[-1])


def test_newton_scalar(scalar_sys):
    assert full_report(scalar_sys, K_SCALAR, 1).bound_newton == pytest.approx(42.992, rel=1e-4)


def test_newton_2d(di2d_sys, di2d_K_eff):
    newton = full_report(di2d_sys, di2d_K_eff, 3).bound_newton
    assert newton == pytest.approx(553.0, rel=0.10)
    assert newton == pytest.approx(558.1712932, rel=1e-8)


def test_newton_at_optimum(scalar_sys, scalar_dare):
    assert full_report(scalar_sys, scalar_dare[0], 1).bound_newton == pytest.approx(
        0.0, abs=1e-8)


def test_design_step_quadratic_contraction(scalar_sys, di2d_sys):
    msg = check_design_step_quadratic([scalar_sys, di2d_sys], n_total=50)
    assert "50" in msg


# ---------------------------------------------------------------------------
# the exact gap
# ---------------------------------------------------------------------------

def test_gap_scalar(scalar_sys):
    assert full_report(scalar_sys, K_SCALAR, 1).actual_gap == pytest.approx(
        3.2512721253, rel=1e-9)


def test_gap_2d_long_horizon(di2d_sys, di2d_K_eff):
    # ten value iterations leave a gap at the numerical noise floor
    assert full_report(di2d_sys, di2d_K_eff, 10).actual_gap < 1e-12


def test_gap_4d(ac4d_sys, ac4d_K_eff):
    # frozen from the independent oracle; the reported table prints 2.8 for
    # this cell, which no zeta consistent with Table 1 reproduces
    assert full_report(ac4d_sys, ac4d_K_eff, 3).actual_gap == pytest.approx(6.0111730, rel=1e-6)


# ---------------------------------------------------------------------------
# full_report
# ---------------------------------------------------------------------------

def test_report_scalar(scalar_sys):
    rep = full_report(scalar_sys, K_SCALAR, 1)
    assert rep.actual_gap == pytest.approx(3.3, rel=0.05)
    assert rep.bound_monotone == pytest.approx(14.4, rel=0.05)
    assert rep.bound_newton == pytest.approx(43.0, rel=0.05)
    assert rep.design_distance == pytest.approx(58.6703197444, rel=1e-10)
    assert rep.ell == 1


def test_report_4d_long(ac4d_sys, ac4d_K_eff):
    rep = full_report(ac4d_sys, ac4d_K_eff, 20)
    assert rep.actual_gap == pytest.approx(6.151321e-03, rel=1e-5)
    assert rep.bound_monotone == pytest.approx(248.6335191, rel=1e-8)


def test_report_at_optimum(di2d_sys, di2d_dare):
    rep = full_report(di2d_sys, di2d_dare[0], 4)
    assert rep.actual_gap == pytest.approx(0.0, abs=1e-8)
    assert rep.bound_monotone == pytest.approx(0.0, abs=1e-8)
    assert rep.bound_newton == pytest.approx(0.0, abs=1e-8)


def test_report_invariants(corpus):
    for sys, K, ell in corpus:
        rep = full_report(sys, K, ell)
        assert 0 < rep.alpha <= 1
        assert 0 < rep.beta_ell <= 1
        assert rep.beta_ell <= rep.alpha ** (ell - 1) + 1e-12
        assert 0 < rep.rho < 1
        assert 0 < rep.c1 <= rep.c2


@pytest.mark.parametrize("ell", [1, 3, 10, 30, 60])
@pytest.mark.parametrize("kind", ["eff", "opt"])
@pytest.mark.parametrize("name", ["di2d", "ac4d"])
def test_full_report_matches_the_composed_reference(request, name, kind, ell):
    """Every field bit for bit against the region check, a plain Bellman
    loop and the greedy gain, each called on its own; at ell = 30 and 60
    the ladder of di-2d's amplified design runs through its cycle."""
    sys = request.getfixturevalue(f"{name}_sys")
    K = request.getfixturevalue(f"{name}_K_eff") if kind == "eff" else sys.optimal[0]
    got = full_report(sys, K, ell)
    ref = reference_full_report(sys, K, ell)
    for field in dataclasses.fields(ref):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), field.name


def test_report_outside_region_raises(di2d_sys):
    with pytest.raises(ValueError, match="region of decreasing"):
        full_report(di2d_sys, 0.5 * np.eye(2), 3)


# ---------------------------------------------------------------------------
# cross-bound properties
# ---------------------------------------------------------------------------

def test_inequality_chain(corpus):
    check_inequality_chain(corpus)


def test_gap_below_all_bounds(corpus):
    check_bound_sandwich(corpus)


def test_monotone_below_contraction(corpus):
    check_monotone_le_contraction(corpus)


def test_newton_crossover(corpus):
    # whenever gamma * beta_ell * dist / alpha < 1 the quadratic bound is the
    # tighter of the two
    hit = 0
    for sys, K, ell in corpus:
        rep = full_report(sys, K, ell)
        if rep.gamma * rep.beta_ell * rep.design_distance / rep.alpha < 1.0:
            assert rep.bound_newton <= rep.bound_monotone * (1 + 1e-12)
            hit += 1
    assert hit >= 1  # the premise holds somewhere in the corpus


# ---------------------------------------------------------------------------
# one pipeline: the cached Riccati pair and each bound's own formula
# ---------------------------------------------------------------------------

def test_single_bounds_equal_report_fields(corpus):
    """Each bound as its own formula evaluates it, from a fresh Riccati
    solve (the expression order of the per-bound code), equals its
    `full_report` field bit for bit."""
    for sys, K, ell in corpus:
        rep = full_report(sys, K, ell)
        Kstar, Lstar = solve_dare(sys)
        dist = induced_two_norm(np.asarray(K, dtype=float) - Kstar)
        alpha, beta = alpha_const(sys, Lstar), beta_const(sys, Lstar, ell)
        Kbar = iterate_bellman(sys, K, ell - 1)
        Lt = greedy_gain(sys, Kbar)
        wn = build_weighted_norm(Lt.closed_loop)
        ratio = wn.c2 / wn.c1
        pref = ratio / (1.0 - wn.rho) * (wn.rho + ratio * alpha)
        assert rep.bound_contraction == pref * beta * dist
        assert rep.bound_monotone == alpha * beta * dist
        assert rep.bound_newton == newton_gamma(sys, Kbar) * beta**2 * dist**2
        assert rep.actual_gap == gap_of_policy(sys, Lt)


def test_riccati_pair_solved_once_per_system(monkeypatch):
    sys = load_scenario("di-2d").system
    K = zeta_dare(sys, ZEFF_2D)
    calls = []

    def counting_solve_dare(*args, **kwargs):
        calls.append(1)
        return solve_dare(*args, **kwargs)

    monkeypatch.setattr(riccati, "solve_dare", counting_solve_dare)
    first = full_report(sys, K, 3)
    assert len(calls) == 1
    second = full_report(sys, K, 3)
    assert len(calls) == 1  # the second report reuses the cached pair
    assert second == first
    Kstar, Lstar = sys.optimal
    for arr in (Kstar, Lstar.L, Lstar.closed_loop):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    np.testing.assert_array_equal(Kstar, solve_dare(sys)[0])


def test_riccati_pair_not_pickled():
    # an unpickled array is writable, so a copy solves its own read-only pair
    sys = load_scenario("di-2d").system
    Kstar, _ = sys.optimal
    copy = pickle.loads(pickle.dumps(sys))
    assert "optimal" not in vars(copy)
    assert not copy.optimal[0].flags.writeable
    np.testing.assert_array_equal(copy.optimal[0], Kstar)
