"""Shared fixtures: the three study systems and their solved designs."""

import pytest

from lqmpc import (
    ConstrainedProblem,
    TerminalDesign,
    load_scenario,
    solve_dare,
    zeta_dare,
)

# The problem data live only in the built-in scenarios.
_SCALAR = load_scenario("lqr-scalar")
_DI2D = load_scenario("di-2d")
_AC4D = load_scenario("ac-4d")

# Effective amplification factors, calibrated so the terminal matrices match
# the reported ratio/distance pairs.
ZEFF_2D = _DI2D.zeta_effective
ZEFF_4D = _AC4D.zeta_effective


@pytest.fixture(scope="session")
def scalar_sys():
    return _SCALAR.system


@pytest.fixture(scope="session")
def di2d_sys():
    return _DI2D.system


@pytest.fixture(scope="session")
def ac4d_sys():
    return _AC4D.system


@pytest.fixture(scope="session")
def scalar_dare(scalar_sys):
    return solve_dare(scalar_sys)


@pytest.fixture(scope="session")
def di2d_dare(di2d_sys):
    return solve_dare(di2d_sys)


@pytest.fixture(scope="session")
def ac4d_dare(ac4d_sys):
    return solve_dare(ac4d_sys)


@pytest.fixture(scope="session")
def di2d_K_eff(di2d_sys):
    """2-D amplified terminal matrix at the calibrated effective factor."""
    return zeta_dare(di2d_sys, ZEFF_2D)


@pytest.fixture(scope="session")
def ac4d_K_eff(ac4d_sys):
    return zeta_dare(ac4d_sys, ZEFF_4D)


@pytest.fixture(scope="session")
def di2d_prob(di2d_sys):
    return ConstrainedProblem(di2d_sys, _DI2D.Xhat, _DI2D.U)


@pytest.fixture(scope="session")
def di2d_design_opt(di2d_prob):
    return TerminalDesign.for_optimal_cost(di2d_prob)


@pytest.fixture(scope="session")
def di2d_design_eff(di2d_prob):
    return TerminalDesign.for_amplified_cost(di2d_prob, ZEFF_2D)


@pytest.fixture(scope="session")
def ac4d_prob(ac4d_sys):
    return ConstrainedProblem(ac4d_sys, _AC4D.Xhat, _AC4D.U)


@pytest.fixture(scope="session")
def ac4d_design_eff(ac4d_prob):
    return TerminalDesign.for_amplified_cost(ac4d_prob, ZEFF_4D)


@pytest.fixture(scope="session")
def ac4d_design_opt(ac4d_prob):
    return TerminalDesign.for_optimal_cost(ac4d_prob)
