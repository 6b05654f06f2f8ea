"""Performance-bound analysis for linear-quadratic MPC.

Riccati/Bellman operator machinery, computable suboptimality bounds,
amplified terminal-cost design, polytopic invariant sets, a dense QP
solver with condensed MPC, closed-loop studies, and a CLI harness.
"""

from .matcore import (
    WeightedNorm,
    build_weighted_norm,
    induced_two_norm,
    is_stable,
    min_eigenvalue,
    psd_order_holds,
    solve_dlyap,
    spectral_radius,
    symmetrize,
)
from .riccati import (
    GainPolicy,
    LqSystem,
    bellman_op,
    closed_loop_cost,
    greedy_gain,
    in_region_of_decreasing,
    iterate_bellman,
    solve_dare,
    zeta_dare,
)
from .bounds import (
    BoundsReport,
    alpha_const,
    beta_const,
    full_report,
    gap_of_policy,
    newton_gamma,
)
from .polytope import (
    HPolytope,
    LpResult,
    bounding_box,
    contains,
    lp_solve,
    maximal_invariant_set,
    vertices,
    volume,
)
from .qp import QpProblem, QpSolution, solve_qp
from .cmpc import (
    ConstrainedProblem,
    CostMapGrid,
    MpcController,
    MpcStep,
    TerminalDesign,
    feasible_region_grid,
    feasible_set,
    suboptimality_map,
)
from .scenarios import Scenario, ScenarioError, builtin_names, load_scenario

__version__ = "1.0.0"
