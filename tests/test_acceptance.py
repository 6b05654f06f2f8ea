"""End-to-end acceptance gate: one test per shipped criterion.

Every sub-check prints a single [PASS]/[FAIL] line (use ``pytest -rA`` or
``-s`` to see the lines of passing tests; a failing test carries its full
scoreboard in the assertion message).  Reference targets that could not be
reproduced from the stated problem data are left failing on purpose instead
of being loosened — the printed lines carry the measured values, and the
tracking notes live outside the package.
"""

import json
import time

import numpy as np

from lqmpc import load_scenario, zeta_dare
from lqmpc.cli import main

from _checks import (
    check_bound_sandwich,
    check_design_step_quadratic,
    check_inequality_chain,
    check_monotone_le_contraction,
    check_norm_sandwich,
    check_operator_monotonicity,
    check_policy_cost_below_value,
    check_qp_oracle,
    check_region_invariance,
    check_terminal_invariance,
)

K_SCALAR = load_scenario("lqr-scalar").K0


class _Gate:
    """Scoreboard for one criterion: collect pass/fail lines, assert at the end."""

    def __init__(self, title):
        self.title = title
        self.lines = []
        self.n_fail = 0
        self.t0 = time.perf_counter()

    def check(self, name, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] {self.title} | {name}: {detail}"
        self.lines.append(line)
        if not ok:
            self.n_fail += 1
        print(line)

    def finish(self, budget_s):
        elapsed = time.perf_counter() - self.t0
        self.check("runtime", elapsed < budget_s,
                   f"{elapsed:.1f}s (budget {budget_s:.0f}s)")
        assert self.n_fail == 0, (
            f"{self.n_fail} sub-check(s) missed their target:\n"
            + "\n".join(self.lines)
        )


# ---------------------------------------------------------------------------
# criteria 1-6 re-run the packaged studies end to end and mirror the emitted
# scoreboards; every reference target lives in lqmpc.cli
# ---------------------------------------------------------------------------

def _mirror_reproduce(gate, example, out_dir, budget_s):
    rc = main(["reproduce", "--example", example, "--out", str(out_dir)])
    with open(out_dir / "summary.json", encoding="utf-8") as f:
        summary = json.load(f)
    for c in summary["checks"]:
        ok = c["passed"] is not False  # informational entries count as context
        tag = " (info)" if c["passed"] is None else ""
        gate.check(c["name"], ok, f"{c['value_repr']} vs {c['target']}{tag}")
    gate.check("exit code", rc == 0, f"rc={rc}")
    gate.finish(budget_s)


def test_criterion_1_scalar_study(tmp_path):
    gate = _Gate("criterion 1: scalar study")
    _mirror_reproduce(gate, "1", tmp_path, 1.0)


def test_criterion_2_design_magnitudes(tmp_path):
    gate = _Gate("criterion 2: design magnitudes")
    _mirror_reproduce(gate, "table1", tmp_path, 1.0)


def test_criterion_3_bound_table(tmp_path):
    gate = _Gate("criterion 3: bound table")
    _mirror_reproduce(gate, "table2", tmp_path, 10.0)


def test_criterion_4_terminal_volume_ratios(tmp_path):
    gate = _Gate("criterion 4: terminal-set volumes")
    _mirror_reproduce(gate, "table3", tmp_path, 30.0)


# The reference cells the stated problem data do not reproduce (README,
# "Expected failures"), with their targets as the summaries state them.
# Criteria 1, 3 and 4 fail on these cells; a further failing cell in those
# studies, or one of these starting to pass, fails this test.
_KNOWN_MISMATCHES = {
    "example1.bound_contraction": "534.5 ±5% (relative)",
    "table2.di-2d.ell10.gap": "< 1e-13",
    "table2.ac-4d.ell3.gap": "2.8 ±5% (relative)",
    "table2.ac-4d.ell3.contraction": "order of magnitude 10^52",
    "table2.ac-4d.ell10.gap": "< 0.001",
    "table2.ac-4d.ell10.contraction": "> 1e+53",
    "table2.ac-4d.ell20.gap": "< 1e-07",
    "table3.zeta5.volume_ratio": "1.23 ±0.05 (absolute)",
    "table3.zeta15.volume_ratio": "1.56 ±0.05 (absolute)",
    "table3.zeta25.volume_ratio": "1.65 ±0.05 (absolute)",
    "table3.zeta35.volume_ratio": "1.63 ±0.05 (absolute)",
}


def test_reference_mismatches_are_exactly_the_known_cells(tmp_path):
    failed = {}
    for example in ("1", "table2", "table3"):
        out = tmp_path / example
        main(["reproduce", "--example", example, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        failed.update((c["name"], c["target"])
                      for c in summary["checks"] if c["passed"] is False)
    assert failed == _KNOWN_MISMATCHES


def test_criterion_5_region_containment_and_submap(tmp_path):
    gate = _Gate("criterion 5: feasible region + suboptimality map")
    _mirror_reproduce(gate, "3", tmp_path, 600.0)


def test_criterion_6_constrained_closed_loop(tmp_path):
    gate = _Gate("criterion 6: 4-D closed-loop study")
    _mirror_reproduce(gate, "4", tmp_path, 300.0)


# ---------------------------------------------------------------------------
# criterion 7: the ten property suites
# ---------------------------------------------------------------------------

def test_criterion_7_property_suites(scalar_sys, di2d_sys, ac4d_sys,
                                     di2d_K_eff, ac4d_K_eff,
                                     scalar_dare, di2d_dare, ac4d_dare,
                                     di2d_prob, di2d_design_eff, di2d_design_opt):
    gate = _Gate("criterion 7: property suites")
    corpus = [
        (scalar_sys, K_SCALAR, 1),
        (di2d_sys, di2d_K_eff, 3),
        (di2d_sys, di2d_K_eff, 10),
        (ac4d_sys, ac4d_K_eff, 3),
        (ac4d_sys, ac4d_K_eff, 10),
        (ac4d_sys, ac4d_K_eff, 20),
    ]
    D_list = [
        scalar_dare[1].closed_loop,
        di2d_dare[1].closed_loop,
        ac4d_dare[1].closed_loop,
        np.diag([0.5, 0.9]),
        np.array([[0.3, 0.4, 0.0], [0.0, 0.2, 0.5], [0.1, 0.0, 0.6]]),
    ]
    suites = [
        ("operator monotonicity, 200 pairs",
         lambda: check_operator_monotonicity(
             [scalar_sys, di2d_sys, ac4d_sys], n_pairs=200)),
        ("region-of-decreasing invariance under F",
         lambda: "; ".join([
             check_region_invariance(scalar_sys, [K_SCALAR]),
             check_region_invariance(di2d_sys, [di2d_K_eff, zeta_dare(di2d_sys, 50.0)]),
             check_region_invariance(ac4d_sys, [ac4d_K_eff]),
         ])),
        ("iterate-distance inequality chain",
         lambda: check_inequality_chain(corpus)),
        ("gap below every bound",
         lambda: check_bound_sandwich(corpus)),
        ("monotone bound below contraction bound",
         lambda: check_monotone_le_contraction(corpus)),
        ("design-step quadratic contraction, 50 draws",
         lambda: check_design_step_quadratic([scalar_sys, di2d_sys], n_total=50)),
        ("weighted-norm equivalence sandwich, 1000 matrices",
         lambda: check_norm_sandwich(D_list, n_matrices=1000)),
        ("QP vs exhaustive active-set enumeration, 200 instances",
         lambda: check_qp_oracle(n_instances=200)),
        ("terminal-set invariance at every vertex",
         lambda: check_terminal_invariance(
             [(di2d_prob, di2d_design_eff), (di2d_prob, di2d_design_opt)])),
        ("policy cost below horizon value, 500 states",
         lambda: check_policy_cost_below_value(
             di2d_prob, di2d_design_eff, 3, n_states=500)),
    ]
    for name, fn in suites:
        try:
            gate.check(name, True, fn())
        except AssertionError as exc:
            gate.check(name, False, str(exc) or "assertion failed")
    gate.finish(300.0)
