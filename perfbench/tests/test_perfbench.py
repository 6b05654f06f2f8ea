"""Tests of the benchmark itself: tiny runs of every workload, and every
correctness check failing on a corrupted result.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lqmpc import HPolytope  # noqa: E402

SEED = 7
TINY = {
    "design": {"ranges": {"di-2d": (1.5, 50.0, 1), "ac-4d": (1.5, 4.0, 1)}, "horizons": (1, 10)},
    "region": {"resolution": 5},
    "submap": {"resolution": 4},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"] for m in SPEC[section]}


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_end_to_end_metric(name, monkeypatch):
    # the untraced run must never build a tracer
    monkeypatch.setattr(tracing.Tracer, "__init__", lambda self: pytest.fail("tracer built"))
    out = run.run(name, SEED, 0.01, False, **TINY[name])
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] % workloads.WORKLOADS[name](SEED, **TINY[name]).ops_per_round == 0
    assert set(out["metrics"]) == _names("end_to_end")
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0
    from lqmpc import cmpc, qp
    assert not hasattr(qp.linprog, "__wrapped__")
    assert not hasattr(cmpc.solve_qp, "__wrapped__")


def test_round_time_sums_each_parts_shortest_time_after_the_warm_up():
    # rounds of two parts, as (wall, cpu); the first round is the warm-up
    samples = [[(0.1, 0.1), (0.1, 0.1)], [(3.0, 2.0), (5.0, 4.0)],
               [(2.0, 2.5), (9.0, 3.0)], [(4.0, 1.0), (6.0, 6.0)]]
    assert run.round_time(samples) == pytest.approx((2.0 + 5.0, 1.0 + 3.0))
    assert run.round_time(samples[:2]) == pytest.approx((0.1 + 0.1, 0.1 + 0.1))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_layer_metric(name):
    # a fresh interpreter, so that one-thread BLAS applies as in the sweeps
    code = (f"import json, sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"print(json.dumps(run.run({name!r}, {SEED}, 0.01, True, **{TINY[name]!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, proc.stderr
    assert set(out["metrics"]) == _names("per_layer")
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    busy = {"design": "bounds.full_report.calls", "region": "qp.phase1_lp.calls",
            "submap": "cmpc.closed_loop_steps"}[name]
    assert out["metrics"][busy]["value"] > 0
    assert (BENCH / "out" / f"trace-{name}-seed{SEED}.json").is_file()


def test_tracer_puts_the_originals_back():
    from lqmpc import cmpc, polytope, qp

    before = (qp.linprog, cmpc.solve_qp, polytope.lp_solve, cmpc.lp_solve,
              cmpc.MpcController.solve)
    with tracing.Tracer():
        assert cmpc.solve_qp is qp.solve_qp and hasattr(cmpc.solve_qp, "__wrapped__")
        assert cmpc.lp_solve is polytope.lp_solve is not before[2]
    assert (qp.linprog, cmpc.solve_qp, polytope.lp_solve, cmpc.lp_solve,
            cmpc.MpcController.solve) == before


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "design", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --------------------------------------------------------------------------
# checks on corrupted results
# --------------------------------------------------------------------------

def _kinds(fails):
    return {why.split(":")[0] for whys in fails.values() for why in whys}


@pytest.fixture(scope="module")
def design():
    wl = workloads.DesignWorkload(SEED, **TINY["design"])
    return wl, wl.round()


@pytest.fixture(scope="module")
def region():
    wl = workloads.RegionWorkload(SEED, **TINY["region"])
    return wl, wl.round()


@pytest.fixture(scope="module")
def submap():
    wl = workloads.SubmapWorkload(SEED, **TINY["submap"])
    return wl, wl.round()


def _check_design(wl, res):
    return {w.split(":")[0] for w in checks.check_design(wl.problems[res.scenario], res,
                                                         workloads.MC_SAMPLES)}


def test_design_results_pass(design):
    wl, results = design
    assert [_check_design(wl, r) for r in results] == [set(), set()]


@pytest.mark.parametrize("index", [0, 1])
def test_design_checks_catch_corruption(design, index):
    wl, results = design
    res = results[index]
    S = res.design.S
    rep = res.reports[-1]

    def bad(**kw):
        if "S" in kw:
            kw["design"] = dataclasses.replace(res.design, S=kw.pop("S"))
        return _check_design(wl, dataclasses.replace(res, **kw))

    assert "dare" in bad(K=res.K * (1 + 1e-6))
    assert "decrease" in bad(K=0.5 * res.K)
    assert "bounds" in bad(reports=res.reports[:-1] + (
        dataclasses.replace(rep, actual_gap=2 * rep.bound_monotone),))
    assert "contained" in bad(S=HPolytope(S.H, 100 * S.h))
    radii = 0.99 * wl.problems[res.scenario].Xhat.h[: S.dim]
    assert "admissible" in bad(S=HPolytope.symmetric_box(radii))
    # cut S by x_1 <= a tenth of its largest x_1: the loop carries vertices out
    e1 = np.eye(S.dim)[0]
    cut = S.intersect(HPolytope(e1[None, :], [0.1 * checks.support(e1, S.H, S.h)]))
    assert "invariant" in bad(S=cut)
    assert "volume" in bad(volume=res.volume * 1.05)


def test_region_results_pass(region):
    wl, grids = region
    assert checks.check_region(wl, grids) == {}


def _with(grid, **cells):
    """Copy of a grid with some arrays changed by a function of a copy."""
    return dataclasses.replace(grid, **{k: f(getattr(grid, k).copy()) for k, f in cells.items()})


def _set(iy, ix, value):
    def f(a):
        a[iy, ix] = value
        return a
    return f


def test_region_checks_catch_corruption(region):
    wl, grids = region
    amp, opt = grids["amplified"], grids["optimal"]
    iy, ix = np.argwhere(opt.feasible)[0]
    flipped = _with(amp, feasible=_set(iy, ix, False), cost=_set(iy, ix, math.inf))
    fails = checks.check_region(wl, {"amplified": flipped, "optimal": opt})
    assert {"verdict", "containment"} <= _kinds(fails)
    assert set(fails) == {("amplified", iy, ix)}

    scaled = _with(opt, cost=lambda c: c * (1 + 1e-6))
    assert _kinds(checks.check_region(wl, {"amplified": amp, "optimal": scaled})) == {"value"}

    jy, jx = np.argwhere(~amp.feasible)[0]
    fake = _with(amp, feasible=_set(jy, jx, True), cost=_set(jy, jx, 1.0))
    assert set(checks.check_region(wl, {"amplified": fake})) == {("amplified", jy, jx)}

    moved = dataclasses.replace(amp, xs=amp.xs + 1e-3)
    assert _kinds(checks.check_region(wl, {"amplified": moved})) == {"lattice"}


def test_submap_results_pass(submap):
    wl, grids = submap
    assert checks.check_submap(wl, grids) == {}


def test_submap_checks_catch_corruption(submap):
    wl, grids = submap
    g = grids["amplified"]
    iy, ix = np.argwhere(g.feasible)[0]

    def kinds(**cells):
        return _kinds(checks.check_submap(wl, {"amplified": _with(g, **cells)}))

    assert "recursive_feasibility" in kinds(feasible=_set(iy, ix, False), cost=_set(iy, ix, math.inf))
    assert "pol_lower_bound" in kinds(cost=lambda c: 0.5 * c)
    assert "value_bound" in kinds(cost=_set(iy, ix, 1e6))
    assert kinds(rel_gap=_set(iy, ix, 0.01)) == {"max_gap"}
    assert "opt_lower_bound" in kinds(rel_gap=_set(iy, ix, 1e6))
    assert kinds(rel_gap=_set(iy, ix, math.nan)) == {"rel_gap"}


def test_evaluate_counts_repeats_replays_and_raises(region, design):
    wl, grids = region
    amp = grids["amplified"]
    iy, ix = np.argwhere(amp.feasible)[0]
    other = dict(grids, amplified=_with(amp, cost=_set(iy, ix, amp.cost[iy, ix] * 2)))
    attempted, failed, wrong = run.evaluate(wl, [grids, other])
    assert (attempted, failed) == (2 * wl.ops_per_round, 1)
    assert wrong[0].startswith(f"round 1 op ('amplified', {iy}, {ix}): repeat")

    replay = {k: (g.feasible, g.cost, g.rel_gap) for k, g in grids.items()}
    replay["optimal"] = (~grids["optimal"].feasible,) + replay["optimal"][1:]
    attempted, failed, wrong = run.evaluate(wl, [grids], [replay])
    assert failed == wl.resolution**2 and all("replay" in w for w in wrong)

    wl, results = design
    attempted, failed, wrong = run.evaluate(wl, [results, [ValueError("x"), results[1]]])
    assert (attempted, failed, wrong) == (4, 1, [])
