"""Command-line driver: bound reports, terminal-set studies, grid sweeps,
closed-loop simulation, and the self-checking reproduction harness.

Outputs are plain CSV (plus gnuplot script stubs); reproduction runs also
emit a machine-readable ``summary.json`` where every number carries its
target, tolerance, and pass/fail flag.  Exit codes: 0 all checks passed,
1 at least one check failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import BoundsReport, full_report
from .cmpc import (
    ConstrainedProblem,
    CostMapGrid,
    MpcController,
    TerminalDesign,
    approx_optimal_cost,
    boundary_points,
    feasible_region_grid,
    suboptimality_map,
)
from .matcore import induced_two_norm
from .polytope import volume
from .riccati import LqSystem, zeta_dare
from .scenarios import Scenario, ScenarioError, builtin_names, load_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.12g}" if isinstance(x, (int, float, np.floating)) else str(x)


# --------------------------------------------------------------------------
# check records (reproduction harness)
# --------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    value: float
    target: str
    passed: Optional[bool]  # None = informational only

    def line(self) -> str:
        tag = "INFO" if self.passed is None else ("PASS" if self.passed else "FAIL")
        return f"{tag:<5} {self.name:<42} value={_fmt(self.value):<16} target {self.target}"


class CheckSet:
    def __init__(self, tol_scale: float = 1.0):
        self.tol_scale = tol_scale
        self.checks: list[Check] = []

    def rel(self, name, value, target, rtol) -> None:
        r = rtol * self.tol_scale
        ok = math.isfinite(value) and abs(value - target) <= r * abs(target)
        self.checks.append(Check(name, value, f"{_fmt(target)} ±{r * 100:g}% (relative)", ok))

    def abs(self, name, value, target, atol) -> None:
        a = atol * self.tol_scale
        ok = math.isfinite(value) and abs(value - target) <= a
        self.checks.append(Check(name, value, f"{_fmt(target)} ±{_fmt(a)} (absolute)", ok))

    def upper(self, name, value, bound) -> None:
        self.checks.append(Check(name, value, f"< {_fmt(bound)}", value < bound))

    def lower(self, name, value, bound) -> None:
        self.checks.append(Check(name, value, f"> {_fmt(bound)}", value > bound))

    def oom(self, name, value, exponent) -> None:
        got = math.floor(math.log10(value)) if value > 0 and math.isfinite(value) else None
        self.checks.append(
            Check(name, value, f"order of magnitude 10^{exponent}", got == exponent)
        )

    def flag(self, name, ok, describe) -> None:
        self.checks.append(Check(name, float(bool(ok)), describe, bool(ok)))

    def info(self, name, value, note) -> None:
        self.checks.append(Check(name, value, f"{note} (informational)", None))

    def runtime(self, name, seconds, limit) -> None:
        self.checks.append(Check(name, seconds, f"< {_fmt(limit)} s", seconds < limit))

    @property
    def failed(self) -> bool:
        return any(c.passed is False for c in self.checks)

    def emit(self, out_dir: str, header_notes: list[str]) -> None:
        lines = [f"# {note}" for note in header_notes]
        lines += [c.line() for c in self.checks]
        n_fail = sum(1 for c in self.checks if c.passed is False)
        n_pass = sum(1 for c in self.checks if c.passed is True)
        lines.append(f"result: {n_pass} passed, {n_fail} failed")
        text = "\n".join(lines) + "\n"
        sys.stdout.write(text)
        with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as f:
            f.write(text)
        payload = {
            "notes": header_notes,
            "checks": [
                {
                    "name": c.name,
                    "value": None if not math.isfinite(c.value) else c.value,
                    "value_repr": _fmt(c.value),
                    "target": c.target,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "passed": not self.failed,
        }
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------

def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _scenario(name: str, seed: Optional[int]) -> Scenario:
    sc = load_scenario(name)
    return sc if seed is None else sc.with_overrides(seed=seed)


def _load(args) -> Scenario:
    return _scenario(args.scenario, getattr(args, "seed", None))


def _parse_list(text: str, cast, what: str) -> list:
    try:
        items = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ScenarioError(f"could not parse {what} list '{text}'") from None
    if not items:
        raise ScenarioError(f"empty {what} list")
    return items


def _amplifications(zetas: list) -> list:
    for z in zetas:
        if not z >= 1.0:
            raise ScenarioError(f"zeta must be >= 1, got {z:g}")
    return zetas


def _terminal_matrix(sc: Scenario, zeta_arg: Optional[float]) -> tuple[np.ndarray, str]:
    """Assessment/terminal matrix for bound reports, with a provenance label."""
    sys_ = sc.system
    if zeta_arg is not None:
        _amplifications([zeta_arg])
        if sc.zeta_effective is not None and zeta_arg == sc.zeta:
            amp = sc.zeta_effective
            label = f"zeta={zeta_arg:g} (effective amplification {amp:g})"
        else:
            amp, label = zeta_arg, f"zeta={zeta_arg:g}"
        return zeta_dare(sys_, amp), label
    if sc.K0 is not None:
        return np.array(sc.K0, dtype=float), "explicit K0 from scenario"
    if sc.terminal_kind == "zeta_dare":
        amp = sc.amplification()
        return zeta_dare(sys_, amp), f"zeta={sc.zeta:g} (effective amplification {amp:g})"
    return sys_.optimal[0], "optimal cost matrix"


def _design(prob: ConstrainedProblem, sc: Scenario, terminal: str) -> TerminalDesign:
    if terminal == "optimal" or sc.terminal_kind == "dare":
        return TerminalDesign.for_optimal_cost(prob)
    return TerminalDesign.for_amplified_cost(prob, sc.amplification())


def _mpc_setup(args):
    """Scenario, output directory, problem, terminal design and horizon."""
    sc = _load(args)
    out = _outdir(args)
    prob = sc.constrained_problem()
    ell = args.ell if args.ell is not None else sc.horizon
    return sc, out, prob, _design(prob, sc, args.terminal), ell


def _grid_spec(sc: Scenario, args) -> dict:
    if sc.system.n != 2:
        raise ScenarioError(f"grid sweeps need a 2-D state; '{sc.name}' has {sc.system.n}")
    if args.grid is not None:
        sc = sc.with_overrides(grid_resolution=args.grid)  # checks the minimum
    return sc.grid_spec()


def _write_grid(grid: CostMapGrid, stem: str, title: str, value_col: int) -> str:
    """Write `stem`.csv and a gnuplot script `stem`.gp; returns the CSV path."""
    csv_path = stem + ".csv"
    grid.to_csv(csv_path)
    with open(stem + ".gp", "w", encoding="utf-8") as f:
        f.write(
            "set datafile separator ','\n"
            "set xlabel 'x1'\nset ylabel 'x2'\n"
            f"set title '{title}'\n"
            "set view map\n"
            f"splot '{os.path.basename(csv_path)}' skip 2 using 1:2:{value_col} with points "
            "pointtype 5 pointsize 0.4 palette notitle\n"
        )
    return csv_path


def _bounds_rows(sys_: LqSystem, K, ells) -> list[tuple]:
    rows = []
    for ell in ells:
        try:
            rep: BoundsReport = full_report(sys_, K, ell)
            rows.append((ell, "ok", rep))
        except ValueError as e:
            rows.append((ell, f"error: {e}", None))
    return rows


# the report fields of a bounds CSV row, after ell and status
_BOUNDS_FIELDS = (
    "actual_gap", "bound_contraction", "bound_monotone", "bound_newton",
    "alpha", "beta_ell", "rho", "c1", "c2", "gamma", "design_distance",
)
_BOUNDS_HEADER = "ell,status," + ",".join(_BOUNDS_FIELDS)


def _bounds_fields(rep: BoundsReport) -> str:
    return ",".join(_fmt(getattr(rep, name)) for name in _BOUNDS_FIELDS)


def _write_bounds_csv(path: str, rows: list[tuple], note: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# terminal matrix: {note}\n{_BOUNDS_HEADER}\n")
        for ell, status, rep in rows:
            if rep is None:
                f.write(f"{ell},{status}" + ",nan" * len(_BOUNDS_FIELDS) + "\n")
            else:
                f.write(f"{ell},{status},{_bounds_fields(rep)}\n")


def _terminal_sets(prob: ConstrainedProblem, zetas, seed: int, out: str) -> tuple[float, list]:
    """The optimal terminal set and one amplified set per zeta (zeta = 1 is
    the optimal one), each written to `out` as CSV.  Returns the optimal
    set's volume and (zeta, volume, volume ratio, contained in Xhat) rows."""
    base = TerminalDesign.for_optimal_cost(prob)
    vol_base = volume(base.S, seed=seed)
    base.S.to_csv(os.path.join(out, "terminal-set-optimal.csv"))
    rows = []
    for z in zetas:
        design = base if z == 1.0 else TerminalDesign.for_amplified_cost(prob, z)
        v = volume(design.S, seed=seed)
        design.S.to_csv(os.path.join(out, f"terminal-set-zeta-{z:g}.csv"))
        rows.append((z, v, v / vol_base, prob.state_set_contains(design.S)))
    return vol_base, rows


def _trajectory_header(sys_: LqSystem, costs: list[str]) -> str:
    return ",".join(
        ["k"] + [f"x{i + 1}" for i in range(sys_.n)] + [f"u{i + 1}" for i in range(sys_.m)]
        + ["stage_cost"] + costs
    ) + "\n"


def _trajectory_costs(prob: ConstrainedProblem, design: TerminalDesign, ell: int,
                      x0, steps: int) -> list[dict]:
    """`simulate_trajectory` records of the ell-step closed loop from x0; each
    feasible record also gets the cost-to-go from its state of that loop
    ("policy") and of the ell=100 approximation of the optimum ("optimal")."""
    ctl = MpcController(prob, design, ell)
    records = ctl.simulate_trajectory(x0, max_steps=steps)
    for rec in records:
        if rec["feasible"]:
            rec["policy"] = ctl.simulate_cost(rec["x"])
            rec["optimal"] = approx_optimal_cost(prob, design, rec["x"])
    return records


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    sc = _load(args)
    out = _outdir(args)
    ells = _parse_list(args.ell, int, "horizon")
    K, note = _terminal_matrix(sc, args.zeta)
    rows = _bounds_rows(sc.system, K, ells)
    path = os.path.join(out, f"bounds-{sc.name}.csv")
    _write_bounds_csv(path, rows, note)
    print(f"# {sc.name}: terminal matrix = {note}")
    print(f"{'ell':>4} {'gap':>14} {'contraction':>14} {'monotone':>14} {'newton':>14}")
    for ell, status, rep in rows:
        if rep is None:
            print(f"{ell:>4} {status}")
        else:
            print(
                f"{ell:>4} {rep.actual_gap:>14.6g} {rep.bound_contraction:>14.6g} "
                f"{rep.bound_monotone:>14.6g} {rep.bound_newton:>14.6g}"
            )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_terminal_set(args) -> int:
    sc = _load(args)
    out = _outdir(args)
    zetas = _amplifications(_parse_list(args.zeta, float, "zeta"))
    vol_base, rows = _terminal_sets(sc.constrained_problem(), zetas, sc.seed, out)
    rows.insert(0, (1.0, vol_base, 1.0, True))
    csv_path = os.path.join(out, f"terminal-ratios-{sc.name}.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("zeta,volume,ratio,contained\n")
        for z, v, r, c in rows:
            f.write(f"{_fmt(z)},{_fmt(v)},{_fmt(r)},{int(c)}\n")
    print(f"{'zeta':>8} {'volume':>14} {'ratio':>10} contained")
    for z, v, r, c in rows:
        print(f"{z:>8g} {v:>14.6f} {r:>10.6f} {'yes' if c else 'NO'}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_region(args) -> int:
    sc, out, prob, design, ell = _mpc_setup(args)
    grid = feasible_region_grid(prob, design, ell, _grid_spec(sc, args), workers=args.workers)
    tag = f"{sc.name}-ell{ell}-{args.terminal}"
    csv_path = _write_grid(grid, os.path.join(out, f"region-{tag}"),
                           f"feasible region (ell={ell})", 3)
    bpts = boundary_points(prob, design, ell, grid)
    bpath = os.path.join(out, f"region-boundary-{tag}.csv")
    with open(bpath, "w", encoding="utf-8") as f:
        f.write("x1,x2\n")
        for p in bpts:
            f.write(f"{_fmt(p[0])},{_fmt(p[1])}\n")
    n_feas = int(grid.feasible.sum())
    print(f"{n_feas} of {grid.feasible.size} grid points feasible")
    print(f"wrote {csv_path} ({len(bpts)} refined boundary points)")
    return EXIT_OK


def cmd_submap(args) -> int:
    sc, out, prob, design, ell = _mpc_setup(args)
    grid = suboptimality_map(prob, design, ell, _grid_spec(sc, args), workers=args.workers)
    tag = f"{sc.name}-ell{ell}-{args.terminal}"
    csv_path = _write_grid(grid, os.path.join(out, f"submap-{tag}"),
                           f"relative suboptimality (ell={ell})", 5)
    finite = grid.rel_gap[np.isfinite(grid.rel_gap)]
    if finite.size:
        print(
            f"max relative suboptimality {finite.max():.6g} "
            f"({finite.max() * 100:.4f}%) over {finite.size} cells"
        )
    else:
        print("no feasible cells with a computed gap")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc, out, prob, design, ell = _mpc_setup(args)
    if args.x0 is not None:
        x0 = np.array(_parse_list(args.x0, float, "x0"))
    elif sc.x0 is not None:
        x0 = sc.x0
    else:
        raise ScenarioError("no x0 given (use --x0 or a scenario that defines one)")
    if x0.size != sc.system.n:
        raise ScenarioError(f"x0 has {x0.size} entries, expected {sc.system.n}")
    records = _trajectory_costs(prob, design, ell, x0, args.steps)
    csv_path = os.path.join(out, f"trajectory-{sc.name}-ell{ell}.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(_trajectory_header(
            sc.system, ["horizon_value", "policy_cost_to_go", "optimal_cost_to_go"]))
        for r in records:
            if not r["feasible"]:
                f.write(f"{r['k']}," + ",".join([_fmt(v) for v in r["x"]])
                        + ",nan" * (sc.system.m + 4) + "\n")
                continue
            vals = [r["k"], *r["x"], *r["u"], r["stage"], r["value"], r["policy"], r["optimal"]]
            f.write(",".join(_fmt(v) for v in vals) + "\n")
    if records and not records[-1]["feasible"]:
        print(f"INFEASIBLE at step {records[-1]['k']} (state {records[-1]['x']})")
    else:
        print(f"simulated {len(records)} steps; wrote {csv_path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# reproduction harness
# --------------------------------------------------------------------------

_EXAMPLE1_TARGETS = {
    "actual_gap": 3.3, "bound_contraction": 534.5, "bound_monotone": 14.4, "bound_newton": 43.0,
}

_TABLE1 = [("di-2d", 2.5, 9.9), ("ac-4d", 4.3, 486.0)]

# (scenario, ell, gap check, contraction check, monotone check, newton check)
_TABLE2 = [
    ("di-2d", 3, ("oom", -3), ("upper", 1e10), ("rel", 9.8, 0.05), ("rel", 553.0, 0.10)),
    ("di-2d", 10, ("upper", 1e-13), ("upper", 1e5), ("upper", 1e-4), ("upper", 1e-7)),
    ("ac-4d", 3, ("rel", 2.8, 0.05), ("oom", 52), ("rel", 486.0, 0.05), ("upper", 1e10)),
    ("ac-4d", 10, ("upper", 1e-3), ("lower", 1e53), ("rel", 404.0, 0.05), ("upper", 1e10)),
    ("ac-4d", 20, ("upper", 1e-7), ("upper", 1e53), ("rel", 248.0, 0.05), ("upper", 1e9)),
]

_TABLE3 = [(5.0, 1.23), (15.0, 1.56), (25.0, 1.65), (35.0, 1.63)]


def _apply_cell(cs: CheckSet, name: str, value: float, cell: tuple) -> None:
    """Check value against a cell (kind, *params); kind names a CheckSet method."""
    kind, *params = cell
    getattr(cs, kind)(name, value, *params)


def _reproduce_example1(cs: CheckSet, out: str, seed: Optional[int]) -> list[str]:
    sc = load_scenario("lqr-scalar")
    t0 = time.perf_counter()
    rep = full_report(sc.system, sc.K0, 1)
    elapsed = time.perf_counter() - t0
    _write_bounds_csv(
        os.path.join(out, "example1-bounds.csv"), [(1, "ok", rep)],
        "reconstructed K0 = 180 (reported only as an initial matrix of 180)",
    )
    for field, target in _EXAMPLE1_TARGETS.items():
        cs.rel(f"example1.{field}", getattr(rep, field), target, 0.05)
    cs.runtime("example1.runtime", elapsed, 1.0)
    return ["example 1: scalar study with reconstructed K0 = 180"]


def _reproduce_table1(cs: CheckSet, out: str, seed: Optional[int]) -> list[str]:
    t0 = time.perf_counter()
    rows = []
    for name, ratio_target, dist_target in _TABLE1:
        sc = load_scenario(name)
        sys_ = sc.system
        Kstar, _ = sys_.optimal
        K = zeta_dare(sys_, sc.amplification())
        ratio = induced_two_norm(K) / induced_two_norm(Kstar)
        dist = induced_two_norm(K - Kstar)
        rows.append((name, sc.amplification(), ratio, dist))
        cs.abs(f"table1.{name}.norm_ratio", ratio, ratio_target, 0.1)
        cs.rel(f"table1.{name}.distance", dist, dist_target, 0.01)
    elapsed = time.perf_counter() - t0
    with open(os.path.join(out, "table1.csv"), "w", encoding="utf-8") as f:
        f.write("scenario,amplification,norm_ratio,distance\n")
        for name, amp, ratio, dist in rows:
            f.write(f"{name},{_fmt(amp)},{_fmt(ratio)},{_fmt(dist)}\n")
    cs.runtime("table1.runtime", elapsed, 1.0)
    return ["table 1: terminal matrix ratio/distance at the calibrated amplification"]


def _reproduce_table2(cs: CheckSet, out: str, seed: Optional[int]) -> list[str]:
    t0 = time.perf_counter()
    reports, cache = [], {}
    for name, ell, g_c, c_c, m_c, n_c in _TABLE2:
        if name not in cache:
            sc = load_scenario(name)
            cache[name] = (sc.system, zeta_dare(sc.system, sc.amplification()))
        sys_, K = cache[name]
        rep = full_report(sys_, K, ell)
        reports.append((name, ell, rep))
        _apply_cell(cs, f"table2.{name}.ell{ell}.gap", rep.actual_gap, g_c)
        _apply_cell(cs, f"table2.{name}.ell{ell}.contraction", rep.bound_contraction, c_c)
        _apply_cell(cs, f"table2.{name}.ell{ell}.monotone", rep.bound_monotone, m_c)
        _apply_cell(cs, f"table2.{name}.ell{ell}.newton", rep.bound_newton, n_c)
    elapsed = time.perf_counter() - t0
    with open(os.path.join(out, "table2.csv"), "w", encoding="utf-8") as f:
        f.write("scenario," + _BOUNDS_HEADER + "\n")
        for name, ell, rep in reports:
            f.write(f"{name},{ell},ok,{_bounds_fields(rep)}\n")
    cs.runtime("table2.runtime", elapsed, 10.0)
    return ["table 2: optimality gap and bounds across horizons"]


def _reproduce_table3(cs: CheckSet, out: str, seed: Optional[int]) -> list[str]:
    sc = _scenario("di-2d", seed)
    t0 = time.perf_counter()
    vol_base, rows = _terminal_sets(
        sc.constrained_problem(), [z for z, _ in _TABLE3], sc.seed, out)
    for (z, _, ratio, contained), (_, target) in zip(rows, _TABLE3):
        cs.abs(f"table3.zeta{z:g}.volume_ratio", ratio, target, 0.05)
        cs.flag(f"table3.zeta{z:g}.contained", contained, "terminal set inside state set")
    elapsed = time.perf_counter() - t0
    with open(os.path.join(out, "table3.csv"), "w", encoding="utf-8") as f:
        f.write("zeta,volume,ratio\n")
        f.write(f"1,{_fmt(vol_base)},1\n")
        for z, v, ratio, _ in rows:
            f.write(f"{_fmt(z)},{_fmt(v)},{_fmt(ratio)}\n")
    cs.info("table3.base_volume", vol_base, "terminal set volume for the optimal design")
    cs.runtime("table3.runtime", elapsed, 30.0)
    return ["table 3: terminal set volume ratios (2-D volumes computed exactly)"]


def _reproduce_example3(cs: CheckSet, out: str, seed: Optional[int],
                        workers: Optional[int]) -> list[str]:
    sc = _scenario("di-2d", seed)
    t0 = time.perf_counter()
    prob = sc.constrained_problem()
    amplified = _design(prob, sc, "scenario")
    optimal = TerminalDesign.for_optimal_cost(prob)
    amplified.S.to_csv(os.path.join(out, "example3-terminal-amplified.csv"))
    optimal.S.to_csv(os.path.join(out, "example3-terminal-optimal.csv"))
    spec = sc.grid_spec()
    ell = sc.horizon
    grid_amp = feasible_region_grid(prob, amplified, ell, spec, workers=workers)
    grid_opt = feasible_region_grid(prob, optimal, ell, spec, workers=workers)
    grid_amp.to_csv(os.path.join(out, "example3-region-amplified.csv"))
    grid_opt.to_csv(os.path.join(out, "example3-region-optimal.csv"))
    missing = int(np.sum(grid_opt.feasible & ~grid_amp.feasible))
    cs.flag(
        "example3.region_containment",
        missing == 0,
        f"amplified-design region contains optimal-design region "
        f"({missing} uncovered grid cells)",
    )
    cs.info("example3.feasible_cells_amplified", float(grid_amp.feasible.sum()),
            "feasible cells with the amplified design")
    cs.info("example3.feasible_cells_optimal", float(grid_opt.feasible.sum()),
            "feasible cells with the optimal design")
    submap = suboptimality_map(prob, amplified, ell, spec, workers=workers)
    submap.to_csv(os.path.join(out, "example3-submap.csv"))
    finite = submap.rel_gap[np.isfinite(submap.rel_gap)]
    max_gap = float(finite.max()) if finite.size else math.nan
    cs.upper("example3.max_relative_suboptimality", max_gap, 0.005)
    elapsed = time.perf_counter() - t0
    cs.runtime("example3.runtime", elapsed, 600.0)
    return ["example 3: feasible-region containment and suboptimality sweep"]


def _reproduce_example4(cs: CheckSet, out: str, seed: Optional[int]) -> list[str]:
    sc = load_scenario("ac-4d")
    t0 = time.perf_counter()
    prob = sc.constrained_problem()
    design = _design(prob, sc, "scenario")
    ell = sc.horizon
    records = _trajectory_costs(prob, design, ell, sc.x0, 200)
    feasible = bool(records) and all(r["feasible"] for r in records)
    steps = [r for r in records if r["feasible"]]  # all but an infeasible last one
    gaps = [r["policy"] - r["optimal"] for r in steps]
    rel_at_x0, j_opt_x0 = math.nan, math.nan
    if steps and steps[0]["optimal"] > 0:
        j_opt_x0 = steps[0]["optimal"]
        rel_at_x0 = (steps[0]["policy"] - j_opt_x0) / j_opt_x0
    with open(os.path.join(out, "example4-trajectory.csv"), "w", encoding="utf-8") as f:
        f.write(_trajectory_header(sc.system, ["policy_cost_to_go", "optimal_cost_to_go"]))
        for r in steps:
            vals = [r["k"], *r["x"], *r["u"], r["stage"], r["policy"], r["optimal"]]
            f.write(",".join(_fmt(v) for v in vals) + "\n")
    elapsed = time.perf_counter() - t0
    cs.flag("example4.recursive_feasibility", feasible,
            f"every step of the closed loop feasible ({len(records)} steps)")
    min_gap = min(gaps) if gaps else math.nan
    cs.lower("example4.min_cost_gap", min_gap, -1e-6)
    cs.upper("example4.relative_gap_at_x0", rel_at_x0, 0.01)
    if gaps:
        cs.info("example4.max_cost_gap", max(gaps), "largest policy-minus-optimal gap")
        cs.info("example4.optimal_cost_at_x0", j_opt_x0,
                "reported as approximately 293 for the undocumented start state")
    cs.runtime("example4.runtime", elapsed, 300.0)
    return [
        "example 4: substitute study from a documented start state "
        f"x0 = {np.array2string(sc.x0, separator=', ')} (non-numeric acceptance; "
        "the reported study does not specify x0)",
    ]


def cmd_reproduce(args) -> int:
    out = _outdir(args)
    cs = CheckSet(tol_scale=args.tol_scale)
    notes: list[str]
    if args.example == "1":
        notes = _reproduce_example1(cs, out, args.seed)
    elif args.example == "2":
        notes = _reproduce_table1(cs, out, args.seed)
        notes += _reproduce_table2(cs, out, args.seed)
        notes.insert(0, "example 2: unconstrained studies (tables 1 and 2)")
    elif args.example == "3":
        notes = _reproduce_example3(cs, out, args.seed, args.workers)
    elif args.example == "4":
        notes = _reproduce_example4(cs, out, args.seed)
    elif args.example == "table1":
        notes = _reproduce_table1(cs, out, args.seed)
    elif args.example == "table2":
        notes = _reproduce_table2(cs, out, args.seed)
    elif args.example == "table3":
        notes = _reproduce_table3(cs, out, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ScenarioError(f"unknown example id {args.example!r}")
    if args.tol_scale != 1.0:
        notes.append(f"tolerances scaled by {args.tol_scale:g}")
    cs.emit(out, notes)
    return EXIT_FAIL if cs.failed else EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lqmpc",
        description=(
            "Performance-bound reports and constrained-MPC studies for "
            "linear-quadratic problems."
        ),
        epilog=f"Built-in scenarios: {', '.join(builtin_names())}.",
    )
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed (sampling / Monte Carlo)")
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="scale factor applied to ± tolerances in reproduction checks")
    # accept the global flags after the subcommand too
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    common.add_argument("--tol-scale", type=float, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q, scenario=True):
        if scenario:
            q.add_argument("--scenario", required=True,
                           help="built-in scenario name or scenario file path")
        q.add_argument("--out", default="lqmpc-out", help="output directory")

    q = sub.add_parser("bounds", help="gap and performance bounds per horizon", parents=[common])
    add_common(q)
    q.add_argument("--ell", default="3,10,20", help="comma-separated horizons")
    q.add_argument("--zeta", type=float, default=None,
                   help="amplification for the terminal matrix (default: scenario)")
    q.set_defaults(func=cmd_bounds)

    q = sub.add_parser("terminal-set", help="terminal set volumes across amplifications", parents=[common])
    add_common(q)
    q.add_argument("--zeta", default="5,15,25,35", help="comma-separated amplifications")
    q.set_defaults(func=cmd_terminal_set)

    for name, fn, help_ in (
        ("region", cmd_region, "feasible-region sweep over the scenario grid"),
        ("submap", cmd_submap, "closed-loop suboptimality sweep over the grid"),
    ):
        q = sub.add_parser(name, help=help_, parents=[common])
        add_common(q)
        q.add_argument("--ell", type=int, default=None, help="horizon (default: scenario)")
        q.add_argument("--grid", type=int, default=None, help="grid resolution per axis")
        q.add_argument("--terminal", choices=("scenario", "optimal"), default="scenario",
                       help="terminal design: scenario recipe or the optimal cost")
        q.add_argument("--workers", type=int, default=None,
                       help="process count for the grid sweep (default: CPU count)")
        q.set_defaults(func=fn)

    q = sub.add_parser("simulate", help="closed-loop trajectory from x0", parents=[common])
    add_common(q)
    q.add_argument("--x0", default=None, help="comma-separated start state")
    q.add_argument("--ell", type=int, default=None, help="horizon (default: scenario)")
    q.add_argument("--steps", type=int, default=60, help="maximum simulation steps")
    q.add_argument("--terminal", choices=("scenario", "optimal"), default="scenario")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("reproduce", help="run a study and check reported values", parents=[common])
    q.add_argument("--example", required=True,
                   choices=("1", "2", "3", "4", "table1", "table2", "table3"))
    q.add_argument("--out", default="lqmpc-out", help="output directory")
    q.add_argument("--workers", type=int, default=None,
                   help="process count for grid sweeps (default: CPU count)")
    q.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
