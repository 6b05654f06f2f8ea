"""Command-line driver: bound reports, terminal-set studies, grid sweeps,
closed-loop simulation, and the self-checking reproduction harness.

Every output file is written here, none by the library: tables through
`_write_csv`, polytopes through `np.savetxt`, and gnuplot script stubs;
reproduction runs also emit a machine-readable ``summary.json`` where every
number carries its target, tolerance, and pass/fail flag.  Exit codes: 0 all
checks passed, 1 at least one check failed, 2 usage or input errors.
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
    APPROX_OPT_HORIZON,
    ConstrainedProblem,
    CostMapGrid,
    MpcController,
    TerminalDesign,
    feasible_region_grid,
    feasible_set,
    suboptimality_map,
)
from .matcore import induced_two_norm
from .polytope import HPolytope, volume
from .riccati import LqSystem, zeta_dare
from .scenarios import Scenario, ScenarioError, builtin_names, load_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    # a bool is an int here, so a flag reads 1 or 0
    return f"{x:.12g}" if isinstance(x, (int, float, np.floating)) else str(x)


def _write_csv(path: str, header, rows, comment: Optional[str] = None) -> None:
    """Write `# comment` (if given), the header names and then one line per
    row, each value formatted by `_fmt`."""
    with open(path, "w", encoding="utf-8") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(_fmt, row)) + "\n")


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
    def __init__(self):
        self.checks: list[Check] = []

    def rel(self, name, value, target, rtol) -> None:
        ok = math.isfinite(value) and abs(value - target) <= rtol * abs(target)
        self.checks.append(Check(name, value, f"{_fmt(target)} ±{rtol * 100:g}% (relative)", ok))

    def abs(self, name, value, target, atol) -> None:
        ok = math.isfinite(value) and abs(value - target) <= atol
        self.checks.append(Check(name, value, f"{_fmt(target)} ±{_fmt(atol)} (absolute)", ok))

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


def _parse_list(text: str, cast, what: str, repeats: bool = False) -> list:
    """The comma-separated values of `text`; a value given twice is an error
    unless `repeats` (the entries of a state vector may coincide)."""
    try:
        items = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ScenarioError(f"could not parse {what} list '{text}'") from None
    if not items:
        raise ScenarioError(f"empty {what} list")
    seen = set()
    for v in items:
        if not math.isfinite(v):
            raise ScenarioError(f"{what} must be finite, got {v:g}")
        if v in seen and not repeats:
            raise ScenarioError(f"{what} {v:g} given twice in '{text}'")
        seen.add(v)
    return items


def _amplifications(zetas: list) -> list:
    for z in zetas:
        if not math.isfinite(z):
            raise ScenarioError(f"zeta must be finite, got {z:g}")
        if not z >= 1.0:
            raise ScenarioError(f"zeta must be >= 1, got {z:g}")
    return zetas


def _horizons(ells: list) -> list:
    for ell in ells:
        if ell < 1:
            raise ScenarioError(f"horizon must be >= 1, got {ell}")
    return ells


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
    return TerminalDesign.for_amplified_cost(
        prob, 1.0 if terminal == "optimal" else sc.amplification())


def _mpc_setup(args):
    """Scenario, problem and horizon, each checked; a command checks the rest
    of its arguments before it makes the output directory (`_outdir`) and
    the terminal design (`_design`)."""
    sc = load_scenario(args.scenario)
    ell = _horizons([args.ell])[0] if args.ell is not None else sc.horizon
    return sc, sc.constrained_problem(), ell


def _grid_spec(sc: Scenario, args) -> dict:
    if sc.system.n != 2:
        raise ScenarioError(f"grid sweeps need a 2-D state; '{sc.name}' has {sc.system.n}")
    if args.grid is None:
        return sc.grid_spec()
    if args.grid < 2:
        raise ScenarioError("grid resolution must be at least 2")
    return {**sc.grid_spec(), "resolution": args.grid}


def _write_grid_csv(grid: CostMapGrid, path: str) -> None:
    """One row per cell, row-major from the lower-left corner."""
    X, Y = np.meshgrid(grid.xs, grid.ys)
    cells = [a.ravel().tolist() for a in (X, Y, grid.feasible, grid.cost, grid.rel_gap)]
    _write_csv(path, ("x1", "x2", "feasible", "cost", "rel_gap"), zip(*cells),
               ";".join(f"{k}={v}" for k, v in sorted(grid.meta.items())))


def _write_polytope(S: HPolytope, path: str) -> None:
    """One half-space per row: H entries, then h."""
    header = ",".join([f"H{i+1}" for i in range(S.dim)] + ["h"])
    np.savetxt(path, np.hstack([S.H, S.h[:, None]]), delimiter=",", header=header, comments="")


def _write_grid(grid: CostMapGrid, stem: str, title: str, value_col: int) -> str:
    """Write `stem`.csv and a gnuplot script `stem`.gp; returns the CSV path."""
    csv_path = stem + ".csv"
    _write_grid_csv(grid, csv_path)
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
_BOUNDS_HEADER = ("ell", "status", *_BOUNDS_FIELDS)


def _bounds_row(ell: int, status: str, rep: Optional[BoundsReport]) -> list:
    """ell, status and the report's fields, NaN for a horizon without one."""
    return [ell, status, *(math.nan if rep is None else getattr(rep, name)
                           for name in _BOUNDS_FIELDS)]


def _write_bounds_csv(path: str, rows: list[tuple], note: str) -> None:
    _write_csv(path, _BOUNDS_HEADER, (_bounds_row(*row) for row in rows),
               f"terminal matrix: {note}")


def _terminal_sets(prob: ConstrainedProblem, zetas, out: str) -> tuple[tuple, list]:
    """The optimal terminal set and one amplified set per zeta (zeta = 1 is
    the optimal one), each written to `out` as CSV.  Returns the optimal
    set's row and one row per zeta: (zeta, volume, ratio, contained in Xhat)."""
    base = TerminalDesign.for_optimal_cost(prob)
    vol_base = volume(base.S)
    _write_polytope(base.S, os.path.join(out, "terminal-set-optimal.csv"))
    rows = []
    for z in zetas:
        design = base if z == 1.0 else TerminalDesign.for_amplified_cost(prob, z)
        v = volume(design.S)
        _write_polytope(design.S, os.path.join(out, f"terminal-set-zeta-{z:g}.csv"))
        rows.append((z, v, v / vol_base, prob.state_set_contains(design.S)))
    return (1.0, vol_base, 1.0, prob.state_set_contains(base.S)), rows


def _trajectory_header(sys_: LqSystem, costs: list[str]) -> list[str]:
    return (["k"] + [f"x{i + 1}" for i in range(sys_.n)] + [f"u{i + 1}" for i in range(sys_.m)]
            + ["stage_cost"] + costs)


def _trajectory_costs(prob: ConstrainedProblem, design: TerminalDesign, ell: int,
                      x0, steps: int) -> list[dict]:
    """`simulate_trajectory` records of the ell-step closed loop from x0; each
    feasible record also gets the cost-to-go from its state of that loop
    ("policy") and of the ell=100 approximation of the optimum ("optimal"),
    the loops from every record's state stepped together per controller."""
    ctl = MpcController(prob, design, ell)
    ctl_opt = MpcController(prob, design, APPROX_OPT_HORIZON)
    records = ctl.simulate_trajectory(x0, max_steps=steps)
    feasible = [rec for rec in records if rec["feasible"]]
    if feasible:
        X = np.array([rec["x"] for rec in feasible])
        for key, controller in (("policy", ctl), ("optimal", ctl_opt)):
            for rec, J in zip(feasible, controller._closed_loop_costs(X)):
                rec[key] = float(J)
    return records


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    sc = load_scenario(args.scenario)
    ells = _horizons(_parse_list(args.ell, int, "horizon"))
    K, note = _terminal_matrix(sc, args.zeta)
    path = os.path.join(_outdir(args), f"bounds-{sc.name}.csv")
    rows = _bounds_rows(sc.system, K, ells)
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
    sc = load_scenario(args.scenario)
    zetas = _amplifications(_parse_list(args.zeta, float, "zeta"))
    prob = sc.constrained_problem()
    out = _outdir(args)
    base_row, rows = _terminal_sets(prob, zetas, out)
    if 1.0 not in zetas:  # the optimal set's row leads, once
        rows.insert(0, base_row)
    csv_path = os.path.join(out, f"terminal-ratios-{sc.name}.csv")
    _write_csv(csv_path, ("zeta", "volume", "ratio", "contained"), rows)
    print(f"{'zeta':>8} {'volume':>14} {'ratio':>10} contained")
    for z, v, r, c in rows:
        print(f"{z:>8g} {v:>14.6f} {r:>10.6f} {'yes' if c else 'NO'}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_region(args) -> int:
    sc, prob, ell = _mpc_setup(args)
    spec = _grid_spec(sc, args)
    out, design = _outdir(args), _design(prob, sc, args.terminal)
    grid = feasible_region_grid(prob, design, ell, spec)
    tag = f"{sc.name}-ell{ell}-{args.terminal}"
    csv_path = _write_grid(grid, os.path.join(out, f"region-{tag}"),
                           f"feasible region (ell={ell})", 3)
    V = feasible_set(prob, design, ell)
    bpath = os.path.join(out, f"region-boundary-{tag}.csv")
    _write_csv(bpath, ("x1", "x2"), V)
    n_feas = int(grid.feasible.sum())
    print(f"{n_feas} of {grid.feasible.size} grid points feasible")
    print(f"wrote {csv_path} and {bpath} ({len(V)} vertices of the feasible set)")
    return EXIT_OK


def cmd_submap(args) -> int:
    sc, prob, ell = _mpc_setup(args)
    spec = _grid_spec(sc, args)
    out, design = _outdir(args), _design(prob, sc, args.terminal)
    grid = suboptimality_map(prob, design, ell, spec)
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
    if args.steps < 1:
        raise ScenarioError(f"steps must be >= 1, got {args.steps}")
    sc, prob, ell = _mpc_setup(args)
    if args.x0 is not None:
        x0 = np.array(_parse_list(args.x0, float, "x0", repeats=True))
    elif sc.x0 is not None:
        x0 = sc.x0
    else:
        raise ScenarioError("no x0 given (use --x0 or a scenario that defines one)")
    if x0.size != sc.system.n:
        raise ScenarioError(f"x0 has {x0.size} entries, expected {sc.system.n}")
    out, design = _outdir(args), _design(prob, sc, args.terminal)
    records = _trajectory_costs(prob, design, ell, x0, args.steps)
    csv_path = os.path.join(out, f"trajectory-{sc.name}-ell{ell}.csv")
    _write_csv(
        csv_path,
        _trajectory_header(sc.system, ["horizon_value", "policy_cost_to_go",
                                       "optimal_cost_to_go"]),
        ([r["k"], *r["x"], *r["u"], r["stage"], r["value"], r["policy"], r["optimal"]]
         if r["feasible"] else [r["k"], *r["x"], *[math.nan] * (sc.system.m + 4)]
         for r in records),
    )
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


def _reproduce_example1(cs: CheckSet, out: str) -> list[str]:
    sc = load_scenario("lqr-scalar")
    rep = full_report(sc.system, sc.K0, 1)
    _write_bounds_csv(
        os.path.join(out, "example1-bounds.csv"), [(1, "ok", rep)],
        "reconstructed K0 = 180 (reported only as an initial matrix of 180)",
    )
    for field, target in _EXAMPLE1_TARGETS.items():
        cs.rel(f"example1.{field}", getattr(rep, field), target, 0.05)
    return ["example 1: scalar study with reconstructed K0 = 180"]


def _reproduce_table1(cs: CheckSet, out: str) -> list[str]:
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
    _write_csv(os.path.join(out, "table1.csv"),
               ("scenario", "amplification", "norm_ratio", "distance"), rows)
    return ["table 1: terminal matrix ratio/distance at the calibrated amplification"]


def _reproduce_table2(cs: CheckSet, out: str) -> list[str]:
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
    _write_csv(os.path.join(out, "table2.csv"), ("scenario", *_BOUNDS_HEADER),
               ([name, *_bounds_row(ell, "ok", rep)] for name, ell, rep in reports))
    return ["table 2: optimality gap and bounds across horizons"]


def _reproduce_table3(cs: CheckSet, out: str) -> list[str]:
    sc = load_scenario("di-2d")
    base_row, rows = _terminal_sets(sc.constrained_problem(), [z for z, _ in _TABLE3], out)
    for (z, _, ratio, contained), (_, target) in zip(rows, _TABLE3):
        cs.abs(f"table3.zeta{z:g}.volume_ratio", ratio, target, 0.05)
        cs.flag(f"table3.zeta{z:g}.contained", contained, "terminal set inside state set")
    _write_csv(os.path.join(out, "table3.csv"), ("zeta", "volume", "ratio"),
               (row[:3] for row in [base_row, *rows]))
    cs.info("table3.base_volume", base_row[1], "terminal set volume for the optimal design")
    return ["table 3: terminal set volume ratios (2-D volumes computed exactly)"]


# the relative tolerance of example 3's J_pol <= V_ell flag, above every
# (J_pol - V_ell)/V_ell probed (8.9e-14 at most, on all four example-3 grids)
_POLICY_COST_RTOL = 1e-12


def _reproduce_example3(cs: CheckSet, out: str) -> list[str]:
    sc = load_scenario("di-2d")
    prob = sc.constrained_problem()
    amplified = _design(prob, sc, "scenario")
    optimal = TerminalDesign.for_optimal_cost(prob)
    _write_polytope(amplified.S, os.path.join(out, "example3-terminal-amplified.csv"))
    _write_polytope(optimal.S, os.path.join(out, "example3-terminal-optimal.csv"))
    spec = sc.grid_spec()
    ell = sc.horizon
    grid_amp = feasible_region_grid(prob, amplified, ell, spec)
    grid_opt = feasible_region_grid(prob, optimal, ell, spec)
    _write_grid_csv(grid_amp, os.path.join(out, "example3-region-amplified.csv"))
    _write_grid_csv(grid_opt, os.path.join(out, "example3-region-optimal.csv"))
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
    submap = suboptimality_map(prob, amplified, ell, spec)
    _write_grid_csv(submap, os.path.join(out, "example3-submap.csv"))
    finite = submap.rel_gap[np.isfinite(submap.rel_gap)]
    max_gap = float(finite.max()) if finite.size else math.nan
    cs.upper("example3.max_relative_suboptimality", max_gap, 0.005)
    # J_pol <= V_ell: x'Kx decreases along the terminal gain's loop on S, so
    # the closed loop costs at most the horizon value (relaxed dynamic
    # programming); checked on the cells where the amplified grid is feasible
    feasible = grid_amp.feasible
    J_pol, V = submap.cost[feasible], grid_amp.cost[feasible]
    rel = np.where(V > 0, (J_pol - V) / np.where(V > 0, V, 1.0), -math.inf)
    worst = int(np.argmax(rel))
    iy, ix = np.argwhere(feasible)[worst]
    cs.flag(
        "example3.policy_cost_within_value",
        bool(np.all(J_pol <= V * (1.0 + _POLICY_COST_RTOL))),
        f"closed-loop cost at most the horizon value on every feasible cell, "
        f"J_pol <= V_ell (1 + {_POLICY_COST_RTOL:g}) (worst at x = "
        f"({_fmt(submap.xs[ix])}, {_fmt(submap.ys[iy])}): "
        f"(J_pol - V_ell)/V_ell = {_fmt(rel[worst])})",
    )
    cs.info("example3.max_policy_cost_over_value", float(rel[worst]),
            "largest (J_pol - V_ell)/V_ell over the feasible cells")
    return ["example 3: feasible-region containment and suboptimality sweep"]


def _reproduce_example4(cs: CheckSet, out: str) -> list[str]:
    sc = load_scenario("ac-4d")
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
    _write_csv(os.path.join(out, "example4-trajectory.csv"),
               _trajectory_header(sc.system, ["policy_cost_to_go", "optimal_cost_to_go"]),
               ([r["k"], *r["x"], *r["u"], r["stage"], r["policy"], r["optimal"]]
                for r in steps))
    cs.flag("example4.recursive_feasibility", feasible,
            f"every step of the closed loop feasible ({len(records)} steps)")
    min_gap = min(gaps) if gaps else math.nan
    cs.lower("example4.min_cost_gap", min_gap, -1e-6)
    cs.upper("example4.relative_gap_at_x0", rel_at_x0, 0.01)
    if gaps:
        cs.info("example4.max_cost_gap", max(gaps), "largest policy-minus-optimal gap")
        cs.info("example4.optimal_cost_at_x0", j_opt_x0,
                "reported as approximately 293 for the undocumented start state")
    return [
        "example 4: substitute study from a documented start state "
        f"x0 = {np.array2string(sc.x0, separator=', ')} (non-numeric acceptance; "
        "the reported study does not specify x0)",
    ]


_TABLE1_STUDY = ("table1", _reproduce_table1, 1.0)
_TABLE2_STUDY = ("table2", _reproduce_table2, 10.0)

# the studies of each --example id, in order, as (name, function, runtime
# budget in s); a study's runtime covers all of its function
_STUDIES = {
    "1": (("example1", _reproduce_example1, 1.0),),
    "2": (_TABLE1_STUDY, _TABLE2_STUDY),
    "3": (("example3", _reproduce_example3, 600.0),),
    "4": (("example4", _reproduce_example4, 300.0),),
    "table1": (_TABLE1_STUDY,),
    "table2": (_TABLE2_STUDY,),
    "table3": (("table3", _reproduce_table3, 30.0),),
}


def cmd_reproduce(args) -> int:
    out = _outdir(args)
    cs = CheckSet()
    notes = ["example 2: unconstrained studies (tables 1 and 2)"] if args.example == "2" else []
    for name, study, budget in _STUDIES[args.example]:
        t0 = time.perf_counter()
        notes += study(cs, out)
        cs.runtime(f"{name}.runtime", time.perf_counter() - t0, budget)
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
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q):
        q.add_argument("--scenario", required=True,
                       help="built-in scenario name or scenario file path")
        q.add_argument("--out", default="lqmpc-out", help="output directory")

    q = sub.add_parser("bounds", help="gap and performance bounds per horizon")
    add_common(q)
    q.add_argument("--ell", default="3,10,20", help="comma-separated horizons")
    q.add_argument("--zeta", type=float, default=None,
                   help="amplification for the terminal matrix (default: scenario)")
    q.set_defaults(func=cmd_bounds)

    q = sub.add_parser("terminal-set", help="terminal set volumes across amplifications")
    add_common(q)
    q.add_argument("--zeta", default="5,15,25,35", help="comma-separated amplifications")
    q.set_defaults(func=cmd_terminal_set)

    for name, fn, help_ in (
        ("region", cmd_region, "feasible-region sweep over the scenario grid"),
        ("submap", cmd_submap, "closed-loop suboptimality sweep over the grid"),
    ):
        q = sub.add_parser(name, help=help_)
        add_common(q)
        q.add_argument("--ell", type=int, default=None, help="horizon (default: scenario)")
        q.add_argument("--grid", type=int, default=None, help="grid resolution per axis")
        q.add_argument("--terminal", choices=("scenario", "optimal"), default="scenario",
                       help="terminal design: scenario recipe or the optimal cost")
        q.set_defaults(func=fn)

    q = sub.add_parser("simulate", help="closed-loop trajectory from x0")
    add_common(q)
    q.add_argument("--x0", default=None, help="comma-separated start state")
    q.add_argument("--ell", type=int, default=None, help="horizon (default: scenario)")
    q.add_argument("--steps", type=int, default=60, help="maximum simulation steps")
    q.add_argument("--terminal", choices=("scenario", "optimal"), default="scenario")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("reproduce", help="run a study and check reported values")
    q.add_argument("--example", required=True, choices=tuple(_STUDIES))
    q.add_argument("--out", default="lqmpc-out", help="output directory")
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
