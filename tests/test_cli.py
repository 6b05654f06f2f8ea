"""Scenario ingestion and the command-line driver."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from lqmpc import ConstrainedProblem, HPolytope, ScenarioError, load_scenario, riccati, volume
from lqmpc.cli import main
from lqmpc.scenarios import builtin_names


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def test_builtin_names():
    assert set(builtin_names()) == {"lqr-scalar", "di-2d", "ac-4d"}


def test_builtin_di2d():
    sc = load_scenario("di-2d")
    np.testing.assert_array_equal(sc.A, [[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(sc.B, [[0.0], [1.0]])
    np.testing.assert_array_equal(sc.Q, np.eye(2))
    np.testing.assert_array_equal(sc.R, [[1.0]])
    assert sc.terminal_kind == "zeta_dare"
    assert sc.zeta == 50.0
    assert sc.horizon == 3
    assert sc.constrained
    prob = sc.constrained_problem()
    assert prob.Xhat.dim == 2 and prob.U.dim == 1


def test_builtin_ac4d():
    sc = load_scenario("ac-4d")
    assert sc.A.shape == (4, 4)
    assert sc.B.shape == (4, 2)
    assert sc.horizon == 2
    assert sc.zeta == 50.0
    # pitch-angle channel is the tightly constrained one
    prob = sc.constrained_problem()
    lo, hi = np.min(prob.Xhat.h), np.max(prob.Xhat.h)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(50.0)
    assert sc.x0 is not None and sc.x0.shape == (4,)


def test_builtin_scalar():
    sc = load_scenario("lqr-scalar")
    assert sc.A[0, 0] == 2.0 and sc.B[0, 0] == 0.5
    assert sc.K0 is not None and sc.K0[0, 0] == 180.0
    assert not sc.constrained


def test_scenario_overrides():
    sc = load_scenario("di-2d").with_overrides(grid_resolution=7, horizon=5)
    assert sc.grid_resolution == 7 and sc.horizon == 5


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

GOOD = """\
# toy double integrator
name: "toy"
A: [[1, 1], [0, 1]]
B: [[0], [1]]
Q: [[1, 0], [0, 1]]
R: [[1]]
state_box: [[-4, -4], [4, 4]]
input_box: [[-1], [1]]
terminal_kind: "zeta_dare"
zeta: 10
horizon: 4
x0: [1, 0]
"""


def test_load_scenario_file(tmp_path):
    f = tmp_path / "toy.scn"
    f.write_text(GOOD)
    sc = load_scenario(str(f))
    assert sc.name == "toy"
    assert sc.zeta == 10.0
    assert sc.horizon == 4
    np.testing.assert_array_equal(sc.x0, [1.0, 0.0])
    prob = sc.constrained_problem()
    assert prob.Xhat.nrows == 4


@pytest.mark.parametrize(
    "find, replace, message",
    [
        ("A: [[1, 1], [0, 1]]", "A: [[1, 1], [0]]", "row"),  # ragged row named
        ("zeta: 10", "bogus: 3", "unknown field"),
        ("zeta: 10", "zeta: 10\nzeta: 11", "duplicate"),
        ("R: [[1]]", "R: [[1,]]", "invalid value"),
        ("zeta: 10", "seed: 3", "unknown field 'seed'"),
    ],
)
def test_load_scenario_errors(tmp_path, find, replace, message):
    bad = GOOD.replace(find, replace)
    f = tmp_path / "bad.scn"
    f.write_text(bad)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(str(f))


def test_load_scenario_missing_required(tmp_path):
    f = tmp_path / "frag.scn"
    f.write_text('name: "frag"\nA: [[1]]\nB: [[1]]\nQ: [[1]]\n')
    with pytest.raises(ScenarioError, match="missing required field 'R'"):
        load_scenario(str(f))


def test_load_scenario_box_and_hrep_conflict(tmp_path):
    f = tmp_path / "conflict.scn"
    f.write_text(
        GOOD + "state_H: [[1, 0]]\nstate_h: [4]\n"
    )
    with pytest.raises(ScenarioError, match="not both"):
        load_scenario(str(f))


def test_load_scenario_bad_zeta(tmp_path):
    f = tmp_path / "z.scn"
    f.write_text(GOOD.replace("zeta: 10", "zeta: 0.5"))
    with pytest.raises(ScenarioError, match="zeta"):
        load_scenario(str(f))


def test_load_scenario_unknown_name():
    with pytest.raises(ScenarioError, match="built-ins"):
        load_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_cmd_bounds_writes_csv(tmp_path, capsys):
    rc = main(
        ["bounds", "--scenario", "lqr-scalar", "--ell", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    csv = tmp_path / "bounds-lqr-scalar.csv"
    lines = csv.read_text().splitlines()
    # provenance comment (reconstructed K0), then the header
    assert lines[0].startswith("#")
    assert lines[1].startswith("ell,")
    row = lines[2].split(",")
    assert int(row[0]) == 1
    # gap, contraction, monotone, newton columns
    vals = [float(v) for v in row[2:6]]
    assert vals[0] == pytest.approx(3.2513, rel=1e-3)
    assert vals[2] == pytest.approx(14.4268, rel=1e-3)


def test_cmd_bounds_solves_the_riccati_pair_once(tmp_path, monkeypatch):
    # the optimal terminal matrix and every report share the scenario's one
    # system, and so its one Riccati solve
    scn = tmp_path / "toy-dare.scn"
    scn.write_text(GOOD.replace('terminal_kind: "zeta_dare"\nzeta: 10\n',
                                'terminal_kind: "dare"\n'))
    calls = []
    solve_dare = riccati.solve_dare

    def counting_solve_dare(*args, **kwargs):
        calls.append(1)
        return solve_dare(*args, **kwargs)

    monkeypatch.setattr(riccati, "solve_dare", counting_solve_dare)
    rc = main(["bounds", "--scenario", str(scn), "--ell", "3,10", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "bounds-toy.csv").read_text().splitlines()
    assert lines[0] == "# terminal matrix: optimal cost matrix"
    assert [row.split(",")[:2] for row in lines[2:]] == [["3", "ok"], ["10", "ok"]]
    assert len(calls) == 1


def test_cmd_bounds_with_zeta_1_solves_one_dare(tmp_path, monkeypatch):
    # zeta = 1 is the optimal design: its terminal matrix is the scenario's
    # own Riccati solution, not a second solve of an equal system
    calls = []
    solve_dare = riccati.solve_dare

    def counting_solve_dare(*args, **kwargs):
        calls.append(1)
        return solve_dare(*args, **kwargs)

    monkeypatch.setattr(riccati, "solve_dare", counting_solve_dare)
    rc = main(["bounds", "--scenario", "di-2d", "--zeta", "1", "--ell", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "bounds-di-2d.csv").read_text().splitlines()
    assert lines[0] == "# terminal matrix: zeta=1"
    assert lines[2].split(",")[:2] == ["3", "ok"]
    assert len(calls) == 1


def test_cmd_terminal_set_checks_the_optimal_row(tmp_path, monkeypatch):
    # the optimal set's leading row is checked like every other row
    monkeypatch.setattr(ConstrainedProblem, "state_set_contains", lambda self, S: False)
    rc = main(["terminal-set", "--scenario", "di-2d", "--zeta", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "terminal-ratios-di-2d.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "5"]
    assert [row.split(",")[-1] for row in lines[1:]] == ["0", "0"]


def test_cmd_terminal_set_unit_ratio(tmp_path):
    rc = main(
        ["terminal-set", "--scenario", "di-2d", "--zeta", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "terminal-ratios-di-2d.csv").read_text().splitlines()
    assert lines[0] == "zeta,volume,ratio,contained"
    assert len(lines) == 2  # one data row for the one requested zeta
    zeta, vol, ratio = lines[1].split(",")[:3]
    assert float(zeta) == 1.0
    assert float(vol) == pytest.approx(16.07809, rel=1e-6)
    assert float(ratio) == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "terminal-set-zeta-1.csv").exists()


SCALAR_BOX = str(Path(__file__).parent / "data" / "scalar-box.txt")


def test_scalar_box_scenario_end_to_end(tmp_path):
    # a 1-D constrained scenario: its sets take the 1-D paths of `vertices`,
    # `volume` and `bounding_box`
    for command in ("terminal-set", "bounds", "simulate"):
        assert main([command, "--scenario", SCALAR_BOX, "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "terminal-ratios-scalar-box.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "5", "15", "25", "35"]
    assert [row[-1] for row in rows] == ["1"] * 5
    # the optimal set's volume is its span, by two support LPs of the
    # half-spaces as written (at full precision)
    Hh = np.loadtxt(tmp_path / "terminal-set-optimal.csv", delimiter=",", skiprows=1, ndmin=2)
    H, h = Hh[:, :1], Hh[:, 1]
    top, bottom = (linprog(c, A_ub=H, b_ub=h, bounds=[(None, None)], method="highs").fun
                   for c in ([-1.0], [1.0]))
    span = -top - bottom
    assert volume(HPolytope(H, h)) == pytest.approx(span, rel=1e-12, abs=0.0)
    assert rows[0][1] == f"{span:.12g}"
    trajectory = (tmp_path / "trajectory-scalar-box-ell3.csv").read_text().splitlines()
    assert trajectory[1].split(",")[:2] == ["0", "2"]
    assert (tmp_path / "bounds-scalar-box.csv").exists()


def test_cmd_simulate_origin(tmp_path):
    rc = main(
        [
            "simulate", "--scenario", "di-2d", "--x0", "0,0", "--steps", "5",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "trajectory-di-2d-ell3.csv").read_text().splitlines()
    assert len(lines) == 6
    for row in lines[1:]:
        fields = [float(v) for v in row.split(",")[1:6]]
        np.testing.assert_allclose(fields, 0.0, atol=1e-12)


def test_cmd_region_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(
            ["region", "--scenario", "di-2d", "--grid", "9", "--out", str(out)]
        )
        assert rc == 0
    name = "region-di-2d-ell3-scenario.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "region-di-2d-ell3-scenario.gp").exists()


def test_cmd_reproduce_table1(tmp_path, capsys):
    rc = main(["reproduce", "--example", "table1", "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured and "FAIL" not in captured
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    names = {c["name"] for c in summary["checks"]}
    assert "table1.di-2d.norm_ratio" in names
    for c in summary["checks"]:
        assert {"name", "value", "target", "passed"} <= set(c)


def test_example3_policy_cost_within_value(tmp_path, monkeypatch):
    """Example 3 flags J_pol <= V_ell on every feasible cell and reports the
    largest (J_pol - V_ell)/V_ell, which is negative for the amplified
    design; a closed loop broken at x = (-1, 1) fails the flag, which names
    that cell."""
    from lqmpc import cli

    def checks(out):
        summary = json.loads((out / "summary.json").read_text())
        return {c["name"]: c for c in summary["checks"]}

    assert main(["reproduce", "--example", "3", "--out", str(tmp_path / "ok")]) == 0
    got = checks(tmp_path / "ok")
    flag, worst = got["example3.policy_cost_within_value"], got["example3.max_policy_cost_over_value"]
    assert flag["passed"] is True and worst["passed"] is None
    assert -1e-3 < worst["value"] < 0
    assert flag["target"].endswith(f"(J_pol - V_ell)/V_ell = {worst['value_repr']})")

    submap = cli.suboptimality_map

    def broken(*args, **kw):
        grid = submap(*args, **kw)
        grid.cost[60, 40] = math.inf
        return grid

    monkeypatch.setattr(cli, "suboptimality_map", broken)
    assert main(["reproduce", "--example", "3", "--out", str(tmp_path / "broken")]) == 1
    got = checks(tmp_path / "broken")
    flag = got["example3.policy_cost_within_value"]
    assert flag["passed"] is False and "worst at x = (-1, 1)" in flag["target"]
    assert [c for c in got.values() if c["passed"] is False] == [flag]


def test_cmd_reproduce_writes_text_summary(tmp_path):
    rc = main(["reproduce", "--example", "table1", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "summary.txt").read_text()
    assert "norm_ratio" in text


def test_usage_error_exit_code():
    assert main(["bounds", "--scenario", "no-such-scenario"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--scenario", "di-2d", "--zeta", "0.5"], "zeta must be >= 1, got 0.5"),
    (["terminal-set", "--scenario", "di-2d", "--zeta", "5,0.5"], "zeta must be >= 1, got 0.5"),
    (["region", "--scenario", "ac-4d", "--grid", "3"], "grid sweeps need a 2-D state"),
    (["region", "--scenario", "di-2d", "--grid", "0"], "grid resolution must be at least 2"),
    (["submap", "--scenario", "di-2d", "--grid", "1"], "grid resolution must be at least 2"),
    (["terminal-set", "--scenario", "di-2d", "--zeta", "5,5"], "zeta 5 given twice in '5,5'"),
    (["bounds", "--scenario", "di-2d", "--ell", "3,3"], "horizon 3 given twice in '3,3'"),
    (["bounds", "--scenario", "di-2d", "--ell", "3,0"], "horizon must be >= 1, got 0"),
    (["region", "--scenario", "di-2d", "--ell", "0"], "horizon must be >= 1, got 0"),
    (["submap", "--scenario", "di-2d", "--ell", "-2"], "horizon must be >= 1, got -2"),
    (["simulate", "--scenario", "di-2d", "--ell", "0"], "horizon must be >= 1, got 0"),
    (["simulate", "--scenario", "di-2d", "--steps", "-3"], "steps must be >= 1, got -3"),
    (["simulate", "--scenario", "di-2d", "--steps", "0"], "steps must be >= 1, got 0"),
])
def test_input_errors_exit_2_with_an_error_line(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not any(tmp_path.iterdir())  # no CSV, not even an empty one


@pytest.mark.parametrize("argv, scenario_edit, message", [
    (["simulate", "--scenario", "di-2d", "--x0", "nan,0"], None, "x0 must be finite, got nan"),
    (["terminal-set", "--scenario", "di-2d", "--zeta", "inf"], None,
     "zeta must be finite, got inf"),
    (["bounds", "--scenario", "di-2d", "--zeta", "inf"], None, "zeta must be finite, got inf"),
    (["simulate"], ("x0: [1, 0]", "x0: [NaN, 0.0]"), "field 'x0': non-finite value"),
    (["bounds"], ("zeta: 10", "zeta: Infinity"), "field 'zeta': non-finite value"),
    (["region"], ("horizon: 4", "horizon: Infinity"), "field 'horizon': non-finite value"),
    (["region"], ("horizon: 4", "grid_resolution: NaN"),
     "field 'grid_resolution': non-finite value"),
])
def test_non_finite_numbers_exit_2_with_an_error_line(tmp_path, capsys, argv, scenario_edit,
                                                      message):
    # from the command line or from a scenario file, which JSON lets hold
    # NaN and Infinity
    if scenario_edit is not None:
        f = tmp_path / "toy.scn"
        f.write_text(GOOD.replace(*scenario_edit))
        argv = argv + ["--scenario", str(f)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("edit, message", [
    (("horizon: 4", 'horizon: "abc"'), "field 'horizon': expected a number, got \"abc\""),
    (("horizon: 4", 'grid_resolution: "x"'),
     "field 'grid_resolution': expected a number, got \"x\""),
    (("zeta: 10", "zeta: [1, 2]"), "field 'zeta': expected a number, got [1, 2]"),
    (("zeta: 10", "zeta: null"), "field 'zeta': expected a number, got null"),
    (("horizon: 4", "horizon: 2.5"), "field 'horizon': expected an integer, got 2.5"),
    (("horizon: 4", "horizon: true"), "field 'horizon': expected a number, got true"),
    (("zeta: 10", 'zeta: 10\nzeta_effective: "3"'),
     "field 'zeta_effective': expected a number, got \"3\""),
    (("state_box: [[-4, -4], [4, 4]]", "state_box: [[-4, -4], [4]]"),
     "field 'state_box': 2 lower, 1 upper bounds"),
    (("state_box: [[-4, -4], [4, 4]]", "state_box: [[4, 4], [-4, -4]]"),
     "scenario 'toy': state constraint set must contain the origin strictly"),
    (("zeta: 10", "zeta: 5\nzeta_effective: 0.5"),
     "field 'zeta_effective': must be >= 1 for terminal_kind 'zeta_dare', got 0.5"),
    (("x0: [1, 0]", "x0: [1, 0]\ngrid_bounds: [[-1], [1]]"),
     "field 'grid_bounds': 1 lower, 1 upper bounds, expected 2 each"),
    (("x0: [1, 0]", "x0: [1, 0]\ngrid_bounds: [[-1, -1, -1], [1, 1, 1]]"),
     "field 'grid_bounds': 3 lower, 3 upper bounds, expected 2 each"),
    # B cannot steer a mode on or outside the unit circle: the PBH rank test
    # rejects the pair before any Riccati iterate, also where the iterates
    # grow only polynomially and would take 100 000 steps to give up
    (("A: [[1, 1], [0, 1]]\nB: [[0], [1]]", "A: [[2, 0], [0, 2]]\nB: [[0], [0]]"),
     "eigenvalue 2 of A is not controllable (PBH rank test); (A, B) may not be stabilizable"),
    (("B: [[0], [1]]", "B: [[0], [0]]"),
     "eigenvalue 1 of A is not controllable (PBH rank test); (A, B) may not be stabilizable"),
    (("A: [[1, 1], [0, 1]]", "A: [[1, 0], [0, 0.5]]"),
     "eigenvalue 1 of A is not controllable (PBH rank test); (A, B) may not be stabilizable"),
])
def test_invalid_scenario_fields_exit_2_with_an_error_line(tmp_path, capsys, edit, message):
    # a field of the wrong type or a constraint set that cannot be built is
    # an input error, not a traceback, and no field is silently rounded
    f = tmp_path / "toy.scn"
    f.write_text(GOOD.replace(*edit))
    out = tmp_path / "out"
    argv = ["simulate", "--steps", "2", "--scenario", str(f), "--out", str(out)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bounds"])  # missing required --scenario
    assert exc.value.code == 2


def test_tol_scale_is_rejected(tmp_path):
    # no option loosens the reproduction checks, before or after the command
    for argv in (["--tol-scale", "10", "reproduce", "--example", "table1"],
                 ["reproduce", "--example", "table1", "--tol-scale", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
    assert not (tmp_path / "summary.json").exists()


def test_module_invocation_smoke(tmp_path):
    # end-to-end: run the installed module exactly as a user would
    proc = subprocess.run(
        [
            sys.executable, "-m", "lqmpc.cli", "bounds", "--scenario",
            "lqr-scalar", "--ell", "1,2", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "bounds-lqr-scalar.csv").exists()


# ---------------------------------------------------------------------------
# the bytes of every table: its header and at least one data line, exactly
# ---------------------------------------------------------------------------

BOUNDS_HEADER = ("ell,status,actual_gap,bound_contraction,bound_monotone,bound_newton,"
                 "alpha,beta_ell,rho,c1,c2,gamma,design_distance")
GRID_HEADER = "x1,x2,feasible,cost,rel_gap"
ZETA_DI2D = "zeta=10.132151874906384"

# (command, {file: {line index: line}}); values are pinned where they sit
# far from a 12-digit rounding boundary, so the last bits of BLAS do not
# move them
TABLES = [
    (["bounds", "--scenario", "lqr-scalar", "--ell", "1"], {
        "bounds-lqr-scalar.csv": {
            0: "# terminal matrix: explicit K0 from scenario",
            1: BOUNDS_HEADER,
            2: "1,ok,3.25127212534,109.801127371,14.4267957395,42.9920281037,0.245895979472,"
               "1,0.566115702479,1,1,0.0124896717023,58.6703197444",
        },
    }),
    (["bounds", "--ell", "1,3"], {
        "bounds-toy.csv": {
            0: "# terminal matrix: explicit K0 from scenario",
            1: BOUNDS_HEADER,
            2: "1,error: K is not in the region of decreasing: min eig(K - F(K)) = -1.000e+00 < 0"
               + ",nan" * 11,
        },
    }),
    (["reproduce", "--example", "1"], {
        "example1-bounds.csv": {
            0: "# terminal matrix: reconstructed K0 = 180 (reported only as an initial "
               "matrix of 180)",
            1: BOUNDS_HEADER,
        },
    }),
    (["reproduce", "--example", "2"], {
        "table1.csv": {
            0: "scenario,amplification,norm_ratio,distance",
            1: "di-2d,10.1321518749,2.51215404562,9.9",
        },
        "table2.csv": {
            0: "scenario," + BOUNDS_HEADER,
            1: "di-2d,3,ok,0.0043931903202,1958.51185237,9.9,558.171293219,1,1,0.58622839671,"
               "0.337886520707,2.95957352163,5.69504431404,9.9",
        },
    }),
    (["reproduce", "--example", "table3"], {
        "table3.csv": {0: "zeta,volume,ratio", 1: "1,16.0780899464,1",
                       2: "5,21.8375993398,1.35822099594"},
        "terminal-set-optimal.csv": {
            0: "H1,H2,h",
            1: "1.000000000000000000e+00,0.000000000000000000e+00,5.000000000000000000e+00",
        },
    }),
    (["terminal-set", "--scenario", "di-2d", "--zeta", "5"], {
        "terminal-ratios-di-2d.csv": {0: "zeta,volume,ratio,contained",
                                      1: "1,16.0780899464,1,1",
                                      2: "5,21.8375993398,1.35822099594,1"},
    }),
    (["region", "--scenario", "di-2d", "--grid", "21"], {
        "region-di-2d-ell3-scenario.csv": {
            0: f"# ell=3;kind=region;resolution=21;{ZETA_DI2D}",
            1: GRID_HEADER,
            2: "-5,-5,0,inf,nan",
            2 + 10 * 21 + 10: "0,0,1,0,nan",
        },
        "region-boundary-di-2d-ell3-scenario.csv": {0: "x1,x2", 2: "-5,0", 3: "-4,-1"},
    }),
    (["submap", "--scenario", "di-2d", "--grid", "9"], {
        "submap-di-2d-ell3-scenario.csv": {
            0: f"# ell=3;kind=submap;resolution=9;{ZETA_DI2D}",
            1: GRID_HEADER,
            2: "-5,-5,0,inf,nan",
        },
    }),
    (["simulate", "--scenario", "di-2d", "--x0=5,5", "--steps", "3"], {
        "trajectory-di-2d-ell3.csv": {
            0: "k,x1,x2,u1,stage_cost,horizon_value,policy_cost_to_go,optimal_cost_to_go",
            1: "0,5,5,nan,nan,nan,nan,nan",
        },
    }),
    (["reproduce", "--example", "4"], {
        "example4-trajectory.csv": {
            0: "k,x1,x2,x3,x4,u1,u2,stage_cost,policy_cost_to_go,optimal_cost_to_go",
            1: "0,12.88,0.5,-1.33,0.23,-0.429202333842,7.49036530534,224.255987051,"
               "293.068321217,292.660578941",
        },
    }),
]


@pytest.mark.parametrize("argv, files", TABLES, ids=lambda v: "-".join(v)
                         if isinstance(v, list) else None)
def test_table_bytes(tmp_path, argv, files):
    if argv[0] == "bounds" and "--scenario" not in argv:  # the error rows
        f = tmp_path / "toy.scn"
        f.write_text(GOOD + "K0: [[0, 0], [0, 0]]\n")
        argv = argv + ["--scenario", str(f)]
    main(argv + ["--out", str(tmp_path)])  # reproduce exits 1 on a reference mismatch
    for name, expected in files.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert {i: lines[i] for i in expected} == expected, name
