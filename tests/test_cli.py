"""Scenario ingestion and the command-line driver."""

import json
import subprocess
import sys

import numpy as np
import pytest

from lqmpc import ScenarioError, load_scenario
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
    sc = load_scenario("di-2d").with_overrides(seed=7, horizon=5)
    assert sc.seed == 7 and sc.horizon == 5


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


def test_cmd_terminal_set_unit_ratio(tmp_path):
    rc = main(
        ["terminal-set", "--scenario", "di-2d", "--zeta", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "terminal-ratios-di-2d.csv").read_text().splitlines()
    assert lines[0] == "zeta,volume,ratio,contained"
    zeta, vol, ratio = lines[1].split(",")[:3]
    assert float(zeta) == 1.0
    assert float(vol) == pytest.approx(16.07809, rel=1e-6)
    assert float(ratio) == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "terminal-set-zeta-1.csv").exists()


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
])
def test_input_errors_exit_2_with_an_error_line(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bounds"])  # missing required --scenario
    assert exc.value.code == 2


def test_tol_scale_loosens_checks(tmp_path):
    # a generous scale factor cannot turn passing checks into failures
    rc = main(
        ["reproduce", "--example", "table1", "--tol-scale", "10",
         "--out", str(tmp_path)]
    )
    assert rc == 0


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
