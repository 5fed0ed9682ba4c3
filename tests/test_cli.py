import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from emlaopt.cli import RUNNERS, main
from emlaopt.configio import ConfigError, build_actuator, build_gains, load_json
from emlaopt.drivetrain import DriveTrainParams
from emlaopt.presets import lift_emla
from conftest import constant_pose_reference
from test_configio import (
    ACTUATOR_DOC,
    GAINS_DOC,
    INLINE_ACTUATOR,
    MANIPULATOR_DOC,
    PROBLEM_DOC,
    REMOVED_DRIVETRAIN_KEYS,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


MAP_CFG = {"actuator": {"preset": "lift_6kw"},
           "grid": {"preset": "default", "n_force": 10, "n_velocity": 10}}
TRAJ_CFG = {"manipulator": {"preset": "default"},
            "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
            "weights": [0.5, 0.5]}


def run(args):
    return main(args)


def test_map_artifacts_and_determinism(tmp_path):
    cfg = write(tmp_path, "map.json", MAP_CFG)
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("efficiency_map.csv", "efficiency_map.json", "manifest.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    header = (tmp_path / "a" / "efficiency_map.csv").read_text().splitlines()[0]
    assert header == "f_x,v_x,eta,p_cu,p_co,p_sw,p_d,p_mech,p_sc,feasible"


def test_map_parallel_jobs_identical(tmp_path):
    cfg = write(tmp_path, "map.json", MAP_CFG)
    run(["map", "--config", cfg, "--out", str(tmp_path / "j1"), "--jobs", "1"])
    run(["map", "--config", cfg, "--out", str(tmp_path / "j4"), "--jobs", "4"])
    assert (tmp_path / "j1" / "efficiency_map.csv").read_bytes() == \
        (tmp_path / "j4" / "efficiency_map.csv").read_bytes()


def test_trajopt_artifacts(tmp_path):
    cfg = write(tmp_path, "traj.json", TRAJ_CFG)
    assert run(["trajopt", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
    csv_lines = (tmp_path / "t" / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "t,q1,q2,q3,dq1,dq2,dq3,vx1,vx2,vx3,fx1,fx2,fx3,p1,p2,p3"
    assert len(csv_lines) == 1 + 17
    doc = json.loads((tmp_path / "t" / "trajectory.json").read_text())
    assert doc["converged"]
    for row in csv_lines[1:]:
        for token in row.split(","):
            assert np.isfinite(float(token))


def test_trajopt_determinism(tmp_path):
    cfg = write(tmp_path, "traj.json", TRAJ_CFG)
    run(["trajopt", "--config", cfg, "--out", str(tmp_path / "r1")])
    run(["trajopt", "--config", cfg, "--out", str(tmp_path / "r2")])
    assert (tmp_path / "r1" / "trajectory.csv").read_bytes() == \
        (tmp_path / "r2" / "trajectory.csv").read_bytes()


def test_trajopt_weights_default_to_equal_halves(tmp_path):
    # the top-level weights are the one place the follower's weights are set;
    # left out, they are (0.5, 0.5), the value the problem's own default gave
    bare = write(tmp_path, "bare.json", {k: v for k, v in TRAJ_CFG.items() if k != "weights"})
    given = write(tmp_path, "given.json", dict(TRAJ_CFG, weights=[0.5, 0.5]))
    assert run(["trajopt", "--config", bare, "--out", str(tmp_path / "bare")]) == 0
    assert run(["trajopt", "--config", given, "--out", str(tmp_path / "given")]) == 0
    for name in ("trajectory.csv", "trajectory.json"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "given" / name).read_bytes()


@pytest.fixture(scope="module")
def bilevel_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bilevel")
    cfg = write(tmp, "bl.json", {
        "manipulator": {"preset": "default"},
        "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
        "actuators": {"preset": "default"},
        "outer": {"method": "grid", "grid_points": 2},
        "maps": {"n_force": 15, "n_velocity": 15},
    })
    out = tmp / "out"
    assert run(["bilevel", "--config", cfg, "--out", str(out)]) == 0
    return tmp, cfg, out


def test_bilevel_artifacts(bilevel_dir):
    _, _, out = bilevel_dir
    doc = json.loads((out / "bilevel.json").read_text())
    assert len(doc["trace"]) == 4
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "w1,w2,F,inner_converged"
    assert len(trace_lines) == 5
    counts = doc["samples_outside_map"]
    assert len(counts) == 3 and all(isinstance(c, int) and c >= 0 for c in counts)


def test_bilevel_jobs_identical(bilevel_dir):
    tmp, cfg, out = bilevel_dir
    out2 = tmp / "out_j2"
    assert run(["bilevel", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
    for name in ("bilevel.json", "trajectory.csv", "trace.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_trajopt_and_bilevel_leave_scipy_interpolate_unloaded(bilevel_dir, tmp_path):
    # the B-spline basis is evaluated in-house, so a fresh process that runs
    # both solves never imports scipy.interpolate (track's reference spline
    # still does)
    _, bilevel_cfg, _ = bilevel_dir
    traj_cfg = write(tmp_path, "traj.json", TRAJ_CFG)
    script = ("import sys\nfrom emlaopt.cli import main\n"
              "for command, config, out in zip(*[iter(sys.argv[1:])] * 3):\n"
              "    assert main([command, '--config', config, '--out', out]) == 0\n"
              "print(sorted(name for name in sys.modules if name.startswith('scipy.interpolate')))")
    runs = ["trajopt", traj_cfg, str(tmp_path / "t"), "bilevel", bilevel_cfg, str(tmp_path / "b")]
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script, *runs], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_track_pipeline_roundtrip(bilevel_dir, tmp_path):
    _, _, out = bilevel_dir
    cfg = write(tmp_path, "track.json", {
        "trajectory": str(out / "bilevel.json"),
        "actuators": {"preset": "default"},
        "gains": {"preset": "published"},
        "disturbance": {"preset": "none"},
        "dt": 0.01,
    })
    trk = tmp_path / "trk"
    assert run(["track", "--config", cfg, "--out", str(trk)]) == 0
    # reference columns at the collocation instants carry the trajectory
    # samples verbatim
    import csv as _csv

    traj_rows = list(_csv.DictReader((out / "trajectory.csv").open()))
    track_rows = list(_csv.DictReader((trk / "tracking.csv").open()))
    by_time = {row["t"]: row for row in track_rows}
    matched = 0
    for row in traj_rows:
        if row["t"] in by_time:
            got = by_time[row["t"]]
            for j in (1, 2, 3):
                assert got[f"vx_ref{j}"] == row[f"dq{j}"]
                assert got[f"fx_ref{j}"] == row[f"fx{j}"]
            matched += 1
    assert matched == len(traj_rows)
    # the audit reports what the theory fixes; a descent count under a force
    # bound could not fail, so it is gone
    summary = json.loads((trk / "tracking.json").read_text())
    assert sorted(summary["lyapunov"]) == ["strictly_decreasing", "zeta", "zeta_fit"]
    # Radau's exit status and work counters travel with the summary
    solver = summary["solver"]
    assert solver["status"] == 0 and solver["message"]
    assert min(solver[k] for k in ("nfev", "njev", "nlu", "nsteps", "max_step")) > 0
    # each factorization is two LU calls (the real and the complex system);
    # a failed Newton solve halves the step and factors again.  Radau left
    # free failed so often that nlu was 3.9 x nsteps on this run
    assert solver["nlu"] <= 2.5 * solver["nsteps"]


def test_report_from_bilevel(bilevel_dir, tmp_path):
    _, _, out = bilevel_dir
    cfg = write(tmp_path, "report.json", {"artifacts": str(out)})
    rep = tmp_path / "rep"
    assert run(["report", "--config", cfg, "--out", str(rep)]) == 0
    doc = json.loads((rep / "report.json").read_text())
    assert "efficiency" in doc and "criteria" in doc
    bilevel = json.loads((out / "bilevel.json").read_text())
    assert doc["samples_outside_map"] == bilevel["samples_outside_map"]
    assert abs(doc["cost_recomputed"] - doc["criteria"]["cost"]) <= 1e-10


def test_report_from_bare_trajectory(bilevel_dir, tmp_path):
    _, _, out = bilevel_dir
    art = tmp_path / "art"
    art.mkdir()
    (art / "trajectory.json").write_bytes((out / "trajectory.json").read_bytes())
    cfg = write(tmp_path, "report.json", {"artifacts": str(art)})
    rep = tmp_path / "rep"
    assert run(["report", "--config", cfg, "--out", str(rep)]) == 0
    doc = json.loads((rep / "report.json").read_text())
    assert "efficiency" in doc
    # the preset map axes do not depend on the grid density, so the count
    # equals the one the bilevel run made on its coarser maps
    bilevel = json.loads((out / "bilevel.json").read_text())
    assert doc["samples_outside_map"] == bilevel["samples_outside_map"]


@pytest.mark.parametrize("artifact", ["bilevel.json", "trajectory.json"])
def test_report_unknown_actuators_preset_exits_2(bilevel_dir, tmp_path, capsys, artifact):
    # with a bilevel.json the key was never read: report.json was written
    # and the run exited 0
    _, _, out = bilevel_dir
    art = tmp_path / "art"
    art.mkdir()
    (art / artifact).write_bytes((out / artifact).read_bytes())
    cfg = write(tmp_path, "report.json", {"artifacts": str(art), "actuators": {"preset": "nope"}})
    assert run(["report", "--config", cfg, "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: actuators.preset: unknown preset 'nope'")
    assert not (tmp_path / "rep" / "manifest.json").exists()


def test_report_missing_artifacts(tmp_path):
    cfg = write(tmp_path, "report.json", {"artifacts": str(tmp_path / "nowhere")})
    assert run(["report", "--config", cfg, "--out", str(tmp_path / "rep")]) == 2


EMPTY_TRAJECTORY = {
    "degree": 5, "control_points": [], "t_final": 1.0, "times": [], "q": [], "qd": [], "qdd": [],
    "v_x": [], "f_x": [], "power": [], "psi": [0, 0], "psi_raw": {"effort": 0.0, "power": 0.0},
    "weights": [0.5, 0.5], "cost": 0.0, "constraint_violation": 0.0, "converged": True,
    "outer_iterations": 0}


def test_report_rejects_empty_trajectory(tmp_path, capsys):
    art = tmp_path / "art"
    art.mkdir()
    (art / "trajectory.json").write_text(json.dumps(EMPTY_TRAJECTORY))
    cfg = write(tmp_path, "report.json", {"artifacts": str(art)})
    assert run(["report", "--config", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err.startswith("error: trajectory: expected at least 2 times")


def test_bad_json_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "actuator": {,}\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_json(bad)


def test_unknown_preset_reports_path():
    with pytest.raises(ConfigError, match="actuator.preset"):
        build_actuator({"preset": "mystery_motor"})


def test_missing_field_reports_path():
    with pytest.raises(ConfigError, match="gains"):
        build_gains({"delta": [1, 1, 1, 1]}, 3)


def test_trajopt_unknown_method_exits_2(tmp_path, capsys):
    # SLSQP is the one backend, so a trajopt config takes no method key at
    # all; naming one, even "slsqp", must not be ignored
    for method in ("newton", "auglag", "slsqp"):
        cfg = write(tmp_path, f"traj_{method}.json", dict(TRAJ_CFG, method=method))
        out = tmp_path / method
        assert run(["trajopt", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: a trajopt config takes only "
                              "['manipulator', 'problem', 'weights'], got unknown keys ['method']")
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()


def test_bilevel_inverted_weight_box_exits_2(tmp_path, capsys, monkeypatch):
    def no_maps(*args, **kwargs):
        raise AssertionError("efficiency maps built before the outer config was checked")

    monkeypatch.setattr("emlaopt.cli.build_efficiency_map", no_maps)
    cfg = write(tmp_path, "bl.json", {
        "manipulator": {"preset": "default"},
        "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
        "actuators": {"preset": "default"},
        "outer": {"weight_lower": [1.0, 1.0], "weight_upper": [0.05, 0.05]},
        "maps": {"n_force": 8, "n_velocity": 8},
    })
    assert run(["bilevel", "--config", cfg, "--out", str(tmp_path / "bl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weight_lower" in err
    assert not (tmp_path / "bl" / "manifest.json").exists()


@pytest.mark.parametrize("weights", [[0, 0], [-1, 2], [1]])
def test_trajopt_invalid_weights_exit_2(tmp_path, capsys, weights):
    # zero-sum weights solved with NaN weights; negative ones minimized -effort
    cfg = write(tmp_path, "traj.json", dict(TRAJ_CFG, weights=weights))
    assert run(["trajopt", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: weights must be") and "Traceback" not in err
    assert not (tmp_path / "t" / "manifest.json").exists()


@pytest.mark.parametrize("lower", [[0, 0], [0.1], [-0.1, 0.5]])
def test_bilevel_invalid_weight_lower_exits_2(tmp_path, capsys, monkeypatch, lower):
    # the lower corner is a grid point, so (0, 0) would be solved with NaN weights
    def no_maps(*args, **kwargs):
        raise AssertionError("efficiency maps built before the outer config was checked")

    monkeypatch.setattr("emlaopt.cli.build_efficiency_map", no_maps)
    cfg = write(tmp_path, "bl.json", {
        "manipulator": {"preset": "default"},
        "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
        "actuators": {"preset": "default"},
        "outer": {"weight_lower": lower},
        "maps": {"n_force": 8, "n_velocity": 8},
    })
    assert run(["bilevel", "--config", cfg, "--out", str(tmp_path / "bl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: outer: weight_lower must be") and "Traceback" not in err
    assert not (tmp_path / "bl" / "manifest.json").exists()


@pytest.mark.parametrize("outer, match", [
    ({"grid_points": 0}, "grid_points must be"),
    ({"grid_points": 2.5}, "grid_points must be"),
    ({"method": "nelder-mead"}, "outer.method"),
    ({"maxiter": 40}, "outer: it takes only ['grid_points', 'method', 'weight_lower', "
                      "'weight_upper'], got unknown keys ['maxiter']"),
    ({"warm_start": False}, "got unknown keys ['warm_start']"),
])
def test_bilevel_invalid_outer_block_exits_2(tmp_path, capsys, monkeypatch, outer, match):
    # grid_points 0 used to build the maps and solve the centre point first;
    # the Nelder-Mead keys would now be ignored, so they are refused
    def no_maps(*args, **kwargs):
        raise AssertionError("efficiency maps built before the outer config was checked")

    monkeypatch.setattr("emlaopt.cli.build_efficiency_map", no_maps)
    cfg = write(tmp_path, "bl.json", {
        "manipulator": {"preset": "default"},
        "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
        "actuators": {"preset": "default"},
        "outer": outer,
        "maps": {"n_force": 8, "n_velocity": 8},
    })
    assert run(["bilevel", "--config", cfg, "--out", str(tmp_path / "bl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and "Traceback" not in err
    assert not (tmp_path / "bl" / "manifest.json").exists()


@pytest.fixture
def pose_reference(tmp_path):
    """A 1 s constant-pose trajectory.json for track configs."""
    path = tmp_path / "pose.json"
    path.write_text(constant_pose_reference(duration=1.0, pose=[0.8, 0.5, 0.3]).to_json())
    return str(path)


@pytest.mark.parametrize("extra, match", [
    ({"disturbance": {"preset": "Nominal"}}, "disturbance.preset"),
    ({"disturbance": {"force_noise": 0.02}}, "force_noise"),
    ({"duration": 0.02}, "settle_time"),
    ({"duration": 0.3, "settle_time": 0.3}, "settle_time"),
    ({"settle_time": 1.5}, "settle_time"),  # the 1 s reference is the run
    ({"dt": 0}, "dt: "),  # a ZeroDivisionError traceback
    ({"dt": -1e-3}, "dt: "),  # an IndexError traceback
    ({"dt": float("nan")}, "dt: "),
    ({"dt": "2e-3"}, "dt: "),
    ({"dt": True}, "dt: expected a finite number, got True"),
    ({"duration": True}, "duration: expected a finite number, got True"),
    ({"settle_time": "0.2"}, "settle_time: expected a finite number, got '0.2'"),
    ({"trajectory": 5},  # a TypeError traceback
     "trajectory: expected the path of a trajectory.json or bilevel.json, got 5"),
    ({"duration": -0.5, "settle_time": -1},  # an IndexError traceback
     "duration: the run length must be > 0, got -0.5"),
    # a negative noise level gave the audit a negative disturbance bound;
    # a skew of -1 divided by zero and then blamed the stator resistance
    ({"disturbance": {"force_noise_std": -0.5}},
     "disturbance: force_noise_std must be finite and >= 0, got -0.5"),
    ({"disturbance": {"param_perturbation": -1}},
     "disturbance: param_perturbation must be finite and > -1, got -1"),
])
def test_track_invalid_config_exits_2_before_integrating(tmp_path, capsys, monkeypatch,
                                                         pose_reference, extra, match):
    # each ran with exit 0: a zero disturbance, or NaN errors in tracking.json
    def no_run(*args, **kwargs):
        raise AssertionError("closed loop integrated before the track config was checked")

    monkeypatch.setattr("emlaopt.cli.simulate_tracking", no_run)
    cfg = write(tmp_path, "track.json", {"trajectory": pose_reference, **extra})
    assert run(["track", "--config", cfg, "--out", str(tmp_path / "trk")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and "Traceback" not in err
    assert not (tmp_path / "trk" / "manifest.json").exists()


BL_CFG = {"manipulator": {"preset": "default"},
          "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
          "actuators": {"preset": "default"}}


@pytest.mark.parametrize("command, cfg, match", [
    ("map", {"actuator": {"preset": "lift_6kw", "max_current": 1}},
     "actuator: the 'lift_6kw' preset takes no other keys, got unknown keys ['max_current']"),
    ("map", {"actuator": {"preset": "lift_6kw"},
             "grid": {"preset": "default", "n_forces": 10}},
     "grid: the 'default' preset takes only ['n_force', 'n_velocity']"),
    ("trajopt", dict(TRAJ_CFG, problem={"preset": "benchmark", "n_partition": 20}),
     "problem: the 'benchmark' preset takes only ['n_ctrl', 'n_partitions']"),
    ("trajopt", dict(TRAJ_CFG, problem={"preset": "benchmark", "t_upper": 5.0}),
     "got unknown keys ['t_upper']"),
    ("bilevel", dict(BL_CFG, manipulator={"preset": "default", "payload": 300.0}),
     "manipulator: the 'default' preset takes only ['gravity']"),
    ("bilevel", dict(BL_CFG, manipulator={"preset": "hiab"}),
     "manipulator.preset: unknown preset 'hiab'; available: ['default']"),
    ("bilevel", dict(BL_CFG, actuators={"preset": "default", "max_current": 1}),
     "actuators: the 'default' preset takes no other keys"),
    ("track", {"actuators": [{"preset": "lift_6kw"}, {"preset": "tilt_47kw"},
                             {"preset": "telescope_25kw", "name": "slide"}]},
     "actuators[2]: the 'telescope_25kw' preset takes no other keys"),
    ("track", {"gains": {"preset": "published", "delta": [1.0, 1.0, 1.0, 1.0]}},
     "gains: the 'published' preset takes no other keys"),
    ("track", {"gains": {"preset": "paper"}},
     "gains.preset: unknown preset 'paper'; available: ['published']"),
    ("bilevel", dict(BL_CFG, maps={"n_forces": 10}),
     "maps: it takes only ['n_force', 'n_velocity'], got unknown keys ['n_forces']"),
    ("track", {"durations": 2.0},
     "config: a track config takes only ["),
    ("trajopt", {"problems": {"preset": "benchmark", "n_partitions": 16}, "weight": [0.9, 0.1]},
     "config: a trajopt config takes only ['manipulator', 'problem', 'weights'], "
     "got unknown keys ['problems', 'weight']"),
    ("map", {"actuator": {"preset": "lift_6kw"}, "grids": {"preset": "default"}},
     "got unknown keys ['grids']"),
], ids=["actuator", "grid", "problem-misspelled", "problem-inline-key", "manipulator",
        "manipulator-name", "actuators", "actuator-in-list", "gains", "gains-name",
        "maps", "track-top-level", "trajopt-top-level", "map-top-level"])
def test_preset_block_rejects_unread_keys_exits_2(tmp_path, capsys, monkeypatch,
                                                  pose_reference, command, cfg, match):
    # each of these ran on the preset's own values, ignoring the named key,
    # or failed naming a field the config never meant to give; a misspelled
    # maps key built 40x40 maps, "durations" tracked the whole reference and
    # "problems" solved the default problem
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the preset blocks were checked")

    for name in ("build_efficiency_map", "solve_inner", "solve_outer", "simulate_tracking"):
        monkeypatch.setattr(f"emlaopt.cli.{name}", no_work)
    if command == "track":
        cfg = dict(cfg, trajectory=pose_reference)
    path = write(tmp_path, "cfg.json", cfg)
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("grid, match", [
    ({"force": [1000, 2000], "velocity": [0.004, 0.135, 5]}, "grid.force"),
    ({"force": [1.2e4, 4.2e4, 5], "velocity": 0.1}, "grid.velocity"),
    ({"force": [1.2e4, 4.2e4, 5], "velocity": [0.004, "fast", 5]}, "grid.velocity"),
    ([[1.2e4, 4.2e4, 5], [0.004, 0.135, 5]], "grid: expected an object"),
])
def test_map_malformed_grid_exits_2(tmp_path, capsys, grid, match):
    # a short axis ended in an IndexError and a list grid in an AttributeError
    cfg = write(tmp_path, "map.json", {"actuator": {"preset": "lift_6kw"}, "grid": grid})
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + match) and "Traceback" not in err
    assert not (tmp_path / "m" / "manifest.json").exists()


@pytest.mark.parametrize("drive", [{"max_current": float("nan")}, {"enable_core": False}])
def test_map_inline_drive_rejected_exits_2(tmp_path, capsys, drive):
    emla = lift_emla()
    actuator = {"motor": asdict(emla.motor), "drivetrain": asdict(emla.drivetrain),
                "drive": drive}
    cfg = write(tmp_path, "map.json", {
        "actuator": actuator,
        "grid": {"force": [1.2e4, 4.2e4, 8], "velocity": [0.004, 0.135, 8]},
    })
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err.startswith("error: actuator")
    assert not (tmp_path / "m" / "manifest.json").exists()


def test_map_inline_actuator_default_grid_exits_2(tmp_path, capsys):
    # only the preset actuators have a default map envelope
    cfg = write(tmp_path, "map.json", {"actuator": INLINE_ACTUATOR})
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid:") and "'bench'" in err and "force" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m" / "manifest.json").exists()


def test_bilevel_single_point_map_axis_exits_2(tmp_path, capsys):
    # a 1-point axis has no cell to interpolate in: every rating was NaN,
    # and the map's own check later named no config field
    cfg = write(tmp_path, "bl.json", {
        "manipulator": {"preset": "default"},
        "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
        "actuators": {"preset": "default"},
        "outer": {"method": "grid", "grid_points": 2},
        "maps": {"n_force": 1},
    })
    assert run(["bilevel", "--config", cfg, "--out", str(tmp_path / "bl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: maps: n_force must be an integer >= 2, got 1")
    assert "Traceback" not in err
    assert not (tmp_path / "bl" / "manifest.json").exists()


def test_map_nan_axis_exits_2(tmp_path, capsys):
    # the axis bounds are read as JSON numbers, which must be finite
    cfg = write(tmp_path, "map.json", {
        "actuator": {"preset": "lift_6kw"},
        "grid": {"force": [float("nan"), 3e4, 5], "velocity": [0.004, 0.135, 5]},
    })
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid.force: need a grid specification") and "Traceback" not in err
    assert not (tmp_path / "m" / "manifest.json").exists()


def exit_code(args):
    """``main``'s return code, or the code of the exit argparse raises."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, extra, match", [
    ("bilevel", [], "error: {config}: file does not exist\n"),
    ("bilevel", ["--jobs", "0"], "error: argument --jobs: must be an integer >= 1, got '0'\n"),
    ("bilevel", ["--jobs", "-3"], "error: argument --jobs: must be an integer >= 1, got '-3'\n"),
    ("track", ["--seed", "-100"], "error: argument --seed: must be an integer >= 0, got '-100'\n"),
    ("map", ["--seed", "-5"], "error: argument --seed: must be an integer >= 0, got '-5'\n"),
    ("map", ["--seed", "1.5"], "error: argument --seed: must be an integer >= 0, got '1.5'\n"),
], ids=["config-missing", "jobs-0", "jobs-negative", "track-seed-negative", "map-seed-negative",
        "map-seed-float"])
def test_bad_command_line_exits_2(tmp_path, capsys, no_work, command, extra, match):
    # a missing config was read twice and reported as "[Errno 2] No such
    # file or directory"; --jobs 0 or -3 ran inline without a word.  A
    # negative --seed reached track's disturbance, whose message named its
    # shifted seed and not --seed, and map wrote it to the manifest
    config = str(tmp_path / "missing.json")
    assert exit_code([command, "--config", config, "--out", str(tmp_path / "o"), *extra]) == 2
    err = capsys.readouterr().err
    assert match.format(config=config) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["config-directory", "trajectory-directory", "out-file",
                                  "out-under-file"])
def test_unusable_path_exits_2(tmp_path, capsys, case):
    # each ended in an IsADirectoryError, FileExistsError or
    # NotADirectoryError traceback with exit 1
    folder, file = tmp_path / "folder", tmp_path / "file"
    folder.mkdir()
    file.write_text("")
    command, config, out = "map", write(tmp_path, "map.json", MAP_CFG), tmp_path / "o"
    if case == "config-directory":
        config = culprit = folder
    elif case == "trajectory-directory":
        command, culprit = "track", folder
        config = write(tmp_path, "track.json", {"trajectory": str(folder)})
    elif case == "out-file":
        out = culprit = file
    else:
        out = culprit = file / "sub"
    assert run([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {culprit}: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_invalid_config_exit_code(tmp_path):
    cfg = write(tmp_path, "map.json", {"actuator": {"preset": "nope"}})
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x" / "manifest.json").exists()


class WorkStarted(Exception):
    """Raised where a run would build a map, solve or integrate."""


@pytest.fixture
def no_work(monkeypatch):
    def work(*args, **kwargs):
        raise WorkStarted

    for name in ("build_efficiency_map", "solve_inner", "solve_outer", "simulate_tracking"):
        monkeypatch.setattr(f"emlaopt.cli.{name}", work)


def _with(doc, where, **extra):
    """A copy of ``doc`` whose block at ``where`` also holds ``extra``."""
    doc = json.loads(json.dumps(doc))
    block = doc
    for key in where:
        block = block[key]
    block.update(extra)
    return doc


EXPLICIT_GRID = {"force": [1.2e4, 4.2e4, 5], "velocity": [0.004, 0.135, 5]}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, cfg, match", [
    ("trajopt", {"problem": _with(PROBLEM_DOC, (), n_partition=20, wieghts=[0.9, 0.1])},
     "problem: it takes only ['criterion_scales', 'degree', 'fx_lower', 'fx_upper', "),
    ("trajopt", {"manipulator": _with(MANIPULATOR_DOC, (), base_angel=0.1)},
     "manipulator: it takes only ['base', 'base_angle', 'base_pos', 'gravity', 'stages'], "
     "got unknown keys ['base_angel']"),
    ("trajopt", {"manipulator": _with(MANIPULATOR_DOC, ("stages", 1), mount_angel=0.1)},
     "manipulator.stages[1]: it takes only ["),
    ("trajopt", {"manipulator": _with(MANIPULATOR_DOC, ("stages", 0, "boom"), gravity=1.62)},
     "manipulator.stages[0].boom: a body takes only ['com', 'inertia', 'mass'], "
     "got unknown keys ['gravity']"),
    ("track", {"gains": _with(GAINS_DOC, (), kappa=2.0)},
     "gains: it takes only ['delta', 'epsilon', 'k', 'sigma'], got unknown keys ['kappa']"),
    ("map", {"actuator": _with(ACTUATOR_DOC, (), max_current=1.0), "grid": EXPLICIT_GRID},
     "actuator: it takes only ['drive', 'drivetrain', 'motor', 'name'], "
     "got unknown keys ['max_current']"),
    ("map", {"actuator": {"preset": "lift_6kw"}, "grid": dict(EXPLICIT_GRID, n_points=8)},
     "grid: an explicit grid takes only ['force', 'velocity'], got unknown keys ['n_points']"),
    ("trajopt", {"problem": {"preset": "benchmark", "n_partitions": 20.5}},
     "problem: n_partitions must be an integer >= 1, got 20.5"),
    ("trajopt", {"problem": {"preset": "benchmark", "n_ctrl": 8.0}},
     "problem: n_ctrl must be an integer >= 1, got 8.0"),
    ("trajopt", {"problem": {"preset": "benchmark", "n_partitions": True}},
     "problem: n_partitions must be an integer >= 1, got True"),
    ("trajopt", {"problem": dict(PROBLEM_DOC, n_partitions=20.5)},
     "problem: n_partitions must be an integer >= 1, got 20.5"),
    ("trajopt", {"problem": dict(PROBLEM_DOC, degree=5.0)},
     "problem: degree must be an integer >= 1, got 5.0"),
    ("map", {"actuator": {"preset": "lift_6kw"},
             "grid": dict(EXPLICIT_GRID, force=[12000, 42000, 5.7])},
     "grid.force: need a grid specification [lo, hi, n] with an integer n"),
    ("map", {"actuator": {"preset": "lift_6kw"}, "grid": {"preset": "default", "n_force": 12.5}},
     "grid: n_force must be an integer >= 2, got 12.5"),
    ("bilevel", dict(BL_CFG, maps={"n_velocity": 7.5}),
     "maps: n_velocity must be an integer >= 2, got 7.5"),
    ("track", {"disturbance": {"force_noise_std": 0.02, "n_tones": 24.5}},
     "disturbance: it takes only ['force_noise_std', 'param_perturbation', 'seed'], "
     "got unknown keys ['n_tones']"),
    ("track", {"disturbance": {"seed": 1.5}}, "disturbance: seed must be an integer >= 0"),
    ("map", dict(MAP_CFG, allow_regeneration="false"),
     "config: a map config takes only ['actuator', 'grid'], "
     "got unknown keys ['allow_regeneration']"),
    ("track", {"disturbance": {"force_noise_std": 0.02, "sensor_noise_std": 0.005}},
     "disturbance: it takes only ['force_noise_std', 'param_perturbation', 'seed'], "
     "got unknown keys ['sensor_noise_std']"),
    ("track", {"disturbance": {"preset": "nominal", "band_hz": [0.2, 8.0]}},
     "disturbance: the 'nominal' preset takes no other keys, got unknown keys ['band_hz']"),
    ("trajopt", {"manipulator": _with(MANIPULATOR_DOC, (), gravity="1.62")},
     "manipulator.gravity: expected a finite number, got '1.62'"),
    ("trajopt", {"manipulator": {"preset": "default", "gravity": "1.62"}},
     "manipulator.gravity: expected a finite number, got '1.62'"),
    ("bilevel", dict(BL_CFG, problem=dict(PROBLEM_DOC, t_lower=0)),
     "problem: t_lower must be finite and > 0, got 0"),
    ("trajopt", dict(TRAJ_CFG, problem=dict(PROBLEM_DOC, q_lower=["0.1", "0.1", "0.1"])),
     "problem.q_lower[0]: expected a finite number, got '0.1'"),
    ("trajopt", dict(TRAJ_CFG, problem=dict(PROBLEM_DOC, criterion_scales=[True, True])),
     "problem.criterion_scales[0]: expected a finite number, got True"),
    ("trajopt", dict(TRAJ_CFG, problem=dict(PROBLEM_DOC, weights=[0.5, 0.5])),
     "problem: it takes only ['criterion_scales', 'degree', 'fx_lower', 'fx_upper', 'n_ctrl', "
     "'n_partitions', 'q_final', 'q_init', 'q_lower', 'q_upper', 'qd_final', 'qd_init', "
     "'qd_lower', 'qd_upper', 't_lower', 't_upper', 'vx_lower', 'vx_upper'], "
     "got unknown keys ['weights']"),
    ("trajopt", dict(TRAJ_CFG, weights=["0.9", "0.1"]),
     "weights[0]: expected a finite number, got '0.9'"),
    ("trajopt", dict(TRAJ_CFG, weights=[True, False]),
     "weights[0]: expected a finite number, got True"),
    ("trajopt", dict(TRAJ_CFG, weights=[10**400, 0.5]),
     "weights[0]: expected a finite number, got 1000"),
    ("track", {"initial_position_error": ["1e-3", "0", "0"]},
     "initial_position_error[0]: expected a finite number, got '1e-3'"),
    ("track", {"initial_position_error": [True, 0, 0]},
     "initial_position_error[0]: expected a finite number, got True"),
    ("trajopt", dict(TRAJ_CFG, problem=dict(PROBLEM_DOC, q_init=[NAN, 0.345, 0.75])),
     "problem.q_init[0]: expected a finite number, got nan"),
    ("trajopt", dict(TRAJ_CFG, problem=dict(PROBLEM_DOC, fx_upper=[INF, 52000, 12000])),
     "problem.fx_upper[0]: expected a finite number, got inf"),
    ("map", {"actuator": {"preset": "lift_6kw"},
             "grid": dict(EXPLICIT_GRID, force=[True, 4.2e4, 5])},
     "grid.force: need a grid specification [lo, hi, n]"),
    ("map", {"actuator": {"preset": "lift_6kw"},
             "grid": dict(EXPLICIT_GRID, force=[1.2e4, "42000", 5])},
     "grid.force: need a grid specification [lo, hi, n]"),
    ("trajopt", {"manipulator": _with(MANIPULATOR_DOC, ("stages", 0, "boom"),
                                      inertia=["1", "2", "3"])},
     "manipulator.stages[0].boom.inertia[0]: expected a finite number, got '1'"),
    ("report", {"artifacts": 5}, "artifacts: expected the path of a directory, got 5"),
    ("report", {"require_tracking": "false"},
     "require_tracking: expected true or false, got 'false'"),
    ("track", {"initial_position_error": [1e-3, 0]},
     "initial_position_error: expected a list of 3 numbers, got [0.001, 0]"),
    ("trajopt", dict(TRAJ_CFG, problem=dict(PROBLEM_DOC, q_lower=[0.1, 0.1])),
     "problem.q_lower: expected a list of 3 numbers, got [0.1, 0.1]"),
    ("trajopt", dict(TRAJ_CFG, problem=dict(PROBLEM_DOC, vx_upper=[-0.112, 0.095, 0.36])),
     "problem: the rate box (qd_* within vx_*) must be wider than zero"),
    ("bilevel", dict(BL_CFG, problem=dict(PROBLEM_DOC, fx_upper=[-60000.0, 52000, 12000])),
     "problem: the force box fx_* must be wider than zero"),
    ("trajopt", {"problem": {"preset": "benchmark", "n_ctrl": 3}},
     "problem: n_ctrl must be an integer >= 4, got 3"),
    ("map", {"actuator": {"preset": "lift_6kw"},
             "grid": dict(EXPLICIT_GRID, force=[1.2e4, 4.2e4, 1])},
     "grid.force: need a grid specification [lo, hi, n] with an integer n >= 2 and finite "
     "numbers lo < hi, got [12000.0, 42000.0, 1]"),
    ("map", {"actuator": {"preset": "lift_6kw"},
             "grid": dict(EXPLICIT_GRID, velocity=[0.135, 0.004, 5])},
     "grid.velocity: need a grid specification [lo, hi, n] with an integer n >= 2"),
    ("map", {"actuator": {"preset": "lift_6kw"},
             "grid": dict(EXPLICIT_GRID, force=[1.2e4, 1.2e4, 5])},
     "grid.force: need a grid specification [lo, hi, n] with an integer n >= 2"),
    ("map", {"actuator": {"preset": "lift_6kw"}, "grid": {"preset": "default", "n_force": 1}},
     "grid: n_force must be an integer >= 2, got 1"),
    ("bilevel", dict(BL_CFG, maps={"n_velocity": 1}),
     "maps: n_velocity must be an integer >= 2, got 1"),
    *[("map", {"actuator": _with(ACTUATOR_DOC, ("drivetrain",), **{key: 1e5}),
               "grid": EXPLICIT_GRID},
       f"actuator.drivetrain: it takes only {sorted(f.name for f in fields(DriveTrainParams))}, "
       f"got unknown keys [{key!r}]") for key in REMOVED_DRIVETRAIN_KEYS],
], ids=["problem", "manipulator", "stage", "body", "gains", "actuator", "grid",
        "count-preset-float", "count-preset-integral-float", "count-preset-bool",
        "count-inline-float", "count-inline-degree", "count-grid-n", "count-grid-preset-n",
        "count-maps-n", "count-n_tones", "count-seed", "regeneration", "sensor_noise_std",
        "band_hz", "gravity-inline", "gravity-preset", "t_lower", "vector-string", "vector-bool",
        "problem-weights", "weights-string", "weights-bool", "weights-beyond-float",
        "position-error-string", "position-error-bool",
        "vector-nan", "vector-infinity", "axis-bool", "axis-string", "inertia-string",
        "artifacts-number", "require-tracking-string", "position-error-length", "vector-length",
        "rate-box-empty", "force-box-zero", "n_ctrl-3", "axis-one-point", "axis-reversed",
        "axis-empty", "count-grid-preset-one", "count-maps-one",
        *REMOVED_DRIVETRAIN_KEYS])
def test_inline_block_or_count_rejected_exits_2(tmp_path, capsys, no_work, pose_reference,
                                                command, cfg, match):
    # each inline case ran without the named key: M = 50 with weights
    # (0.5, 0.5), angles of 0.0, g = 9.81, the published gains, the
    # actuator's own limit, a 5 x 5 map.  Of the counts, the preset's 20.5
    # and 8.0 ended in a TypeError traceback, true solved with M = 1, and
    # every other float was cut to an integer.  The string "false" turned
    # regeneration rating on, a gravity of "1.62" built g = 1.62, and a
    # t_lower of 0 let SLSQP's final time reach the division by it.  Lists
    # of numeric strings or bools were converted to the numbers they spell,
    # and so were a bool or string map-axis bound and a string inertia; a
    # NaN or infinite vector entry was taken as it is.  Regeneration rating,
    # sensor noise and the noise's band and tone count are gone, so their
    # keys are unknown.  A number as the artifacts path ended in a TypeError
    # traceback, and the string "false" demanded tracking.json.  A bad
    # entry of a list is named by its index; a list of the wrong length is
    # quoted whole.  A weight beyond the float range ended in an
    # OverflowError traceback.  An empty rate box (qd_* and vx_* each valid
    # alone) and a force box of zero width reached SLSQP.  A map axis of
    # one point, or with lo >= hi, failed in the map's own check, whose
    # message named no config field.  The shaft is rigid, so the
    # drivetrain's six stiffnesses are unknown keys
    if command == "track":
        cfg = dict(cfg, trajectory=pose_reference)
    path = write(tmp_path, "cfg.json", cfg)
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


POSE = constant_pose_reference(duration=1.0, pose=[0.8, 0.5, 0.3]).to_dict()


@pytest.mark.parametrize("command, name, doc, match", [
    ("track", "traj.json", {"t_final": 3.0},
     "error: trajectory.degree: missing required field"),
    ("report", "bilevel.json", {"outer_value": 0.0, "summary": {}},
     "missing weights_opt, trajectory"),
    ("report", "bilevel.json", {"weights_opt": [1, 1], "outer_value": 0.0, "summary": {},
                                "trajectory": {"t_final": 3.0}},
     "error: trajectory.degree: missing required field"),
    ("track", "traj.json", dict(POSE, degree=5.9),
     "error: trajectory.degree: degree must be an integer >= 1, got 5.9"),
    ("track", "traj.json", dict(POSE, converged="false"),
     "error: trajectory.converged: expected true or false, got 'false'"),
    ("track", "traj.json", dict(POSE, t_final="1.0"),
     "error: trajectory.t_final: expected a finite number, got '1.0'"),
    ("track", "traj.json", dict(POSE, outer_iterations=3.7),
     "error: trajectory.outer_iterations: outer_iterations must be an integer >= 0, got 3.7"),
    ("track", "traj.json", dict(POSE, control_points=[["0.8", "0.5", "0.3"]] * 8),
     "error: trajectory.control_points[0][0]: expected a finite number, got '0.8'\n"),
    ("track", "traj.json", dict(POSE, wieghts=[0.5, 0.5]),
     "error: trajectory: it takes only ['constraint_violation', "),
    ("track", "traj.json", dict(POSE, psi_raw={"effort": 0.0}),
     "error: trajectory.psi_raw.power: missing required field"),
    ("track", "traj.json", EMPTY_TRAJECTORY, "error: trajectory: expected at least 2 times"),
    ("track", "traj.json", dict(POSE, q=POSE["q"][:10]),
     "error: trajectory: q has shape (10, 3), expected (51, 3)"),
    ("report", "trajectory.json", dict(POSE, qd=POSE["qd"][:10]),
     "error: trajectory: qd has shape (10, 3), expected (51, 3)"),
])
def test_malformed_artifact_exits_2(tmp_path, capsys, no_work, command, name, doc, match):
    # the first three ended in a KeyError traceback.  The next five were
    # read as 5, True, 1.0, 3 and the control points the strings spell, and
    # an unknown key or a psi_raw without its power was ignored; the empty
    # trajectory stopped track with an IndexError, and a q shorter than its
    # times tracked to exit 0
    art = tmp_path / "art"
    art.mkdir()
    (art / name).write_text(json.dumps(doc))
    cfg = {"trajectory": str(art / name)} if command == "track" else {"artifacts": str(art)}
    path = write(tmp_path, "cfg.json", cfg)
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


README = Path(__file__).resolve().parent.parent / "README.md"
# a key only one command's config holds, in the order they are looked for
COMMAND_KEYS = (("trajectory", "track"), ("artifacts", "report"), ("outer", "bilevel"),
                ("actuator", "map"), ("problem", "trajopt"))


def test_readme_configs_are_accepted(tmp_path, no_work, pose_reference):
    # the README's config examples run up to the work, so the documented
    # schema and the strict readers agree
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 3
    for i, text in enumerate(blocks):
        doc = json.loads(text)
        command = next(c for key, c in COMMAND_KEYS if key in doc)
        if command == "track":
            doc["trajectory"] = pose_reference
        path = write(tmp_path, f"readme_{i}.json", doc)
        with pytest.raises(WorkStarted):
            run([command, "--config", path, "--out", str(tmp_path / f"o{i}")])


def readme_top_level_keys() -> dict:
    """Each command's top-level config keys, as README's list of them gives
    them: the backquoted names of its item up to the first '(' or ';'."""
    block = re.search(r"top-level\s+keys are:\n\n(.*?)\n\n", README.read_text(), re.S).group(1)
    keys = {}
    for item in block.split("\n- "):
        command, *names = re.findall(r"`(\w+)`", re.split(r"[(;]", item)[0])
        keys[command] = names
    return keys


@pytest.mark.parametrize("command", list(RUNNERS))
def test_readme_top_level_keys_match_the_cli(tmp_path, capsys, no_work, command):
    # an unknown key makes the command name every key it reads; README's
    # list must name the same ones, so neither drifts from the other
    path = write(tmp_path, "cfg.json", {"zzz": 1})
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "got unknown keys ['zzz']" in err
    takes = ast.literal_eval(re.search(r"takes only (\[.*?\])", err).group(1))
    assert sorted(readme_top_level_keys()[command]) == takes
