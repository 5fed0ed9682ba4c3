import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from emlaopt.cli import main
from emlaopt.configio import ConfigError, build_actuator, build_gains, load_json
from emlaopt.presets import lift_emla
from conftest import constant_pose_reference
from test_configio import INLINE_ACTUATOR


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
    # Radau's exit status and work counters travel with the summary
    solver = json.loads((trk / "tracking.json").read_text())["solver"]
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


def test_report_missing_artifacts(tmp_path):
    cfg = write(tmp_path, "report.json", {"artifacts": str(tmp_path / "nowhere")})
    assert run(["report", "--config", cfg, "--out", str(tmp_path / "rep")]) == 2


def test_report_rejects_empty_trajectory(tmp_path):
    empty = {"degree": 5, "control_points": [], "t_final": 1.0, "times": [],
             "q": [], "qd": [], "qdd": [], "v_x": [], "f_x": [], "power": [],
             "psi": [0, 0], "psi_raw": {}, "weights": [0.5, 0.5], "cost": 0.0,
             "constraint_violation": 0.0, "converged": True, "outer_iterations": 0}
    art = tmp_path / "art"
    art.mkdir()
    (art / "trajectory.json").write_text(json.dumps(empty))
    cfg = write(tmp_path, "report.json", {"artifacts": str(art)})
    assert run(["report", "--config", cfg, "--out", str(tmp_path / "rep")]) == 2


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
    # "auglag" named a backend that no longer exists; it must not fall back
    for method in ("newton", "auglag"):
        cfg = write(tmp_path, f"traj_{method}.json", dict(TRAJ_CFG, method=method))
        out = tmp_path / method
        assert run(["trajopt", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: method:") and "Traceback" not in err
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
    assert err.startswith("error: weight_lower must be") and "Traceback" not in err
    assert not (tmp_path / "bl" / "manifest.json").exists()


@pytest.mark.parametrize("outer, match", [
    ({"grid_points": 0}, "grid_points must be"),
    ({"grid_points": 2.5}, "grid_points must be"),
    ({"method": "nelder-mead"}, "outer.method"),
    ({"maxiter": 40}, "outer: unknown keys"),
    ({"warm_start": False}, "outer: unknown keys"),
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
     "config: a trajopt config takes only ['manipulator', 'method', 'problem', 'weights'], "
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
    # a 1-point axis has no cell to interpolate in: every rating was NaN
    cfg = write(tmp_path, "bl.json", {
        "manipulator": {"preset": "default"},
        "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
        "actuators": {"preset": "default"},
        "outer": {"method": "grid", "grid_points": 2},
        "maps": {"n_force": 1},
    })
    assert run(["bilevel", "--config", cfg, "--out", str(tmp_path / "bl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: force_axis") and "Traceback" not in err
    assert not (tmp_path / "bl" / "manifest.json").exists()


def test_map_nan_axis_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "map.json", {
        "actuator": {"preset": "lift_6kw"},
        "grid": {"force": [float("nan"), 3e4, 5], "velocity": [0.004, 0.135, 5]},
    })
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: force_axis") and "Traceback" not in err
    assert not (tmp_path / "m" / "manifest.json").exists()


def test_invalid_config_exit_code(tmp_path):
    cfg = write(tmp_path, "map.json", {"actuator": {"preset": "nope"}})
    assert run(["map", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x" / "manifest.json").exists()
