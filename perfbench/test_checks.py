"""Tests of the benchmark's output checks, tracer and calibrated clock.

    python3 -m pytest perfbench -q

Every check must pass on a correct output and fail on a deliberately
corrupted one.  A corruption rewrites the manifest checksum of the file it
edits, so that the check under test, not the manifest check, has to see it.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calib  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from emlaopt import cli, configio, manipulator  # noqa: E402
from emlaopt.bilevel import BilevelResult, efficiency_summary, map_eta_fns  # noqa: E402
from emlaopt.bilevel import quartile_occupancy  # noqa: E402
from emlaopt.control import published_gains  # noqa: E402
from emlaopt.presets import actuators, benchmark_problem, default_manipulator  # noqa: E402
from emlaopt.trajopt import TrajectoryResult  # noqa: E402


def corrupt(out_dir: Path, name: str, edit):
    """Apply ``edit`` to the text of one artifact and refresh its checksum."""
    path = out_dir / name
    path.write_text(edit(path.read_text()))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest["outputs"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def edit_csv(text: str, row: int, column: str, fn) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = fn(cells[i])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def model():
    return default_manipulator()


@pytest.fixture(scope="module")
def winner_doc():
    return json.loads(workloads.WINNER.read_text())


@pytest.fixture
def bilevel_out(tmp_path, winner_doc):
    """The bilevel artifacts of the stored winner, serialized by the program."""
    traj = TrajectoryResult.from_dict(winner_doc["trajectory"])
    result = BilevelResult(
        weights_opt=np.asarray(winner_doc["weights_opt"]),
        outer_value=winner_doc["outer_value"],
        inner=traj,
        summary=winner_doc["summary"],
        trace=[(np.asarray(r["weights"]), r["F"], r["inner_converged"])
               for r in winner_doc["trace"]],
        n_inner_solves=winner_doc["n_inner_solves"],
    )
    files = {
        "bilevel.json": workloads.WINNER.read_text(),
        "trajectory.csv": traj.to_csv(),
        "trajectory.json": traj.to_json(),
        "trace.csv": result.trace_to_csv(),
    }
    out = tmp_path / "bilevel"
    configio.write_artifacts(out, files, json.dumps(workloads.BILEVEL_CONFIG), 0)
    return out


def test_bilevel_checks_pass(bilevel_out, model):
    assert checks.check_bilevel(bilevel_out, benchmark_problem(model), model) == []


def test_perturbed_force_sample_breaks_energy_balance(bilevel_out, model, winner_doc):
    f1 = np.abs(np.asarray(winner_doc["trajectory"]["f_x"])[:, 0])
    k = int(np.argmax(np.abs(np.asarray(winner_doc["trajectory"]["v_x"])[:, 0])))
    bump = 0.02 * f1.max()
    corrupt(bilevel_out, "trajectory.csv",
            lambda text: edit_csv(text, k, "fx1", lambda x: "%.12g" % (float(x) + bump)))
    fails = checks.check_bilevel(bilevel_out, benchmark_problem(model), model)
    assert len(fails) == 1 and "potential energy" in fails[0]


def test_swapped_diagonal_f_breaks_weight_scale_invariance(bilevel_out, model):
    trace = checks.read_csv(bilevel_out / "trace.csv")
    diag = int(np.flatnonzero(trace["w1"] == trace["w2"])[1])
    off = int(np.flatnonzero(trace["w1"] != trace["w2"])[0])

    def swap(text):
        lines = text.splitlines()
        a, b = lines[diag + 1].split(","), lines[off + 1].split(",")
        a[2], b[2] = b[2], a[2]
        lines[diag + 1], lines[off + 1] = ",".join(a), ",".join(b)
        return "\n".join(lines) + "\n"

    corrupt(bilevel_out, "trace.csv", swap)
    fails = checks.check_bilevel(bilevel_out, benchmark_problem(model), model)
    assert len(fails) == 1 and "diagonal" in fails[0]


def test_edited_artifact_breaks_manifest(bilevel_out, model):
    path = bilevel_out / "bilevel.json"
    path.write_text(path.read_text() + " ")
    fails = checks.check_bilevel(bilevel_out, benchmark_problem(model), model)
    assert len(fails) == 1 and "checksum" in fails[0]


def test_outer_value_must_be_the_best_converged_f(bilevel_out, model, winner_doc):
    doc = dict(winner_doc, outer_value=0.999 * winner_doc["outer_value"])
    corrupt(bilevel_out, "bilevel.json", lambda text: json.dumps(doc, indent=2))
    fails = checks.check_bilevel(bilevel_out, benchmark_problem(model), model)
    assert len(fails) == 1 and "outer_value" in fails[0]


@pytest.fixture(scope="module")
def map_out(tmp_path_factory):
    """A small efficiency map written by ``emlaopt map``."""
    root = tmp_path_factory.mktemp("map")
    config = root / "map.json"
    config.write_text(json.dumps({"actuator": {"preset": "lift_6kw"},
                                  "grid": {"preset": "default", "n_force": 12,
                                           "n_velocity": 12}}))
    out = root / "out"
    assert cli.main(["map", "--config", str(config), "--out", str(out)]) == 0
    return out


def test_map_checks_pass(map_out):
    assert checks.check_map_dir(map_out) == []


def test_edited_cell_breaks_map_loss_balance(map_out, tmp_path):
    out = tmp_path / "map"
    out.mkdir()
    for f in map_out.iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    cols = checks.read_csv(out / "efficiency_map.csv")
    row = int(np.flatnonzero(cols["feasible"] == 1.0)[5])
    corrupt(out, "efficiency_map.csv",
            lambda text: edit_csv(text, row, "p_cu", lambda x: "%.12g" % (1.01 * float(x))))
    fails = checks.check_map_dir(out)
    assert len(fails) == 1 and "losses" in fails[0]


def test_ratings_checks():
    from emlaopt.effmap import build_efficiency_map
    from emlaopt.presets import default_map_grid

    models = actuators()
    maps = [build_efficiency_map(m, *default_map_grid(m, 12, 12)) for m in models]
    docs = json.loads(workloads.GRID_TRAJECTORIES.read_text())[:3]
    trajectories = [(np.asarray(d["v_x"]), np.asarray(d["f_x"])) for d in docs]
    ratings = []
    for v, f in trajectories:
        r = efficiency_summary(v, f, map_eta_fns(maps))
        r["quartile_occupancy"] = quartile_occupancy(v, f, maps)
        ratings.append(r)
    assert checks.check_ratings(maps, models, trajectories, ratings) == []
    ratings[1] = dict(ratings[1], total=ratings[1]["total"] * 1.001)
    fails = checks.check_ratings(maps, models, trajectories, ratings)
    assert len(fails) == 1 and "trajectory 1: rating changes" in fails[0]


@pytest.fixture(scope="module")
def track_out(tmp_path_factory):
    """A short closed-loop run of the stored winner written by ``emlaopt track``."""
    root = tmp_path_factory.mktemp("track")
    config = root / "track.json"
    config.write_text(json.dumps({
        "trajectory": str(workloads.WINNER), "actuators": {"preset": "default"},
        "gains": {"preset": "published"}, "disturbance": {"preset": "nominal"},
        "dt": 2e-3, "duration": 0.3}))
    out = root / "out"
    assert cli.main(["track", "--config", str(config), "--out", str(out), "--seed", "1"]) == 0
    return out


def copy_dir(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_tracking_checks_pass(track_out, winner_doc):
    fails = checks.check_tracking(track_out, winner_doc["trajectory"], 0.3,
                                  [published_gains()] * 3)
    assert fails == []


@pytest.mark.parametrize("column, edit, message", [
    ("phi2_1", lambda x: "-1e-3", "phi went negative"),
    ("vx_ref1", lambda x: "%.12g" % (float(x) + 1e-4), "reference columns"),
    ("vx1", lambda x: "%.12g" % (float(x) + 0.05), "velocity RMS"),
])
def test_corrupted_tracking_fails(track_out, winner_doc, tmp_path, column, edit, message):
    out = copy_dir(track_out, tmp_path / "track")
    t = checks.read_csv(out / "tracking.csv")["t"]
    row = int(np.flatnonzero(np.abs(t - winner_doc["trajectory"]["times"][1]) < 1e-9)[0])
    corrupt(out, "tracking.csv", lambda text: edit_csv(text, row, column, edit))
    fails = checks.check_tracking(out, winner_doc["trajectory"], 0.3, [published_gains()] * 3)
    assert len(fails) == 1 and message in fails[0]


def test_audited_zeta_must_match_the_gains(track_out, winner_doc, tmp_path):
    out = copy_dir(track_out, tmp_path / "track")
    corrupt(out, "tracking.json", lambda text: text.replace('"zeta": 63.0', '"zeta": 62.0'))
    fails = checks.check_tracking(out, winner_doc["trajectory"], 0.3, [published_gains()] * 3)
    assert len(fails) == 1 and "zeta" in fails[0]


def test_tracer_sees_every_binding_and_restores_them(model):
    import emlaopt
    from emlaopt import bilevel

    original = manipulator.rnea
    trace = tracer.Tracer()
    tracer.install(trace)
    try:
        assert emlaopt.rnea is bilevel.rnea is cli.rnea is manipulator.rnea is not original
        q = np.array([0.25, 0.4, 0.4])
        emlaopt.rnea(model, q, np.zeros(3), np.zeros(3))
        bilevel.rnea(model, np.tile(q, (4, 1)), np.zeros((4, 3)), np.zeros((4, 3)))
    finally:
        tracer.undo(trace.undo)
    assert emlaopt.rnea is bilevel.rnea is cli.rnea is manipulator.rnea is original
    metrics = tracer.layer_metrics(trace, 0.0)
    assert metrics["manipulator.rnea.calls"][0] == 2
    assert metrics["manipulator.rnea.rows"][0] == 5
    assert metrics["control.radau.nfev"][0] == 0


def test_calibrated_clock_scales_by_host_speed():
    steady = {"segments": [0.5, 0.25], "cal": [calib.CAL_REF_S] * 3}
    slow = {"segments": [1.0, 0.5], "cal": [2 * calib.CAL_REF_S] * 3}
    assert calib.work_seconds([steady]) == pytest.approx(0.75)
    assert calib.work_seconds([slow]) == pytest.approx(0.75)
    assert calib.work_seconds([steady, slow, steady]) == pytest.approx(0.75)
