"""Batch command-line front end.

Subcommands wire JSON configs to the computational modules and write all
results as CSV/JSON artifacts plus a manifest with checksums, so runs are
reproducible byte for byte given the same config and seed.

    emlaopt map      --config map.json      --out out/map
    emlaopt trajopt  --config trajopt.json  --out out/traj
    emlaopt bilevel  --config bilevel.json  --out out/bilevel
    emlaopt track    --config track.json    --out out/track   [--seed 3]
    emlaopt report   --config report.json   --out out/report
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import configio
from .bilevel import (
    efficiency_summary,
    map_eta_fns,
    quartile_occupancy,
    samples_outside_map,
    solve_outer,
)
from .configio import ConfigError, json_text, load_json, load_json_text, write_artifacts
from .control import (
    OUTPUT_DT,
    SETTLE_TIME,
    lyapunov_audit,
    simulate_tracking,
    traces_to_csv,
    tracking_errors,
)
from .effmap import build_efficiency_map, map_to_csv, map_to_json
from .manipulator import rnea
from .trajopt import TrajectoryResult, solve_inner


def run_map(config: dict, seed: int) -> dict:
    configio.check_keys(config, "config", ("actuator", "grid"), "a map config")
    actuator = configio.build_actuator(config.get("actuator"))
    force, velocity = configio.build_map_axes(config.get("grid"), actuator)
    emap = build_efficiency_map(actuator, force, velocity)
    return {"efficiency_map.csv": map_to_csv(emap), "efficiency_map.json": map_to_json(emap)}


def run_trajopt(config: dict, seed: int) -> dict:
    configio.check_keys(config, "config", ("manipulator", "problem", "weights"),
                        "a trajopt config")
    model = configio.build_manipulator(config.get("manipulator"))
    problem = configio.build_problem(config.get("problem"), model)
    weights = configio.vector(config.get("weights", [0.5, 0.5]), "weights")
    dynamics = lambda q, qd, qdd: rnea(model, q, qd, qdd)
    result = solve_inner(problem, dynamics, weights=weights)
    return {
        "trajectory.csv": result.to_csv(),
        "trajectory.json": result.to_json(),
    }


def run_bilevel(config: dict, seed: int) -> dict:
    configio.check_keys(config, "config", ("manipulator", "problem", "actuators", "outer", "maps"),
                        "a bilevel config")
    model = configio.build_manipulator(config.get("manipulator"))
    problem = configio.build_problem(config.get("problem"), model)
    actuators = configio.build_actuators(config.get("actuators"))
    if len(actuators) != model.n_joints:
        raise ConfigError("actuators: need one per manipulator joint")
    cfg = configio.build_outer(config.get("outer"))
    axes = configio.build_preset_axes(config.get("maps"), actuators)
    maps = [build_efficiency_map(a, *ax) for a, ax in zip(actuators, axes)]
    result = solve_outer(cfg, problem, model, maps)
    doc = result.to_dict()
    doc["quartile_occupancy"] = quartile_occupancy(result.inner.v_x, result.inner.f_x, maps)
    doc["samples_outside_map"] = samples_outside_map(result.inner.v_x, result.inner.f_x, maps)
    return {
        "bilevel.json": json_text(doc),
        "trajectory.csv": result.inner.to_csv(),
        "trajectory.json": result.inner.to_json(),
        "trace.csv": result.trace_to_csv(),
    }


def run_track(config: dict, seed: int) -> dict:
    configio.check_keys(config, "config", (
        "trajectory", "actuators", "gains", "disturbance", "duration", "settle_time", "dt",
        "initial_position_error"), "a track config")
    dt = configio.number(config.get("dt", OUTPUT_DT), "dt")
    if dt <= 0:
        raise ConfigError(f"dt: the output sampling step must be > 0, got {dt!r}")
    duration = config.get("duration")
    if duration is not None:
        duration = configio.number(duration, "duration")
        if duration <= 0:
            raise ConfigError(f"duration: the run length must be > 0, got {duration!r}")
    settle_time = configio.number(config.get("settle_time", SETTLE_TIME), "settle_time")
    doc = load_json(configio.file_path(config.get("trajectory"), "trajectory",
                                       "a trajectory.json or bilevel.json"))
    if "trajectory" in doc:  # bilevel.json wraps the trajectory
        doc = doc["trajectory"]
    reference = TrajectoryResult.from_dict(doc)
    actuators = configio.build_actuators(config.get("actuators"))
    position_error = config.get("initial_position_error")
    if position_error is not None:
        position_error = configio.vector(position_error, "initial_position_error",
                                         len(actuators))
    gains = configio.build_gains(config.get("gains"), len(actuators))
    disturbance = configio.build_disturbance(config.get("disturbance"), seed_offset=seed)
    if (reference.t_final if duration is None else duration) <= settle_time:
        raise ConfigError(f"duration: the run must outlast settle_time = {settle_time} s, "
                          "after which the tracking errors are measured")
    traces = simulate_tracking(
        actuators,
        reference,
        gains,
        disturbance=disturbance,
        dt=dt,
        initial_position_error=position_error,
        duration=duration,
    )
    summary = {
        "tracking_errors": tracking_errors(traces, settle_time=settle_time),
        "lyapunov": lyapunov_audit(traces, gains),
        "solver": traces.solver,
    }
    return {
        "tracking.csv": traces_to_csv(traces),
        "tracking.json": json_text(summary),
    }


def run_report(config: dict, seed: int) -> dict:
    configio.check_keys(config, "config", ("artifacts", "actuators", "require_tracking"),
                        "a report config")
    art_dir = Path(configio.file_path(config.get("artifacts", "."), "artifacts", "a directory"))
    require_tracking = configio.boolean(config.get("require_tracking", False), "require_tracking")
    # a bilevel.json carries its own rating, but the key is checked all the same
    actuators = configio.build_actuators(config.get("actuators"))
    missing = []
    traj_path = art_dir / "trajectory.json"
    bilevel_path = art_dir / "bilevel.json"
    tracking_path = art_dir / "tracking.json"
    if not traj_path.exists() and not bilevel_path.exists():
        missing.append("trajectory.json or bilevel.json")
    report = {}
    if bilevel_path.exists():
        doc = load_json(bilevel_path)
        lacking = [k for k in ("weights_opt", "outer_value", "summary", "trajectory")
                   if k not in doc]
        if lacking:
            raise ConfigError(f"{bilevel_path}: missing {', '.join(lacking)}")
        traj = TrajectoryResult.from_dict(doc["trajectory"])
        report["weights_opt"] = doc["weights_opt"]
        report["outer_value"] = doc["outer_value"]
        report["efficiency"] = doc["summary"]
        for key in ("quartile_occupancy", "samples_outside_map"):
            if key in doc:
                report[key] = doc[key]
    elif traj_path.exists():
        traj = TrajectoryResult.from_dict(load_json(traj_path))
        axes = configio.build_preset_axes(None, actuators, "actuators")
        maps = [build_efficiency_map(a, *ax) for a, ax in zip(actuators, axes)]
        report["efficiency"] = efficiency_summary(traj.v_x, traj.f_x, map_eta_fns(maps))
        report["samples_outside_map"] = samples_outside_map(traj.v_x, traj.f_x, maps)
    else:
        traj = None
    if traj is not None:
        report["criteria"] = {
            "psi": list(map(float, traj.psi)),
            "psi_raw": traj.psi_raw,
            "cost": traj.cost,
            "t_final": traj.t_final,
        }
        recomputed = float(np.asarray(traj.weights) @ np.asarray(traj.psi))
        report["cost_recomputed"] = recomputed
    if tracking_path.exists():
        report["tracking"] = load_json(tracking_path)
    elif require_tracking:
        missing.append("tracking.json")
    if missing:
        raise ConfigError("missing artifacts: " + ", ".join(missing))
    return {"report.json": json_text(report)}


def integer_at_least(minimum: int):
    """The argparse type of an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return parse


RUNNERS = {
    "map": run_map,
    "trajopt": run_trajopt,
    "bilevel": run_bilevel,
    "track": run_track,
    "report": run_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emlaopt",
        description="Actuator efficiency maps, trajectory optimization, "
        "bilevel weight search and tracking-control batch runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=integer_at_least(0), default=0)
        p.add_argument("--jobs", type=integer_at_least(1), default=1,
                       help="no effect; every command runs in one process")
    args = parser.parse_args(argv)

    try:
        config_text, config = load_json_text(args.config)
        files = RUNNERS[args.command](config, args.seed)
        write_artifacts(args.out, files, config_text, args.seed)
    except (ValueError, RuntimeError) as exc:
        # ConfigError is a ValueError; model and solver errors exit 2 without a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a path the run cannot read or write: a directory named as a file, or
        # a file where --out needs a directory
        where = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {where}", file=sys.stderr)
        return 2
    print(f"{args.command}: wrote {len(files) + 1} artifacts to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
