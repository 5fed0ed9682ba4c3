"""Batch command-line front end.

Subcommands wire JSON configs to the computational modules and write all
results as CSV/JSON artifacts plus a manifest with checksums, so runs are
reproducible byte for byte given the same config and seed.

    emlaopt map      --config map.json      --out out/map
    emlaopt trajopt  --config trajopt.json  --out out/traj
    emlaopt bilevel  --config bilevel.json  --out out/bilevel [--jobs 4]
    emlaopt track    --config track.json    --out out/track   [--seed 3]
    emlaopt report   --config report.json   --out out/report
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import configio, presets
from .bilevel import (
    BilevelConfig,
    efficiency_summary,
    map_eta_fns,
    quartile_occupancy,
    samples_outside_map,
    solve_outer,
)
from .configio import ConfigError, load_json, write_artifacts
from .control import (
    lyapunov_audit,
    simulate_tracking,
    traces_to_csv,
    tracking_errors,
)
from .effmap import build_efficiency_map, map_to_csv, map_to_json
from .manipulator import rnea
from .trajopt import TrajectoryResult, solve_inner


def _grid_axis(doc, key, path):
    spec = doc.get(key)
    if isinstance(spec, list) and len(spec) == 3:
        try:
            return np.linspace(float(spec[0]), float(spec[1]), int(spec[2]))
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{path}.{key}: need a grid specification [lo, hi, n], got {spec!r}")


def _default_grid(actuator, path, n_force=40, n_velocity=40):
    """The preset map axes of ``actuator``; only preset actuators have them."""
    if actuator.name not in presets.MAP_ENVELOPES:
        raise ConfigError(
            f"{path}: actuator {actuator.name!r} has no default map grid (presets: "
            f"{sorted(presets.MAP_ENVELOPES)}); a map config can give explicit grid "
            "'force' and 'velocity' axes [lo, hi, n]"
        )
    return presets.default_map_grid(actuator, n_force, n_velocity)


def run_map(config: dict, out_dir, seed: int, jobs: int) -> dict:
    configio.check_keys(config, "config", ("actuator", "grid", "allow_regeneration"),
                        "a map config")
    actuator = configio.build_actuator(config.get("actuator", {}), "actuator")
    grid_doc = config.get("grid", {"preset": "default"})
    if not isinstance(grid_doc, dict):
        raise ConfigError("grid: expected an object with axes 'force' and 'velocity' "
                          "or preset 'default'")
    if "preset" in grid_doc:
        configio.check_preset(grid_doc, "grid", {"default": ("n_force", "n_velocity")})
        force, velocity = _default_grid(
            actuator, "grid",
            n_force=int(grid_doc.get("n_force", 40)),
            n_velocity=int(grid_doc.get("n_velocity", 40)),
        )
    else:
        force = _grid_axis(grid_doc, "force", "grid")
        velocity = _grid_axis(grid_doc, "velocity", "grid")
    emap = build_efficiency_map(
        actuator, force, velocity,
        allow_regeneration=bool(config.get("allow_regeneration", False)),
    )
    files = {
        "efficiency_map.csv": map_to_csv(emap),
        "efficiency_map.json": map_to_json(emap),
    }
    return files


def run_trajopt(config: dict, out_dir, seed: int, jobs: int) -> dict:
    configio.check_keys(config, "config", ("manipulator", "problem", "weights", "method"),
                        "a trajopt config")
    model = configio.build_manipulator(config.get("manipulator", {"preset": "default"}))
    problem = configio.build_problem(config.get("problem", {"preset": "benchmark"}), model)
    weights = config.get("weights")
    weights = None if weights is None else np.asarray(weights, dtype=float)
    if config.get("method", "slsqp") != "slsqp":
        raise ConfigError(f"method: unknown NLP method {config['method']!r}; use 'slsqp'")
    dynamics = lambda q, qd, qdd: rnea(model, q, qd, qdd)
    result = solve_inner(problem, dynamics, weights=weights)
    return {
        "trajectory.csv": result.to_csv(),
        "trajectory.json": result.to_json(),
    }


def run_bilevel(config: dict, out_dir, seed: int, jobs: int) -> dict:
    configio.check_keys(config, "config", ("manipulator", "problem", "actuators", "outer", "maps"),
                        "a bilevel config")
    model = configio.build_manipulator(config.get("manipulator", {"preset": "default"}))
    problem = configio.build_problem(config.get("problem", {"preset": "benchmark"}), model)
    actuators = configio.build_actuators(config.get("actuators", {"preset": "default"}))
    if len(actuators) != model.n_joints:
        raise ConfigError("actuators: need one per manipulator joint")
    outer = config.get("outer", {})
    if not isinstance(outer, dict):
        raise ConfigError("outer: expected an object")
    unknown = sorted(set(outer) - {"weight_lower", "weight_upper", "grid_points", "method"})
    if unknown:
        raise ConfigError(f"outer: unknown keys {unknown}; the grid search takes "
                          "'weight_lower', 'weight_upper' and 'grid_points'")
    if outer.get("method", "grid") != "grid":
        raise ConfigError(f"outer.method: unknown search {outer['method']!r}; use 'grid'")
    cfg = BilevelConfig(
        weight_lower=np.asarray(outer.get("weight_lower", [0.05, 0.05]), dtype=float),
        weight_upper=np.asarray(outer.get("weight_upper", [1.0, 1.0]), dtype=float),
        grid_points=outer.get("grid_points", 5),
    )
    map_doc = configio.check_keys(config.get("maps", {}), "maps", ("n_force", "n_velocity"))
    maps = [
        build_efficiency_map(
            a,
            *_default_grid(
                a, "maps",
                n_force=int(map_doc.get("n_force", 40)),
                n_velocity=int(map_doc.get("n_velocity", 40)),
            ),
        )
        for a in actuators
    ]
    result = solve_outer(cfg, problem, model, maps, jobs=jobs)
    doc = result.to_dict()
    doc["quartile_occupancy"] = quartile_occupancy(result.inner.v_x, result.inner.f_x, maps)
    doc["samples_outside_map"] = samples_outside_map(result.inner.v_x, result.inner.f_x, maps)
    return {
        "bilevel.json": json.dumps(doc, indent=2),
        "trajectory.csv": result.inner.to_csv(),
        "trajectory.json": result.inner.to_json(),
        "trace.csv": result.trace_to_csv(),
    }


def run_track(config: dict, out_dir, seed: int, jobs: int) -> dict:
    configio.check_keys(config, "config", (
        "trajectory", "actuators", "gains", "disturbance", "duration", "settle_time", "dt",
        "initial_position_error"), "a track config")
    dt = config.get("dt", 2e-3)
    if not (isinstance(dt, (int, float)) and np.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt: the output sampling step must be finite and > 0, got {dt!r}")
    traj_path = config.get("trajectory")
    if traj_path is None:
        raise ConfigError("trajectory: path to a trajectory.json or bilevel.json required")
    doc = load_json(traj_path)
    if "trajectory" in doc:  # bilevel.json wraps the trajectory
        doc = doc["trajectory"]
    reference = TrajectoryResult.from_dict(doc)
    actuators = configio.build_actuators(config.get("actuators", {"preset": "default"}))
    gains = configio.build_gains(config.get("gains", {"preset": "published"}),
                                 len(actuators))
    disturbance = configio.build_disturbance(config.get("disturbance"), seed_offset=seed)
    duration = config.get("duration")
    settle_time = float(config.get("settle_time", 0.2))
    if (reference.t_final if duration is None else float(duration)) <= settle_time:
        raise ConfigError(f"duration: the run must outlast settle_time = {settle_time} s, "
                          "after which the tracking errors are measured")
    traces = simulate_tracking(
        actuators,
        reference,
        gains,
        disturbance=disturbance,
        dt=float(dt),
        initial_position_error=config.get("initial_position_error"),
        duration=duration,
    )
    audit = lyapunov_audit(traces, gains,
                           disturbance_bound=disturbance.bound(np.abs(reference.f_x).max()))
    errors = tracking_errors(traces, settle_time=settle_time)
    summary = {
        "tracking_errors": errors,
        "lyapunov": {
            "zeta": audit.zeta,
            "zeta_fit": audit.zeta_fit,
            "strictly_decreasing": audit.strictly_decreasing,
            "descent_violations": audit.descent_violations,
        },
        "solver": traces.solver,
    }
    return {
        "tracking.csv": traces_to_csv(traces),
        "tracking.json": json.dumps(summary, indent=2),
    }


def run_report(config: dict, out_dir, seed: int, jobs: int) -> dict:
    configio.check_keys(config, "config", ("artifacts", "actuators", "require_tracking"),
                        "a report config")
    art_dir = Path(config.get("artifacts", "."))
    missing = []
    traj_path = art_dir / "trajectory.json"
    bilevel_path = art_dir / "bilevel.json"
    tracking_path = art_dir / "tracking.json"
    if not traj_path.exists() and not bilevel_path.exists():
        missing.append("trajectory.json or bilevel.json")
    report = {}
    def check_not_empty(t):
        if len(t.times) == 0 or t.q.size == 0:
            raise ConfigError("trajectory artifact is empty")
        return t

    if bilevel_path.exists():
        doc = load_json(bilevel_path)
        traj = check_not_empty(TrajectoryResult.from_dict(doc["trajectory"]))
        report["weights_opt"] = doc["weights_opt"]
        report["outer_value"] = doc["outer_value"]
        report["efficiency"] = doc["summary"]
        for key in ("quartile_occupancy", "samples_outside_map"):
            if key in doc:
                report[key] = doc[key]
    elif traj_path.exists():
        traj = check_not_empty(TrajectoryResult.from_dict(load_json(traj_path)))
        actuators = configio.build_actuators(config.get("actuators", {"preset": "default"}))
        maps = [build_efficiency_map(a, *_default_grid(a, "actuators")) for a in actuators]
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
    elif config.get("require_tracking"):
        missing.append("tracking.json")
    if missing:
        raise ConfigError("missing artifacts: " + ", ".join(missing))
    return {"report.json": json.dumps(report, indent=2)}


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
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1, help="bilevel grid worker processes")
    args = parser.parse_args(argv)

    try:
        config_text = Path(args.config).read_text()
        config = load_json(args.config)
        files = RUNNERS[args.command](config, args.out, args.seed, args.jobs)
        write_artifacts(args.out, files, config_text, args.seed)
    except (ValueError, RuntimeError, FileNotFoundError) as exc:
        # ConfigError is a ValueError; model and solver errors exit 2 without a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: wrote {len(files) + 1} artifacts to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
