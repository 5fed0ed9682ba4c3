"""The benchmark's three workloads, run through the program's public entry points.

Each workload has a set-up phase (write configs, load and verify stored
inputs), the work (calls into ``emlaopt.cli.main`` and the ``bilevel`` /
``effmap`` functions), the points where the timed work is cut into
segments, and the checks of its outputs.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

import checks
from tracer import rebind, rebind_method

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
INPUTS = HERE / "inputs"
WINNER = INPUTS / "winner_bilevel.json"
GRID_TRAJECTORIES = INPUTS / "grid_trajectories.json"
INPUT_SHA256 = {
    "winner_bilevel.json": "c5fb5ea95c6a2e8aa7fd8727c1ee85d81a3b3513d287533432777dd3fd777c99",
    "grid_trajectories.json": "4dc6fc94a9da7bddd8b426e4a4fb1f25102197b459f2b2bfbce01184fbe90187",
}

# the paper's leader-follower search: 5x5 weight grid over [0.05, 1]^2, M=50
BILEVEL_CONFIG = {
    "manipulator": {"preset": "default"},
    "problem": {"preset": "benchmark", "n_partitions": 50, "n_ctrl": 12},
    "actuators": {"preset": "default"},
    "maps": {"n_force": 40, "n_velocity": 40},
    "outer": {
        "method": "grid",
        "grid_points": 5,
        "weight_lower": [0.05, 0.05],
        "weight_upper": [1.0, 1.0],
    },
}
# closed-loop window tracked from t=0; covers the start-up transient and
# the first ten collocation instants of the winner
TRACK_DURATION_S = 2.0
TRACK_DT = 2e-3
# dense map grid points per axis for the build-and-read workload
MAP_POINTS = 120
MAP_ACTUATORS = ("lift_6kw", "tilt_47kw", "telescope_25kw")


def _load_input(path: Path) -> bytes:
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != INPUT_SHA256[path.name]:
        raise RuntimeError(f"{path.name}: SHA-256 {digest} differs from the recorded input")
    return data


def _digests(*dirs) -> dict:
    out = {}
    for d in dirs:
        for f in sorted(Path(d).iterdir()):
            out[f"{Path(d).name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _cli_args(command, config, out, seed):
    return [command, "--config", config, "--out", str(out), "--seed", str(seed), "--jobs", "1"]


class BilevelGrid:
    name = "bilevel_grid"
    # boundaries a traced run must see called
    expects = ("cli.run", "configio.write_artifacts", "manipulator.rnea",
               "trajopt.solve_inner", "trajopt.slsqp", "bilevel.solve_outer",
               "bilevel.rating", "effmap.build", "effmap.cell", "effmap.interp")

    def __init__(self, rep_dir: Path, seed: int):
        self.seed = seed
        self.out = rep_dir / "bilevel"
        self.config = _write_config(rep_dir / "bilevel_config.json", BILEVEL_CONFIG)

    def pulses(self, meter) -> list:
        from emlaopt import manipulator

        return meter.pulse_function(manipulator.rnea, 20)

    def run(self, meter=None):
        from emlaopt import cli

        rc = cli.main(_cli_args("bilevel", self.config, self.out, self.seed))
        if rc != 0:
            return 27, 27
        doc = json.loads((self.out / "bilevel.json").read_text())
        failed = sum(1 for row in doc["trace"] if not row["inner_converged"])
        return doc["n_inner_solves"] + 1, failed

    def outputs(self) -> dict:
        return _digests(self.out)

    def check(self) -> list:
        from emlaopt.presets import benchmark_problem, default_manipulator

        model = default_manipulator()
        return checks.check_bilevel(self.out, benchmark_problem(model), model)


class TrackWinner:
    name = "track_winner"
    expects = ("cli.run", "configio.write_artifacts", "control.simulate_tracking",
               "control.radau", "control.rhs", "control.lyapunov_audit",
               "control.traces_to_csv")

    def __init__(self, rep_dir: Path, seed: int):
        self.seed = seed
        self.out = rep_dir / "track"
        self.reference = json.loads(_load_input(WINNER))["trajectory"]
        self.config = _write_config(rep_dir / "track_config.json", {
            "trajectory": str(WINNER),
            "actuators": {"preset": "default"},
            "gains": {"preset": "published"},
            "disturbance": {"preset": "nominal"},
            "dt": TRACK_DT,
            "duration": TRACK_DURATION_S,
            "settle_time": 0.2,
        })

    def pulses(self, meter) -> list:
        from emlaopt import control

        solve_ivp = control.solve_ivp

        def pulsed(fun, *args, **kwargs):
            return solve_ivp(meter.pulse(fun, 1000), *args, **kwargs)

        return rebind(solve_ivp, pulsed)

    def run(self, meter=None):
        from emlaopt import cli

        rc = cli.main(_cli_args("track", self.config, self.out, self.seed))
        return 1, int(rc != 0)

    def outputs(self) -> dict:
        return _digests(self.out)

    def check(self) -> list:
        from emlaopt.control import published_gains

        return checks.check_tracking(self.out, self.reference, TRACK_DURATION_S,
                                     [published_gains()] * 3)


class MapsRating:
    name = "maps_rating"
    expects = ("cli.run", "configio.write_artifacts", "effmap.build", "effmap.cell",
               "effmap.serialize", "effmap.interp", "bilevel.rating")

    def __init__(self, rep_dir: Path, seed: int):
        self.seed = seed
        self.rep_dir = rep_dir
        self.map_dirs = [rep_dir / f"map_{name}" for name in MAP_ACTUATORS]
        self.configs = [
            _write_config(rep_dir / f"map_{name}.json", {
                "actuator": {"preset": name},
                "grid": {"preset": "default", "n_force": MAP_POINTS, "n_velocity": MAP_POINTS},
            })
            for name in MAP_ACTUATORS
        ]
        docs = json.loads(_load_input(GRID_TRAJECTORIES))
        self.trajectories = [
            (np.asarray(d["v_x"], dtype=float), np.asarray(d["f_x"], dtype=float)) for d in docs
        ]
        # the seed sets the order in which the stored trajectories are rated
        self.order = np.random.default_rng(seed).permutation(len(self.trajectories))
        self.maps = None
        self.ratings = None

    def pulses(self, meter) -> list:
        from emlaopt import effmap

        undo = rebind_method(effmap.EmlaModel, "cell",
                             meter.pulse(effmap.EmlaModel.cell, 1500))
        undo += rebind_method(effmap.EfficiencyMap, "interp_eta",
                              meter.pulse(effmap.EfficiencyMap.interp_eta, 300))
        return undo

    def run(self, meter=None):
        from emlaopt import bilevel, cli, effmap

        attempted = failed = 0
        for config, out in zip(self.configs, self.map_dirs):
            attempted += 1
            failed += int(cli.main(_cli_args("map", config, out, self.seed)) != 0)
            if meter is not None:
                meter.tick()
        if failed:
            return attempted + len(self.trajectories), failed + len(self.trajectories)
        self.maps = [effmap.map_from_json((d / "efficiency_map.json").read_text())
                     for d in self.map_dirs]
        eta_fns = bilevel.map_eta_fns(self.maps)
        ratings = {}
        for k in self.order:
            v_x, f_x = self.trajectories[k]
            attempted += 1
            summary = bilevel.efficiency_summary(v_x, f_x, eta_fns)
            summary["quartile_occupancy"] = bilevel.quartile_occupancy(v_x, f_x, self.maps)
            ratings[int(k)] = summary
        self.ratings = [ratings[k] for k in range(len(self.trajectories))]
        ratings_dir = self.rep_dir / "ratings"
        ratings_dir.mkdir(exist_ok=True)
        (ratings_dir / "ratings.json").write_text(json.dumps(self.ratings, indent=2))
        return attempted, failed

    def outputs(self) -> dict:
        return _digests(*self.map_dirs, self.rep_dir / "ratings")

    def check(self) -> list:
        from emlaopt.presets import actuators

        return checks.check_maps(self.map_dirs, self.maps, actuators(),
                                 self.trajectories, self.ratings)


WORKLOADS = {w.name: w for w in (BilevelGrid, TrackWinner, MapsRating)}
