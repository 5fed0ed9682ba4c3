"""Regenerate the benchmark's stored inputs with the program.

    python3 perfbench/make_inputs.py

Runs ``emlaopt bilevel`` on the benchmark's grid configuration (one worker,
one BLAS thread) and writes, under perfbench/inputs/:

- winner_bilevel.json: the run's bilevel.json, byte for byte; the
  reference that ``track_winner`` tracks;
- grid_trajectories.json: the piston forces and velocities of all inner
  solves in solve order (the centre solve, then the 5x5 grid), which
  ``maps_rating`` rates.

It prints the SHA-256 of both files; README.md records them.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import rebind, undo  # noqa: E402


def main() -> int:
    from emlaopt import cli, trajopt

    work = workloads.OUT_DIR / "make_inputs"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "bilevel_config.json"
    config.write_text(json.dumps(workloads.BILEVEL_CONFIG, indent=2))

    solves = []
    solve_inner = trajopt.solve_inner

    def capture(*args, **kwargs):
        result = solve_inner(*args, **kwargs)
        solves.append(result)
        return result

    entries = rebind(solve_inner, capture)
    try:
        rc = cli.main(["bilevel", "--config", str(config), "--out", str(work / "bilevel"),
                       "--seed", "0", "--jobs", "1"])
    finally:
        undo(entries)
    if rc != 0:
        return rc

    trajectories = [
        {
            "weights": r.weights.tolist(),
            "t_final": r.t_final,
            "converged": r.converged,
            "v_x": r.v_x.tolist(),
            "f_x": r.f_x.tolist(),
        }
        for r in solves
    ]
    workloads.INPUTS.mkdir(parents=True, exist_ok=True)
    workloads.WINNER.write_bytes((work / "bilevel" / "bilevel.json").read_bytes())
    workloads.GRID_TRAJECTORIES.write_text(json.dumps(trajectories) + "\n")
    for path in (workloads.WINNER, workloads.GRID_TRAJECTORIES):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
