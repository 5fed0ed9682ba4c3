"""Leader-follower search for the criterion weights that maximize the
time-aggregated actuation efficiency.

The outer level walks a grid over the weight box; each candidate runs the
trajectory generator, rates the resulting force/speed samples through the
per-joint efficiency maps, and accumulates the squared combined
efficiency over time.  The returned weights put every joint deep inside
its map's high-efficiency band, which an unweighted solve does not.
"""

import numpy as np

from emlaopt import (
    BilevelConfig,
    build_efficiency_map,
    efficiency_summary,
    map_eta_fns,
    quartile_occupancy,
    solve_inner,
    solve_outer,
)
from emlaopt.manipulator import rnea
from emlaopt.presets import actuators, benchmark_problem, default_manipulator, default_map_grid

model = default_manipulator()
problem = benchmark_problem(model)
dynamics = lambda q, qd, qdd: rnea(model, q, qd, qdd)
maps = [build_efficiency_map(a, *default_map_grid(a)) for a in actuators()]
eta_fns = map_eta_fns(maps)

baseline = solve_inner(problem, dynamics, weights=np.array([0.5, 0.5]))
base_summary = efficiency_summary(baseline.v_x, baseline.f_x, eta_fns)
print("inner-only baseline (w = [0.5, 0.5]):")
print(f"  duration {baseline.t_final:.2f} s, per-joint eta "
      f"{[round(x, 3) for x in base_summary['per_joint']]}, "
      f"total {base_summary['total']:.4f}")

config = BilevelConfig(weight_lower=[0.05, 0.05], weight_upper=[1.0, 1.0], grid_points=5)
result = solve_outer(config, problem, model, maps)

print("\nouter search trace (weights -> F):")
for w, value, ok in result.trace:
    marker = " <- best" if np.array_equal(w, result.weights_opt) else ""
    print(f"  w = ({w[0]:5.3f}, {w[1]:5.3f})  F = {value:8.4f}  "
          f"{'ok' if ok else 'inner failed'}{marker}")

print(f"\noptimal weights {result.weights_opt}, duration {result.inner.t_final:.2f} s")
print(f"per-joint eta {[round(x, 3) for x in result.summary['per_joint']]}, "
      f"total {result.summary['total']:.4f} "
      f"(+{(result.summary['total'] - base_summary['total']) * 100:.1f} pp over baseline)")
occ = quartile_occupancy(result.inner.v_x, result.inner.f_x, maps)
print(f"fraction of motoring samples inside each map's top quartile: "
      f"{[round(o, 2) for o in occ]}")
