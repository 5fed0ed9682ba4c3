"""Track an optimized trajectory with the decomposed robust controller.

Each actuator runs four cascaded subsystems (position, velocity, q- and
d-axis current), each with adaptive-gain feedback.  The closed loop is
simulated against the nonlinear actuator models, first nominally and then
with band-limited load noise plus a 5% plant parameter skew.
"""

import numpy as np

from emlaopt import (
    lyapunov_audit,
    nominal_disturbance,
    published_gains,
    simulate_tracking,
    solve_inner,
    tracking_errors,
)
from emlaopt.manipulator import rnea
from emlaopt.presets import actuators, benchmark_problem, default_manipulator

model = default_manipulator()
problem = benchmark_problem(model)
dynamics = lambda q, qd, qdd: rnea(model, q, qd, qdd)
reference = solve_inner(problem, dynamics, weights=np.array([0.05, 1.0]))
print(f"reference: {reference.t_final:.2f} s move, peak speeds "
      f"{np.round(np.abs(reference.v_x).max(axis=0) * 1e3, 1)} mm/s")

acts = actuators()
gains = [published_gains()] * len(acts)
g = gains[0]
print(f"gains: delta={g.delta[0]:.0f}, eps={g.epsilon[0]:.0f}, "
      f"k={g.k[0]:.0f}, sigma={g.sigma[0]:.0f}")

for label, dist in (("nominal plant, no disturbance", None),
                    ("2% load noise + 5% parameter skew", nominal_disturbance())):
    traces = simulate_tracking(acts, reference, gains, disturbance=dist, dt=2e-3)
    err = tracking_errors(traces)
    print(f"\n{label}:")
    print("  velocity RMS error (% of peak):",
          [f"{x * 100:.3f}" for x in err["velocity_rms_frac"]])
    # the force the plant's shaft delivered, with the plant's own constants:
    # the skew shows in the currents, not as a force error
    print("  force RMS error    (% of peak):",
          [f"{x * 100:.3f}" for x in err["force_rms_frac"]])
    print("  peak |i_q| per joint [A]:", np.round(np.abs(traces.i_q).max(axis=0), 1))

audit = lyapunov_audit(traces, gains)
print(f"\ndescent-constant audit: zeta = min(delta, k*sigma) = {audit['zeta']:.0f}")
print("(the regulation experiment in the test suite shows the undisturbed "
      "V(t) decaying strictly; a tracking run rides its quasi-steady floor)")
