"""Exercise the closed-chain dynamics and audit its physics.

Runs the forward/backward passes of the 3-DoF boom on a smooth test
motion and cross-checks the things that must hold exactly: the two
branches of each closed chain agree at the cut, static piston forces are
potential-energy gradients, the ground carries the total weight, the
piston power accounts for every joule of mechanical energy change, and the
planar force-only kernel behind ``rnea`` matches the 6-D recursion of
``evaluate_dynamics``.
"""

import numpy as np
from scipy.integrate import simpson

from emlaopt import evaluate_dynamics, kinetic_energy, potential_energy, rnea
from emlaopt.presets import default_manipulator

model = default_manipulator()
lo, hi = model.stroke_limits()
print("joints:", model.joint_names)
print("stroke boxes [m]:", np.round(lo, 3), "to", np.round(hi, 3))

# static check at mid stroke
q0 = 0.5 * (lo + hi)
_, f_static = rnea(model, q0, np.zeros(3), np.zeros(3))
print("\nstatic piston forces at mid stroke [kN]:", np.round(f_static / 1e3, 2))
h = 1e-6
grad = [
    (potential_energy(model, q0 + h * e) - potential_energy(model, q0 - h * e)) / (2 * h)
    for e in np.eye(3)
]
print("potential-energy gradients      [kN]:", np.round(np.array(grad) / 1e3, 2))

st = evaluate_dynamics(model, q0, np.zeros(3), np.zeros(3))
print("ground reaction [N]:", np.round(st.frame_forces["ground"][:3], 1),
      " (weight = %.1f N)" % (st.frame_forces["ground"][2]))

# smooth test motion over one second
mid, amp = 0.5 * (lo + hi), 0.27 * (hi - lo)
phases = np.array([0.0, 1.2, 2.4])
ts = np.linspace(0.0, 1.0, 2001)
arg = 2 * np.pi * ts[:, None] + phases
q = mid + amp * np.sin(arg)
qd = amp * 2 * np.pi * np.cos(arg)
qdd = -amp * (2 * np.pi) ** 2 * np.sin(arg)

v, f = rnea(model, q, qd, qdd)
work = simpson(np.sum(v * f, axis=1), x=ts)
e0 = kinetic_energy(model, q[0], qd[0]) + potential_energy(model, q[0])
e1 = kinetic_energy(model, q[-1], qd[-1]) + potential_energy(model, q[-1])
print("\nover the 1 s test motion:")
print(f"  piston work   = {work:12.6f} J")
print(f"  energy change = {e1 - e0:12.6f} J")
print(f"  mismatch      = {abs(work - (e1 - e0)):.3e} J")
f_6d = evaluate_dynamics(model, q, qd, qdd).piston_forces
print(f"  max |rnea - 6-D oracle| piston force = {np.abs(f - f_6d).max():.3e} N "
      f"(forces up to {np.abs(f_6d).max() / 1e3:.1f} kN)")

st = evaluate_dynamics(model, q[333], qd[333], qdd[333])
for nm in ("lift", "tilt"):
    dv = st.frames[f"{nm}.pin_upper"][2] - st.frames[f"{nm}.pin_lower"][2]
    print(f"  {nm} chain cut-point velocity residual: {np.abs(dv).max():.2e}")
print("  pin force on the lift rocker [N]:",
      np.round(st.frame_forces["lift.pin_upper"][:3], 1))
