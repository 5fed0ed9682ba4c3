"""Exercise the closed-chain dynamics and audit its physics.

Runs the piston-force inverse dynamics (``rnea``) of the 3-DoF boom and
checks two facts that must hold exactly: static piston forces are the
gradients of the potential energy, and over a rest-to-rest motion the
piston work equals the change in potential energy, as the benchmark checks
for the bilevel winner.  The 6-D recursion the tests hold ``rnea`` to
(cut-point residuals, pin forces, ground reaction) is in ``tests/oracles.py``.
"""

import numpy as np
from scipy.integrate import simpson

from emlaopt import potential_energy, rnea
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

# rest-to-rest motion over two seconds: a quintic blend between two poses,
# with zero rate and acceleration at both ends
q_a, q_b, t_final = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo), 2.0
ts = np.linspace(0.0, t_final, 2001)
tau = ts[:, None] / t_final
s = 10 * tau**3 - 15 * tau**4 + 6 * tau**5
ds = (30 * tau**2 - 60 * tau**3 + 30 * tau**4) / t_final
d2s = (60 * tau - 180 * tau**2 + 120 * tau**3) / t_final**2
q, qd, qdd = q_a + (q_b - q_a) * s, (q_b - q_a) * ds, (q_b - q_a) * d2s

v, f = rnea(model, q, qd, qdd)
work = simpson(np.sum(v * f, axis=1), x=ts)
d_pe = potential_energy(model, q[-1]) - potential_energy(model, q[0])
print(f"\nover the {t_final:g} s rest-to-rest motion:")
print(f"  piston work             = {work:12.6f} J")
print(f"  potential energy change = {d_pe:12.6f} J")
print(f"  mismatch                = {abs(work - d_pe):.3e} J "
      f"(peak piston force {np.abs(f).max() / 1e3:.1f} kN)")
