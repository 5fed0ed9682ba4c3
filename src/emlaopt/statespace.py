"""Coupled electro-mechanical dynamics of one EMLA.

The nonlinear model couples the dq current equations with the reflected
single-shaft mechanics: the electromagnetic torque drives the equivalent
inertia against viscous drag, a restoring shaft term and the load force
reflected through the transmission.  Its first-order model around an
operating point and its stored energy are test oracles, in
``tests/oracles.py``.
"""

from dataclasses import fields

import numpy as np

from .drivetrain import EquivalentParams
from .pmsm import PmsmParams, current_derivatives, electromagnetic_torque


def stack_params(items):
    """One params dataclass whose fields are (n,) arrays over ``items``.

    The stacked object runs every actuator of a manipulator through
    :func:`emla_rhs` and the motor/drivetrain functions in one call.
    """
    cls = type(items[0])
    return cls(**{f.name: np.array([getattr(p, f.name) for p in items], dtype=float)
                  for f in fields(cls)})


def emla_rhs(
    params: PmsmParams,
    eq: EquivalentParams,
    x: np.ndarray,
    u: np.ndarray,
    f_x: float,
) -> np.ndarray:
    """Nonlinear vector field in [i_d, i_q, omega, theta] order, input [V_d, V_q].

    ``eq`` is ``equivalent_params(drivetrain)``, reflected once by the
    caller.  With stacked (n,) parameters, ``x`` is (4, n), ``u`` a pair
    of (n,) voltages and ``f_x`` (n,) load forces.
    """
    i_d, i_q, omega, theta = x
    v_d, v_q = u
    di_d, di_q = current_derivatives(params, i_d, i_q, omega, v_d, v_q)
    torque = electromagnetic_torque(params, i_d, i_q)
    domega = (torque - eq.damping * omega - eq.stiffness * theta - eq.load_ratio * f_x) / eq.inertia
    return np.array([di_d, di_q, domega, omega])
