"""Coupled electro-mechanical dynamics of one EMLA and its linearization.

The nonlinear model couples the dq current equations with the reflected
single-shaft mechanics: the electromagnetic torque drives the equivalent
inertia against viscous drag, a restoring shaft term and the load force
reflected through the transmission.
"""

from dataclasses import dataclass, fields

import numpy as np

from .drivetrain import DriveTrainParams, EquivalentParams, equivalent_params
from .pmsm import PmsmParams, current_derivatives, electromagnetic_torque


@dataclass(frozen=True)
class OperatingPoint:
    """Linearization point for shaft speed and the two currents."""

    omega0: float
    iq0: float
    id0: float


# State ordering used by the matrices of linearize() and by emla_rhs():
#   x = [i_d, i_q, omega_m, theta_m],  u = [V_d, V_q]


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


def linearize(
    params: PmsmParams,
    drivetrain: DriveTrainParams,
    op: OperatingPoint,
    f_x: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-order model x_dot = A x + B u + r around an operating point.

    The bilinear speed/current products are expanded to first order around
    (omega0, iq0, id0); r collects the expansion residuals plus the load
    force term.  Ordering as documented above: states [i_d, i_q, omega,
    theta], inputs [V_d, V_q].
    """
    eq = equivalent_params(drivetrain)
    p = params.pole_pairs
    l_d, l_q = params.inductance_d, params.inductance_q
    alpha = params.saliency_ratio
    beta = 2.0 * eq.inertia / (3.0 * p)
    dl = params.inductance_d - params.inductance_q
    w0, iq0, id0 = op.omega0, op.iq0, op.id0

    a = np.array(
        [
            [-params.stator_resistance / l_d, p / alpha * w0, p / alpha * iq0, 0.0],
            [
                -p * alpha * w0,
                -params.stator_resistance / l_q,
                -(p * alpha * id0 + p * params.pm_flux / l_q),
                0.0,
            ],
            [
                dl * iq0 / beta,
                (dl * id0 + params.pm_flux) / beta,
                -eq.damping / eq.inertia,
                -eq.stiffness / eq.inertia,
            ],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([[1.0 / l_d, 0.0], [0.0, 1.0 / l_q], [0.0, 0.0], [0.0, 0.0]])
    # residuals of the first-order expansion of each bilinear product; the
    # q-axis speed coupling enters its row negatively, so its residual is
    # positive, and the load term carries 1/J_eq like the rest of the
    # mechanical row
    r = np.array(
        [
            -p / alpha * w0 * iq0,
            p * alpha * w0 * id0,
            -dl / beta * iq0 * id0 - eq.load_ratio * f_x / eq.inertia,
            0.0,
        ]
    )
    return a, b, r


def stored_energy(params: PmsmParams, drivetrain: DriveTrainParams, x) -> float:
    """Kinetic + elastic + magnetic energy of the state vector [J].

    Used by the power-balance audit: d/dt of this quantity plus the copper
    and viscous dissipation plus the delivered mechanical power equals the
    electrical input power (3/2)(V_d i_d + V_q i_q).
    """
    i_d, i_q, omega, theta = x
    eq = equivalent_params(drivetrain)
    kinetic = 0.5 * eq.inertia * omega**2
    elastic = 0.5 * eq.stiffness * theta**2
    magnetic = 0.75 * (params.inductance_d * i_d**2 + params.inductance_q * i_q**2)
    return kinetic + elastic + magnetic
