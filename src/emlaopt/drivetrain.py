"""Mechanical drivetrain of the actuator: gearbox, screw, and equivalent
single-shaft parameters reflected to the motor side."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DriveTrainParams:
    """Inertias, dampings and the gearbox/screw ratios of one EMLA.

    The shaft is rigid: motor, coupling, gearbox, screw and load move as one
    mass through the transmission.  Units: inertias kg*m^2, masses kg, gear
    ratio dimensionless, screw lead m/rev.  Fields may be (n,) arrays
    holding n drivetrains; every function here then acts elementwise.
    """

    motor_inertia: float
    coupling_inertia: float
    gearbox_inertia: float
    screw_mass: float
    load_mass: float
    viscous_motor: float
    gear_friction: float
    screw_viscous: float
    gear_ratio: float
    screw_lead: float

    def __post_init__(self):
        positive = (
            "motor_inertia",
            "coupling_inertia",
            "gearbox_inertia",
            "gear_ratio",
            "screw_lead",
        )
        for name in positive:
            if np.any(getattr(self, name) <= 0):
                raise ValueError(f"{name} must be > 0")
        for name in ("screw_mass", "load_mass", "viscous_motor", "gear_friction", "screw_viscous"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be >= 0")


class EquivalentParams(NamedTuple):
    """Motor-side equivalent parameters (J_eq, b_eq, f_eq)."""

    inertia: float
    damping: float
    load_ratio: float


def equivalent_params(dt: DriveTrainParams) -> EquivalentParams:
    """Reflect the drivetrain to the motor shaft.

    J_eq collects the rotating inertias plus the translating masses through
    the squared transmission ratio; b_eq the damping sources; f_eq =
    rho / (2 pi n) is the force-to-torque ratio.
    """
    n = dt.gear_ratio
    rho = dt.screw_lead
    j_eq = (
        dt.motor_inertia
        + dt.coupling_inertia
        + dt.gearbox_inertia / n**2
        + rho**2 / (4.0 * np.pi**2 * n**2) * (dt.screw_mass + dt.load_mass)
    )
    b_eq = dt.viscous_motor + n * dt.gear_friction + (n * rho / TWO_PI) * dt.screw_viscous
    f_eq = rho / (TWO_PI * n)
    return EquivalentParams(j_eq, b_eq, f_eq)


def rotary_linear_map(dt: DriveTrainParams, f_x, v_x):
    """Ideal transmission between load side (f_x, v_x) and rotor side (tau_m, omega_m).

    tau_m = rho/(2 pi n) f_x and omega_m = 2 pi n / rho v_x, so the power
    tau_m * omega_m = f_x * v_x is conserved exactly.
    """
    ratio = dt.screw_lead / (TWO_PI * dt.gear_ratio)
    return ratio * np.asarray(f_x, dtype=float), np.asarray(v_x, dtype=float) / ratio

