"""PMSM electrical model in the rotor (dq) reference frame.

Covers the steady dq voltages at i_d = 0 and the q-axis current of a
torque demand.  The tracking loop writes the current equations and the
electromagnetic torque out in :func:`emlaopt.control.closed_loop`; the
tests' oracle (``tests/oracles.py``) composes them from separate functions.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PmsmParams:
    """Electrical constants of one permanent-magnet synchronous motor.

    Every field may also be an (n,) array holding n motors at once (see
    :func:`emlaopt.control.stack_params`); the functions below then act
    on each motor elementwise.

    Attributes:
        stator_resistance: per-phase stator resistance [ohm].
        inductance_d: d-axis inductance [H].
        inductance_q: q-axis inductance [H].
        pole_pairs: number of pole pairs.
        pm_flux: permanent-magnet flux linkage [Wb].
    """

    stator_resistance: float
    inductance_d: float
    inductance_q: float
    pole_pairs: int
    pm_flux: float

    def __post_init__(self):
        if np.any(self.stator_resistance <= 0):
            raise ValueError("stator_resistance must be > 0")
        if np.any(self.inductance_d <= 0) or np.any(self.inductance_q <= 0):
            raise ValueError("inductances must be > 0")
        if np.any(self.pole_pairs < 1):
            raise ValueError("pole_pairs must be >= 1")
        if np.any(self.pm_flux <= 0):
            raise ValueError("pm_flux must be > 0")


def dq_voltages(params: PmsmParams, i_q: float, omega_m: float) -> tuple[float, float]:
    """dq stator voltages that hold the given i_q, and i_d = 0, steady.

    Returns (V_d, V_q).  The plant's current equations solve the same
    relations for the current rates, which are zero at these voltages.
    """
    p = params.pole_pairs
    v_d = -(p * omega_m * params.inductance_q * i_q)
    v_q = params.stator_resistance * i_q + p * omega_m * params.pm_flux
    return v_d, v_q


def torque_to_iq(params: PmsmParams, torque):
    """Invert the torque (3/2) p i_q [psi_PM + (L_d - L_q) i_d] for i_q at
    i_d = 0, where the reluctance term vanishes."""
    return torque / (1.5 * params.pole_pairs * params.pm_flux)
