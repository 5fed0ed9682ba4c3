"""Power losses inside an EMLA and the resulting conversion efficiency.

The loss taxonomy follows the usual drive + PMSM + screw decomposition:
switching and conduction losses in the motor control drive, copper and core
(hysteresis, eddy, additional) losses in the machine, viscous loss at the
shaft, and the screw-mechanism loss.  The coefficients no actuator preset
sets are module constants; the ones the presets set, and the drive limits,
are fields of :class:`DriveConfig`.  The functions take scalars or
broadcastable arrays of operating points and return results of the
broadcast shape.
"""

from dataclasses import dataclass, field

import numpy as np

from .drivetrain import DriveTrainParams, equivalent_params
from .pmsm import PmsmParams

# drive and core-loss constants of a plausible industrial servo drive
SWITCHING_FREQ = 8000.0  # [Hz]
DC_LINK_VOLTAGE = 560.0  # [V]
ON_STATE_RESISTANCE = 5.0e-3  # [ohm]
HYSTERESIS_COEFF = 0.15  # [W*s/(rad*Wb^2)]
EXCESS_COEFF = 1.0e-3  # [W*s^1.5/(rad^1.5*Wb^2)]
SCREW_EFFICIENCY = 0.90  # mechanical efficiency of the screw stage


@dataclass(frozen=True)
class DriveConfig:
    """Loss-model coefficients and limits of one actuator's drive.

    The switching loss scales with :data:`SWITCHING_FREQ`,
    :data:`DC_LINK_VOLTAGE` and the phase current magnitude; conduction loss
    uses an on-state voltage drop plus the ohmic :data:`ON_STATE_RESISTANCE`.
    Core losses scale with electrical frequency and the squared stator flux
    magnitude: hysteresis (:data:`HYSTERESIS_COEFF`), eddy (``eddy_coeff``)
    and excess (:data:`EXCESS_COEFF`).  The screw loss uses the constant
    :data:`SCREW_EFFICIENCY`.  Defaults give a plausible industrial servo
    drive.
    """

    switching_coeff: float = 1.0e-6  # [J/(V*A)] per switching event
    on_state_voltage: float = 0.9  # [V]
    eddy_coeff: float = 2.0e-4  # [W*s^2/(rad^2*Wb^2)]
    max_current: float = field(default=np.inf)  # phase current amplitude limit [A]
    max_voltage: float = field(default=np.inf)  # dq voltage amplitude limit [V]

    def __post_init__(self):
        for name in ("switching_coeff", "on_state_voltage", "eddy_coeff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # a NaN limit would compare False against every operating point and
        # so switch the limit off; inf is the way to say "no limit"
        for name in ("max_current", "max_voltage"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0 (inf for no limit)")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-source power losses in watts, plus the two stage aggregates.

    Each field is a scalar or an array over the operating points it was
    evaluated at.
    """

    p_sw: np.ndarray
    p_d: np.ndarray
    p_cu: np.ndarray
    p_hys: np.ndarray
    p_eddy: np.ndarray
    p_add: np.ndarray
    p_mech: np.ndarray
    p_sc: np.ndarray

    @property
    def p_co(self) -> float:
        """Total core loss."""
        return self.p_hys + self.p_eddy + self.p_add

    @property
    def p_ee(self) -> float:
        """Electric-to-electromagnetic stage loss: switching + conduction + copper + core."""
        return self.p_sw + self.p_d + self.p_cu + self.p_co

    @property
    def p_em(self) -> float:
        """Electromagnetic-to-mechanical stage loss: shaft viscous + screw."""
        return self.p_mech + self.p_sc

    @property
    def total(self) -> float:
        return self.p_ee + self.p_em


def stator_flux_magnitude(params: PmsmParams, i_d, i_q):
    """|psi_s| from the current operating currents [Wb]."""
    return np.hypot(params.pm_flux + params.inductance_d * i_d, params.inductance_q * i_q)


def loss_breakdown(
    params: PmsmParams,
    drivetrain: DriveTrainParams,
    drive: DriveConfig,
    i_d,
    i_q,
    omega_m,
    f_x,
    v_x,
) -> LossBreakdown:
    """Evaluate every loss source at the given operating points.

    The mechanical state is taken as given (omega_m consistent with v_x via
    the ideal transmission when called from the map generator).  All
    components are nonnegative by construction.
    """
    eq = equivalent_params(drivetrain)
    i_mag = np.hypot(i_d, i_q)
    w = np.abs(params.pole_pairs * omega_m)
    psi = stator_flux_magnitude(params, i_d, i_q)
    return LossBreakdown(
        p_sw=drive.switching_coeff * SWITCHING_FREQ * DC_LINK_VOLTAGE * i_mag,
        p_d=drive.on_state_voltage * i_mag + ON_STATE_RESISTANCE * i_mag**2,
        p_cu=1.5 * params.stator_resistance * (i_d**2 + i_q**2),
        p_hys=HYSTERESIS_COEFF * w * psi**2,
        p_eddy=drive.eddy_coeff * w**2 * psi**2,
        p_add=EXCESS_COEFF * w**1.5 * psi**2,
        p_mech=eq.damping * omega_m**2,
        p_sc=(1.0 - SCREW_EFFICIENCY) * np.abs(f_x * v_x),
    )


def efficiency(f_x, v_x, losses: LossBreakdown):
    """Conversion efficiency eta = P_out / (P_out + P_EE + P_EM) in [0, 1].

    Only motoring points (f_x * v_x > 0) are rated: at zero output power
    and in the regenerative quadrant the efficiency is 0.
    """
    p_out = np.multiply(f_x, v_x)
    p_loss = losses.total
    eta = np.zeros(np.broadcast(p_out, p_loss).shape)
    np.divide(p_out, p_out + p_loss, out=eta, where=p_out > 0.0)
    return eta[()]
