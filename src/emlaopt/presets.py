"""Illustrative parameter sets: three EMLAs and a 3-DoF manipulator.

The actuator sets are sized to 6.0 / 4.7 / 2.5 kW class machines for the
lift, tilt and telescope joints.  They are plausible engineering numbers,
not vendor datasheet values, and the manipulator geometry/inertia data are
likewise a representative heavy-duty boom, not a surveyed machine.
"""

import numpy as np

from .chain import ClosedChainGeometry
from .drivetrain import DriveTrainParams
from .effmap import EmlaModel
from .losses import DriveConfig
from .manipulator import ChainModel, ClosedChainStage, RigidBodyParams, TelescopeStage
from .pmsm import PmsmParams
from .trajopt import NlpProblem, check_count


def _planar_body(mass, iyy, com, gravity=9.81):
    inertia = np.diag([0.6 * iyy, iyy, 0.6 * iyy])
    return RigidBodyParams(
        mass=mass,
        inertia=inertia,
        com_offset=np.asarray(com, dtype=float),
        gravity=np.array([0.0, 0.0, gravity]),
    )


def lift_emla() -> EmlaModel:
    """6.0 kW class actuator for the lift joint."""
    motor = PmsmParams(
        stator_resistance=0.30,
        inductance_d=7.5e-3,
        inductance_q=8.5e-3,
        pole_pairs=4,
        pm_flux=0.20,
    )
    drivetrain = DriveTrainParams(
        motor_inertia=2.9e-3,
        coupling_inertia=2.0e-4,
        gearbox_inertia=8.0e-4,
        screw_mass=6.0,
        load_mass=30.0,
        viscous_motor=2.0e-4,
        gear_friction=2.0e-5,
        screw_viscous=0.05,
        gear_ratio=6.0,
        screw_lead=0.01,
    )
    drive = DriveConfig(max_current=26.0, max_voltage=450.0,
                        switching_coeff=2.0e-7, on_state_voltage=0.5,
                        eddy_coeff=2.23e-2)
    return EmlaModel(motor=motor, drivetrain=drivetrain, drive=drive, name="lift_6kw")


def tilt_emla() -> EmlaModel:
    """4.7 kW class actuator for the tilt joint."""
    motor = PmsmParams(
        stator_resistance=0.93,
        inductance_d=8.0e-3,
        inductance_q=9.0e-3,
        pole_pairs=4,
        pm_flux=0.24,
    )
    drivetrain = DriveTrainParams(
        motor_inertia=6.0e-4,
        coupling_inertia=8.0e-5,
        gearbox_inertia=3.0e-4,
        screw_mass=5.0,
        load_mass=22.0,
        viscous_motor=1.0e-4,
        gear_friction=2.0e-5,
        screw_viscous=0.03,
        gear_ratio=5.0,
        screw_lead=0.01,
    )
    drive = DriveConfig(max_current=22.0, max_voltage=420.0,
                        switching_coeff=2.0e-7, on_state_voltage=0.5,
                        eddy_coeff=3.7e-3)
    return EmlaModel(motor=motor, drivetrain=drivetrain, drive=drive, name="tilt_47kw")


def telescope_emla() -> EmlaModel:
    """2.5 kW class actuator for the telescope joint."""
    motor = PmsmParams(
        stator_resistance=1.5,
        inductance_d=1.0e-2,
        inductance_q=1.1e-2,
        pole_pairs=3,
        pm_flux=0.20,
    )
    drivetrain = DriveTrainParams(
        motor_inertia=8.0e-4,
        coupling_inertia=1.0e-4,
        gearbox_inertia=4.0e-4,
        screw_mass=4.0,
        load_mass=15.0,
        viscous_motor=1.0e-4,
        gear_friction=2.0e-5,
        screw_viscous=0.02,
        gear_ratio=3.0,
        screw_lead=0.015,
    )
    drive = DriveConfig(max_current=16.0, max_voltage=420.0,
                        switching_coeff=2.0e-7, on_state_voltage=0.5,
                        eddy_coeff=5.2e-3)
    return EmlaModel(motor=motor, drivetrain=drivetrain, drive=drive, name="telescope_25kw")


def actuators() -> list[EmlaModel]:
    """The three joint actuators in lift/tilt/telescope order."""
    return [lift_emla(), tilt_emla(), telescope_emla()]


ACTUATOR_PRESETS = {
    "lift_6kw": lift_emla,
    "tilt_47kw": tilt_emla,
    "telescope_25kw": telescope_emla,
}


# rated (force [N], velocity [m/s]) envelope of each preset actuator
MAP_ENVELOPES = {
    "lift_6kw": ((12.0e3, 42.0e3), (0.004, 0.135)),
    "tilt_47kw": ((1.0e3, 18.0e3), (0.004, 0.095)),
    "telescope_25kw": ((0.4e3, 6.0e3), (0.01, 0.33)),
}


def default_map_grid(model: EmlaModel, n_force: int = 40, n_velocity: int = 40):
    """Motoring-quadrant grid spanning a preset actuator's rated envelope
    (``MAP_ENVELOPES``, keyed by ``model.name``)."""
    if model.name not in MAP_ENVELOPES:
        raise ValueError(f"actuator {model.name!r} has no default map grid (presets: "
                         f"{sorted(MAP_ENVELOPES)}); give explicit 'force' and 'velocity' "
                         "axes [lo, hi, n]")
    check_count(n_force, "n_force", 2)
    check_count(n_velocity, "n_velocity", 2)
    (f_lo, f_hi), (v_lo, v_hi) = MAP_ENVELOPES[model.name]
    return np.linspace(f_lo, f_hi, n_force), np.linspace(v_lo, v_hi, n_velocity)


def default_manipulator(gravity: float = 9.81) -> ChainModel:
    """Representative 3-DoF lift/tilt/telescope boom (illustrative data)."""
    lift_geom = ClosedChainGeometry(
        base_len=float(np.hypot(0.35, 0.55)),
        rocker_len=1.10,
        barrel_len=0.55,
        rod_root_len=0.30,
        rod_frame_setback=0.12,
        stroke_min=0.03,
        stroke_max=0.54,
    )
    tilt_geom = ClosedChainGeometry(
        base_len=float(np.hypot(0.75, 0.18)),
        rocker_len=0.80,
        barrel_len=0.62,
        rod_root_len=0.33,
        rod_frame_setback=0.10,
        stroke_min=0.32,
        stroke_max=0.57,
    )
    return ChainModel(
        base=_planar_body(400.0, 40.0, [0.0, 0.0, 0.4], gravity),
        base_pos=np.zeros(3),
        stages=(
            ClosedChainStage(
                name="lift",
                geometry=lift_geom,
                hinge_pos=np.array([0.20, 0.0, 0.80]),
                anchor_pos=np.array([0.55, 0.0, 0.25]),
                boom=_planar_body(320.0, 180.0, [1.3, 0.0, 0.05], gravity),
                barrel=_planar_body(45.0, 1.8, [0.28, 0.0, 0.0], gravity),
                rod=_planar_body(28.0, 0.9, [-0.15, 0.0, 0.0], gravity),
                mount_pos=np.array([2.6, 0.0, 0.0]),
            ),
            ClosedChainStage(
                name="tilt",
                geometry=tilt_geom,
                hinge_pos=np.zeros(3),
                anchor_pos=np.array([-0.75, 0.0, 0.18]),
                boom=_planar_body(210.0, 70.0, [0.9, 0.0, 0.0], gravity),
                barrel=_planar_body(32.0, 1.2, [0.25, 0.0, 0.0], gravity),
                rod=_planar_body(20.0, 0.6, [-0.12, 0.0, 0.0], gravity),
                mount_pos=np.array([0.4, 0.0, -0.12]),
            ),
            TelescopeStage(
                name="telescope",
                carriage=_planar_body(450.0, 50.0, [0.8, 0.0, -0.05], gravity),
                slide_pos=np.zeros(3),
                stroke_min=0.0,
                stroke_max=0.9,
                mount_pos=np.array([1.2, 0.0, 0.0]),
            ),
        ),
    )


def benchmark_problem(model: ChainModel = None, n_partitions: int = 50, n_ctrl: int = 12) -> NlpProblem:
    """Point-to-point motion used by the examples and regression suite."""
    if model is None:
        model = default_manipulator()
    lo, hi = model.stroke_limits()
    return NlpProblem(
        q_lower=lo + 0.01,
        q_upper=hi - 0.01,
        qd_lower=np.array([-0.11, -0.09, -0.35]),
        qd_upper=np.array([0.11, 0.09, 0.35]),
        fx_lower=np.array([-60.0e3, -52.0e3, -12.0e3]),
        fx_upper=np.array([60.0e3, 52.0e3, 12.0e3]),
        vx_lower=np.array([-0.115, -0.095, -0.36]),
        vx_upper=np.array([0.115, 0.095, 0.36]),
        t_lower=3.0,
        t_upper=12.0,
        q_init=np.array([0.20, 0.345, 0.75]),
        q_final=np.array([0.34, 0.545, 0.05]),
        qd_init=np.zeros(3),
        qd_final=np.zeros(3),
        criterion_scales=np.array([2.0e9, 1.0e7]),
        n_partitions=n_partitions,
        n_ctrl=n_ctrl,
    )
