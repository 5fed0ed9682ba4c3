from dataclasses import replace

import numpy as np
import pytest

from emlaopt.configio import (
    ConfigError,
    build_actuator,
    build_disturbance,
    build_manipulator,
    build_problem,
)
from emlaopt.control import DisturbanceProfile, nominal_disturbance
from emlaopt.manipulator import rnea
from emlaopt.presets import benchmark_problem, default_manipulator


INLINE_ACTUATOR = {
    "name": "bench",
    "motor": {"stator_resistance": 0.5, "inductance_d": 8e-3, "inductance_q": 9e-3,
              "pole_pairs": 4, "pm_flux": 0.22},
    "drivetrain": {"motor_inertia": 2e-3, "coupling_inertia": 1e-4,
                   "gearbox_inertia": 5e-4, "screw_mass": 5.0, "load_mass": 20.0,
                   "viscous_motor": 3e-4, "gear_friction": 5e-5, "screw_viscous": 0.1,
                   "coupling_stiffness": 1e5, "gear_stiffness": 2e6,
                   "bearing_stiffness": 5e10, "screw_stiffness": 5e10,
                   "nut_stiffness": 5e10, "tube_stiffness": 5e10,
                   "gear_ratio": 5.0, "screw_lead": 0.01},
    "drive": {"max_current": 20.0, "max_voltage": 400.0},
}


def test_inline_actuator():
    emla = build_actuator(INLINE_ACTUATOR)
    assert emla.name == "bench"
    assert emla.motor.pole_pairs == 4
    assert emla.drive.max_current == 20.0


def test_inline_actuator_bad_field_diagnostic():
    bad = dict(INLINE_ACTUATOR, motor=dict(INLINE_ACTUATOR["motor"], pm_flux=-1.0))
    with pytest.raises(ConfigError, match="actuator"):
        build_actuator(bad)


def test_inline_manipulator_single_stage():
    doc = {
        "gravity": 9.81,
        "base": {"mass": 300.0, "inertia": [30.0, 30.0, 30.0], "com": [0, 0, 0.3]},
        "stages": [
            {
                "type": "closed_chain",
                "name": "arm",
                "geometry": {"base_len": 0.65, "rocker_len": 1.1, "barrel_len": 0.55,
                             "rod_root_len": 0.3, "rod_frame_setback": 0.12,
                             "stroke_min": 0.03, "stroke_max": 0.54},
                "hinge_pos": [0.2, 0.0, 0.8],
                "anchor_pos": [0.2 + 0.65 * 0.53722, 0.0, 0.8 - 0.65 * 0.84345],
                "boom": {"mass": 250.0, "inertia": [90, 150, 90], "com": [1.2, 0, 0]},
                "barrel": {"mass": 40.0, "inertia": [1, 1.6, 1], "com": [0.3, 0, 0]},
                "rod": {"mass": 25.0, "inertia": [0.5, 0.8, 0.5], "com": [-0.1, 0, 0]},
                "mount_pos": [2.4, 0.0, 0.0],
            },
            {
                "type": "telescope",
                "name": "slide",
                "carriage": {"mass": 180.0, "inertia": [20, 25, 20], "com": [0.6, 0, -0.05]},
                "slide_pos": [0.0, 0.0, 0.0],
                "stroke_min": 0.0,
                "stroke_max": 0.8,
                "mount_pos": [1.0, 0.0, 0.0],
            },
        ],
    }
    # the anchor must sit exactly base_len from the hinge
    hinge = np.array(doc["stages"][0]["hinge_pos"])
    anchor = np.array(doc["stages"][0]["anchor_pos"])
    span = np.linalg.norm(anchor - hinge)
    doc["stages"][0]["geometry"]["base_len"] = float(span)
    model = build_manipulator(doc)
    assert model.n_joints == 2
    lo, hi = model.stroke_limits()
    q = 0.5 * (lo + hi)
    v, f = rnea(model, q, np.zeros(2), np.zeros(2))
    assert np.all(np.isfinite(f))


def test_inline_manipulator_missing_field_path():
    with pytest.raises(ConfigError, match="stages"):
        build_manipulator({"base": {"mass": 1.0, "inertia": [1, 1, 1], "com": [0, 0, 0]}})


def test_inline_problem(model):
    lo, hi = model.stroke_limits()
    doc = {
        "q_lower": list(lo), "q_upper": list(hi),
        "qd_lower": [-0.1] * 3, "qd_upper": [0.1] * 3,
        "fx_lower": [-6e4] * 3, "fx_upper": [6e4] * 3,
        "vx_lower": [-0.1] * 3, "vx_upper": [0.1] * 3,
        "t_lower": 3.0, "t_upper": 10.0,
        "q_init": list(lo + 0.05), "q_final": list(hi - 0.05),
        "qd_init": [0.0] * 3, "qd_final": [0.0] * 3,
        "n_partitions": 20, "n_ctrl": 10,
    }
    problem = build_problem(doc, model)
    assert problem.n_partitions == 20
    with pytest.raises(ConfigError, match="q_lower"):
        build_problem({k: v for k, v in doc.items() if k != "q_lower"}, model)


def test_disturbance_seed_offset():
    a = build_disturbance({"preset": "nominal"}, seed_offset=0)
    b = build_disturbance({"preset": "nominal"}, seed_offset=3)
    assert b.seed == a.seed + 3
    none = build_disturbance(None)
    assert none.force_noise_std == 0.0
    assert a == replace(nominal_disturbance(), seed=nominal_disturbance().seed)
    assert build_disturbance({"preset": "none"}, seed_offset=3) == DisturbanceProfile(seed=3)
    inline = build_disturbance({"force_noise_std": 0.02, "seed": 4}, seed_offset=1)
    assert inline.force_noise_std == 0.02 and inline.seed == 5


@pytest.mark.parametrize("doc, match", [
    ({"preset": "Nominal"}, "disturbance.preset"),
    ({"preset": "nominal", "seed": 3}, "preset takes no other keys"),
    ({"force_noise": 0.02}, "force_noise"),
    ([0.02], "expected an object"),
])
def test_misspelled_disturbance_rejected(doc, match):
    # each of these used to run silently with zero disturbance
    with pytest.raises(ConfigError, match=match):
        build_disturbance(doc)


def test_vector_shape_diagnostic(model):
    doc = {"preset": "benchmark"}
    p = build_problem(doc, model)
    assert p.n_joints == model.n_joints
