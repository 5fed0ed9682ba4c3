import copy
import json
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlaopt.bilevel import BilevelConfig
from emlaopt.configio import (
    ConfigError,
    build_actuator,
    build_disturbance,
    build_gains,
    build_manipulator,
    build_map_axes,
    build_outer,
    build_preset_axes,
    build_problem,
    number,
    vector,
)
from emlaopt.control import DisturbanceProfile, nominal_disturbance, published_gains
from emlaopt.manipulator import ClosedChainStage, RigidBodyParams, rnea
from emlaopt.presets import benchmark_problem, default_manipulator, lift_emla
from emlaopt.trajopt import TrajectoryResult

# the stored 5x5 grid winner of the benchmark's inputs
WINNER = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "winner_bilevel.json"

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


def to_doc(value):
    """``value`` written as the inline config block that builds it: a body as
    {mass, inertia, com}, a dataclass as its fields, an array as a list."""
    if isinstance(value, RigidBodyParams):
        return {"mass": value.mass, "inertia": value.inertia.tolist(),
                "com": value.com_offset.tolist()}
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_doc(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


MODEL = default_manipulator()
ACTUATOR_DOC = to_doc(lift_emla())
MANIPULATOR_DOC = dict(to_doc(MODEL), gravity=9.81)
for _stage, _doc in zip(MODEL.stages, MANIPULATOR_DOC["stages"]):
    _doc["type"] = "closed_chain" if isinstance(_stage, ClosedChainStage) else "telescope"
PROBLEM_DOC = to_doc(benchmark_problem(MODEL, n_partitions=16, n_ctrl=8))
GAINS_DOC = to_doc(published_gains())


def winner_with_a_string_entry():
    """The stored grid winner's trajectory with one position as a string."""
    doc = json.loads(WINNER.read_text())["trajectory"]
    doc["q"][3][1] = "0.5"
    return doc


@pytest.mark.parametrize("build, doc, path, error", [
    (lambda d: build_problem(d, MODEL), dict(PROBLEM_DOC, q_lower=["0.1", "0.1", "0.1"]),
     "problem.q_lower", "[0]: expected a finite number, got '0.1'"),
    (lambda d: build_problem(d, MODEL), dict(PROBLEM_DOC, q_lower=[0.1, False, True]),
     "problem.q_lower", "[1]: expected a finite number, got False"),
    (lambda d: build_problem(d, MODEL), dict(PROBLEM_DOC, weights=["0.9", "0.1"]),
     "problem.weights", "[0]: expected a finite number, got '0.9'"),
    (lambda d: build_problem(d, MODEL), dict(PROBLEM_DOC, q_lower=0.1),
     "problem.q_lower", ": expected a list of 3 numbers, got 0.1"),
    (build_manipulator, dict(MANIPULATOR_DOC, base=dict(MANIPULATOR_DOC["base"],
                                                        com=[0, 0, "0"])),
     "manipulator.base.com", "[2]: expected a finite number, got '0'"),
    (TrajectoryResult.from_dict, winner_with_a_string_entry(),
     "trajectory.q", "[3][1]: expected a finite number, got '0.5'"),
], ids=["<lambda>-doc0-problem.q_lower", "<lambda>-doc1-problem.q_lower",
        "<lambda>-doc2-problem.weights", "<lambda>-doc3-problem.q_lower",
        "build_manipulator-doc4-manipulator.base.com", "from_dict-winner-trajectory.q"])
def test_vector_takes_a_list_of_numbers(build, doc, path, error):
    # np.asarray(value, dtype=float) built these as the numbers they spell.
    # The error names the first entry that is not a number, or quotes a
    # value that is not a list whole; it quoted the whole list, 3,140
    # characters for the winner's q
    with pytest.raises(ConfigError) as info:
        build(doc)
    assert str(info.value) == path + error
    assert len(str(info.value)) < 200


BEYOND_FLOAT = 10**400


@pytest.mark.parametrize("call, path", [
    (lambda: number(BEYOND_FLOAT, "x"), "x"),
    (lambda: number(-BEYOND_FLOAT, "x"), "x"),
    (lambda: vector([BEYOND_FLOAT, 1.0], "x"), "x[0]"),
    (lambda: vector([1.0, 2.0, -BEYOND_FLOAT], "x", 3), "x[2]"),
    (lambda: vector([[1.0, 2.0], [3.0, BEYOND_FLOAT]], "x"), "x[1][1]"),
], ids=["number", "number-negative", "vector", "vector-last", "matrix"])
def test_an_integer_beyond_the_float_range_is_a_config_error(call, path):
    # number raised a TypeError and vector an OverflowError, which the CLI
    # does not catch, so the run ended in a traceback
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value).startswith(path + ": expected a finite number, got ")


def test_an_integer_within_the_float_range_is_its_float():
    # np.isfinite raised a TypeError on any integer beyond int64
    assert number(10**300, "x") == 1e300
    assert number(2**64, "x") == 2.0**64
    assert np.array_equal(vector([2**64, 10**300], "x"), [2.0**64, 1e300])


@pytest.mark.parametrize("build, doc", [
    (build_actuator, ACTUATOR_DOC),
    (lambda d: build_problem(d, MODEL), PROBLEM_DOC),
    (lambda d: build_gains(d, 1)[0], GAINS_DOC),
    (build_disturbance, to_doc(nominal_disturbance())),
    (build_outer, to_doc(BilevelConfig())),
], ids=["actuator", "problem", "gains", "disturbance", "outer"])
def test_inline_block_of_a_preset_builds_it_again(build, doc):
    # every field the block names reaches the object, through a JSON round trip
    assert to_doc(build(json.loads(json.dumps(doc)))) == doc


def test_inline_manipulator_of_the_preset_builds_it_again():
    model = build_manipulator(json.loads(json.dumps(MANIPULATOR_DOC)))
    assert to_doc(model) == to_doc(MODEL)
    lo, hi = MODEL.stroke_limits()
    q = 0.5 * (lo + hi)
    assert np.array_equal(rnea(model, q, 0.1 * q, q)[1], rnea(MODEL, q, 0.1 * q, q)[1])


ALL = None  # every key of the block is optional
# (builder, config, where the block sits in it, its path, its optional keys)
BLOCKS = [
    (build_actuator, ACTUATOR_DOC, (), "actuator", {"drive", "name"}),
    (build_actuator, ACTUATOR_DOC, ("motor",), "actuator.motor", set()),
    (build_actuator, ACTUATOR_DOC, ("drivetrain",), "actuator.drivetrain", set()),
    (build_actuator, ACTUATOR_DOC, ("drive",), "actuator.drive", ALL),
    (build_actuator, {"preset": "lift_6kw"}, (), "actuator", ALL),
    (build_manipulator, MANIPULATOR_DOC, (), "manipulator", {"gravity", "base_pos", "base_angle"}),
    (build_manipulator, MANIPULATOR_DOC, ("base",), "manipulator.base", set()),
    (build_manipulator, MANIPULATOR_DOC, ("stages", 0), "manipulator.stages[0]", {"mount_angle"}),
    (build_manipulator, MANIPULATOR_DOC, ("stages", 0, "geometry"),
     "manipulator.stages[0].geometry", set()),
    (build_manipulator, MANIPULATOR_DOC, ("stages", 1, "rod"), "manipulator.stages[1].rod", set()),
    (build_manipulator, MANIPULATOR_DOC, ("stages", 2), "manipulator.stages[2]", {"mount_angle"}),
    (build_manipulator, {"preset": "default", "gravity": 9.81}, (), "manipulator", ALL),
    (lambda d: build_problem(d, MODEL), PROBLEM_DOC, (), "problem",
     {"weights", "criterion_scales", "degree", "n_ctrl", "n_partitions"}),
    (lambda d: build_problem(d, MODEL), {"preset": "benchmark", "n_partitions": 16}, (),
     "problem", ALL),
    (lambda d: build_gains(d, 3), GAINS_DOC, (), "gains", set()),
    (lambda d: build_gains(d, 3), [dict(GAINS_DOC) for _ in range(3)], (1,), "gains[1]",
     set()),
    (lambda d: build_gains(d, 3), {"preset": "published"}, (), "gains", ALL),
    (build_disturbance, to_doc(nominal_disturbance()), (), "disturbance", ALL),
    (build_disturbance, {"preset": "nominal"}, (), "disturbance", ALL),
    (build_outer, dict(to_doc(BilevelConfig()), method="grid"), (), "outer", ALL),
    (lambda d: build_map_axes(d, lift_emla()),
     {"force": [1.2e4, 4.2e4, 5], "velocity": [0.004, 0.135, 5]}, (), "grid", set()),
    (lambda d: build_map_axes(d, lift_emla()), {"preset": "default", "n_force": 12}, (),
     "grid", ALL),
    (lambda d: build_preset_axes(d, [lift_emla()]), {"n_force": 12, "n_velocity": 12}, (),
     "maps", ALL),
]


def _at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("build, doc, where, path, optional", BLOCKS,
                         ids=[f"{b[3]}-{'preset' if 'preset' in _at(b[1], b[2]) else 'inline'}"
                              for b in BLOCKS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_block_names_an_unread_or_missing_key(build, doc, where, path, optional, data):
    block = _at(doc, where)
    build(copy.deepcopy(doc))  # the block as written builds
    # "preset" is in every block's schema: it turns an inline block into a preset one
    key = data.draw(st.text(min_size=1, max_size=12).filter(
        lambda k: k not in block and k != "preset"), label="unread key")
    bad = copy.deepcopy(doc)
    _at(bad, where)[key] = 1.0
    with pytest.raises(ConfigError) as exc:
        build(bad)
    assert str(exc.value).startswith(f"{path}: ") and repr(key) in str(exc.value)
    if optional is ALL or not set(block) - optional:
        return
    dropped = data.draw(st.sampled_from(sorted(set(block) - optional)), label="dropped key")
    bad = copy.deepcopy(doc)
    del _at(bad, where)[dropped]
    with pytest.raises(ConfigError, match=re.escape(f"{path}.{dropped}")):
        build(bad)
