import copy
import hashlib
import inspect
import json
import re
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlaopt.bilevel import BilevelConfig
from emlaopt.configio import (
    READERS,
    STAGE_TYPES,
    WRITE_SLICE,
    ConfigError,
    build_actuator,
    build_disturbance,
    build_gains,
    build_manipulator,
    build_map_axes,
    build_outer,
    build_preset_axes,
    build_problem,
    integer,
    json_text,
    number,
    vector,
    write_artifacts,
)
from emlaopt.control import (
    DisturbanceProfile,
    SubsystemGains,
    nominal_disturbance,
    published_gains,
)
from emlaopt.effmap import EmlaModel
from emlaopt.manipulator import ChainModel, ClosedChainStage, RigidBodyParams, rnea
from emlaopt.pmsm import PmsmParams
from emlaopt.presets import (
    ACTUATOR_PRESETS,
    actuators,
    benchmark_problem,
    default_manipulator,
    default_map_grid,
    lift_emla,
)
from emlaopt.trajopt import NlpProblem, TrajectoryResult

# the stored 5x5 grid winner of the benchmark's inputs
WINNER = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "winner_bilevel.json"

INLINE_ACTUATOR = {
    "name": "bench",
    "motor": {"stator_resistance": 0.5, "inductance_d": 8e-3, "inductance_q": 9e-3,
              "pole_pairs": 4, "pm_flux": 0.22},
    "drivetrain": {"motor_inertia": 2e-3, "coupling_inertia": 1e-4,
                   "gearbox_inertia": 5e-4, "screw_mass": 5.0, "load_mass": 20.0,
                   "viscous_motor": 3e-4, "gear_friction": 5e-5, "screw_viscous": 0.1,
                   "gear_ratio": 5.0, "screw_lead": 0.01},
    "drive": {"max_current": 20.0, "max_voltage": 400.0},
}


def test_inline_actuator():
    emla = build_actuator(INLINE_ACTUATOR)
    assert emla.name == "bench"
    assert emla.motor.pole_pairs == 4
    assert emla.drive.max_current == 20.0


# the shaft is rigid, so a drivetrain block takes no stiffness
REMOVED_DRIVETRAIN_KEYS = tuple(f"{part}_stiffness"
                                for part in ("coupling", "gear", "bearing", "screw", "nut", "tube"))


@pytest.mark.parametrize("key", REMOVED_DRIVETRAIN_KEYS)
def test_a_removed_drivetrain_key_is_unknown(key):
    doc = copy.deepcopy(INLINE_ACTUATOR)
    doc["drivetrain"][key] = 1e5
    with pytest.raises(ConfigError) as exc:
        build_actuator(doc)
    assert str(exc.value).startswith("actuator.drivetrain: ") and repr(key) in str(exc.value)


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
    f = rnea(model, q, np.zeros(2), np.zeros(2))
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


def test_inline_problem_takes_no_weights():
    # the follower's weights are an argument of its solve, set by the
    # trajopt config's top level or by the leader, not by the problem
    with pytest.raises(ConfigError) as info:
        build_problem(dict(PROBLEM_DOC, weights=[0.5, 0.5]), MODEL)
    assert str(info.value).startswith("problem: it takes only ['criterion_scales', ")
    assert str(info.value).endswith("got unknown keys ['weights']")


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
    (lambda d: build_problem(d, MODEL), dict(PROBLEM_DOC, criterion_scales=["2e9", "1e7"]),
     "problem.criterion_scales", "[0]: expected a finite number, got '2e9'"),
    (lambda d: build_problem(d, MODEL), dict(PROBLEM_DOC, q_lower=0.1),
     "problem.q_lower", ": expected a list of 3 numbers, got 0.1"),
    (build_manipulator, dict(MANIPULATOR_DOC, base=dict(MANIPULATOR_DOC["base"],
                                                        com=[0, 0, "0"])),
     "manipulator.base.com", "[2]: expected a finite number, got '0'"),
    (TrajectoryResult.from_dict, winner_with_a_string_entry(),
     "trajectory.q", "[3][1]: expected a finite number, got '0.5'"),
], ids=["<lambda>-doc0-problem.q_lower", "<lambda>-doc1-problem.q_lower",
        "<lambda>-doc2-problem.criterion_scales", "<lambda>-doc3-problem.q_lower",
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


@pytest.mark.parametrize("value", [BEYOND_FLOAT, -BEYOND_FLOAT])
def test_an_integer_count_beyond_the_float_range_is_a_config_error(value):
    # an inline pole_pairs of 10**400 built a motor and ended in an
    # OverflowError traceback when the map converted it to a float
    with pytest.raises(ConfigError) as info:
        integer(value, "x")
    assert str(info.value).startswith("x: expected an integer within the float range, got ")
    assert integer(2**1000, "x") == 2**1000


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
    assert np.array_equal(rnea(model, q, 0.1 * q, q), rnea(MODEL, q, 0.1 * q, q))


@pytest.mark.parametrize("doc", [dict(MANIPULATOR_DOC, gravity=None),
                                 {"preset": "default", "gravity": None}], ids=["inline", "preset"])
def test_a_null_gravity_is_not_a_number(doc):
    # gravity is a finite number like every other scalar: null built the
    # inline block under 9.81 and the preset with NaN forces
    with pytest.raises(ConfigError) as info:
        build_manipulator(doc)
    assert str(info.value) == "manipulator.gravity: expected a finite number, got None"


def keywords(preset, n_args: int = 0) -> set:
    """The keys a block of the ``preset`` function reads besides "preset":
    its parameters after the ``n_args`` its builder passes."""
    return set(list(inspect.signature(preset).parameters)[n_args:])


ALL = None  # every key of the block is optional
# (builder, config, where the block sits in it, its path, its optional keys, the
# keys its reader takes besides those it names: a preset function's keywords; an
# inline block names every field its reader takes)
BLOCKS = [
    (build_actuator, ACTUATOR_DOC, (), "actuator", {"drive", "name"}, set()),
    (build_actuator, ACTUATOR_DOC, ("motor",), "actuator.motor", set(), set()),
    (build_actuator, ACTUATOR_DOC, ("drivetrain",), "actuator.drivetrain", set(), set()),
    (build_actuator, ACTUATOR_DOC, ("drive",), "actuator.drive", ALL, set()),
    (build_actuator, {"preset": "lift_6kw"}, (), "actuator", ALL, keywords(lift_emla)),
    (build_manipulator, MANIPULATOR_DOC, (), "manipulator", {"gravity", "base_pos", "base_angle"},
     set()),
    (build_manipulator, MANIPULATOR_DOC, ("base",), "manipulator.base", set(), set()),
    (build_manipulator, MANIPULATOR_DOC, ("stages", 0), "manipulator.stages[0]", {"mount_angle"},
     set()),
    (build_manipulator, MANIPULATOR_DOC, ("stages", 0, "geometry"),
     "manipulator.stages[0].geometry", set(), set()),
    (build_manipulator, MANIPULATOR_DOC, ("stages", 1, "rod"), "manipulator.stages[1].rod", set(),
     set()),
    (build_manipulator, MANIPULATOR_DOC, ("stages", 2), "manipulator.stages[2]", {"mount_angle"},
     set()),
    (build_manipulator, {"preset": "default", "gravity": 9.81}, (), "manipulator", ALL,
     keywords(default_manipulator)),
    (lambda d: build_problem(d, MODEL), PROBLEM_DOC, (), "problem",
     {"criterion_scales", "degree", "n_ctrl", "n_partitions"}, set()),
    (lambda d: build_problem(d, MODEL), {"preset": "benchmark", "n_partitions": 16}, (),
     "problem", ALL, keywords(benchmark_problem, 1)),
    (lambda d: build_gains(d, 3), GAINS_DOC, (), "gains", set(), set()),
    (lambda d: build_gains(d, 3), [dict(GAINS_DOC) for _ in range(3)], (1,), "gains[1]",
     set(), set()),
    (lambda d: build_gains(d, 3), {"preset": "published"}, (), "gains", ALL,
     keywords(published_gains)),
    (build_disturbance, to_doc(nominal_disturbance()), (), "disturbance", ALL, set()),
    (build_disturbance, {"preset": "nominal"}, (), "disturbance", ALL,
     keywords(nominal_disturbance)),
    (build_outer, dict(to_doc(BilevelConfig()), method="grid"), (), "outer", ALL, set()),
    (lambda d: build_map_axes(d, lift_emla()),
     {"force": [1.2e4, 4.2e4, 5], "velocity": [0.004, 0.135, 5]}, (), "grid", set(), set()),
    (lambda d: build_map_axes(d, lift_emla()), {"preset": "default", "n_force": 12}, (),
     "grid", ALL, keywords(default_map_grid, 1)),
    (lambda d: build_preset_axes(d, [lift_emla()]), {"n_force": 12, "n_velocity": 12}, (),
     "maps", ALL, keywords(default_map_grid, 1)),
]


def _at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


def is_unread(key, block, reads) -> bool:
    """Whether no reader of ``block`` takes ``key``; "preset" is in every
    block's schema: it turns an inline block into a preset one."""
    return key not in block and key not in reads and key != "preset"


BLOCK_IDS = [f"{b[3]}-{'preset' if 'preset' in _at(b[1], b[2]) else 'inline'}" for b in BLOCKS]


@pytest.mark.parametrize("build, doc, where, path, optional, reads", BLOCKS, ids=BLOCK_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_block_names_an_unread_or_missing_key(build, doc, where, path, optional, reads,
                                                    data):
    block = _at(doc, where)
    build(copy.deepcopy(doc))  # the block as written builds
    key = data.draw(st.text(min_size=1, max_size=12).filter(
        lambda k: is_unread(k, block, reads)), label="unread key")
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


@pytest.mark.parametrize("block_id, key, value", [("grid-preset", "n_velocity", 12),
                                                  ("problem-preset", "n_ctrl", 10)])
def test_a_key_a_preset_reads_is_never_drawn_as_unread(block_id, key, value):
    # the draw above once took "n_velocity" for the grid preset block, which builds with it
    build, doc, where, path, optional, reads = BLOCKS[BLOCK_IDS.index(block_id)]
    assert not is_unread(key, _at(doc, where), reads)
    build(dict(doc, **{key: value}))


# the dataclasses a config block or a trajectory.json builds, besides those
# their fields hold
CONFIG_CLASSES = (EmlaModel, ChainModel, *STAGE_TYPES.values(), NlpProblem, SubsystemGains,
                  DisturbanceProfile, BilevelConfig, TrajectoryResult)
# the field types and names whose builder reads them with a reader of its own
BUILDER_READS = {RigidBodyParams, "stages", "psi_raw", "degree", "outer_iterations"}
# each preset function and the arguments its builder passes before a block's keys
PRESETS = [*[(f, 0) for f in ACTUATOR_PRESETS.values()], (actuators, 0),
           (default_manipulator, 0), (benchmark_problem, 1), (published_gains, 0),
           (nominal_disturbance, 0), (default_map_grid, 1)]


def unread_fields(classes) -> list:
    """The fields of ``classes``, and of every dataclass their fields hold,
    whose declared type has no reader: none of ``READERS``' types, no
    dataclass and, neither by type nor by name, in ``BUILDER_READS``."""
    unread, todo, seen = [], list(classes), set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        for f in fields(cls):
            if f.type in BUILDER_READS or f.name in BUILDER_READS:
                continue
            if is_dataclass(f.type):
                todo.append(f.type)
            elif f.type not in READERS:
                unread.append(f"{cls.__name__}.{f.name}")
    return unread


def test_every_config_field_has_a_reader():
    # a float field without a reader went to its model unchecked: a null
    # mount_angle ended in a TypeError traceback in the first rnea call
    assert unread_fields(CONFIG_CLASSES) == []

    @dataclass
    class Scratch:
        name: str
        motor: PmsmParams
        impedance: complex
        tags: list

    assert unread_fields([Scratch]) == ["Scratch.impedance", "Scratch.tags"]
    # a preset block's keys are read by their parameters' annotated types
    assert all(p.annotation in READERS for preset, n_args in PRESETS
               for p in list(inspect.signature(preset).parameters.values())[n_args:])


def test_sliced_write_is_the_whole_encoding(tmp_path):
    # three-byte and four-byte characters straddle the first two slice boundaries in bytes
    text = "a" * (WRITE_SLICE - 1) + "\u20ac" + "b" * (WRITE_SLICE - 2) + "\U0001f600" + "c" * 9
    assert len(text) > 2 * WRITE_SLICE
    write_artifacts(tmp_path, {"big.txt": text, "empty.txt": ""}, "{}", 3)
    data = (tmp_path / "big.txt").read_bytes()
    assert data == text.encode()
    assert (tmp_path / "empty.txt").read_bytes() == b""
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == {"big.txt": hashlib.sha256(data).hexdigest(),
                                   "empty.txt": hashlib.sha256(b"").hexdigest()}
    assert manifest["config_sha256"] == hashlib.sha256(b"{}").hexdigest()


def test_a_write_failing_partway_leaves_no_output(tmp_path):
    # the first slice of "bad.txt" is written before the lone surrogate in its second fails
    files = {"good.txt": "ok\n", "bad.txt": "x" * (WRITE_SLICE + 5) + "\ud800"}
    with pytest.raises(UnicodeEncodeError):
        write_artifacts(tmp_path / "out", files, "{}", 0)
    assert list((tmp_path / "out").iterdir()) == []


# values the C encoder writes as scalars: NaN, ±inf, -0.0 and ints beyond 2**64 among them
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2**64, max_value=2**200).flatmap(
               lambda n: st.sampled_from([n, -n]))
           | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]))
# strings that hold the separators the layout replaces, quotes and non-ASCII text
TEXTS = st.text(max_size=6) | st.sampled_from(
    [", ", "], [", "a, b", "[1], [2]", '"', 'say "hi", then go', "\\", "Grüße, 東京", "\u2028"])
ROWS = st.lists(SCALARS, max_size=4)  # ragged and empty rows
# tuples, which json.dumps writes as lists, stand for a list or for its rows
LEAVES = (SCALARS | TEXTS | st.lists(SCALARS, max_size=5) | st.lists(ROWS, max_size=4)
          | st.lists(SCALARS, max_size=5).map(tuple) | st.lists(ROWS.map(tuple), max_size=4))


@settings(max_examples=300, deadline=None)
@given(doc=st.recursive(LEAVES, lambda children: st.lists(children, max_size=4)
                        | st.dictionaries(TEXTS, children, max_size=4), max_leaves=25))
def test_json_text_is_the_indent_2_dump(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)
