import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlaopt.effmap import (
    INFEASIBLE_TOKEN,
    MAP_CSV_HEADER,
    EfficiencyMap,
    build_efficiency_map,
    map_from_json,
    map_to_csv,
    map_to_json,
)
from emlaopt.drivetrain import rotary_linear_map
from emlaopt.pmsm import dq_voltages
from emlaopt.presets import actuators, default_map_grid, lift_emla
from oracles import electromagnetic_torque


@pytest.fixture(scope="module")
def emla():
    return lift_emla()


@pytest.fixture(scope="module")
def emap(emla):
    return build_efficiency_map(emla, *default_map_grid(emla, 20, 20))


@st.composite
def operating_axes(draw):
    """An actuator and force/velocity axes over all four quadrants, reaching
    half again past its map envelope."""
    emla = draw(st.sampled_from(actuators()))
    f_axis, v_axis = default_map_grid(emla, 2, 2)
    unit = st.floats(-1.5, 1.5)
    f = draw(arrays(float, st.integers(1, 6), elements=unit)) * f_axis[-1]
    v = draw(arrays(float, st.integers(1, 6), elements=unit)) * v_axis[-1]
    return emla, f, v


def test_steady_state_solves_the_circuit(emla):
    f, v = 2.4e4, 0.05
    omega, i_q, v_d, v_q = emla.steady_state(f, v)
    tau, omega_ref = rotary_linear_map(emla.drivetrain, f, v)
    assert np.isclose(omega, omega_ref)
    assert np.isclose(electromagnetic_torque(emla.motor, 0.0, i_q), tau)
    vd_ref, vq_ref = dq_voltages(emla.motor, i_q, omega)
    assert np.isclose(v_d, vd_ref) and np.isclose(v_q, vq_ref)


def test_zero_output_cells_have_zero_eta(emla):
    eta, losses, feasible = emla.cell(0.0, 0.05)
    assert feasible and eta == 0.0


def test_eta_bounds_and_feasibility(emap):
    vals = emap.eta[emap.feasible]
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert emap.feasible.any()


def test_current_limit_marks_infeasible(emla):
    from dataclasses import replace

    tight = replace(emla, drive=replace(emla.drive, max_current=2.0))
    eta, losses, feasible = tight.cell(4e4, 0.05)
    assert not feasible and np.isnan(eta)


def test_regenerating_cell_excluded_by_default(emla):
    eta, losses, feasible = emla.cell(1e4, -0.05)
    assert not feasible and np.isnan(eta)


def test_unimodal_along_ray(emla):
    # eta rises then falls along a ray through the operating region
    s = np.linspace(0.02, 1.0, 60)
    eta = emla.efficiency_at(4.2e4 * s, 0.12 * s)
    peak = int(np.argmax(eta))
    assert 0 < peak < len(s) - 1
    assert np.all(np.diff(eta[: peak + 1]) > -1e-9)
    assert np.all(np.diff(eta[peak:]) < 1e-9)


@settings(max_examples=40, deadline=None)
@given(operating_axes())
def test_cell_batch_equals_points(case):
    """One cell call over a grid gives, bitwise, what a call at each point
    gives, as the per-cell loop it replaced did."""
    emla, f, v = case
    ff, vv = np.meshgrid(f, v, indexing="ij")
    eta, losses, feasible = emla.cell(ff, vv)
    assert eta.shape == feasible.shape == ff.shape
    for i, j in np.ndindex(ff.shape):
        e, lb, ok = emla.cell(ff[i:i + 1, j], vv[i:i + 1, j])
        assert ok[0] == feasible[i, j]
        assert np.array_equal(e[0], eta[i, j], equal_nan=True)
        for name, column in losses.items():
            assert lb[name][0] == column[i, j]
        # Python floats take libm pow, which can round w**1.5 and the squares
        # one ulp away from NumPy's array loop
        e, _, ok = emla.cell(float(ff[i, j]), float(vv[i, j]))
        assert ok == feasible[i, j]
        assert np.allclose(e, eta[i, j], rtol=1e-15, atol=0.0, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(operating_axes())
def test_loss_balance_on_feasible_motoring_cells(case):
    emla, f, v = case
    f, v = np.unique(f), np.unique(v)
    assume(len(f) >= 2 and len(v) >= 2)  # a map needs two points per axis
    emap = build_efficiency_map(emla, f, v)
    ff, vv = np.meshgrid(emap.force_axis, emap.velocity_axis, indexing="ij")
    p_out = ff * vv
    cells = emap.feasible & (p_out > 0)
    lost = sum(column[cells] for column in emap.losses.values())
    assert np.all(lost >= 0)
    balance = p_out[cells] / (p_out[cells] + lost)
    assert np.allclose(emap.eta[cells], balance, rtol=1e-13, atol=0.0)


def test_refinement_agrees_with_bilinear_interp(emla):
    coarse = build_efficiency_map(emla, *default_map_grid(emla, 40, 40))
    f2, v2 = default_map_grid(emla, 80, 80)
    fine = build_efficiency_map(emla, f2, v2)
    ff, vv = np.meshgrid(f2, v2, indexing="ij")
    interp = coarse.interp_eta(ff.ravel(), vv.ravel()).reshape(ff.shape)
    inside = (
        (ff >= coarse.force_axis[0]) & (ff <= coarse.force_axis[-1])
        & (vv >= coarse.velocity_axis[0]) & (vv <= coarse.velocity_axis[-1])
        & fine.feasible
    )
    assert np.abs(fine.eta[inside] - interp[inside]).max() <= 0.02


def test_csv_contract(emap):
    text = map_to_csv(emap)
    lines = text.splitlines()
    assert lines[0] == ",".join(MAP_CSV_HEADER)
    assert len(lines) == 1 + emap.eta.size
    cols = lines[1].split(",")
    assert len(cols) == len(MAP_CSV_HEADER)


def test_csv_infeasible_token(emla):
    from dataclasses import replace

    tight = replace(emla, drive=replace(emla.drive, max_current=6.0))
    emap = build_efficiency_map(tight, *default_map_grid(emla, 8, 8))
    assert not emap.feasible.all()
    text = map_to_csv(emap)
    assert INFEASIBLE_TOKEN in text
    for line in text.splitlines()[1:]:
        cols = line.split(",")
        if cols[-1] == "0":
            assert cols[2] == INFEASIBLE_TOKEN


def test_json_roundtrip(emap):
    back = map_from_json(map_to_json(emap))
    assert np.array_equal(back.force_axis, emap.force_axis)
    assert np.allclose(back.eta, emap.eta, equal_nan=True)
    assert np.array_equal(back.feasible, emap.feasible)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_interp_symmetric_reverse_quadrant(emap, data):
    n = data.draw(st.integers(1, 30))
    unit = arrays(float, n, elements=st.floats(1e-3, 1.5))
    sign = np.where(data.draw(arrays(bool, n)), 1.0, -1.0)
    f = sign * data.draw(unit) * emap.force_axis[-1]
    v = sign * data.draw(unit) * emap.velocity_axis[-1]
    assert np.array_equal(emap.interp_eta(-f, -v), emap.interp_eta(f, v))


def test_monotone_grid_required(emla):
    with pytest.raises(ValueError):
        build_efficiency_map(emla, np.array([1.0, 1.0, 2.0]), np.array([0.1, 0.2]))


LOSS_KEYS = MAP_CSV_HEADER[3:9]


def reference_csv(emap):
    """The per-cell writer the array writer replaced, kept as its oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MAP_CSV_HEADER)
    for i, f in enumerate(emap.force_axis):
        for j, v in enumerate(emap.velocity_axis):
            if emap.feasible[i, j]:
                values = [f, v, emap.eta[i, j]] + [emap.losses[k][i, j] for k in LOSS_KEYS]
                row = ["%.12g" % x for x in values] + ["1"]
            else:
                row = ["%.12g" % f, "%.12g" % v] + [INFEASIBLE_TOKEN] * 7 + ["0"]
            writer.writerow(row)
    return buf.getvalue()


def reference_json(emap):
    """The document and layout the array writer replaced, kept as its oracle."""

    def matrix(a):
        return [[None if not np.isfinite(x) else x for x in row] for row in a]

    doc = {
        "force_axis": emap.force_axis.tolist(),
        "velocity_axis": emap.velocity_axis.tolist(),
        "eta": matrix(emap.eta),
        "feasible": emap.feasible.astype(int).tolist(),
        "losses": {k: matrix(v) for k, v in emap.losses.items()},
    }
    return json.dumps(doc, indent=2)


EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]


@st.composite
def small_maps(draw):
    """Maps of 2-6 points per axis with a random feasibility mask: eta in
    [0, 1] (NaN where infeasible), losses of any finite magnitude on feasible
    cells and any value, non-finite included, on infeasible ones."""
    finite = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1e6, 1e6))

    def axis():
        values = draw(st.lists(finite, min_size=2, max_size=6, unique=True))
        return np.array(sorted(values))

    f, v = axis(), axis()
    shape = (len(f), len(v))
    feasible = draw(arrays(bool, shape))
    unit = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 1.0]), st.floats(0.0, 1.0))
    eta = np.where(feasible, draw(arrays(float, shape, elements=unit)), np.nan)
    anything = st.one_of(finite, st.floats(allow_nan=True, allow_infinity=True))
    losses = {
        k: np.where(feasible, draw(arrays(float, shape, elements=finite)),
                    draw(arrays(float, shape, elements=anything)))
        for k in LOSS_KEYS
    }
    return EfficiencyMap(f, v, eta, losses, feasible)


def grid_map(feasible, **losses):
    """A map on the axes 0, 1, ..., eta 0.5 on its feasible cells and NaN on
    the others, the given losses and zero for the rest."""
    feasible = np.array(feasible, dtype=bool)
    n_f, n_v = feasible.shape
    full = {k: np.array(losses.get(k, np.zeros(feasible.shape)), dtype=float) for k in LOSS_KEYS}
    return EfficiencyMap(np.arange(n_f, dtype=float), np.arange(n_v, dtype=float),
                         np.where(feasible, 0.5, np.nan), full, feasible)


# value-equal but not bit-equal along rows: bit-equal down the columns, and neither
SIGNED_ZEROS = grid_map(np.ones((2, 2)), p_cu=[[0.0, -0.0], [0.0, -0.0]],
                        p_sw=[[0.0, -0.0], [-0.0, 0.0]])
# a force-only and a velocity-only loss, each non-finite on its infeasible cells
ONE_AXIS_NON_FINITE = grid_map([[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                               p_cu=[[2.5] * 3, [np.nan] * 3, [np.inf] * 3],
                               p_mech=[[4.0, np.nan, -np.inf]] * 3)
# a feasible cell whose loss is NaN is written as the number, not as the token
FEASIBLE_NAN = grid_map(np.ones((2, 3)), p_co=[[np.nan, 1.0, 2.0], [3.0, 4.0, 5.0]],
                        p_sc=[[np.nan] * 3] * 2)


@settings(max_examples=100, deadline=None)
@given(small_maps())
@example(SIGNED_ZEROS)
@example(ONE_AXIS_NON_FINITE)
@example(FEASIBLE_NAN)
def test_writers_match_per_cell_reference(emap):
    text = map_to_json(emap)
    assert map_to_csv(emap) == reference_csv(emap)
    assert text == reference_json(emap)
    assert map_to_json(map_from_json(text)) == text


@pytest.mark.parametrize("n", [7, 40])
def test_preset_maps_match_per_cell_reference(n):
    for emla in actuators():
        emap = build_efficiency_map(emla, *default_map_grid(emla, n, n))
        assert map_to_csv(emap) == reference_csv(emap)
        assert map_to_json(emap) == reference_json(emap)


@pytest.fixture(scope="module")
def dense_map(emla):
    return build_efficiency_map(emla, *default_map_grid(emla, 120, 120))


def traced_peak(write, emap):
    """The text ``write(emap)`` returns and the traced peak of that call."""
    tracemalloc.start()
    try:
        text = write(emap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return text, peak


def test_json_writer_peak_stays_near_its_length(dense_map):
    text, peak = traced_peak(map_to_json, dense_map)
    # the row pieces and the text joined from them, about 2x its length; a writer that
    # copies partial documents into larger ones goes past this bound
    assert peak <= 2.5 * len(text)


def test_csv_writer_peak_stays_near_its_length(dense_map):
    text, peak = traced_peak(map_to_csv, dense_map)
    # the force blocks and the text joined from them, 2.5x its length; a writer that
    # holds every cell's text of the map at once goes past this bound
    assert peak <= 2.75 * len(text)


NO_POSITIVE_CELL = EfficiencyMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                 np.array([[np.nan, 0.0], [np.nan, np.nan]]),
                                 {"p_cu": np.zeros((2, 2))}, np.array([[0, 1], [0, 0]], bool))


@settings(max_examples=25, deadline=None)
@given(small_maps())
@example(NO_POSITIVE_CELL)
def test_upper_quartile_is_kept_or_raised_on_each_call(emap):
    vals = emap.eta[emap.feasible & np.isfinite(emap.eta)]
    vals = vals[vals > 0]
    for _ in range(2):
        if vals.size:
            assert emap.eta_upper_quartile() == float(np.quantile(vals, 0.75))
        else:
            with pytest.raises(ValueError, match="positive efficiency"):
                emap.eta_upper_quartile()


def test_upper_quartile_is_computed_once(emap, monkeypatch):
    emap = map_from_json(map_to_json(emap))  # a fresh map, not the shared fixture
    np_quantile, calls = np.quantile, []

    def quantile(*args, **kwargs):
        calls.append(args)
        return np_quantile(*args, **kwargs)

    monkeypatch.setattr(np, "quantile", quantile)
    first = emap.eta_upper_quartile()
    assert emap.eta_upper_quartile() == first and len(calls) == 1


@pytest.mark.parametrize("bad", [
    pytest.param(dict(force_axis=np.array([3e4])), id="single-point-axis"),
    pytest.param(dict(velocity_axis=np.array([np.nan, 0.05, 0.1])), id="nan-axis"),
    pytest.param(dict(force_axis=np.array([1e4, 2e4, np.inf])), id="infinite-axis"),
    pytest.param(dict(velocity_axis=np.array([0.1, 0.1, 0.2])), id="repeated-axis-point"),
    pytest.param(dict(force_axis=np.array([3e4, 2e4, 1e4])), id="decreasing-axis"),
    pytest.param(dict(feasible=np.ones((1, 3), dtype=bool)), id="feasible-shape"),
    pytest.param(dict(losses={"p_cu": np.zeros((3, 2))}), id="loss-shape"),
])
def test_uninterpolable_map_rejected(bad):
    args = dict(force_axis=np.array([1e4, 2e4, 3e4]), velocity_axis=np.array([0.05, 0.1, 0.2]))
    EfficiencyMap(**args, eta=np.full((3, 3), 0.5), losses={"p_cu": np.zeros((3, 3))},
                  feasible=np.ones((3, 3), dtype=bool))
    # the other fields follow the axes' shape, so only the rule under test is broken
    args.update((k, v) for k, v in bad.items() if k.endswith("_axis"))
    shape = (len(args["force_axis"]), len(args["velocity_axis"]))
    args.update(eta=np.full(shape, 0.5), losses={"p_cu": np.zeros(shape)},
                feasible=np.ones(shape, dtype=bool))
    args.update(bad)
    with pytest.raises(ValueError):
        EfficiencyMap(**args)
