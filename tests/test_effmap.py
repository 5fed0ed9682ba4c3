from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlaopt.effmap import (
    INFEASIBLE_TOKEN,
    MAP_CSV_HEADER,
    build_efficiency_map,
    map_from_json,
    map_to_csv,
    map_to_json,
)
from emlaopt.drivetrain import rotary_linear_map
from emlaopt.losses import LossBreakdown
from emlaopt.pmsm import dq_voltages, electromagnetic_torque
from emlaopt.presets import actuators, default_map_grid, lift_emla


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
    vd_ref, vq_ref = dq_voltages(emla.motor, 0.0, i_q, omega)
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
    assert not feasible
    eta2, _, feasible2 = emla.cell(1e4, -0.05, allow_regeneration=True)
    assert feasible2 and 0.0 <= eta2 <= 1.0


def test_unimodal_along_ray(emla):
    # eta rises then falls along a ray through the operating region
    s = np.linspace(0.02, 1.0, 60)
    eta = emla.efficiency_at(4.2e4 * s, 0.12 * s)
    peak = int(np.argmax(eta))
    assert 0 < peak < len(s) - 1
    assert np.all(np.diff(eta[: peak + 1]) > -1e-9)
    assert np.all(np.diff(eta[peak:]) < 1e-9)


@settings(max_examples=40, deadline=None)
@given(operating_axes(), st.booleans())
def test_cell_batch_equals_points(case, allow_regeneration):
    """One cell call over a grid gives, bitwise, what a call at each point
    gives, as the per-cell loop it replaced did."""
    emla, f, v = case
    ff, vv = np.meshgrid(f, v, indexing="ij")
    eta, losses, feasible = emla.cell(ff, vv, allow_regeneration)
    assert eta.shape == feasible.shape == ff.shape
    for i, j in np.ndindex(ff.shape):
        e, lb, ok = emla.cell(ff[i:i + 1, j], vv[i:i + 1, j], allow_regeneration)
        assert ok[0] == feasible[i, j]
        assert np.array_equal(e[0], eta[i, j], equal_nan=True)
        for name in (k.name for k in fields(LossBreakdown)):
            assert getattr(lb, name)[0] == getattr(losses, name)[i, j]
        # Python floats take libm pow, which can round w**1.5 and the squares
        # one ulp away from NumPy's array loop
        e, _, ok = emla.cell(float(ff[i, j]), float(vv[i, j]), allow_regeneration)
        assert ok == feasible[i, j]
        assert np.allclose(e, eta[i, j], rtol=1e-15, atol=0.0, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(operating_axes())
def test_loss_balance_on_feasible_motoring_cells(case):
    emla, f, v = case
    emap = build_efficiency_map(emla, np.unique(f), np.unique(v))
    ff, vv = np.meshgrid(emap.force_axis, emap.velocity_axis, indexing="ij")
    p_out = ff * vv
    cells = emap.feasible & (p_out > 0)
    lost = sum(emap.losses[k][cells] for k in ("p_cu", "p_co", "p_sw", "p_d", "p_mech", "p_sc"))
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
