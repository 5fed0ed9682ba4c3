import numpy as np
import pytest

from emlaopt.effmap import (
    INFEASIBLE_TOKEN,
    MAP_CSV_HEADER,
    build_efficiency_map,
    map_from_json,
    map_to_csv,
    map_to_json,
)
from emlaopt.drivetrain import rotary_linear_map
from emlaopt.pmsm import dq_voltages, electromagnetic_torque
from emlaopt.presets import default_map_grid, lift_emla


@pytest.fixture(scope="module")
def emla():
    return lift_emla()


@pytest.fixture(scope="module")
def emap(emla):
    return build_efficiency_map(emla, *default_map_grid(emla, 20, 20))


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
    eta = np.array([emla.efficiency_at(4.2e4 * t, 0.12 * t) for t in s])
    peak = int(np.argmax(eta))
    assert 0 < peak < len(s) - 1
    assert np.all(np.diff(eta[: peak + 1]) > -1e-9)
    assert np.all(np.diff(eta[peak:]) < 1e-9)


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


def test_interp_symmetric_reverse_quadrant(emap):
    f, v = 2.0e4, 0.05
    assert emap.interp_eta(-f, -v) == emap.interp_eta(f, v)


def test_monotone_grid_required(emla):
    with pytest.raises(ValueError):
        build_efficiency_map(emla, np.array([1.0, 1.0, 2.0]), np.array([0.1, 0.2]))
