"""The EMLA's state-space model, held in ``tests/oracles.py``: the
nonlinear vector field ``emla_rhs`` that ``control.closed_loop`` writes
out inline, its first-order model and its stored energy, and the motor
functions on stacked parameters."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlaopt.control import stack_params
from emlaopt.drivetrain import DriveTrainParams, equivalent_params
from emlaopt.pmsm import PmsmParams, electromagnetic_torque, torque_to_iq
from emlaopt.presets import actuators, lift_emla
from oracles import OperatingPoint, current_derivatives, emla_rhs, linearize, stored_energy

EMLA = lift_emla()
PARAMS, DT = EMLA.motor, EMLA.drivetrain
EQ = equivalent_params(DT)


def test_zero_operating_point_structure():
    f_x = 1.8e4
    a, b, r = linearize(PARAMS, DT, OperatingPoint(0.0, 0.0, 0.0), f_x)
    eq = equivalent_params(DT)
    # bilinear entries vanish at the origin
    assert a[0, 1] == a[0, 2] == a[1, 0] == 0.0
    expected_r = np.array([0.0, 0.0, -eq.load_ratio * f_x / eq.inertia, 0.0])
    assert np.allclose(r, expected_r, rtol=0, atol=0)


def test_input_matrix_rows():
    _, b, _ = linearize(PARAMS, DT, OperatingPoint(10.0, 2.0, -1.0), 0.0)
    expected = np.array([
        [1.0 / PARAMS.inductance_d, 0.0],
        [0.0, 1.0 / PARAMS.inductance_q],
        [0.0, 0.0],
        [0.0, 0.0],
    ])
    assert np.array_equal(b, expected)


def test_linearization_matches_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        op = OperatingPoint(*rng.uniform([-200, -10, -10], [200, 10, 10]))
        f_x = rng.uniform(-4e4, 4e4)
        a, b, r = linearize(PARAMS, DT, op, f_x)
        x0 = np.array([op.id0, op.iq0, op.omega0, rng.uniform(-5, 5)])
        u0 = rng.uniform(-50, 50, 2)

        jac = np.zeros((4, 4))
        for i in range(4):
            h = 1e-4 * max(1.0, abs(x0[i]))
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            jac[:, i] = (
                np.array(emla_rhs(PARAMS, EQ, xp, u0, f_x))
                - np.array(emla_rhs(PARAMS, EQ, xm, u0, f_x))
            ) / (2 * h)
        scale = np.abs(jac).max()
        worst = max(worst, np.abs(a - jac).max() / scale)
        # affine consistency at the operating point
        rhs = np.array(emla_rhs(PARAMS, EQ, x0, u0, f_x))
        assert np.allclose(a @ x0 + b @ u0 + r, rhs, rtol=1e-9, atol=1e-9 * (1 + np.abs(rhs).max()))
    assert worst <= 1e-5


def test_equilibrium_stays_at_rest():
    # zero state, zero input and zero load: the vector field vanishes exactly
    xdot = np.array(emla_rhs(PARAMS, EQ, np.zeros(4), np.zeros(2), 0.0))
    assert xdot.shape == (4,) and np.all(xdot == 0.0)


def test_power_balance_of_vector_field():
    # electrical input = copper + viscous + d/dt(stored) + delivered power
    rng = np.random.default_rng(7)
    eq = equivalent_params(DT)
    for _ in range(30):
        # the tracked shafts of the stored grid winner turn through 942-1,712 rad
        x = rng.uniform([-3, -6, -150, -2000], [3, 6, 150, 2000])
        u = rng.uniform(-80, 80, 2)
        f_x = rng.uniform(-2e4, 2e4)
        xdot = np.array(emla_rhs(PARAMS, EQ, x, u, f_x))
        i_d, i_q, omega, _ = x
        p_in = 1.5 * (u[0] * i_d + u[1] * i_q)
        p_cu = 1.5 * PARAMS.stator_resistance * (i_d**2 + i_q**2)
        p_visc = eq.damping * omega**2
        h = 1e-7
        e_dot = (
            stored_energy(PARAMS, DT, x + h * xdot) - stored_energy(PARAMS, DT, x - h * xdot)
        ) / (2 * h)
        p_out = eq.load_ratio * f_x * omega
        residual = p_in - p_cu - p_visc - e_dot - p_out
        assert abs(residual) <= 1e-6 * max(1.0, abs(p_in), abs(e_dot))


factor = st.floats(0.5, 2.0)


@st.composite
def actuator_params(draw):
    """Valid motor and drivetrain constants: the lift preset, each scaled."""
    motor = PmsmParams(
        **{f.name: getattr(PARAMS, f.name) * draw(factor)
           for f in fields(PmsmParams) if f.name != "pole_pairs"},
        pole_pairs=draw(st.integers(1, 8)),
    )
    drive = DriveTrainParams(
        **{f.name: getattr(DT, f.name) * draw(factor) for f in fields(DriveTrainParams)}
    )
    return motor, drive


# per actuator: i_d, i_q, omega, theta, V_d, V_q, f_x
STATE_SCALE = np.array([20.0, 20.0, 300.0, 50.0, 400.0, 400.0, 4e4])


@settings(max_examples=40, deadline=None)
@given(st.lists(actuator_params(), min_size=1, max_size=4), st.data())
def test_stacked_params_match_each_actuator(params, data):
    n = len(params)
    unit = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=7 * n, max_size=7 * n))
    i_d, i_q, omega, theta, v_d, v_q, f_x = STATE_SCALE[:, None] * np.reshape(unit, (7, n))
    x = np.array([i_d, i_q, omega, theta])
    motor = stack_params([m for m, _ in params])
    drive = stack_params([d for _, d in params])
    eq = equivalent_params(drive)

    stacked = {
        "equivalent_params": np.array(eq),
        "emla_rhs": np.array(emla_rhs(motor, eq, x, (v_d, v_q), f_x)),
        "current_derivatives": np.array(current_derivatives(motor, i_d, i_q, omega, v_d, v_q)),
        "electromagnetic_torque": electromagnetic_torque(motor, i_d, i_q),
        "torque_to_iq": torque_to_iq(motor, f_x),
    }
    alone = {name: [] for name in stacked}
    for j, (m, d) in enumerate(params):
        eq_j = equivalent_params(d)
        alone["equivalent_params"].append(np.array(eq_j))
        alone["emla_rhs"].append(emla_rhs(m, eq_j, x[:, j], (v_d[j], v_q[j]), f_x[j]))
        alone["current_derivatives"].append(
            np.array(current_derivatives(m, i_d[j], i_q[j], omega[j], v_d[j], v_q[j])))
        alone["electromagnetic_torque"].append(electromagnetic_torque(m, i_d[j], i_q[j]))
        alone["torque_to_iq"].append(torque_to_iq(m, f_x[j]))
    for name, got in stacked.items():
        want = np.stack(alone[name], axis=-1)
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(), err_msg=name)


@settings(max_examples=60, deadline=None)
@given(actuator_params(), st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
       st.floats(-2000.0, 2000.0))
def test_rates_do_not_depend_on_the_shaft_angle(params, unit, shift):
    # the shaft is rigid, as in the steady state the maps rate: no term
    # pulls it toward theta = 0.  The stored grid winner's shafts turn
    # through 942-1,712 rad
    motor, drive = params
    i_d, i_q, omega, theta, v_d, v_q, f_x = (STATE_SCALE * np.array(unit)).tolist()
    eq = equivalent_params(drive)
    at = emla_rhs(motor, eq, (i_d, i_q, omega, theta), (v_d, v_q), f_x)
    assert emla_rhs(motor, eq, (i_d, i_q, omega, theta + shift), (v_d, v_q), f_x) == at


def test_stacked_params_reject_one_bad_entry():
    acts = actuators()
    motor = stack_params([a.motor for a in acts])
    drive = stack_params([a.drivetrain for a in acts])
    for stacked in (motor, drive):
        for f in fields(stacked):
            bad = getattr(stacked, f.name).copy()
            bad[1] = -1e-3
            with pytest.raises(ValueError):
                replace(stacked, **{f.name: bad})
    for f in fields(motor):  # every motor constant must be strictly positive
        bad = getattr(motor, f.name).copy()
        bad[2] = 0.0
        with pytest.raises(ValueError):
            replace(motor, **{f.name: bad})
