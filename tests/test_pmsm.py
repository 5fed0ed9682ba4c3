import numpy as np
import pytest

from emlaopt.pmsm import PmsmParams, dq_voltages, electromagnetic_torque, torque_to_iq
from oracles import current_derivatives

PARAMS = PmsmParams(
    stator_resistance=0.4, inductance_d=7e-3, inductance_q=9e-3, pole_pairs=3, pm_flux=0.2
)


def test_dq_voltages_zero_state():
    assert dq_voltages(PARAMS, 0.0, 0.0, 0.0) == (0.0, 0.0)


def test_dq_voltages_steady_state():
    i_q = 6.0
    omega = 120.0
    v_d, v_q = dq_voltages(PARAMS, 0.0, i_q, omega)
    p = PARAMS.pole_pairs
    assert np.isclose(v_d, -p * omega * PARAMS.inductance_q * i_q)
    assert np.isclose(v_q, PARAMS.stator_resistance * i_q + p * omega * PARAMS.pm_flux)


def test_dq_voltages_term_by_term():
    rng = np.random.default_rng(0)
    i_d, i_q, w = rng.standard_normal(3)
    v_d, v_q = dq_voltages(PARAMS, i_d, i_q, w)
    r, ld, lq, p, psi = 0.4, 7e-3, 9e-3, 3, 0.2
    assert np.isclose(v_d, r * i_d - p * w * lq * i_q, rtol=0, atol=1e-14)
    assert np.isclose(v_q, r * i_q + p * w * ld * i_d + p * w * psi, rtol=0, atol=1e-14)


def test_current_derivatives_invert_voltages():
    # the voltages that hold the currents steady give zero current rates
    rng = np.random.default_rng(1)
    for _ in range(20):
        i_d, i_q, w = rng.standard_normal(3)
        v_d, v_q = dq_voltages(PARAMS, i_d, i_q, w)
        did, diq = current_derivatives(PARAMS, i_d, i_q, w, v_d, v_q)
        assert abs(did) < 1e-12
        assert abs(diq) < 1e-12


def test_torque_zero_at_zero_iq():
    assert electromagnetic_torque(PARAMS, i_d=-5.0, i_q=0.0) == 0.0


def test_torque_round_rotor_independent_of_id():
    round_rotor = PmsmParams(0.4, 8e-3, 8e-3, 3, 0.2)
    t1 = electromagnetic_torque(round_rotor, i_d=0.0, i_q=4.0)
    t2 = electromagnetic_torque(round_rotor, i_d=-7.0, i_q=4.0)
    assert t1 == t2 == 1.5 * 3 * 0.2 * 4.0


def test_torque_hand_value():
    params = PmsmParams(0.4, 8e-3, 9e-3, 3, 0.2)  # L_d - L_q = -0.001
    tau = electromagnetic_torque(params, i_d=-10.0, i_q=20.0)
    assert np.isclose(tau, 18.9, rtol=0, atol=1e-12)


def test_torque_to_iq_inverts():
    tau = 12.3
    iq = torque_to_iq(PARAMS, tau)
    assert np.isclose(electromagnetic_torque(PARAMS, 0.0, iq), tau)


@pytest.mark.parametrize("field,value", [
    ("stator_resistance", -1.0),
    ("inductance_d", 0.0),
    ("pole_pairs", 0),
    ("pm_flux", -0.1),
])
def test_invalid_params_rejected(field, value):
    kwargs = dict(stator_resistance=0.4, inductance_d=7e-3, inductance_q=9e-3,
                  pole_pairs=3, pm_flux=0.2)
    kwargs[field] = value
    with pytest.raises(ValueError):
        PmsmParams(**kwargs)
