import numpy as np
import pytest

from emlaopt.drivetrain import equivalent_params
from emlaopt.losses import (
    DriveConfig,
    efficiency,
    loss_breakdown,
)
from emlaopt.presets import lift_emla


@pytest.fixture(scope="module")
def emla():
    return lift_emla()


def test_no_flow_no_loss(emla):
    lb = loss_breakdown(emla.motor, emla.drivetrain, emla.drive, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert lb.total == 0.0


def test_copper_loss_matches_dq_accounting(emla):
    i_q = 8.0
    lb = loss_breakdown(emla.motor, emla.drivetrain, emla.drive, 0.0, i_q, 0.0, 0.0, 0.0)
    assert np.isclose(lb.p_cu, 1.5 * emla.motor.stator_resistance * i_q**2)


def test_mechanical_loss_is_viscous_dissipation(emla):
    omega = 140.0
    lb = loss_breakdown(emla.motor, emla.drivetrain, emla.drive, 0.0, 0.0, omega, 0.0, 0.0)
    b_eq = equivalent_params(emla.drivetrain).damping
    assert np.isclose(lb.p_mech, b_eq * omega**2)


def test_aggregation_identities(emla):
    rng = np.random.default_rng(2)
    for _ in range(50):
        i_d, i_q = rng.uniform(-10, 10, 2)
        omega = rng.uniform(-300, 300)
        f, v = rng.uniform(0, 4e4), rng.uniform(0, 0.1)
        lb = loss_breakdown(emla.motor, emla.drivetrain, emla.drive, i_d, i_q, omega, f, v)
        vals = [lb.p_sw, lb.p_d, lb.p_cu, lb.p_hys, lb.p_eddy, lb.p_add, lb.p_mech, lb.p_sc]
        assert all(x >= 0 for x in vals)
        assert np.isclose(lb.p_ee, lb.p_sw + lb.p_d + lb.p_cu + lb.p_co, rtol=0, atol=1e-12)
        assert np.isclose(lb.p_em, lb.p_mech + lb.p_sc, rtol=0, atol=1e-12)


def test_efficiency_limits(emla):
    zero = loss_breakdown(emla.motor, emla.drivetrain, emla.drive, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert efficiency(100.0, 0.1, zero) == 1.0
    lb = loss_breakdown(emla.motor, emla.drivetrain, emla.drive, 0.0, 4.0, 50.0, 0.0, 0.0)
    assert efficiency(0.0, 0.1, lb) == 0.0
    assert efficiency(100.0, 0.0, lb) == 0.0


class _FakeLoss:
    def __init__(self, total):
        self.total = total


def test_efficiency_equal_split():
    p_out = 512.0
    assert efficiency(p_out, 1.0, _FakeLoss(p_out)) == 0.5


def test_regeneration_rated():
    # only motoring is rated: a regenerating point rates 0, however small
    # its losses against the absorbed power
    for absorbed in (100.0, 5.0, 1e-300):
        assert efficiency(absorbed, -1.0, _FakeLoss(10.0)) == 0.0
    assert np.array_equal(efficiency(np.array([100.0, -100.0]), 1.0, _FakeLoss(10.0)),
                          [100.0 / 110.0, 0.0])


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError, match="switching_coeff"):
        DriveConfig(switching_coeff=-1e-7)
    with pytest.raises(ValueError, match="eddy_coeff"):
        DriveConfig(eddy_coeff=-1e-4)


@pytest.mark.parametrize("limit", [float("nan"), 0.0, -1.0])
@pytest.mark.parametrize("name", ["max_current", "max_voltage"])
def test_drive_limits_must_be_positive(name, limit):
    # a NaN limit compares False against every operating point, so it would
    # switch the limit off silently; inf is the way to say "no limit"
    with pytest.raises(ValueError, match=name):
        DriveConfig(**{name: limit})
    assert getattr(DriveConfig(**{name: np.inf}), name) == np.inf
