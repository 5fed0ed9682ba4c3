from dataclasses import fields

import numpy as np
import pytest

from emlaopt.drivetrain import DriveTrainParams, equivalent_params, rotary_linear_map


def make(**overrides):
    base = dict(
        motor_inertia=2e-3, coupling_inertia=1e-4, gearbox_inertia=5e-4,
        screw_mass=5.0, load_mass=20.0,
        viscous_motor=3e-4, gear_friction=5e-5, screw_viscous=0.1,
        gear_ratio=5.0, screw_lead=0.01,
    )
    base.update(overrides)
    return DriveTrainParams(**base)


def test_unit_transmission():
    dt = make(gear_ratio=1.0, screw_lead=2 * np.pi)
    tau, omega = rotary_linear_map(dt, 123.0, 4.56)
    assert np.isclose(tau, 123.0)
    assert np.isclose(omega, 4.56)


def test_inertia_with_zero_masses():
    dt = make(screw_mass=0.0, load_mass=0.0, gear_ratio=1.0, screw_lead=2 * np.pi)
    eq = equivalent_params(dt)
    assert np.isclose(eq.inertia, 2e-3 + 1e-4 + 5e-4)


def test_equivalent_params_term_by_term():
    rng = np.random.default_rng(9)
    for _ in range(25):
        vals = rng.uniform(0.1, 3.0, len(fields(DriveTrainParams)))
        dt = DriveTrainParams(*vals)
        eq = equivalent_params(dt)
        n, rho = dt.gear_ratio, dt.screw_lead
        assert np.isclose(
            eq.inertia,
            dt.motor_inertia + dt.coupling_inertia + dt.gearbox_inertia / n**2
            + rho**2 / (4 * np.pi**2 * n**2) * (dt.screw_mass + dt.load_mass),
        )
        assert np.isclose(
            eq.damping,
            dt.viscous_motor + n * dt.gear_friction + n * rho / (2 * np.pi) * dt.screw_viscous,
        )
        assert np.isclose(eq.load_ratio, rho / (2 * np.pi * n))


def test_power_invariance_exact():
    dt = make()
    rng = np.random.default_rng(3)
    f = rng.uniform(-5e4, 5e4, 500)
    v = rng.uniform(-0.3, 0.3, 500)
    tau, omega = rotary_linear_map(dt, f, v)
    assert np.abs(tau * omega - f * v).max() <= 1e-12 * np.abs(f * v).max()


def test_invalid_rejected():
    with pytest.raises(ValueError):
        make(gear_ratio=0.0)
    with pytest.raises(ValueError):
        make(screw_mass=-1.0)
