import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from emlaopt.bilevel import map_eta_fns
from emlaopt.bspline import basis_matrices
from emlaopt.control import published_gains, simulate_tracking
from emlaopt.effmap import build_efficiency_map
from emlaopt.manipulator import ChainModel, ClosedChainStage, rnea
from emlaopt.presets import (
    actuators,
    benchmark_problem,
    default_manipulator,
    default_map_grid,
)
from emlaopt.trajopt import TrajectoryResult, solve_inner


def spline_states(degree, control_points, t_final, times):
    """(q, qd, qdd) at ``times`` in [0, t_final] of the clamped spline
    trajectory q(t) = B(t / t_final) c with control points c (n_ctrl, n)."""
    c = np.asarray(control_points, dtype=float)
    b, db, d2b = basis_matrices(len(c), degree, np.asarray(times, dtype=float) / t_final)
    return b @ c, db @ c / t_final, d2b @ c / t_final**2


def constant_pose_reference(duration=1.0, n_a=3, pose=None, force=None):
    """Trivial reference: hold a pose against a constant load force."""
    m = 50
    times = np.linspace(0.0, duration, m + 1)
    pose = np.zeros(n_a) if pose is None else np.asarray(pose, dtype=float)
    force = np.zeros(n_a) if force is None else np.asarray(force, dtype=float)
    zeros = np.zeros((m + 1, n_a))
    return TrajectoryResult(
        control_points=np.tile(pose, (8, 1)),
        t_final=duration,
        times=times,
        q=np.tile(pose, (m + 1, 1)),
        qd=zeros.copy(),
        qdd=zeros.copy(),
        v_x=zeros.copy(),
        f_x=np.tile(force, (m + 1, 1)),
        power=zeros.copy(),
        psi=np.zeros(2),
        psi_raw={"effort": 0.0, "power": 0.0},
        weights=np.array([0.5, 0.5]),
        cost=0.0,
        constraint_violation=0.0,
        converged=True,
        outer_iterations=0,
        degree=5,
    )


def with_bodies(model: ChainModel, change) -> ChainModel:
    """Copy of ``model`` with ``change(body)`` in place of every body."""
    stages = []
    for s in model.stages:
        if isinstance(s, ClosedChainStage):
            stages.append(replace(s, boom=change(s.boom), barrel=change(s.barrel),
                                  rod=change(s.rod)))
        else:
            stages.append(replace(s, carriage=change(s.carriage)))
    return replace(model, base=change(model.base), stages=tuple(stages))


def scaled_masses(model: ChainModel, factor: float) -> ChainModel:
    """Copy of ``model`` with every body mass and inertia multiplied by ``factor``."""
    return with_bodies(model, lambda b: replace(b, mass=b.mass * factor,
                                                inertia=b.inertia * factor))


@pytest.fixture(scope="session")
def model():
    return default_manipulator()


@pytest.fixture(scope="session")
def model_no_gravity():
    return default_manipulator(gravity=0.0)


@pytest.fixture(scope="session")
def acts():
    return actuators()


@pytest.fixture(scope="session")
def maps(acts):
    return [build_efficiency_map(a, *default_map_grid(a)) for a in acts]


@pytest.fixture(scope="session")
def eta_fns(maps):
    return map_eta_fns(maps)


@pytest.fixture(scope="session")
def small_problem(model):
    return benchmark_problem(model, n_partitions=20, n_ctrl=10)


@pytest.fixture(scope="session")
def dynamics(model):
    return lambda q, qd, qdd: rnea(model, q, qd, qdd)


@pytest.fixture(scope="session")
def solved_half(small_problem, dynamics):
    return solve_inner(small_problem, dynamics, weights=np.array([0.5, 0.5]))


@pytest.fixture(scope="session")
def solved_effort(small_problem, dynamics):
    return solve_inner(small_problem, dynamics, weights=np.array([1.0, 0.0]))


@pytest.fixture(scope="session")
def solved_power(small_problem, dynamics):
    return solve_inner(small_problem, dynamics, weights=np.array([0.0, 1.0]))


@pytest.fixture(scope="session")
def regulation_traces(acts):
    """Undisturbed regulation of a 1e-8 m initial error, integrated tightly
    (shared by the control tests and acceptance criterion 8)."""
    reference = constant_pose_reference(duration=0.6)
    return simulate_tracking(
        acts,
        reference,
        [published_gains()] * 3,
        disturbance=None,
        dt=2e-3,
        initial_position_error=[1e-8, 1e-8, 1e-8],
        rtol=1e-8,
        atol=1e-18,
    )
