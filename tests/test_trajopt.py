import csv
import io

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import spline_states
from emlaopt.manipulator import ClosedChainStage, rnea
from emlaopt.presets import benchmark_problem, default_manipulator
from emlaopt.trajopt import (
    CONSTRAINT_TOL,
    NlpProblem,
    TrajectoryResult,
    _Transcription,
    criterion_effort,
    criterion_power,
    solve_inner,
)


def draw_box(model):
    """Box the property tests draw control points from: each stroke range
    widened by half its distance to the chain's triangle limit, at most
    0.05 m, or by 0.05 m for the telescope.  It is wider than the q box, so
    the checks also cover control points that SLSQP's bounds keep out, and
    every loop closure stays solvable inside it."""
    lo, hi = model.stroke_limits()
    pad_lo, pad_hi = np.full_like(lo, 0.05), np.full_like(hi, 0.05)
    for i, stage in enumerate(model.stages):
        if isinstance(stage, ClosedChainStage):
            g = stage.geometry
            pad_lo[i] = 0.5 * min(lo[i] - (abs(g.base_len - g.rocker_len) - g.zero_stroke_len), 0.1)
            pad_hi[i] = 0.5 * min(g.base_len + g.rocker_len - g.zero_stroke_len - hi[i], 0.1)
    return lo - pad_lo, hi + pad_hi


@pytest.fixture(scope="module")
def tight_problem(small_problem):
    # a vx box at half the qd box, so the piston speed binds
    return replace(small_problem, vx_lower=0.5 * small_problem.qd_lower,
                   vx_upper=0.5 * small_problem.qd_upper)


@pytest.fixture(scope="module")
def solved_tight(tight_problem, dynamics):
    return solve_inner(tight_problem, dynamics)


def test_effort_criterion_oracle():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((21, 3))
    dt = 0.13
    direct = 0.5 * dt * sum(f[k] @ f[k] for k in range(21))
    assert np.isclose(criterion_effort(f, dt), direct, rtol=0, atol=1e-12)
    assert criterion_effort(np.zeros((21, 3)), dt) == 0.0
    assert np.isclose(criterion_effort(2 * f, dt), 4 * criterion_effort(f, dt))


def test_power_criterion_oracle():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((11, 2))
    v = rng.standard_normal((11, 2))
    dt = 0.07
    direct = 0.5 * dt * sum((f[k, i] * v[k, i]) ** 2 for k in range(11) for i in range(2))
    assert np.isclose(criterion_power(f, v, dt), direct, rtol=0, atol=1e-14)
    assert criterion_power(f, np.zeros_like(v), dt) == 0.0
    assert criterion_power(f, -v, dt) == criterion_power(f, v, dt)


def test_stationary_pose_is_trivially_optimal(model_no_gravity):
    lo, hi = model_no_gravity.stroke_limits()
    pose = 0.5 * (lo + hi)
    problem = replace(
        benchmark_problem(model_no_gravity, n_partitions=16, n_ctrl=8),
        q_init=pose, q_final=pose,
        qd_init=np.zeros(3), qd_final=np.zeros(3),
    )
    dyn = lambda q, qd, qdd: rnea(model_no_gravity, q, qd, qdd)
    res = solve_inner(problem, dyn)
    assert res.converged
    assert res.psi_raw["effort"] <= 1e-12
    assert res.psi_raw["power"] <= 1e-12
    assert np.abs(res.qd).max() <= 1e-9


def test_boundary_and_box_constraints_satisfied(small_problem, solved_half):
    res, p = solved_half, small_problem
    assert res.converged
    assert res.constraint_violation <= 1e-6
    tol = 1e-6
    assert np.abs(res.q[0] - p.q_init).max() <= tol
    assert np.abs(res.q[-1] - p.q_final).max() <= tol
    assert np.abs(res.qd[0] - p.qd_init).max() <= tol
    assert np.abs(res.qd[-1] - p.qd_final).max() <= tol
    assert np.all(res.q <= p.q_upper + tol) and np.all(res.q >= p.q_lower - tol)
    assert np.all(res.f_x <= p.fx_upper + 1.0) and np.all(res.f_x >= p.fx_lower - 1.0)
    assert p.t_lower - 1e-9 <= res.t_final <= p.t_upper + 1e-9


def test_cost_equals_weighted_criteria(solved_half, small_problem):
    res = solved_half
    assert abs(res.cost - res.weights @ res.psi) <= 1e-10
    # recompute the criteria from the returned samples
    dt = res.t_final / (len(res.times) - 1)
    psi = np.array([
        criterion_effort(res.f_x, dt),
        criterion_power(res.f_x, res.v_x, dt),
    ]) / small_problem.criterion_scales
    assert abs(res.cost - res.weights @ psi) <= 1e-10


def test_cross_evaluation_dominance(solved_effort, solved_power):
    # the effort-weighted solution achieves no worse effort than the
    # power-weighted one, and vice versa
    assert solved_effort.psi[0] <= solved_power.psi[0] + 1e-8
    assert solved_power.psi[1] <= solved_effort.psi[1] + 1e-8


def test_weight_scaling_leaves_argmin(small_problem, dynamics, solved_half):
    doubled = solve_inner(small_problem, dynamics, weights=np.array([1.0, 1.0]))
    assert np.abs(doubled.control_points - solved_half.control_points).max() <= 1e-9
    assert abs(doubled.t_final - solved_half.t_final) <= 1e-9


def test_force_bound_activation(model_no_gravity):
    # without gravity the forces are purely inertial, so a cap below the
    # unconstrained peak stays feasible (the solver can move more slowly)
    problem = replace(
        benchmark_problem(model_no_gravity, n_partitions=20, n_ctrl=10),
        t_lower=4.0, t_upper=4.0,
    )
    dyn = lambda q, qd, qdd: rnea(model_no_gravity, q, qd, qdd)
    free = solve_inner(problem, dyn)
    peak = np.abs(free.f_x).max()
    # the duration stays pinned, so the only way to honor the cap is to
    # flatten the force profile against it (0.8x sits above the bang-bang
    # floor of ~0.67x for a rest-to-rest move)
    cap = 0.8 * peak
    tight = replace(
        problem,
        fx_upper=np.full(3, cap),
        fx_lower=np.full(3, -cap),
    )
    res = solve_inner(tight, dyn)
    assert res.converged
    assert np.abs(res.f_x).max() <= cap + 1e-6 * max(1.0, cap)
    assert np.abs(res.f_x).max() >= cap - 0.05 * cap


def test_refining_partitions_changes_criteria_little(model, dynamics):
    base = solve_inner(benchmark_problem(model, n_partitions=50), dynamics)
    fine = solve_inner(benchmark_problem(model, n_partitions=100), dynamics)
    rel = np.abs(fine.psi - base.psi) / np.abs(base.psi)
    assert rel.max() <= 0.01


def test_infeasible_boundary_rejected(small_problem, dynamics):
    bad = replace(small_problem, q_init=small_problem.q_upper + 1.0)
    with pytest.raises(ValueError):
        solve_inner(bad, dynamics)


def test_result_roundtrip(solved_half):
    back = TrajectoryResult.from_dict(solved_half.to_dict())
    assert np.array_equal(back.control_points, solved_half.control_points)
    assert back.t_final == solved_half.t_final
    assert np.array_equal(back.f_x, solved_half.f_x)


def test_csv_header(solved_half):
    lines = solved_half.to_csv().splitlines()
    assert lines[0] == "t,q1,q2,q3,dq1,dq2,dq3,vx1,vx2,vx3,fx1,fx2,fx3,p1,p2,p3"
    assert len(lines) == 2 + small_len(solved_half)


def small_len(res):
    return len(res.times) - 1


def test_csv_matches_per_row_reference(solved_half):
    # the csv.writer loop that to_csv replaced
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(solved_half.to_csv().splitlines()[0].split(","))
    for k, t in enumerate(solved_half.times):
        row = [t] + list(solved_half.q[k]) + list(solved_half.qd[k]) \
            + list(solved_half.v_x[k]) + list(solved_half.f_x[k]) + list(solved_half.power[k])
        writer.writerow(["%.12g" % x for x in row])
    assert solved_half.to_csv() == buf.getvalue()


def test_determinism(small_problem, dynamics, solved_half):
    again = solve_inner(small_problem, dynamics, weights=np.array([0.5, 0.5]))
    assert np.array_equal(again.control_points, solved_half.control_points)
    assert again.t_final == solved_half.t_final


def central_jacobian(fun, z, h=1e-4):
    """Richardson-extrapolated central differences of fun (scalar or vector
    valued) by each entry of z: (4 D(h/2) - D(h)) / 3, whose truncation
    error is O(h^4) where a plain central difference's is O(h^2)."""

    def central(h):
        cols = []
        for i in range(len(z)):
            step = np.zeros_like(z)
            step[i] = h * max(1.0, abs(z[i]))
            diff = np.atleast_1d(fun(z + step)) - np.atleast_1d(fun(z - step))
            cols.append(diff / (2 * step[i]))
        return np.stack(cols, axis=-1)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


@settings(max_examples=10, deadline=None)
@given(
    w=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    t_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# a plain central difference at h = 1e-6 erred by 1.09e-6 of the cost on
# this draw (column 28, the tilt stroke of the last control point), its
# O(h^2) truncation error, while cost_grad agreed with the extrapolation
# to 4.6e-8
@example(w=(0.0, 1.0), t_frac=0.0, seed=1330118313)
def test_derivatives_match_central_differences(small_problem, model, dynamics, w, t_frac, seed):
    # the cost gradient and both constraint Jacobians are read from the
    # chained d(q, qd, f_x)/dz, and the rate-polygon rows from D ⊗ I; each
    # must match differences of its function
    assume(sum(w) > 1e-3)
    p = small_problem
    kern = _Transcription(p, dynamics, np.array(w))
    c = kern.initial_guess()[:-1].reshape(p.n_ctrl, p.n_joints)
    lower, upper = draw_box(model)
    width = upper - lower
    # the jitter stays within a tenth of the box, so the motion at t_final = 3 s
    # is violent but the FD_STEP partials of f_x keep their accuracy
    jitter = np.random.default_rng(seed).uniform(-0.1, 0.1, c.shape) * width
    c = np.clip(c + jitter, lower + 0.05 * width, upper - 0.05 * width)
    z = np.concatenate([c.ravel(), [p.t_lower + t_frac * (p.t_upper - p.t_lower)]])
    for fun, jac in ((kern.cost, kern.cost_grad), (kern.eq, kern.eq_jac),
                     (kern.ineq, kern.ineq_jac)):
        scale = np.abs(np.atleast_1d(fun(z))).max()
        err = np.abs(np.atleast_2d(jac(z)) - central_jacobian(fun, z)).max()
        assert err <= 1e-6 * scale, (fun.__name__, err, scale)


@settings(max_examples=25, deadline=None)
@given(
    w=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    scale=st.floats(1e-3, 1e3),
    t_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_weight_scale_invariance(small_problem, model, dynamics, w, scale, t_frac, seed):
    # the weights enter only through their ratio, so the weight box of the
    # leader is a family of rays; c * w must transcribe to the same NLP
    p = small_problem
    z = np.concatenate([
        np.random.default_rng(seed).uniform(*draw_box(model), (p.n_ctrl, p.n_joints)).ravel(),
        [p.t_lower + t_frac * (p.t_upper - p.t_lower)],
    ])
    one = _Transcription(p, dynamics, np.array(w))
    scaled = _Transcription(p, dynamics, scale * np.array(w))
    for name in ("cost", "cost_grad", "eq", "ineq"):
        a = np.atleast_1d(getattr(one, name)(z))
        b = np.atleast_1d(getattr(scaled, name)(z))
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max(), name


def test_piston_speed_box_narrows_rate_box(small_problem, tight_problem, dynamics, solved_tight):
    # v_x is qd in stroke coordinates: a vx box tighter than the qd box
    # binds through the rate-polygon rows, with no rows of its own
    p = small_problem
    kern = _Transcription(tight_problem, dynamics, np.array([0.5, 0.5]))
    rows = 2 * 3 * (p.n_ctrl - 1) + 2 * 3 * (p.n_partitions + 1)
    assert len(kern.ineq(kern.initial_guess())) == rows
    res = solved_tight
    assert res.converged
    assert np.all(np.abs(res.v_x) <= 0.5 * small_problem.qd_upper + 1e-6)
    assert np.array_equal(res.v_x, res.qd)


@pytest.mark.parametrize("solved, problem", [("solved_half", "small_problem"),
                                             ("solved_tight", "tight_problem")])
def test_boxes_hold_between_samples(request, solved, problem):
    # the q and qd boxes bound the control polygons, so they hold at every
    # instant, not only at the collocation samples
    res, p = request.getfixturevalue(solved), request.getfixturevalue(problem)
    assert res.converged
    times = np.linspace(0.0, res.t_final, 2001)
    q, qd, _ = spline_states(res.degree, res.control_points, res.t_final, times)
    for x, lo, hi in ((q, p.q_lower, p.q_upper),
                      (qd, np.maximum(p.qd_lower, p.vx_lower), np.minimum(p.qd_upper, p.vx_upper))):
        tol = CONSTRAINT_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        assert np.all(x <= hi + tol) and np.all(x >= lo - tol)


@pytest.mark.parametrize("weights", [[0.0, 0.0], [-1.0, 2.0], [1.0], [np.nan, 1.0]])
def test_invalid_weights_rejected(small_problem, dynamics, weights):
    with pytest.raises(ValueError, match="weights"):
        solve_inner(small_problem, dynamics, weights=weights)
    with pytest.raises(ValueError, match="weights"):
        replace(small_problem, weights=weights)
