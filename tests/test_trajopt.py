import csv
import io
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import spline_states
from oracles import evaluate_dynamics, two_sided_box_rows
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
    return solve_inner(tight_problem, dynamics, weights=np.array([0.5, 0.5]))


@pytest.fixture(scope="module")
def moving_problem(small_problem):
    # nonzero boundary rates; qd_final[1] < 0 moves c_{n-2} up from
    # q_final[1] = 0.545 to the stroke bound 0.56 at t_final = 7.5 s
    return replace(small_problem, qd_init=np.array([0.03, 0.02, -0.1]),
                   qd_final=np.array([0.02, -0.05, -0.05]))


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
    res = solve_inner(problem, dyn, weights=np.array([0.5, 0.5]))
    assert res.converged
    assert res.psi_raw["effort"] <= 1e-12
    assert res.psi_raw["power"] <= 1e-12
    assert np.abs(res.qd).max() <= 1e-9


def test_boundary_and_box_constraints_satisfied(small_problem, solved_half):
    res, p = solved_half, small_problem
    assert res.converged
    assert res.constraint_violation <= 1e-6
    # the boundary states fix the end control points, so they hold to rounding
    rounding = 1e-14
    assert np.abs(res.q[0] - p.q_init).max() <= rounding
    assert np.abs(res.q[-1] - p.q_final).max() <= rounding
    assert np.abs(res.qd[0] - p.qd_init).max() <= rounding
    assert np.abs(res.qd[-1] - p.qd_final).max() <= rounding
    tol = 1e-6
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
    free = solve_inner(problem, dyn, weights=np.array([0.5, 0.5]))
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
    res = solve_inner(tight, dyn, weights=np.array([0.5, 0.5]))
    assert res.converged
    assert np.abs(res.f_x).max() <= cap + 1e-6 * max(1.0, cap)
    assert np.abs(res.f_x).max() >= cap - 0.05 * cap


def test_refining_partitions_changes_criteria_little(model, dynamics):
    base = solve_inner(benchmark_problem(model, n_partitions=50), dynamics,
                       weights=np.array([0.5, 0.5]))
    fine = solve_inner(benchmark_problem(model, n_partitions=100), dynamics,
                       weights=np.array([0.5, 0.5]))
    rel = np.abs(fine.psi - base.psi) / np.abs(base.psi)
    assert rel.max() <= 0.01


def test_infeasible_boundary_rejected(small_problem, dynamics):
    bad = replace(small_problem, q_init=small_problem.q_upper + 1.0)
    with pytest.raises(ValueError):
        solve_inner(bad, dynamics, weights=np.array([0.5, 0.5]))


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


def jittered_z(kern, model, seed, t_frac):
    """z with the straight-line guess's free control points each moved by up
    to a tenth of the ``draw_box`` width and kept 5% inside that box, and
    t_final at ``t_frac`` of its box.  The jitter stays within a tenth of
    the box, so the motion at t_final = 3 s is violent but the FD_STEP
    partials of f_x keep their accuracy."""
    p = kern.problem
    lower, upper = draw_box(model)
    width = upper - lower
    c = kern.initial_guess()[:-1].reshape(p.n_ctrl, p.n_joints)[2:-2]
    jitter = np.random.default_rng(seed).uniform(-0.1, 0.1, c.shape) * width
    c = np.clip(c + jitter, lower + 0.05 * width, upper - 0.05 * width)
    t_lo, t_hi = kern.bounds[-1]
    return np.concatenate([c.ravel(), [t_lo + t_frac * (t_hi - t_lo)]])


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
def test_derivatives_match_central_differences(small_problem, moving_problem, model, dynamics,
                                               w, t_frac, seed):
    # the cost gradient and the constraint Jacobian are read from the
    # chained d(q, qd, f_x)/dz, and the rate-polygon rows from D ⊗ I; with
    # nonzero boundary rates the t_final column also carries the moving end
    # points.  Each must match differences of its function.  A margin row
    # is differenced on the side it takes at z, and the draw holds entries
    # on both sides of their box midpoints.
    assume(sum(w) > 1e-3)
    for p in (small_problem, moving_problem):
        kern = _Transcription(p, dynamics, np.array(w))
        z = jittered_z(kern, model, seed, t_frac)
        upper_rows, lower_rows = two_sided_box_rows(kern, z)[:2]
        side = upper_rows <= lower_rows
        assert side.any() and not side.all()

        def nearer(z):
            up, low = two_sided_box_rows(kern, z)[:2]
            return np.where(side, up, low)

        for fun, jac in ((kern.cost, kern.cost_grad), (nearer, kern.ineq_jac)):
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
        np.random.default_rng(seed).uniform(*draw_box(model), (p.n_ctrl - 4, p.n_joints)).ravel(),
        [p.t_lower + t_frac * (p.t_upper - p.t_lower)],
    ])
    one = _Transcription(p, dynamics, np.array(w))
    scaled = _Transcription(p, dynamics, scale * np.array(w))
    for name in ("cost", "cost_grad", "ineq"):
        a = np.atleast_1d(getattr(one, name)(z))
        b = np.atleast_1d(getattr(scaled, name)(z))
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max(), name


def test_piston_speed_box_narrows_rate_box(small_problem, tight_problem, dynamics, solved_tight):
    # v_x is qd in stroke coordinates: a vx box tighter than the qd box
    # binds through the rate-polygon rows, with no rows of its own
    p = small_problem
    kern = _Transcription(tight_problem, dynamics, np.array([0.5, 0.5]))
    rows = 3 * (p.n_ctrl - 3) + 3 * (p.n_partitions + 1)
    assert len(kern.ineq(kern.free(kern.initial_guess()))) == rows
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


@settings(max_examples=20, deadline=None)
@given(t_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_nearer_side_rows_match_two_row_form(small_problem, moving_problem, model, dynamics,
                                             t_frac, seed):
    # each box entry's one row is the smaller of its two rows in the
    # two-row form, bit for bit, with that row's Jacobian (a tie takes the
    # upper side); the draw reaches beyond the q box
    for p in (small_problem, moving_problem):
        kern = _Transcription(p, dynamics, np.array([0.5, 0.5]))
        t_lo, t_hi = kern.bounds[-1]
        z = np.concatenate([
            np.random.default_rng(seed).uniform(*draw_box(model), (p.n_ctrl - 4, 3)).ravel(),
            [t_lo + t_frac * (t_hi - t_lo)],
        ])
        upper, lower, d_upper, d_lower = two_sided_box_rows(kern, z)
        assert np.array_equal(kern.ineq(z), np.minimum(upper, lower))
        assert np.array_equal(kern.ineq_jac(z),
                              np.where((upper <= lower)[:, None], d_upper, d_lower))


def test_benchmark_problem_size(model, dynamics):
    # 8 free control points of 3 strokes and t_final; one row per entry of
    # the inner rate polygon (9 x 3) and of the f_x samples (51 x 3)
    kern = _Transcription(benchmark_problem(model), dynamics, np.array([0.5, 0.5]))
    z = kern.free(kern.initial_guess())
    assert len(z) == len(kern.bounds) == 25
    assert kern.ineq_jac(z).shape == (180, 25)


def test_nonzero_boundary_rates(moving_problem, dynamics):
    # the end control points move with t_final; the q box on c_{n-2} caps
    # t_final at 7.5 s, where a slow motion's optimum sits
    p = moving_problem
    kern = _Transcription(p, dynamics, np.array([0.05, 1.0]))
    assert kern.bounds[-1] == (p.t_lower, p.check_boundary_feasible()[1])
    assert abs(kern.bounds[-1][1] - 7.5) <= 1e-12
    res = solve_inner(p, dynamics, weights=np.array([0.05, 1.0]))
    assert res.converged
    assert abs(res.t_final - 7.5) <= 1e-9
    for value, target in ((res.q[0], p.q_init), (res.q[-1], p.q_final),
                          (res.qd[0], p.qd_init), (res.qd[-1], p.qd_final)):
        assert np.abs(value - target).max() <= 1e-12
    ends = res.control_points[[1, -2]]
    assert np.all(ends >= p.q_lower - 1e-15) and np.all(ends <= p.q_upper + 1e-15)
    assert abs(ends[1, 1] - p.q_upper[1]) <= 1e-12


def test_boundary_rate_leaving_q_box_rejected(small_problem, dynamics):
    # c_1 = q_init + t_final qd_init / 25 passes q_upper for any t_final > 0.5 s
    p = replace(small_problem, q_init=small_problem.q_upper - np.array([0.002, 0.0, 0.0]),
                qd_init=np.array([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="out of the q box for every t_final in"):
        solve_inner(p, dynamics, weights=np.array([0.5, 0.5]))


@pytest.mark.parametrize("change, match", [
    ({"vx_upper": np.array([-0.11, 0.095, 0.36])}, "rate box"),
    ({"qd_lower": np.array([-0.11, 0.09, -0.35])}, "rate box"),
    ({"fx_lower": np.array([-60.0e3, 52.0e3, -12.0e3])}, "force box"),
    ({"n_ctrl": 3, "degree": 2}, "n_ctrl must be an integer >= 4, got 3"),
], ids=["rate-box-empty", "rate-box-zero", "force-box-zero", "n_ctrl-3"])
def test_degenerate_problem_rejected(small_problem, change, match):
    # a nearer-side row needs a box of positive width, and the boundary
    # states fix four distinct end control points
    with pytest.raises(ValueError, match=match):
        replace(small_problem, **change)


@pytest.mark.parametrize("seed, t_frac", [(0, 0.0), (1, 0.5), (2, 1.0)])
def test_rate_and_acceleration_partials_match_6d_oracle(small_problem, moving_problem, model,
                                                        dynamics, seed, t_frac):
    # f_x is quadratic in qd and affine in qdd at fixed q, so the unit steps
    # the transcription takes there are exact to rounding: they match
    # Richardson-extrapolated central differences of the 6-D oracle to 1e-9
    # of each sample's largest partial
    for p in (small_problem, moving_problem):
        kern = _Transcription(p, dynamics, np.array([0.5, 0.5]))
        vals = kern.evaluate(jittered_z(kern, model, seed, t_frac))
        partials = vals["f_partials"]
        n = kern.n
        for k, name in ((1, "qd"), (2, "qdd")):
            for b in range(n):
                def oracle(h):
                    states = {x: vals[x].copy() for x in ("q", "qd", "qdd")}
                    states[name][:, b] += h
                    return evaluate_dynamics(model, states["q"], states["qd"],
                                             states["qdd"]).piston_forces

                def central(h):
                    return (oracle(h) - oracle(-h)) / (2 * h)

                ref = (4.0 * central(0.25) - central(0.5)) / 3.0
                err = np.abs(partials[k * n + b] - ref).max(axis=-1)
                assert np.all(err <= 1e-9 * np.maximum(np.abs(ref).max(axis=-1), 1.0)), (name, b)


def test_perturbed_batch_matches_its_slices(small_problem, model, dynamics):
    # the dynamics gives each of the 5n + 1 copies evaluate runs in one batch
    # the bits it gives that copy alone, and the last copy is the states
    # themselves, whose forces are f_x, so the one-sided qdd difference
    # against that row is exact to rounding
    calls = []

    def recording(q, qd, qdd):
        calls.append((q, qd, qdd))
        return dynamics(q, qd, qdd)

    kern = _Transcription(small_problem, recording, np.array([0.5, 0.5]))
    vals = kern.evaluate(jittered_z(kern, model, 3, 0.3))
    [batch] = calls
    n, m1 = kern.n, small_problem.n_partitions + 1
    names = ("q", "qd", "qdd")
    assert [x.shape for x in batch] == [(5 * n + 1, m1, n)] * 3
    forces = rnea(model, *batch)
    for j in range(5 * n):
        assert np.array_equal(forces[j], rnea(model, *(x[j] for x in batch)))
        # copy j moves one state of one joint at every sample
        k, b = (j // (2 * n), j % (2 * n) // 2) if j < 4 * n else (2, j - 4 * n)
        for i, name in enumerate(names):
            moved = batch[i][j] != vals[name]
            assert moved[:, b].all() == (i == k) and not np.delete(moved, b, axis=1).any()
    assert all(np.array_equal(x[-1], vals[name]) for x, name in zip(batch, names))
    assert np.array_equal(forces[-1], vals["f"])
    assert np.array_equal(rnea(model, *(vals[x] for x in names)), vals["f"])


def test_one_dynamics_call_per_point(small_problem, model, dynamics):
    # every quantity SLSQP reads at a point comes from one dynamics call
    # there, and asking again at that point costs none
    calls = []

    def recording(q, qd, qdd):
        calls.append(q.shape)
        return dynamics(q, qd, qdd)

    kern = _Transcription(small_problem, recording, np.array([0.5, 0.5]))
    reads = (kern.cost, kern.cost_grad, kern.ineq, kern.ineq_jac, kern.gauss_newton)
    for seed, first in enumerate(reads):
        z = jittered_z(kern, model, seed, 0.3)
        first(z)
        assert len(calls) == seed + 1, first.__name__
        for read in reads:
            read(z.copy())
        assert len(calls) == seed + 1, first.__name__


def test_constants_are_shared_and_read_only(small_problem, dynamics):
    # the bases and Kronecker blocks depend on (n_ctrl, degree, M, n) alone:
    # every kernel of that shape reads the same arrays, which no kernel may
    # write
    one = _Transcription(small_problem, dynamics, np.array([0.5, 0.5]))
    two = _Transcription(replace(small_problem, q_init=small_problem.q_init + 0.01), dynamics,
                         np.array([1.0, 0.05]))
    for (b, block, _, _), (b2, block2, _, _) in zip(one.maps, two.maps):
        assert b is b2 and block is block2
        for x in (b, block):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0


def test_slsqp_starts_at_the_evaluated_start_point(small_problem, dynamics):
    # the preconditioner evaluates the start point, and SLSQP's first point
    # is that start point bit for bit, so the cache serves it: the second
    # call is SLSQP's first step away, not the start point again to the
    # last bit
    calls = []

    def recording(q, qd, qdd):
        calls.append(q[-1].copy())
        return dynamics(q, qd, qdd)

    solve_inner(small_problem, recording, weights=np.array([0.5, 0.5]))
    assert not np.allclose(calls[1], calls[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("w", [[0.3, 0.7], [1.0, 0.0], [0.0, 1.0]])
def test_gauss_newton_matches_central_differences(small_problem, moving_problem, model, dynamics,
                                                  w):
    # the preconditioner is J_r^T J_r for the residuals r whose half squared
    # norm is the cost; r is built here from the sampled values alone, so
    # dt = t_final / M moves with the t_final column as well
    for p in (small_problem, moving_problem):
        kern = _Transcription(p, dynamics, np.array(w))
        z = jittered_z(kern, model, 5, 0.4)
        w_tilde = kern.weights / p.criterion_scales

        def residuals(z):
            vals = kern.evaluate(z)
            f, fv, dt = vals["f"], vals["f"] * vals["qd"], vals["dt"]
            return np.concatenate([np.sqrt(dt * w_tilde[0]) * f.ravel(),
                                   np.sqrt(dt * w_tilde[1]) * fv.ravel()])

        jac = central_jacobian(residuals, z)
        reference = jac.T @ jac
        h = kern.gauss_newton(z)
        d = np.diag(reference)
        assert h.shape == (len(z), len(z)) and np.all(d > 0)
        assert np.abs(np.diag(h) / d - 1.0).max() <= 1e-6, np.abs(np.diag(h) / d - 1.0).max()
        # off the diagonal, relative to the geometric mean of the two diagonal entries
        off = np.abs(h - reference) / np.sqrt(np.outer(d, d))
        np.fill_diagonal(off, 0.0)
        assert off.max() <= 1e-6, off.max()


def test_zero_forces_give_the_straight_line(small_problem):
    # forces that vanish identically make the cost and its Gauss–Newton
    # Hessian zero, so SLSQP steps in z itself (S = I) and stops at the start
    zero = lambda q, qd, qdd: np.zeros_like(q)
    kern = _Transcription(small_problem, zero, np.array([0.5, 0.5]))
    z0 = kern.free(kern.initial_guess())
    assert np.array_equal(kern.gauss_newton(z0), np.zeros((len(z0), len(z0))))
    res = solve_inner(small_problem, zero, weights=np.array([0.5, 0.5]))
    assert res.converged and res.cost == 0.0
    assert np.all(np.isfinite(res.control_points))
    assert np.array_equal(res.control_points[2:-2].ravel(), z0[:-1])
    assert res.t_final == z0[-1]


@pytest.fixture(scope="module")
def centre_solve(model, dynamics):
    """The cold solve at the centre of the benchmark's weight box."""
    return solve_inner(benchmark_problem(model), dynamics, weights=np.array([0.525, 0.525]))


def test_centre_solve_iteration_budget(centre_solve):
    """SLSQP starts its BFGS matrix at the identity, so it steps in
    variables preconditioned by the cost's full Gauss–Newton Hessian at the
    start point; the cold centre solve of the benchmark problem may then
    take at most 22 iterations (19 measured; 18 with the diagonal of that
    Hessian alone, 27 without any scaling)."""
    res = centre_solve
    assert res.converged
    assert 0 < res.outer_iterations <= 22, res.outer_iterations


def tight_resolve_cost(kern, z):
    """The cost after an unscaled SLSQP re-solve from z at ftol = 1e-14, and
    that solve's worst scaled constraint violation."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Values in x were outside bounds")
        ref = minimize(kern.cost, z, jac=kern.cost_grad, method="SLSQP", bounds=kern.bounds,
                       constraints=[{"type": "ineq", "fun": kern.ineq, "jac": kern.ineq_jac}],
                       options={"maxiter": 500, "ftol": 1e-14})
    return kern.cost(ref.x), np.maximum(0.0, -kern.ineq(ref.x)).max()


@pytest.mark.parametrize("w, warm", [([1.0, 0.05], False), ([0.525, 0.525], False),
                                     ([0.05, 1.0], True)])
def test_inner_cost_matches_tight_resolve(model, dynamics, centre_solve, w, warm):
    # the preconditioned solve stops at ftol = 1e-10 on the same cost, so an
    # unscaled re-solve at ftol = 1e-14 from its optimum gains at most 1e-9
    # of it (the worst grid point gained 5.6e-11)
    p = benchmark_problem(model)
    start = np.concatenate([centre_solve.control_points.ravel(), [centre_solve.t_final]])
    res = solve_inner(p, dynamics, weights=np.array(w), initial_guess=start if warm else None)
    assert res.converged
    kern = _Transcription(p, dynamics, np.array(w))
    z = kern.free(np.concatenate([res.control_points.ravel(), [res.t_final]]))
    cost = kern.cost(z)
    reference, violation = tight_resolve_cost(kern, z)
    assert violation <= CONSTRAINT_TOL
    assert abs(cost - reference) <= 1e-9 * abs(reference), (cost - reference) / reference


@pytest.mark.parametrize("w", [[0.05, 1.0], [1.0, 0.05]])
def test_warm_solve_keeps_the_box_before_the_clip(monkeypatch, model, dynamics, centre_solve, w):
    # SLSQP steps in y, z = z0 + S y with a full S, and gets the q and
    # t_final box as linear rows, [z - lo; hi - z], which its QP steps keep
    # to rounding: at every point it asks for, z before the clip leaves the
    # box by at most 1e-12 of max(1, |bound|).  Both solves end with
    # coordinates on a bound, so some rows are active.
    import scipy.optimize

    minimize_, rows = scipy.optimize.minimize, []

    def recorded(fun):
        def wrapper(y):
            rows.append(fun(y))
            return rows[-1]
        return wrapper

    def recording(fun, x0, **kwargs):
        for con in kwargs["constraints"]:
            con["fun"] = recorded(con["fun"])
        return minimize_(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    p = benchmark_problem(model)
    start = np.concatenate([centre_solve.control_points.ravel(), [centre_solve.t_final]])
    res = solve_inner(p, dynamics, weights=np.array(w), initial_guess=start)
    assert res.converged
    lo, hi = np.array(_Transcription(p, dynamics, np.array(w)).bounds).T
    scale = np.maximum(1.0, np.abs(np.concatenate([lo, hi])))
    box = np.array([r for r in rows if len(r) == 2 * len(lo)]) / scale
    assert len(box) > res.outer_iterations
    assert box.min() >= -1e-12, box.min()
    assert np.abs(box[-1]).min() <= 1e-12
