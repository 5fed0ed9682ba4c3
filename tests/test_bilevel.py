import csv
import io
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlaopt.bilevel import (
    BilevelConfig,
    efficiency_objective,
    efficiency_summary,
    map_eta_fns,
    quartile_occupancy,
    samples_outside_map,
    solve_outer,
    total_efficiency,
)
from emlaopt.chain import StrokeRangeError
from emlaopt.manipulator import SingularConfigurationError, rnea
from emlaopt.presets import benchmark_problem
from emlaopt.trajopt import TrajectoryResult, _Transcription, normalize_weights, solve_inner
from conftest import spline_states


def const_eta(value):
    return lambda f, v: value


def test_common_efficiency_factors_out():
    fns = [const_eta(0.7)] * 3
    eta, flagged = total_efficiency([0.1, 0.2, 0.05], [1e3, 2e3, 5e2], fns)
    assert not flagged
    assert np.isclose(eta, 0.7)


def test_single_active_joint():
    fns = [const_eta(0.9), const_eta(0.3), const_eta(0.5)]
    eta, flagged = total_efficiency([0.0, 0.2, 0.0], [1e3, 2e3, 5e2], fns)
    assert not flagged
    assert np.isclose(eta, 0.3)


def test_equal_power_harmonic_mean():
    fns = [const_eta(0.6), const_eta(0.3)]
    eta, flagged = total_efficiency([1.0, 2.0], [100.0, 50.0], fns)  # equal powers
    assert not flagged
    assert np.isclose(eta, 0.4)


def test_all_zero_power_flagged():
    eta, flagged = total_efficiency([0.0, 0.0], [1.0, 1.0], [const_eta(0.5)] * 2)
    assert flagged and eta == 0.0


def test_zero_efficiency_active_joint_flagged():
    eta, flagged = total_efficiency([0.1, 0.1], [10.0, 10.0], [const_eta(0.5), const_eta(0.0)])
    assert flagged and eta == 0.0


def test_regenerating_joint_excluded():
    fns = [const_eta(0.5), const_eta(0.9)]
    eta, flagged = total_efficiency([0.1, -0.1], [10.0, 10.0], fns)
    assert not flagged
    assert np.isclose(eta, 0.5)


def draw_samples(data, maps):
    """(v_x, f_x) samples over all four quadrants, reaching half again past
    each joint's map envelope."""
    n = data.draw(st.integers(1, 25))
    unit = arrays(float, (n, len(maps)), elements=st.floats(-1.5, 1.5))
    v_max = np.array([m.velocity_axis[-1] for m in maps])
    f_max = np.array([m.force_axis[-1] for m in maps])
    return data.draw(unit) * v_max, data.draw(unit) * f_max


def loop_total_efficiency(v_row, f_row, eta_fns):
    """One sample, rated by the scalar loop that total_efficiency replaced."""
    num = den = 0.0
    for i, eta_fn in enumerate(eta_fns):
        p = f_row[i] * v_row[i]
        if p <= 0.0:
            continue
        eta_i = float(eta_fn(f_row[i], v_row[i]))
        if eta_i <= 0.0:
            return 0.0, True
        num += p
        den += p / eta_i
    return (num / den, False) if den > 0.0 else (0.0, True)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_total_efficiency_batch_equals_rows(maps, eta_fns, data):
    v, f = draw_samples(data, maps)
    eta, flagged = total_efficiency(v, f, eta_fns)
    for k in range(len(v)):
        assert total_efficiency(v[k], f[k], eta_fns) == (eta[k], flagged[k])
        assert loop_total_efficiency(v[k], f[k], eta_fns) == (eta[k], flagged[k])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_summary_symmetric_under_sign_reversal(maps, eta_fns, data):
    v, f = draw_samples(data, maps)
    assert efficiency_summary(-v, -f, eta_fns) == efficiency_summary(v, f, eta_fns)


def test_aggregation_bounds(eta_fns, solved_half):
    eta, flagged = total_efficiency(solved_half.v_x, solved_half.f_x, eta_fns)
    active = ~flagged
    for k in np.nonzero(active)[0]:
        per = []
        for i in range(3):
            p = solved_half.f_x[k, i] * solved_half.v_x[k, i]
            if p > 0:
                per.append(eta_fns[i](solved_half.f_x[k, i], solved_half.v_x[k, i]))
        assert min(per) - 1e-12 <= eta[k] <= max(per) + 1e-12


def test_objective_constant_efficiency_value():
    m = 24
    times = np.linspace(0.0, 3.0, m + 1)
    ones = np.ones((m + 1, 2))
    traj = TrajectoryResult(
        control_points=np.zeros((6, 2)), t_final=3.0, times=times,
        q=ones, qd=ones, qdd=ones, v_x=ones, f_x=ones, power=ones,
        psi=np.zeros(2), psi_raw={}, weights=np.array([0.5, 0.5]), cost=0.0,
        constraint_violation=0.0, converged=True, outer_iterations=1, degree=5,
    )
    value = efficiency_objective(traj, [const_eta(1.0)] * 2)
    dt = 3.0 / m
    assert np.isclose(value, 0.5 * dt * (m + 1))
    assert not total_efficiency(traj.v_x, traj.f_x, [const_eta(1.0)] * 2)[1].any()


def test_objective_riemann_refinement(model, dynamics, eta_fns):
    res = solve_inner(benchmark_problem(model), dynamics, weights=np.array([0.3, 0.7]))
    value = efficiency_objective(res, eta_fns)
    times = np.linspace(0.0, res.t_final, 2 * len(res.times) - 1)
    q, qd, qdd = spline_states(res.degree, res.control_points, res.t_final, times)
    dt = res.t_final / (len(times) - 1)
    eta, flagged = total_efficiency(qd, dynamics(q, qd, qdd), eta_fns)
    value2 = 0.5 * dt * float(np.sum(eta**2))
    assert abs(value2 - value) / value <= 0.01


def test_outer_cost_reevaluation(model, dynamics, eta_fns, small_problem):
    result = solve_inner(small_problem, dynamics, weights=np.array([0.4, 0.6]))
    value = efficiency_objective(result, eta_fns)
    back = TrajectoryResult.from_dict(result.to_dict())
    value2 = efficiency_objective(back, eta_fns)
    assert abs(value2 - value) <= 1e-10 * max(1.0, value)


@pytest.fixture(scope="module")
def grid_result(model, maps, small_problem):
    cfg = BilevelConfig(
        weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], grid_points=3
    )
    return cfg, solve_outer(cfg, small_problem, model, maps)


def packed(result):
    return np.concatenate([result.control_points.ravel(), [result.t_final]])


def centre_start(problem, dynamics, cfg):
    """The control points and final time of a re-run of the leader's centre
    solve of ``cfg``, packed."""
    mid = 0.5 * (cfg.weight_lower + cfg.weight_upper)
    return packed(solve_inner(problem, dynamics, weights=mid))


def ray_chain(cfg, w):
    """The raw weights the leader solves before the ray of ``w`` in its
    sweep, from the centre's ray out: the first lattice point (in meshgrid
    order) of each ray between the centre's ray and that of ``w``.  A ray is
    a value of w1 / (w1 + w2); the rays above the centre's are swept in
    ascending order, those below it in descending order, and a converged
    centre solve stands for its own ray."""
    lo, hi = cfg.weight_lower, cfg.weight_upper
    firsts = {}
    for a in np.linspace(lo[0], hi[0], cfg.grid_points):
        for b in np.linspace(lo[1], hi[1], cfg.grid_points):
            firsts.setdefault(a / (a + b), np.array([a, b]))
    mid = 0.5 * (lo + hi)
    centre, ray = mid[0] / mid.sum(), w[0] / (w[0] + w[1])
    if ray >= centre:
        between = sorted(r for r in firsts if centre < r < ray)
    else:
        between = sorted((r for r in firsts if ray < r < centre), reverse=True)
    return [firsts[r] for r in between]


def sweep_start(problem, dynamics, cfg, w):
    """The packed start the leader gives the ray of ``w``: a re-run of the
    centre solve, then of every ray before it in its sweep, each from the
    optimum before it."""
    start = centre_start(problem, dynamics, cfg)
    for v in ray_chain(cfg, w):
        result = solve_inner(problem, dynamics, weights=v, initial_guess=start)
        assert result.converged
        start = packed(result)
    return start


def test_grid_search_returns_exhaustive_max(grid_result):
    cfg, res = grid_result
    assert len(res.trace) == cfg.grid_points ** 2
    best_in_trace = max(v for _, v, ok in res.trace if ok)
    assert res.outer_value == best_in_trace


def test_best_so_far_monotone(grid_result):
    _, res = grid_result
    best = -np.inf
    for _, value, ok in res.trace:
        if ok:
            best = max(best, value)
        assert best >= value or not ok
    assert res.outer_value == best


def test_trace_csv_matches_per_row_reference(grid_result):
    # the csv.writer loop that trace_to_csv replaced, on a trace with a failed point
    _, res = grid_result
    res = replace(res, trace=res.trace + [(np.array([1.0, 0.1]), float("-inf"), False)])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["w1", "w2", "F", "inner_converged"])
    for w, value, ok in res.trace:
        writer.writerow(["%.12g" % x for x in w] + ["%.12g" % value, "1" if ok else "0"])
    assert res.trace_to_csv() == buf.getvalue()
    assert res.trace_to_csv().splitlines()[-1] == "1,0.1,-inf,0"


def test_trace_weights_within_box(grid_result):
    cfg, res = grid_result
    for w, _, _ in res.trace:
        assert np.all(w >= cfg.weight_lower - 1e-12)
        assert np.all(w <= cfg.weight_upper + 1e-12)


def test_rescaled_optimum_weights_reproduce(model, dynamics, grid_result, small_problem, eta_fns):
    cfg, res = grid_result
    start = centre_start(small_problem, dynamics, cfg)
    one = solve_inner(small_problem, dynamics, weights=res.weights_opt, initial_guess=start)
    two = solve_inner(small_problem, dynamics, weights=2.0 * res.weights_opt, initial_guess=start)
    assert np.abs(one.control_points - two.control_points).max() <= 1e-9
    v1 = efficiency_objective(one, eta_fns)
    v2 = efficiency_objective(two, eta_fns)
    assert abs(v1 - v2) <= 1e-8


def test_rerunning_inner_at_optimum_reproduces(model, dynamics, grid_result, small_problem, eta_fns):
    # the winner's ray starts from the optimum of the ray before it in its sweep
    cfg, res = grid_result
    assert len(ray_chain(cfg, res.weights_opt)) > 0
    again = solve_inner(small_problem, dynamics, weights=res.weights_opt,
                        initial_guess=sweep_start(small_problem, dynamics, cfg, res.weights_opt))
    assert np.array_equal(again.control_points, res.inner.control_points)
    value = efficiency_objective(again, eta_fns)
    assert abs(value - res.outer_value) <= 1e-8


def test_degenerate_weight_box(model, maps, small_problem, dynamics, eta_fns):
    w0 = np.array([0.3, 0.7])
    cfg = BilevelConfig(weight_lower=w0, weight_upper=w0, grid_points=1)
    res = solve_outer(cfg, small_problem, model, maps)
    assert np.array_equal(res.weights_opt, w0)
    again = solve_inner(small_problem, dynamics, weights=w0,
                        initial_guess=centre_start(small_problem, dynamics, cfg))
    value = efficiency_objective(again, eta_fns)
    assert abs(value - res.outer_value) <= 1e-9


def test_quartile_occupancy_range(maps, solved_half):
    occ = quartile_occupancy(solved_half.v_x, solved_half.f_x, maps)
    assert len(occ) == 3
    assert all(0.0 <= o <= 1.0 for o in occ)


def test_samples_outside_map_matches_axis_comparison(maps, solved_half):
    v = solved_half.v_x
    for scale in (1.0, 1.5):  # 1.5x pushes lift and tilt forces past the map ceilings
        f = scale * solved_half.f_x
        counts = samples_outside_map(v, f, maps)
        assert counts == samples_outside_map(-v, -f, maps)
        for i, emap in enumerate(maps):
            expected = 0
            for fk, vk in zip(f[:, i], v[:, i]):
                if fk * vk > 0:
                    fk, vk = abs(fk), abs(vk)
                    expected += not (
                        emap.force_axis[0] <= fk <= emap.force_axis[-1]
                        and emap.velocity_axis[0] <= vk <= emap.velocity_axis[-1]
                    )
            assert counts[i] == expected
    assert sum(counts) > 0


def test_summary_structure(eta_fns, solved_half):
    s = efficiency_summary(solved_half.v_x, solved_half.f_x, eta_fns)
    assert set(s) == {"per_joint", "total", "sample_mean", "flagged_samples", "n_samples"}
    assert all(0.0 <= x <= 1.0 for x in s["per_joint"])
    assert 0.0 <= s["total"] <= 1.0


def test_summary_rates_each_joint_once(eta_fns, solved_half):
    # one call per joint on its whole column; the per-joint figures equal
    # those rated on the motoring samples alone, bit for bit
    v, f = solved_half.v_x, solved_half.f_x
    calls = []

    def counted(i):
        def eta(f_i, v_i):
            calls.append(i)
            return eta_fns[i](f_i, v_i)
        return eta

    s = efficiency_summary(v, f, [counted(i) for i in range(3)])
    assert calls == [0, 1, 2]
    assert s == efficiency_summary(v, f, eta_fns)
    p = f * v
    for i in range(3):
        mask = p[:, i] > 0
        etas = eta_fns[i](f[mask, i], v[mask, i])
        good = etas > 0
        p_i = p[mask, i][good]
        assert s["per_joint"][i] == float(np.sum(p_i)) / float(np.sum(p_i / etas[good]))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        BilevelConfig(weight_lower=[0.5, 0.5], weight_upper=[0.1, 0.1])
    with pytest.raises(ValueError):
        BilevelConfig(weight_lower=[0.1], weight_upper=[1.0])
    for points in (0, -1, 2.5, True, "5"):
        with pytest.raises(ValueError, match="grid_points"):
            BilevelConfig(weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], grid_points=points)
    with pytest.raises(TypeError):  # the lattice is the only search
        BilevelConfig(weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], method="nelder-mead")


def failing_solve_inner(fail_at, calls=None):
    """solve_inner that raises the given error at the given weights; the
    grid's private keywords (the warm-start evaluation) pass through.  Each
    call's (weights, initial_guess, result or None) is appended to ``calls``
    if given."""

    def solve(problem, dynamics, weights, initial_guess=None, **private):
        result = None
        try:
            for w, error in fail_at:
                if np.allclose(weights, w):
                    raise error("injected failure")
            result = solve_inner(problem, dynamics, weights=weights, initial_guess=initial_guess,
                                 **private)
            return result
        finally:
            if calls is not None:
                calls.append((np.asarray(weights), initial_guess, result))

    return solve


def test_failed_grid_points_do_not_abort_sweep(monkeypatch, model, maps, small_problem):
    # on the 3x3 lattice the centre solve stands for the diagonal, the
    # ascending sweep runs (1, 0.55), (0.55, 0.1), (1, 0.1) and the
    # descending one (0.55, 1), (0.1, 0.55), (0.1, 1) by w1 / (w1 + w2):
    # each failure has a ray after it in its sweep, which
    # starts from the optimum of the last converged ray before the failure
    import emlaopt.bilevel as bilevel

    calls = []
    monkeypatch.setattr(bilevel, "solve_inner", failing_solve_inner(
        [([0.55, 0.1], StrokeRangeError), ([0.1, 0.55], SingularConfigurationError)], calls
    ))
    cfg = BilevelConfig(
        weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], grid_points=3
    )
    res = solve_outer(cfg, small_problem, model, maps)
    assert len(res.trace) == 9 and res.n_inner_solves == len(calls) == 7
    rows = {tuple(np.round(w, 6)): (value, ok) for w, value, ok in res.trace}
    for failed in ((0.55, 0.1), (0.1, 0.55)):
        assert rows[failed] == (float("-inf"), False)
    solved = {tuple(np.round(w, 6)): (start, result) for w, start, result in calls}
    for after, last_converged in (((1.0, 0.1), (1.0, 0.55)), ((0.1, 1.0), (0.55, 1.0))):
        assert np.array_equal(solved[after][0], packed(solved[last_converged][1]))
    survivors = [(w, v) for w, v, ok in res.trace if ok]
    assert len(survivors) == 7
    w_best, v_best = max(survivors, key=lambda e: e[1])
    assert np.array_equal(res.weights_opt, w_best) and res.outer_value == v_best


class _Captured(Exception):
    """Raised by a stand-in for the leader's first inner solve."""


def test_every_ray_key_is_the_followers_weights(model, small_problem, dynamics):
    # the leader groups the benchmark lattice into rays by the bits of each
    # point's normalized weights; each key must be the very vector the
    # follower's cost reads at that point, or two points the follower cannot
    # tell apart would be solved twice, or two it can would share one F
    import emlaopt.bilevel as bilevel

    seen = []

    def recorded(w):
        seen.append((w, normalize_weights(w)))
        return seen[-1][1]

    def first_solve(*args, **kwargs):
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bilevel, "normalize_weights", recorded)
        mp.setattr(bilevel, "solve_inner", first_solve)
        with pytest.raises(_Captured):
            solve_outer(BilevelConfig(), small_problem, model, [])
    assert len(seen) == 5 * 5 + 1  # the lattice, then the box centre
    for w, key in seen:
        follower = _Transcription(small_problem, dynamics, w).weights
        assert key.tobytes() == follower.tobytes()


def test_failed_center_solve_raises(monkeypatch, model, maps, small_problem):
    import emlaopt.bilevel as bilevel

    monkeypatch.setattr(bilevel, "solve_inner",
                        failing_solve_inner([([0.55, 0.55], StrokeRangeError)]))
    cfg = BilevelConfig(
        weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], grid_points=2
    )
    with pytest.raises(StrokeRangeError):
        solve_outer(cfg, small_problem, model, maps)


def test_other_inner_errors_still_propagate(monkeypatch, model, maps, small_problem):
    import emlaopt.bilevel as bilevel

    monkeypatch.setattr(bilevel, "solve_inner",
                        failing_solve_inner([([1.0, 0.1], ZeroDivisionError)]))
    cfg = BilevelConfig(
        weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], grid_points=2
    )
    with pytest.raises(ZeroDivisionError):
        solve_outer(cfg, small_problem, model, maps)


@pytest.fixture(scope="module")
def benchmark_grid(model, maps):
    """The leader's search on the benchmark problem and every ``solve_inner``
    result it made: the centre, which stands for its own ray, and the other
    20 distinct weight rays of the 5x5 lattice."""
    import emlaopt.bilevel as bilevel

    results = []

    def recording(*args, **kwargs):
        results.append(solve_inner(*args, **kwargs))
        return results[-1]

    problem = benchmark_problem(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bilevel, "solve_inner", recording)
        res = solve_outer(BilevelConfig(), problem, model, maps)
    return problem, res, results


def test_grid_solves_stay_inside_their_boxes(benchmark_grid):
    # SLSQP works on y, z = z0 + S y, and each solve maps its result back
    # as z clipped to the box: every decision vector the 21 solves of the
    # benchmark grid return lies inside the q and t_final bounds bit for
    # bit (without the clip, S y can pass a bound by rounding)
    problem, res, results = benchmark_grid
    assert len(results) == res.n_inner_solves == 21 and all(r.converged for r in results)
    assert np.array_equal(res.weights_opt, [0.05, 1.0])
    t_lower, t_upper = problem.check_boundary_feasible()
    for r in results:
        free = r.control_points[2:-2]
        assert np.all(free >= problem.q_lower) and np.all(free <= problem.q_upper)
        assert t_lower <= r.t_final <= t_upper


def test_grid_iteration_budget(benchmark_grid):
    # SLSQP starts from the cost's full Gauss–Newton Hessian at each start
    # point, so the 21 solves of the benchmark grid take at most 140
    # iterations in all (124 measured; 234 with the diagonal scaling and the
    # centre's ray solved twice)
    _, _, results = benchmark_grid
    assert len(results) == 21
    total = sum(r.outer_iterations for r in results)
    assert total <= 140, total


def test_each_ray_starts_from_its_neighbours_evaluation(monkeypatch, model, maps, small_problem):
    # the transcription's evaluation does not depend on the weights, so each
    # ray starts from the last evaluation of the solve before it in its
    # sweep, at its warm start: one dynamics call fewer per ray than a
    # solve_inner run on its own from that optimum, with every field of the
    # result the same
    import emlaopt.bilevel as bilevel

    grid_calls, alone_calls, results = [], [], []

    def counting(*args):
        grid_calls.append(1)
        return rnea(*args)

    def recording(*args, **kwargs):
        results.append(solve_inner(*args, **kwargs))
        return results[-1]

    def alone(q, qd, qdd):
        alone_calls.append(1)
        return rnea(model, q, qd, qdd)

    monkeypatch.setattr(bilevel, "rnea", counting)
    monkeypatch.setattr(bilevel, "solve_inner", recording)
    cfg = BilevelConfig(weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], grid_points=3)
    solve_outer(cfg, small_problem, model, maps)
    centre, grid = results[0], results[1:]
    assert len(grid) == 6  # the diagonal is the centre's ray
    by_weights = {tuple(r.weights): r for r in grid}
    solve_inner(small_problem, alone, weights=centre.weights)
    for point in grid:
        chain = ray_chain(cfg, point.weights)
        before = by_weights[tuple(chain[-1])] if chain else centre
        again = solve_inner(small_problem, alone, weights=point.weights,
                            initial_guess=packed(before))
        for f in fields(TrajectoryResult):
            a, b = getattr(point, f.name), getattr(again, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
    assert len(grid_calls) == len(alone_calls) - len(grid)


def test_asymmetric_even_grid_sweeps_out_from_the_centre_ray(monkeypatch, model, maps,
                                                              small_problem):
    # the centre (0.55, 0.5) of this box is no lattice point, and rays lie on
    # both sides of its ray: each distinct ray is solved once, from the
    # optimum of the ray before it in its sweep, and every point of a ray
    # takes its F
    import emlaopt.bilevel as bilevel

    calls = []
    monkeypatch.setattr(bilevel, "solve_inner", failing_solve_inner([], calls))
    cfg = BilevelConfig(weight_lower=[0.1, 0.2], weight_upper=[1.0, 0.8], grid_points=4)
    res = solve_outer(cfg, small_problem, model, maps)
    centre, rays = calls[0], calls[1:]
    assert not any(np.array_equal(w, centre[0]) for w, _, _ in res.trace)
    ray_of = lambda w: w[0] / w.sum()
    swept = [ray_of(w) for w, _, _ in rays]
    assert min(swept) < ray_of(centre[0]) <= max(swept)
    assert len(rays) == len({tuple(w / w.sum()) for w, _, _ in res.trace}) < len(res.trace)
    assert res.n_inner_solves == len(calls)
    solved = {tuple(w): result for w, _, result in calls}
    for w, start, _ in rays:
        chain = ray_chain(cfg, w)
        before = solved[tuple(chain[-1])] if chain else centre[2]
        assert np.array_equal(start, packed(before))
    for w, value, ok in res.trace:
        first = next(r for v, _, r in rays if tuple(v / v.sum()) == tuple(w / w.sum()))
        assert ok and value == efficiency_objective(first, map_eta_fns(maps))


def test_converged_centre_solve_stands_for_its_ray(monkeypatch, model, maps, small_problem):
    # the centre (0.55, 0.55) of the 3x3 box lies on the diagonal's ray, so
    # no later solve lies on that ray and every diagonal point takes the
    # centre's F; a one-point box makes the centre solve alone
    import emlaopt.bilevel as bilevel

    calls = []
    monkeypatch.setattr(bilevel, "solve_inner", failing_solve_inner([], calls))
    cfg = BilevelConfig(weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], grid_points=3)
    res = solve_outer(cfg, small_problem, model, maps)
    centre = calls[0][2]
    assert res.n_inner_solves == len(calls) == 7
    assert all(w[0] != w[1] for w, _, _ in calls[1:])
    diagonal = [(value, ok) for w, value, ok in res.trace if w[0] == w[1]]
    assert diagonal == [(efficiency_objective(centre, map_eta_fns(maps)), True)] * 3
    one_point = BilevelConfig(weight_lower=[0.3, 0.7], weight_upper=[0.3, 0.7], grid_points=1)
    assert solve_outer(one_point, small_problem, model, maps).n_inner_solves == 1


def test_unconverged_centre_solve_leaves_its_ray_to_the_sweep(monkeypatch, model, maps,
                                                              small_problem):
    # a centre solve that stops short of convergence still starts both
    # sweeps, and its ray heads the ascending one, solved from the centre's
    # optimum at the ray's first lattice point
    import emlaopt.bilevel as bilevel

    calls = []
    solve = failing_solve_inner([], calls)

    def unconverged_centre(*args, **kwargs):
        result = solve(*args, **kwargs)
        return replace(result, converged=False) if len(calls) == 1 else result

    monkeypatch.setattr(bilevel, "solve_inner", unconverged_centre)
    cfg = BilevelConfig(weight_lower=[0.1, 0.1], weight_upper=[1.0, 1.0], grid_points=3)
    res = solve_outer(cfg, small_problem, model, maps)
    assert res.n_inner_solves == len(calls) == 8
    (w, start, again), centre = calls[1], calls[0][2]
    assert np.array_equal(w, [0.1, 0.1]) and np.array_equal(start, packed(centre))
    diagonal = [(value, ok) for w, value, ok in res.trace if w[0] == w[1]]
    assert diagonal == [(efficiency_objective(again, map_eta_fns(maps)), True)] * 3
