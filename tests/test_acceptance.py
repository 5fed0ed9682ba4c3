"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from emlaopt.bilevel import (
    BilevelConfig,
    efficiency_summary,
    map_eta_fns,
    quartile_occupancy,
    solve_outer,
)
from emlaopt.bspline import basis_matrices
from emlaopt.cli import main as cli_main
from emlaopt.control import (
    lyapunov_audit,
    published_gains,
    simulate_tracking,
    tracking_errors,
)
from emlaopt.drivetrain import equivalent_params, rotary_linear_map
from emlaopt.manipulator import ClosedChainStage, rnea
from emlaopt.presets import benchmark_problem, default_map_grid
from emlaopt.trajopt import solve_inner
from conftest import spline_states
from oracles import (
    OperatingPoint,
    emla_rhs,
    evaluate_dynamics,
    kinetic_energy,
    linearize,
    loop_closure,
    potential_energy,
)


def report(number, passed, detail):
    print(f"[ACCEPTANCE {number}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def full_problem(model):
    return benchmark_problem(model, n_partitions=50, n_ctrl=12)


@pytest.fixture(scope="module")
def bilevel_run(model, maps, full_problem):
    cfg = BilevelConfig(
        weight_lower=[0.05, 0.05], weight_upper=[1.0, 1.0], grid_points=5
    )
    start = time.perf_counter()
    result = solve_outer(cfg, full_problem, model, maps)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_bilevel_efficiency_gain(model, maps, eta_fns, full_problem, bilevel_run, dynamics):
    result, elapsed = bilevel_run
    reference = solve_inner(full_problem, dynamics, weights=np.array([0.5, 0.5]))
    ref_summary = efficiency_summary(reference.v_x, reference.f_x, eta_fns)
    gain_pp = (result.summary["total"] - ref_summary["total"]) * 100.0
    occupancy = quartile_occupancy(result.inner.v_x, result.inner.f_x, maps)
    ok = gain_pp >= 2.0 and all(o >= 0.60 for o in occupancy) and elapsed < 600.0
    report(
        1,
        ok,
        f"bilevel total eta {result.summary['total']:.4f} vs inner-only "
        f"{ref_summary['total']:.4f} (gain {gain_pp:.2f} pp, need >= 2); "
        f"top-quartile occupancy {[round(o, 2) for o in occupancy]} (need >= 0.60); "
        f"runtime {elapsed:.0f}s at M=50, N=12, 5x5 grid (budget 600s)",
    )


def test_criterion_02_energy_balance(model):
    rng = np.random.default_rng(2024)
    lo, hi = model.stroke_limits()
    start = time.perf_counter()
    worst = 0.0
    ts = np.linspace(0.0, 1.0, 2001)
    for _ in range(20):
        n_ctrl = 9
        c = lo + (hi - lo) * rng.uniform(0.12, 0.88, (n_ctrl, 3))
        q, qd, qdd = spline_states(5, c, 1.0, ts)
        f = rnea(model, q, qd, qdd)
        work = simpson(np.sum(qd * f, axis=1), x=ts)
        e0 = kinetic_energy(model, q[0], qd[0]) + potential_energy(model, q[0])
        e1 = kinetic_energy(model, q[-1], qd[-1]) + potential_energy(model, q[-1])
        rel = abs(work - (e1 - e0)) / max(1.0, abs(e1 - e0))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    report(2, ok, f"energy balance worst relative error {worst:.2e} over 20 random "
                  f"spline trajectories (tol 1e-5), runtime {elapsed:.1f}s (budget 30s)")


def test_criterion_03_loop_closure_coherence(model):
    worst_sum = 0.0
    for stage in model.stages:
        if not isinstance(stage, ClosedChainStage):
            continue
        g = stage.geometry
        xs = np.linspace(g.stroke_min, g.stroke_max, 1000)
        q, q1, q2 = loop_closure(g, xs)
        worst_sum = max(worst_sum, np.abs(np.abs(q) + np.abs(q1) + np.abs(q2) - np.pi).max())
    rng = np.random.default_rng(3)
    lo, hi = model.stroke_limits()
    worst_vel = 0.0
    for _ in range(50):
        q = lo + (hi - lo) * rng.uniform(0.05, 0.95, 3)
        qd = 0.3 * rng.standard_normal(3)
        st = evaluate_dynamics(model, q, qd, np.zeros(3))
        for nm in ("lift", "tilt"):
            dv = st.frames[f"{nm}.pin_upper"][2] - st.frames[f"{nm}.pin_lower"][2]
            worst_vel = max(worst_vel, np.abs(dv).max())
    ok = worst_sum <= 1e-10 and worst_vel <= 1e-9
    report(3, ok, f"angle-sum residual {worst_sum:.2e} (tol 1e-10) over 1000 strokes/joint; "
                  f"closed-chain velocity residual {worst_vel:.2e} (tol 1e-9)")


def test_criterion_04_linearization_check(acts):
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(100):
        emla = acts[trial % len(acts)]
        op = OperatingPoint(*rng.uniform([-250, -12, -12], [250, 12, 12]))
        f_x = rng.uniform(-4e4, 4e4)
        a, b, r = linearize(emla.motor, emla.drivetrain, op, f_x)
        eq = equivalent_params(emla.drivetrain)
        x0 = np.array([op.id0, op.iq0, op.omega0, rng.uniform(-5, 5)])
        u0 = rng.uniform(-100, 100, 2)
        jac = np.zeros((4, 4))
        for i in range(4):
            h = 1e-4 * max(1.0, abs(x0[i]))
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            jac[:, i] = (
                np.array(emla_rhs(emla.motor, eq, xp, u0, f_x))
                - np.array(emla_rhs(emla.motor, eq, xm, u0, f_x))
            ) / (2 * h)
        worst = max(worst, np.abs(a - jac).max() / np.abs(jac).max())
        # the affine remainder reproduces the field at the operating state
        resid = a @ x0 + b @ u0 + r - np.array(emla_rhs(emla.motor, eq, x0, u0, f_x))
        worst = max(worst, np.abs(resid).max() / max(1.0, np.abs(jac).max()))
    ok = worst <= 1e-5
    report(4, ok, f"state-space matrices vs central differences at 100 random "
                  f"operating points: max relative error {worst:.2e} (tol 1e-5)")


def test_criterion_05_transmission_power_invariance(acts):
    worst = 0.0
    for emla in acts:
        force, velocity = default_map_grid(emla)
        ff, vv = np.meshgrid(force, velocity, indexing="ij")
        tau, omega = rotary_linear_map(emla.drivetrain, ff, vv)
        resid = np.abs(tau * omega - ff * vv)
        worst = max(worst, (resid / np.maximum(np.abs(ff * vv), 1e-300)).max())
    ok = worst <= 1e-12
    report(5, ok, f"tau*omega - f*v relative residual {worst:.2e} over the full "
                  f"map grids of all three actuators (machine precision)")


def test_criterion_06_inner_nlp_contract(model, model_no_gravity, full_problem, dynamics):
    lo, hi = model_no_gravity.stroke_limits()
    pose = 0.5 * (lo + hi)
    trivial = replace(
        benchmark_problem(model_no_gravity, n_partitions=20, n_ctrl=10),
        q_init=pose, q_final=pose, qd_init=np.zeros(3), qd_final=np.zeros(3),
    )
    dyn0 = lambda q, qd, qdd: rnea(model_no_gravity, q, qd, qdd)
    res0 = solve_inner(trivial, dyn0, weights=np.array([0.5, 0.5]))
    trivial_ok = res0.psi_raw["effort"] <= 1e-12 and res0.psi_raw["power"] <= 1e-12

    viol_ok = True
    scale_ok = True
    for w in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
        res = solve_inner(full_problem, dynamics, weights=np.array(w))
        viol_ok = viol_ok and res.converged and res.constraint_violation <= 1e-6
        res2 = solve_inner(full_problem, dynamics, weights=2.0 * np.array(w))
        scale_ok = scale_ok and np.abs(
            res2.control_points - res.control_points
        ).max() <= 1e-9
    ok = trivial_ok and viol_ok and scale_ok
    report(6, ok, f"stationary-pose problem gives psi=({res0.psi_raw['effort']:.1e}, "
                  f"{res0.psi_raw['power']:.1e}); all benchmark solves feasible within "
                  f"1e-6 scaled ({viol_ok}); weight-doubling leaves the argmin ({scale_ok})")


def test_criterion_07_bilevel_contract(bilevel_run):
    result, _ = bilevel_run
    values = [v for _, v, ok in result.trace if ok]
    exhaustive_max = max(values)
    exact = result.outer_value == exhaustive_max
    best = -np.inf
    monotone = True
    for _, v, ok in result.trace:
        if ok:
            best = max(best, v)
            if best < v:
                monotone = False
    ok = exact and monotone and len(result.trace) == 25
    report(7, ok, f"grid-search F(w*)={result.outer_value:.6f} equals the exhaustive "
                  f"5x5 maximum exactly ({exact}); best-so-far trace monotone ({monotone})")


def test_criterion_08_tracking_control(acts, bilevel_run, regulation_traces):
    result, _ = bilevel_run
    gains = [published_gains()] * 3
    traces = simulate_tracking(acts, result.inner, gains, disturbance=None, dt=2e-3)
    errors = tracking_errors(traces, settle_time=0.2)
    rms_ok = (
        max(errors["velocity_rms_frac"]) <= 0.02
        and max(errors["force_rms_frac"]) <= 0.02
    )

    # undisturbed regulation of a 1e-8 m initial error, integrated tightly
    audit = lyapunov_audit(regulation_traces, gains)
    lyap_ok = audit["strictly_decreasing"] and audit["zeta_fit"] > 0.0 and audit["zeta"] == 63.0
    ok = rms_ok and lyap_ok
    report(8, ok, f"published gains (k=7, sigma=9, delta=75000, eps=9): velocity RMS "
                  f"{[f'{x*100:.2f}%' for x in errors['velocity_rms_frac']]}, force RMS "
                  f"{[f'{x*100:.2f}%' for x in errors['force_rms_frac']]} of reference "
                  f"peaks (tol 2%); undisturbed V(t) strictly decreasing "
                  f"({audit['strictly_decreasing']}) with zeta_fit={audit['zeta_fit']:.0f} > 0; "
                  f"zeta audit min(delta, k*sigma) = {audit['zeta']:.0f} (expect 63)")


def test_criterion_09_determinism(tmp_path):
    def run(cmd, cfg_doc, out, jobs=1):
        cfg = tmp_path / f"{cmd}_{out}.json"
        cfg.write_text(json.dumps(cfg_doc))
        code = cli_main([cmd, "--config", str(cfg), "--out", str(tmp_path / out),
                         "--seed", "11", "--jobs", str(jobs)])
        assert code == 0
        return {
            p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())
        }

    map_cfg = {"actuator": {"preset": "tilt_47kw"},
               "grid": {"preset": "default", "n_force": 12, "n_velocity": 12}}
    traj_cfg = {"manipulator": {"preset": "default"},
                "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8}}
    bl_cfg = {"manipulator": {"preset": "default"},
              "problem": {"preset": "benchmark", "n_partitions": 16, "n_ctrl": 8},
              "actuators": {"preset": "default"},
              "outer": {"method": "grid", "grid_points": 2},
              "maps": {"n_force": 12, "n_velocity": 12}}
    ok = True
    detail = []
    for name, cmd, cfg, jobs in (
        ("map", "map", map_cfg, 3),
        ("trajopt", "trajopt", traj_cfg, 1),
        ("bilevel", "bilevel", bl_cfg, 2),
    ):
        a = run(cmd, cfg, f"{name}_a", jobs=1)
        b = run(cmd, cfg, f"{name}_b", jobs=jobs)
        same = a == b
        ok = ok and same
        detail.append(f"{name} identical across runs/jobs={jobs}: {same}")
    tr_cfg = {"trajectory": str(tmp_path / "bilevel_a" / "bilevel.json"),
              "actuators": {"preset": "default"}, "gains": {"preset": "published"},
              "disturbance": {"preset": "nominal"}, "dt": 0.01}
    a = run("track", tr_cfg, "track_a")
    b = run("track", tr_cfg, "track_b")
    ok = ok and a == b
    detail.append(f"track identical: {a == b}")
    report(9, ok, "; ".join(detail))


def test_criterion_10_bspline_suite():
    rng = np.random.default_rng(10)
    s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 1000)])
    b, db, d2b = basis_matrices(12, 5, s)
    unity = np.abs(b.sum(axis=1) - 1.0).max()
    dsum = np.abs(db.sum(axis=1)).max()
    h = 1e-6
    s_in = rng.uniform(2 * h, 1 - 2 * h, 1000)
    b_c, db_c, _ = basis_matrices(12, 5, s_in)
    b_p = basis_matrices(12, 5, s_in + h)[0]
    b_m = basis_matrices(12, 5, s_in - h)[0]
    fd = np.abs((b_p - b_m) / (2 * h) - db_c).max()
    ok = unity <= 1e-12 and dsum <= 1e-12 and fd <= 1e-6
    report(10, ok, f"partition of unity {unity:.1e} (tol 1e-12), derivative row sums "
                   f"{dsum:.1e} (tol 1e-12), analytic vs finite-difference derivative "
                   f"{fd:.1e} (tol 1e-6) over 1000 random evaluations")
