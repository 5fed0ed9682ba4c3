import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlaopt.control import (
    DisturbanceProfile,
    SubsystemGains,
    adaptive_rate,
    control_law,
    lyapunov_audit,
    lyapunov_value,
    nominal_disturbance,
    published_gains,
    reference_spline,
    simulate_tracking,
    traces_to_csv,
    tracking_errors,
    tracking_transform,
)
from emlaopt.bspline import clamped_knots
from emlaopt.pmsm import torque_to_iq
from conftest import constant_pose_reference


def test_tracking_transform_case_split():
    assert tracking_transform(1.0, 1.0, 0.0, nu=1) == 0.0
    assert tracking_transform(0.5, 0.8, -0.3, nu=2) == pytest.approx(0.0)
    assert tracking_transform(0.5, 0.8, -0.3, nu=3) == pytest.approx(-0.3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, r, kap = rng.standard_normal(3)
        for nu in (1, 3, 4):
            assert tracking_transform(x, r, kap, nu) == x - r
        assert tracking_transform(x, r, kap, 2) == x - r - kap
    with pytest.raises(ValueError):
        tracking_transform(0, 0, 0, nu=5)


def test_control_law_published_gain_value():
    # delta = 75000, eps = 9, phi = 0, Q = 1e-3 -> kappa = -37.5
    assert control_law(75000.0, 9.0, 0.0, 1e-3) == pytest.approx(-37.5)


def test_control_law_dissipative_sign():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.standard_normal()
        phi = abs(rng.standard_normal())
        kappa = control_law(100.0, 2.0, phi, q)
        assert kappa * q <= 0.0


def test_adaptive_pure_decay_rate():
    # with Q = 0 the estimate decays at k*sigma = 63 per second
    g = published_gains()
    phi = np.array([1.0, 0.25, 2.0, 0.0])
    rate = adaptive_rate(g.k, g.sigma, g.epsilon, phi, np.zeros(4))
    assert np.array_equal(rate, -63.0 * phi)


def test_adaptive_fixed_point():
    # the rate vanishes at phi* = eps Q^2 / (2 sigma), and pulls toward it
    k, sigma, eps = 7.0, 9.0, 9.0
    q0 = 0.4
    target = eps * q0**2 / (2 * sigma)
    assert adaptive_rate(k, sigma, eps, target, q0) == pytest.approx(0.0, abs=1e-15)
    assert adaptive_rate(k, sigma, eps, 0.5 * target, q0) > 0.0
    assert adaptive_rate(k, sigma, eps, 2.0 * target, q0) < 0.0


def test_adaptive_nonnegative():
    # phi = 0 never has a negative rate, so phi >= 0 is forward invariant;
    # above zero the error term only slows the decay
    rng = np.random.default_rng(3)
    q = rng.standard_normal(500)
    phi = rng.exponential(1.0, 500)
    assert np.all(adaptive_rate(7.0, 9.0, 9.0, 0.0, q) >= 0.0)
    assert np.all(adaptive_rate(7.0, 9.0, 9.0, phi, q) >= -63.0 * phi)


def test_gains_validation():
    with pytest.raises(ValueError):
        SubsystemGains(delta=[1, 1, 1, -1], epsilon=1, k=1, sigma=1)
    g = published_gains()
    assert np.all(g.delta == 75000.0) and np.all(g.k * g.sigma == 63.0)


def test_regulation_lyapunov_strictly_decreasing(regulation_traces, acts):
    audit = lyapunov_audit(regulation_traces, published_gains())
    assert audit.zeta == 63.0
    assert audit.strictly_decreasing
    assert audit.zeta_fit > 0.0
    # the decay window spans well past the initial transient
    assert audit.fit_window[1] >= 50


def test_lyapunov_value_reevaluation(regulation_traces):
    v1 = lyapunov_value(regulation_traces, published_gains())
    v2 = lyapunov_value(regulation_traces, [published_gains()] * 3)
    assert np.array_equal(v1, v2)
    assert np.array_equal(regulation_traces.lyapunov, v1)


def test_zero_reference_zero_error_stays_at_rest(acts):
    reference = constant_pose_reference(duration=0.05)
    tr = simulate_tracking(acts, reference, published_gains(), disturbance=None,
                           dt=1e-3, rtol=1e-8, atol=1e-14)
    assert np.abs(tr.q_err).max() < 1e-10
    assert np.abs(tr.i_q).max() < 1e-10
    assert np.abs(tr.lyapunov).max() < 1e-20


@settings(max_examples=100, deadline=None)
@given(
    degree=st.integers(2, 5),
    extra_ctrl=st.integers(0, 10),
    t_final=st.floats(0.01, 20.0),
    n_times=st.integers(3, 60),
    uniform=st.booleans(),
    data=st.data(),
)
def test_reference_spline_matches_its_three_splines(degree, extra_ctrl, t_final, n_times,
                                                     uniform, data):
    # the stacked spline must reproduce the trajectory spline, its derivative
    # and the natural cubic force interpolant it replaces, column by column
    from scipy.interpolate import BSpline, CubicSpline

    n_ctrl = degree + 1 + extra_ctrl
    ctrl = data.draw(arrays(float, (n_ctrl, 3), elements=st.floats(-2.0, 2.0)))
    # uniform instants, as the transcription makes them, or spacings that
    # differ up to 20x
    gaps = np.ones(n_times - 1) if uniform else data.draw(
        arrays(float, n_times - 1, elements=st.floats(0.05, 1.0)))
    times = t_final * np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    times[-1] = t_final
    f_x = data.draw(arrays(float, (n_times, 3), elements=st.floats(-5e4, 5e4)))
    t = data.draw(arrays(float, 20, elements=st.floats(0.0, t_final)))
    ref = replace(constant_pose_reference(duration=t_final), control_points=ctrl,
                  degree=degree, times=times, f_x=f_x)
    q = BSpline(clamped_knots(n_ctrl, degree) * t_final, ctrl, degree)
    f = CubicSpline(times, f_x, bc_type="natural")

    def columns(t):
        return np.hstack((q(t), q.derivative()(t), f(t)))

    peak = np.abs(columns(np.linspace(0.0, t_final, 2001))).max(axis=0)
    assert np.all(np.abs(reference_spline(ref)(t) - columns(t)) <= 1e-12 * peak)


def test_reference_spline_of_a_held_pose_has_zero_rate():
    ref = constant_pose_reference(duration=0.01, pose=[0.8, 0.5, 0.3],
                                  force=[2000.0, 1500.0, 400.0])
    t = np.linspace(0.0, 0.01, 1001)
    assert np.all(reference_spline(ref)(t)[:, 3:6] == 0.0)


def loaded_pose_run(acts, disturbance):
    """A short run holding a pose against a load, under ``disturbance``."""
    reference = constant_pose_reference(duration=0.01, pose=[0.8, 0.5, 0.3],
                                        force=[2000.0, 1500.0, 400.0])
    return simulate_tracking(acts, reference, published_gains(),
                             disturbance=disturbance, dt=5e-4)


@pytest.fixture(scope="module")
def nominal_traces(acts):
    return loaded_pose_run(acts, nominal_disturbance())


def test_traces_obey_control_law(acts, nominal_traces):
    # every output sample satisfies the cascade the simulation integrates
    tr, g = nominal_traces, published_gains()
    # the reference columns hold the trajectory samples verbatim at the
    # collocation instants, the controller the spline: they agree to rounding
    assert np.allclose(tr.q_err[..., 0], tr.position - tr.position_ref,
                       rtol=1e-9, atol=1e-14 * np.abs(tr.position).max())
    assert np.abs(tr.q_err[..., 2]).max() > 1e-4  # the current loops are working
    for nu, v in ((2, tr.v_q), (3, tr.v_d)):
        law = control_law(g.delta[nu], g.epsilon[nu], tr.phi[..., nu], tr.q_err[..., nu])
        assert np.allclose(v, law, rtol=1e-12, atol=0.0)
    for j, a in enumerate(acts):
        torque = control_law(g.delta[1], g.epsilon[1], tr.phi[:, j, 1], tr.q_err[:, j, 1])
        assert np.allclose(tr.i_q_ref[:, j], torque_to_iq(a.motor, torque),
                           rtol=1e-12, atol=0.0)
    assert np.allclose(tr.q_err[..., 2], tr.i_q - tr.i_q_ref, rtol=1e-12, atol=1e-12)
    assert np.array_equal(tr.q_err[..., 3], tr.i_d)


def test_sensor_noise_is_seeded(acts, nominal_traces):
    noisy = replace(nominal_disturbance(), sensor_noise_std=1e-6)
    a = loaded_pose_run(acts, noisy)
    b = loaded_pose_run(acts, noisy)
    for name in ("position", "i_q", "v_q", "v_d", "q_err", "phi", "lyapunov"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # the controller reads noisy states: its errors and commands change
    assert np.array_equal(a.times, nominal_traces.times)
    assert not np.allclose(a.q_err, nominal_traces.q_err)
    assert not np.allclose(a.v_q, nominal_traces.v_q)
    assert a.phi.min() >= 0.0


def test_load_pulse_reconverges(acts):
    # constant pose with a transient load-force pulse mid-run
    reference = constant_pose_reference(duration=1.0)
    k_step = len(reference.times) // 2
    reference.f_x[k_step: k_step + 4] = np.array([2000.0, 1500.0, 400.0])
    tr = simulate_tracking(acts, reference, published_gains(), disturbance=None,
                           dt=2e-3, rtol=1e-7, atol=1e-12)
    t_step = reference.times[k_step]
    before = np.abs(tr.q_err[(tr.times > t_step - 0.1) & (tr.times < t_step - 0.02)]).max()
    during = np.abs(tr.q_err[(tr.times >= t_step - 0.02) & (tr.times < t_step + 0.15)]).max()
    after = np.abs(tr.q_err[tr.times > t_step + 0.35]).max()
    assert during > 5 * before  # the pulse visibly excites the errors
    assert after < 0.1 * during  # and the controller pulls them back down


def reference_traces_csv(traces):
    """The per-row writer the array writer replaced, kept as its oracle."""
    n_a = traces.position.shape[1]
    header = ["t"]
    for j in range(1, n_a + 1):
        header += [
            f"fx{j}", f"fx_ref{j}", f"vx{j}", f"vx_ref{j}", f"iq{j}", f"id{j}",
            f"Vq{j}", f"Vd{j}",
        ] + [f"Q{nu}_{j}" for nu in range(1, 5)] + [f"phi{nu}_{j}" for nu in range(1, 5)]
    header.append("V_lyap")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for it, t in enumerate(traces.times):
        row = [t]
        for j in range(n_a):
            row += [
                traces.force_em[it, j], traces.force_ref[it, j],
                traces.velocity[it, j], traces.velocity_ref[it, j],
                traces.i_q[it, j], traces.i_d[it, j],
                traces.v_q[it, j], traces.v_d[it, j],
            ]
            row += list(traces.q_err[it, j])
            row += list(traces.phi[it, j])
        row.append(traces.lyapunov[it])
        writer.writerow(["%.12g" % x for x in row])
    return buf.getvalue()


@pytest.mark.parametrize("run", ["nominal_traces", "regulation_traces"])
def test_traces_csv_matches_per_row_reference(run, request):
    traces = request.getfixturevalue(run)
    assert traces_to_csv(traces) == reference_traces_csv(traces)


def test_disturbance_profile_bound():
    d = DisturbanceProfile(force_noise_std=0.02)
    assert d.bound(1e4) == pytest.approx(600.0)


def test_tracking_errors_shape(regulation_traces):
    out = tracking_errors(regulation_traces, settle_time=0.1)
    assert len(out["velocity_rms_frac"]) == 3
    assert len(out["force_rms_frac"]) == 3


def test_tracking_errors_need_a_settled_sample(regulation_traces):
    # an empty window gave NaN errors, which strict JSON cannot carry
    end = regulation_traces.times[-1]
    assert len(tracking_errors(regulation_traces, settle_time=end)["force_rms_frac"]) == 3
    with pytest.raises(ValueError, match="settle_time"):
        tracking_errors(regulation_traces, settle_time=end + 0.01)


class _Captured(Exception):
    pass


def captured_closed_loop(acts, disturbance):
    """The right-hand side, Jacobian and initial state that simulate_tracking
    hands to Radau for a 1 s ramp between two loaded poses."""
    reference = constant_pose_reference(duration=1.0, pose=[0.8, 0.5, 0.3],
                                        force=[2000.0, 1500.0, 400.0])
    reference.control_points = np.linspace([0.8, 0.5, 0.3], [0.9, 0.45, 0.5], 8)
    seen = {}

    def capture(fun, t_span, y0, **kwargs):
        seen.update(fun=fun, jac=kwargs["jac"], y0=y0)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("emlaopt.control.solve_ivp", capture)
        with pytest.raises(_Captured):
            simulate_tracking(acts, reference, published_gains(), disturbance=disturbance)
    return seen["fun"], seen["jac"], seen["y0"]


@pytest.fixture(scope="module")
def closed_loops(acts):
    noisy = replace(nominal_disturbance(), sensor_noise_std=1e-3)
    return [captured_closed_loop(acts, d) for d in (nominal_disturbance(), noisy)]


@settings(max_examples=60, deadline=None)
@given(
    noisy=st.booleans(),
    t=st.floats(0.0, 1.0),
    angle_error=arrays(float, 3, elements=st.floats(1e-3, 1.0)),
    angle_sign=arrays(bool, 3),
    deviation=arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)),
    phi=arrays(float, (3, 4), elements=st.floats(0.0, 10.0)),
)
def test_closed_loop_jacobian_matches_central_differences(
        closed_loops, noisy, t, angle_error, angle_sign, deviation, phi):
    # the closed loop is at most quadratic along every single coordinate,
    # so central differences are exact up to rounding.  The shaft angle is
    # drawn at least 0.04 rad off the start state, which is on the
    # reference: there Q is zero to rounding, and the rows eps*k*Q*dQ of the
    # estimates are set by that rounding amplified by the gain products
    # (~1e18), which neither side resolves.
    rhs, jac, y0 = closed_loops[noisy]
    # shaft angle [rad], shaft speed [rad/s], i_q and i_d [A] off the start state
    off = np.vstack((np.where(angle_sign, 40.0, -40.0) * angle_error,
                     np.array([[1000.0], [50.0], [5.0]]) * deviation))
    y = np.concatenate(((y0[:12].reshape(4, 3) + off).ravel(), phi.ravel()))
    exact = jac(t, y)
    fd = np.empty_like(exact)
    for k in range(len(y)):
        step = np.zeros_like(y)
        step[k] = 1e-4 * max(1.0, abs(y[k]))
        fd[:, k] = (rhs(t, y + step) - rhs(t, y - step)) / (2.0 * step[k])
    row_rel = np.abs(exact - fd).max(axis=1) / np.abs(exact).max(axis=1)
    assert row_rel.max() <= 1e-7
