import csv
import inspect
import io
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.linalg import LinAlgWarning

from emlaopt.control import (
    MU_REAL,
    NOISE_BAND_HZ,
    NOISE_TONES,
    DisturbanceProfile,
    SubsystemGains,
    TrackingTraces,
    closed_loop,
    loop_record,
    lyapunov_audit,
    lyapunov_value,
    nominal_disturbance,
    published_gains,
    reference_spline,
    simulate_tracking,
    stack_params,
    traces_to_csv,
    tracking_errors,
    _RadauIIA,
    _ReferenceRows,
    _perturbed,
)
from emlaopt.bspline import clamped_knots
from emlaopt.drivetrain import equivalent_params
from emlaopt.pmsm import torque_to_iq
from emlaopt.trajopt import TrajectoryResult
from conftest import constant_pose_reference
from oracles import adaptive_rate, emla_rhs

# the stored 5x5 grid winner of the benchmark's inputs
WINNER = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "winner_bilevel.json"


def law(delta, eps, phi, q_err):
    """The subsystem feedback kappa = -(delta + eps*phi)/2 * Q, written out."""
    return -(delta + eps * phi) / 2 * q_err


def float_record(act, gains):
    """closed_loop's record of actuator ``act`` under ``gains`` as Python
    floats, its plant the nominal one."""
    motor = stack_params([act.motor])
    eq = equivalent_params(stack_params([act.drivetrain]))
    return loop_record([gains], eq.load_ratio, motor, motor, eq)[:, 0].tolist()


def at_rest_reference(act, gains, x=(0.0, 0.0, 0.0, 0.0), phi=(0.0, 0.0, 0.0, 0.0)):
    """closed_loop at state ``x`` = [theta, omega, i_q, i_d] and estimates
    ``phi`` against a reference at rest at zero: then Q1 = f_eq*theta, Q2 =
    f_eq*omega - kappa_1 and Q4 = i_d; with theta = omega = 0 also Q3 = i_q."""
    return closed_loop(float_record(act, gains), x, phi, (0.0, 0.0, 0.0))


def test_control_law_published_gain_value(acts):
    # delta = 75000, eps = 9, phi = 0, Q = 1e-3 -> kappa = -37.5, for the
    # current subsystems' feedback, the voltages
    q_err, (v_d, v_q, _), _, _ = at_rest_reference(acts[0], published_gains(),
                                                      x=(0.0, 0.0, 1e-3, 1e-3))
    assert q_err[2:] == (1e-3, 1e-3)
    assert v_d == pytest.approx(-37.5) and v_q == pytest.approx(-37.5)


def test_control_law_dissipative_sign(acts):
    rng = np.random.default_rng(1)
    g = SubsystemGains(100.0, 2.0, 7.0, 9.0)
    for _ in range(50):
        theta, i_q, i_d = rng.standard_normal(3)
        phi = np.abs(rng.standard_normal(4))
        (q1, q2, q3, q4), (v_d, v_q, _), _, _ = at_rest_reference(
            acts[0], g, x=(theta, 0.0, i_q, i_d), phi=phi)
        # at omega = qd_ref = 0 the velocity error is -kappa_1 exactly
        for kappa, nu, q in ((-q2, 0, q1), (v_q, 2, q3), (v_d, 3, q4)):
            assert kappa == law(100.0, 2.0, phi[nu], q)
            assert kappa * q <= 0.0


def test_adaptive_pure_decay_rate(acts):
    # with Q = 0 the estimate decays at k*sigma = 63 per second
    phi = np.array([1.0, 0.25, 2.0, 0.0])
    q_err, *_, rates = at_rest_reference(acts[0], published_gains(), phi=phi)
    assert q_err == (0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(rates, -63.0 * phi)


def test_adaptive_fixed_point(acts):
    # the rate vanishes at phi* = eps Q^2 / (2 sigma), and pulls toward it;
    # i_d = 0.4 makes Q4 = 0.4 the only error
    k, sigma, eps = 7.0, 9.0, 9.0
    q0 = 0.4
    target = eps * q0**2 / (2 * sigma)

    def rate(phi4):
        q_err, *_, rates = at_rest_reference(acts[0], SubsystemGains(75000.0, eps, k, sigma),
                                             x=(0.0, 0.0, 0.0, q0), phi=(0.0, 0.0, 0.0, phi4))
        assert q_err == (0.0, 0.0, 0.0, q0)
        return rates[3]

    assert rate(target) == pytest.approx(0.0, abs=1e-15)
    assert rate(0.5 * target) > 0.0
    assert rate(2.0 * target) < 0.0


def test_adaptive_nonnegative(acts):
    # phi = 0 never has a negative rate, so phi >= 0 is forward invariant;
    # above zero the error term only slows the decay.  One call on arrays of
    # 500 states evaluates closed_loop at each
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 500)) * np.array([[1e-3], [1e-2], [1.0], [1.0]])
    phi = rng.exponential(1.0, (4, 500))
    g = SubsystemGains(75000.0, 9.0, 7.0, 9.0)
    q_err, *_, rates = at_rest_reference(acts[0], g, x=x, phi=np.zeros((4, 500)))
    assert np.all(np.abs(q_err) > 0.0)
    assert np.all(np.array(rates) >= 0.0)
    rates = at_rest_reference(acts[0], g, x=x, phi=phi)[-1]
    assert np.all(np.array(rates) >= -63.0 * phi)


def test_gains_validation():
    with pytest.raises(ValueError):
        SubsystemGains(delta=[1, 1, 1, -1], epsilon=1, k=1, sigma=1)
    g = published_gains()
    assert np.all(g.delta == 75000.0) and np.all(g.k * g.sigma == 63.0)


def test_regulation_lyapunov_strictly_decreasing(regulation_traces, acts):
    audit = lyapunov_audit(regulation_traces, [published_gains()] * 3)
    assert audit["zeta"] == 63.0
    assert audit["strictly_decreasing"]
    assert audit["zeta_fit"] > 0.0
    # the decay window spans well past the initial transient
    assert np.all(np.diff(regulation_traces.lyapunov[:50]) < 0)


def test_run_without_initial_error_has_no_decay_to_audit(regulation_traces):
    # a run that starts on its reference has V(0) = 0, so V can only rise
    # at first: the decay fit and the strict-descent flag are undefined
    # there, not a failure, while the analytic zeta still holds
    v = regulation_traces.lyapunov.copy()
    v[0] = 0.0
    audit = lyapunov_audit(replace(regulation_traces, lyapunov=v), [published_gains()] * 3)
    assert audit["zeta_fit"] is None and audit["strictly_decreasing"] is None
    assert audit["zeta"] == 63.0


def decay_audit(times, v):
    """``lyapunov_audit``'s two fitted figures by their definition: the decay
    window runs from the start while V falls, over at least two samples;
    its positive samples are fitted, and it is strictly decreasing or not."""
    if v[0] == 0.0:
        return None, None
    end = 1
    while end < len(v) and v[end] < v[end - 1]:
        end += 1
    window = list(zip(times, v))[:max(end, 2)]
    kept = [(t, x) for t, x in window if x > 0.0]
    zeta_fit = 0.0
    if len(kept) >= 2:
        t_kept, v_kept = (np.array(c) for c in zip(*kept))
        zeta_fit = -float(np.polyfit(t_kept, np.log(v_kept), 1)[0])
    strictly = all(b < a for (_, a), (_, b) in zip(window, window[1:]))
    return zeta_fit, strictly


# V's step factors: 0 drops V to zero, 1 is a plateau, 2 a rise
V_FACTORS = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 1.5))


@settings(max_examples=300, deadline=None)
@given(v0=st.one_of(st.just(0.0), st.floats(1e-12, 1e3)),
       factors=st.lists(V_FACTORS, min_size=1, max_size=12),
       steps=st.lists(st.floats(1e-4, 1.0), min_size=12, max_size=12))
@example(v0=1.0, factors=[1.0, 0.5], steps=[0.1] * 12)  # a plateau at once
@example(v0=1.0, factors=[0.5, 0.0, 0.0], steps=[0.1] * 12)  # a zero ends the window
@example(v0=1.0, factors=[2.0, 0.5, 0.5], steps=[0.1] * 12)  # a rise at once: 2 samples
@example(v0=0.0, factors=[1.0, 2.0], steps=[0.1] * 12)  # V(0) = 0
@example(v0=1.0, factors=[0.9] * 12, steps=[1e-4, 1.0] * 6)  # falls throughout
def test_audit_window_follows_its_definition(v0, factors, steps):
    # the audit finds the window's end in one np.diff and reads the first
    # step for strictly_decreasing; the plain loop above is its definition
    v = np.cumprod([v0, *factors])
    times = np.concatenate([[0.0], np.cumsum(steps[:len(factors)])])
    traces = SimpleNamespace(times=times, lyapunov=v)
    audit = lyapunov_audit(traces, [published_gains()] * 3)
    zeta_fit, strictly = decay_audit(times.tolist(), v.tolist())
    assert repr(audit) == repr({"zeta": 63.0, "zeta_fit": zeta_fit,
                                "strictly_decreasing": strictly})


def test_lyapunov_value_reevaluation(regulation_traces):
    v = lyapunov_value(regulation_traces, [published_gains()] * 3)
    assert np.array_equal(regulation_traces.lyapunov, v)


def test_zero_reference_zero_error_stays_at_rest(acts):
    reference = constant_pose_reference(duration=0.05)
    tr = simulate_tracking(acts, reference, [published_gains()] * 3, disturbance=None,
                           dt=1e-3, rtol=1e-8, atol=1e-14)
    assert np.abs(tr.q_err).max() < 1e-10
    assert np.abs(tr.i_q).max() < 1e-10
    assert np.abs(tr.lyapunov).max() < 1e-20


@pytest.mark.parametrize("duration", [0.0, -0.5])
def test_nonpositive_duration_rejected(acts, duration):
    # a negative duration left the output grid empty: an IndexError
    with pytest.raises(ValueError, match="duration must be > 0"):
        simulate_tracking(acts, constant_pose_reference(duration=1.0), [published_gains()] * 3,
                          duration=duration)


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_nonpositive_dt_rejected(acts, dt):
    # dt = 0 ended in a ZeroDivisionError and a negative dt in an IndexError
    with pytest.raises(ValueError, match="dt must be > 0"):
        simulate_tracking(acts, constant_pose_reference(duration=1.0), [published_gains()] * 3,
                          dt=dt)


@st.composite
def reference_cases(draw):
    """(degree, t_final, control points, collocation instants, forces,
    sample times) of a reference trajectory."""
    degree = draw(st.integers(2, 5))
    n_ctrl = degree + 1 + draw(st.integers(0, 10))
    t_final = draw(st.floats(0.01, 20.0))
    n_times = draw(st.integers(3, 60))
    ctrl = draw(arrays(float, (n_ctrl, 3), elements=st.floats(-2.0, 2.0)))
    # uniform instants, as the transcription makes them, or spacings that
    # differ up to 20x
    gaps = np.ones(n_times - 1) if draw(st.booleans()) else draw(
        arrays(float, n_times - 1, elements=st.floats(0.05, 1.0)))
    times = t_final * np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    times[-1] = t_final
    f_x = draw(arrays(float, (n_times, 3), elements=st.floats(-5e4, 5e4)))
    t = draw(arrays(float, 20, elements=st.floats(0.0, t_final)))
    return degree, t_final, ctrl, times, f_x, t


# a draw that failed under a bound of 1e-12 of the peak alone: zero control
# points and every force 5e-324, where the two force interpolants differ by
# one subnormal ulp and 1e-12 of the peak rounds to zero
SUBNORMAL_FORCES = (2, 2.0, np.zeros((3, 3)), np.linspace(0.0, 2.0, 4),
                    np.full((4, 3), 5e-324), np.ones(20))


@settings(max_examples=100, deadline=None)
@given(case=reference_cases())
@example(case=SUBNORMAL_FORCES)
def test_reference_spline_matches_its_three_splines(case):
    # the stacked spline must reproduce the trajectory spline, its derivative
    # and the natural cubic force interpolant it replaces, column by column,
    # to 1e-12 of each column's peak or the smallest normal float
    from scipy.interpolate import BSpline, CubicSpline

    degree, t_final, ctrl, times, f_x, t = case
    rows = np.zeros((len(times), 3))  # one row per instant, as a result holds them
    ref = replace(constant_pose_reference(duration=t_final), control_points=ctrl,
                  degree=degree, times=times, q=rows, qd=rows, qdd=rows, v_x=rows, f_x=f_x,
                  power=rows)
    q = BSpline(clamped_knots(len(ctrl), degree) * t_final, ctrl, degree)
    f = CubicSpline(times, f_x, bc_type="natural")

    def columns(t):
        return np.hstack((q(t), q.derivative()(t), f(t)))

    peak = np.abs(columns(np.linspace(0.0, t_final, 2001))).max(axis=0)
    bound = np.maximum(1e-12 * peak, np.finfo(float).tiny)
    assert np.all(np.abs(reference_spline(ref)(t) - columns(t)) <= bound)


def test_reference_spline_of_a_held_pose_has_zero_rate():
    ref = constant_pose_reference(duration=0.01, pose=[0.8, 0.5, 0.3],
                                  force=[2000.0, 1500.0, 400.0])
    t = np.linspace(0.0, 0.01, 1001)
    assert np.all(reference_spline(ref)(t)[:, 3:6] == 0.0)


def loaded_pose_run(acts, disturbance):
    """A short run holding a pose against a load, under ``disturbance``."""
    reference = constant_pose_reference(duration=0.01, pose=[0.8, 0.5, 0.3],
                                        force=[2000.0, 1500.0, 400.0])
    return simulate_tracking(acts, reference, [published_gains()] * 3,
                             disturbance=disturbance, dt=5e-4)


@pytest.fixture(scope="module")
def nominal_traces(acts):
    return loaded_pose_run(acts, nominal_disturbance())


def test_traces_obey_control_law(acts, nominal_traces):
    # every output sample satisfies the cascade the simulation integrates
    tr, g = nominal_traces, published_gains()
    # Q2 is the velocity error offset by the position's virtual control; the
    # reference columns hold the trajectory samples verbatim at the
    # collocation instants, the controller the spline: they agree to rounding
    kappa_1 = law(g.delta[0], g.epsilon[0], tr.phi[..., 0], tr.q_err[..., 0])
    assert np.allclose(tr.q_err[..., 1], tr.velocity - tr.velocity_ref - kappa_1,
                       rtol=1e-9, atol=1e-14 * np.abs(kappa_1).max())
    assert np.abs(tr.q_err[..., 2]).max() > 1e-4  # the current loops are working
    for nu, v in ((2, tr.v_q), (3, tr.v_d)):
        kappa = law(g.delta[nu], g.epsilon[nu], tr.phi[..., nu], tr.q_err[..., nu])
        assert np.allclose(v, kappa, rtol=1e-12, atol=0.0)
    # the velocity loop's torque command is the i_q reference, i_q - Q3
    for j, a in enumerate(acts):
        torque = law(g.delta[1], g.epsilon[1], tr.phi[:, j, 1], tr.q_err[:, j, 1])
        assert np.allclose(tr.i_q[:, j] - tr.q_err[:, j, 2], torque_to_iq(a.motor, torque),
                           rtol=1e-12, atol=1e-12)
    assert np.array_equal(tr.q_err[..., 3], tr.i_d)


def test_load_pulse_reconverges(acts):
    # constant pose with a transient load-force pulse mid-run
    reference = constant_pose_reference(duration=1.0)
    k_step = len(reference.times) // 2
    reference.f_x[k_step: k_step + 4] = np.array([2000.0, 1500.0, 400.0])
    tr = simulate_tracking(acts, reference, [published_gains()] * 3, disturbance=None,
                           dt=2e-3, rtol=1e-7, atol=1e-12)
    t_step = reference.times[k_step]
    before = np.abs(tr.q_err[(tr.times > t_step - 0.1) & (tr.times < t_step - 0.02)]).max()
    during = np.abs(tr.q_err[(tr.times >= t_step - 0.02) & (tr.times < t_step + 0.15)]).max()
    after = np.abs(tr.q_err[tr.times > t_step + 0.35]).max()
    assert during > 5 * before  # the pulse visibly excites the errors
    assert after < 0.1 * during  # and the controller pulls them back down


def reference_traces_csv(traces):
    """The per-row writer the array writer replaced, kept as its oracle."""
    n_a = traces.velocity.shape[1]
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


@pytest.mark.parametrize("dt, duration", [(0.3, 1.0), (1.0, 0.4)])
def test_traces_end_at_duration(acts, dt, duration):
    # dt does not divide duration: the regular samples stopped short of it
    # (at 0.9 s and at the 0.213 s collocation instant), though Radau
    # integrated to the end
    reference = TrajectoryResult.from_dict(json.loads(WINNER.read_text())["trajectory"])
    traces = simulate_tracking(acts, reference, [published_gains()] * 3,
                               disturbance=nominal_disturbance(), dt=dt, duration=duration)
    assert traces.times[-1] == duration
    assert len(traces.lyapunov) == len(traces.times)
    # the last regular sample moved onto duration: no near-duplicate of it
    regular = np.setdiff1d(traces.times, reference.times)
    assert np.all(np.diff(regular) > 0.5 * dt)


def test_force_figure_measures_tracking_not_the_skew(acts):
    # force_em was the shaft current rated with the nominal motor, so a
    # plant skew s read as a force error of about s per joint: on the
    # stored winner's first second with 2% noise (seed 8) force_rms_frac
    # went from 2.4/8.7/3.3% at s = 0 to 60.9/61.2/61.7% at s = 0.6.  Rated
    # with the plant's own constants it reads 3.0/9.1/4.5% at s = 0.6
    reference = TrajectoryResult.from_dict(json.loads(WINNER.read_text())["trajectory"])
    gains = [published_gains()] * 3

    def run(skew):
        return simulate_tracking(acts, reference, gains, duration=1.0,
                                 disturbance=DisturbanceProfile(0.02, skew, 8))

    skewed = run(0.6)
    figure = tracking_errors(skewed)["force_rms_frac"]
    undisturbed = tracking_errors(run(0.0))["force_rms_frac"]
    assert np.all(np.abs(np.subtract(figure, undisturbed)) <= 0.015), (figure, undisturbed)
    # force_em is the torque closed_loop integrates, over f_eq, bit for bit
    motor = stack_params([a.motor for a in acts])
    drive = stack_params([a.drivetrain for a in acts])
    plant, plant_drive = _perturbed(motor, drive, 0.6)
    f_eq = equivalent_params(drive).load_ratio
    record = loop_record(gains, f_eq, motor, plant, equivalent_params(plant_drive))
    zero = np.zeros_like(skewed.i_q)
    _, (_, _, tau), _, _ = closed_loop(record, (zero, zero, skewed.i_q, skewed.i_d),
                                       [zero] * 4, [zero] * 3)
    assert np.array_equal(bits(skewed.force_em), bits(tau / f_eq))


@pytest.mark.parametrize("field, value", [
    ("force_noise_std", -0.5), ("force_noise_std", np.nan), ("force_noise_std", np.inf),
    ("param_perturbation", -1.0), ("param_perturbation", -2.0), ("param_perturbation", np.nan),
    ("param_perturbation", np.inf)])
def test_disturbance_profile_rejects_bad_values(field, value):
    # a negative noise level made the audit's disturbance bound negative,
    # and a skew of -1 divided the plant's flux by zero
    with pytest.raises(ValueError, match=f"^{field} must be finite and "):
        DisturbanceProfile(**{field: value})


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


def ramp_reference():
    """A 1 s ramp between two loaded poses."""
    reference = constant_pose_reference(duration=1.0, pose=[0.8, 0.5, 0.3],
                                        force=[2000.0, 1500.0, 400.0])
    reference.control_points = np.linspace([0.8, 0.5, 0.3], [0.9, 0.45, 0.5], 8)
    return reference


def captured_solve_ivp(acts, disturbance, gains=None):
    """The arguments simulate_tracking hands to solve_ivp for
    :func:`ramp_reference` (the published gains when ``gains`` is None):
    ``fun``, ``y0`` and the options."""
    reference = ramp_reference()
    gains = [published_gains()] * 3 if gains is None else gains
    seen = {}

    def capture(fun, t_span, y0, **kwargs):
        seen.update(kwargs, fun=fun, y0=y0)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("emlaopt.control.solve_ivp", capture)
        with pytest.raises(_Captured):
            simulate_tracking(acts, reference, gains, disturbance=disturbance)
    return seen


def captured_closed_loop(acts, disturbance, gains=None):
    """The right-hand side, Jacobian and initial state that simulate_tracking
    hands to Radau for :func:`ramp_reference`."""
    seen = captured_solve_ivp(acts, disturbance, gains)
    return seen["fun"], seen["jac"], seen["y0"]


# without and with the force noise and the plant skew: the rhs branches on
# force_noise_std
DISTURBANCES = (DisturbanceProfile(), nominal_disturbance())


# every gain differs between joints and subsystems, so that one read from
# the wrong joint or subsystem shows
MIXED_GAINS = [SubsystemGains(delta=75000.0 * s * w, epsilon=9.0 * s * w, k=7.0 * s * w,
                              sigma=9.0 * s / w)
               for s, w in ((1.0, np.array([1.0, 0.9, 0.8, 0.7])),
                            (1.3, np.array([0.7, 1.1, 0.9, 1.2])),
                            (0.8, np.array([1.2, 0.8, 1.1, 0.9])))]


@pytest.fixture(scope="module")
def closed_loops(acts):
    """Captured loops by (mixed, disturbed): the published gains, equal across
    joints and subsystems, or :data:`MIXED_GAINS`."""
    return {(mixed, disturbed): captured_closed_loop(acts, d, MIXED_GAINS if mixed else None)
            for mixed in (False, True) for disturbed, d in zip((False, True), DISTURBANCES)}


def central_differences(rhs, t, y):
    """The Jacobian of ``rhs`` at (t, y) by central differences, one column
    per state with a step of 1e-4 of its magnitude (at least 1e-4)."""
    fd = np.empty((len(y), len(y)))
    for k in range(len(y)):
        step = np.zeros_like(y)
        step[k] = 1e-4 * max(1.0, abs(y[k]))
        fd[:, k] = (rhs(t, y + step) - rhs(t, y - step)) / (2.0 * step[k])
    return fd


def row_error(exact, fd):
    """Each row's largest deviation, relative to the row's largest entry."""
    return np.abs(exact - fd).max(axis=1) / np.abs(exact).max(axis=1)


@settings(max_examples=60, deadline=None)
@given(
    mixed=st.booleans(),
    disturbed=st.booleans(),
    t=st.floats(0.0, 1.0),
    angle_error=arrays(float, 3, elements=st.floats(1e-3, 1.0)),
    angle_sign=arrays(bool, 3),
    deviation=arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)),
    phi=arrays(float, (3, 4), elements=st.floats(0.0, 10.0)),
)
def test_closed_loop_jacobian_matches_central_differences(
        closed_loops, mixed, disturbed, t, angle_error, angle_sign, deviation, phi):
    # the closed loop is at most quadratic along every single coordinate,
    # so central differences are exact up to rounding.  The shaft angle is
    # drawn at least 0.04 rad off the start state, which is on the
    # reference: there Q is zero to rounding, and the rows eps*k*Q*dQ of the
    # estimates are set by that rounding amplified by the gain products
    # (~1e18), which neither side resolves.
    rhs, jac, y0 = closed_loops[mixed, disturbed]
    # shaft angle [rad], shaft speed [rad/s], i_q and i_d [A] off the start state
    off = np.vstack((np.where(angle_sign, 40.0, -40.0) * angle_error,
                     np.array([[1000.0], [50.0], [5.0]]) * deviation))
    y = np.concatenate(((y0[:12].reshape(4, 3) + off).ravel(), phi.ravel()))
    exact = jac(t, y)
    assert row_error(exact, central_differences(rhs, t, y)).max() <= 1e-7
    # the shaft is rigid: no shaft's acceleration depends on a shaft angle
    assert np.all(exact[3:6, :3] == 0.0)


def test_jacobian_follows_the_loop(acts):
    # a shaft spring put into the loop reaches the Jacobian with no edit to
    # it: the rhs and the Jacobian both call closed_loop, looked up when
    # they run, and the Jacobian is its complex-step derivative
    def sprung(actuator, x, phi, ref):
        *out, (dtheta, domega, di_q, di_d), rates = closed_loop(actuator, x, phi, ref)
        return (*out, (dtheta, domega - 50.0 * x[0], di_q, di_d), rates)

    # a state off the reference, as in the central-difference test above
    off = np.array([[20.0, -15.0, 30.0], [500.0, -300.0, 200.0], [25.0, -10.0, 40.0],
                    [3.0, -2.0, 1.0]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("emlaopt.control.closed_loop", sprung)
        rhs, jac, y0 = captured_closed_loop(acts, nominal_disturbance())
        y = np.concatenate(((y0[:12].reshape(4, 3) + off).ravel(), np.full(12, 1.0)))
        exact, fd = jac(0.4, y), central_differences(rhs, 0.4, y)
    assert row_error(exact, fd).max() <= 1e-7
    # each shaft's acceleration now depends on its own shaft angle
    assert np.all(np.diag(exact[3:6, :3]) != 0.0)


def oracle_rhs(acts, reference, gains, disturbance):
    """The closed-loop right-hand side composed on (n_a,) arrays: the four
    subsystem errors and their feedback :func:`law`, both written out here,
    -> torque_to_iq -> emla_rhs and adaptive_rate, with the noise tones
    drawn and summed as written, 2*pi*f*t in full.  simulate_tracking's rhs
    runs the same operations per actuator on Python floats."""
    n_a = len(acts)
    ref = reference_spline(reference)
    motor = stack_params([a.motor for a in acts])
    drive = stack_params([a.drivetrain for a in acts])
    skew = 1.0 + disturbance.param_perturbation
    plant_motor = replace(motor, stator_resistance=motor.stator_resistance * skew,
                          pm_flux=motor.pm_flux / skew)
    plant_eq = equivalent_params(replace(drive, motor_inertia=drive.motor_inertia * skew,
                                         viscous_motor=drive.viscous_motor * skew))
    f_eq = equivalent_params(drive).load_ratio
    delta, eps, kk, sig = (np.stack([getattr(g, a) for g in gains], axis=1)
                           for a in ("delta", "epsilon", "k", "sigma"))
    rng = np.random.default_rng(disturbance.seed)
    n = NOISE_TONES
    rows = [(rng.uniform(*NOISE_BAND_HZ, n), rng.uniform(0.0, 2.0 * np.pi, n),
             rng.uniform(0.5, 1.0, n)) for _ in range(n_a)]
    freq, phase, amp = (np.array(r) for r in zip(*rows))
    amp /= np.sqrt(0.5 * np.sum(amp**2, axis=-1, keepdims=True))
    peak_force = np.abs(reference.f_x).max(axis=0)

    def rhs(t, y):
        x = y[:4 * n_a].reshape(4, n_a)[::-1]  # [i_d, i_q, omega, theta]
        phi = y[4 * n_a:].reshape(n_a, 4).T
        q_ref, qd_ref, f_load = ref(min(max(t, 0.0), reference.t_final)).reshape(3, n_a)
        i_d, i_q, omega, theta = x
        q1 = f_eq * theta - q_ref
        q2 = f_eq * omega - qd_ref - law(delta[0], eps[0], phi[0], q1)
        iq_ref = torque_to_iq(motor, law(delta[1], eps[1], phi[1], q2))
        q3 = i_q - iq_ref
        q4 = i_d - 0.0
        v_q = law(delta[2], eps[2], phi[2], q3)
        v_d = law(delta[3], eps[3], phi[3], q4)
        if disturbance.force_noise_std:
            noise = np.sum(amp * np.sin(2.0 * np.pi * freq * t + phase), axis=-1)
            f_load = f_load + disturbance.force_noise_std * peak_force * noise
        dx = emla_rhs(plant_motor, plant_eq, x, (v_d, v_q), f_load)
        rates = adaptive_rate(kk, sig, eps, phi, np.array((q1, q2, q3, q4)))
        return np.concatenate((dx[::-1], rates.T), axis=None)

    return rhs


@pytest.fixture(scope="module")
def rhs_and_oracles(acts):
    return [(captured_closed_loop(acts, d, MIXED_GAINS)[::2],
             oracle_rhs(acts, ramp_reference(), MIXED_GAINS, d)) for d in DISTURBANCES]


@settings(max_examples=60, deadline=None)
@given(
    disturbed=st.booleans(),
    t=st.floats(-0.1, 1.1),
    off=arrays(float, 12, elements=st.floats(-100.0, 100.0)),
    phi=arrays(float, 12, elements=st.floats(0.0, 10.0)),
)
def test_rhs_matches_its_array_oracle(rhs_and_oracles, disturbed, t, off, phi):
    # bit for bit: the same IEEE operations in the same order, on floats
    (rhs, y0), oracle = rhs_and_oracles[disturbed]
    y = np.concatenate((y0[:12] + off, phi))
    assert np.array_equal(rhs(t, y), oracle(t, y))


class ComplexQuotient(float):
    """A float divisor by which a quotient a / b rounds as NumPy rounds the
    real part of a complex quotient whose imaginary parts are zero:
    a * (1 / b) (Smith's algorithm), one rounding more than a / b.  As the
    right operand of a float's ``/`` it takes over; every other operation
    is a float's."""

    def __rtruediv__(self, other):
        return other * (1.0 / float(self))


def loop_values(out):
    """closed_loop's 15 returned values, stacked: an array of shape (15,)
    from floats, or (15, n) from arrays of n."""
    q_err, drive, x_rates, rates = out
    return np.array([*q_err, *drive, *x_rates, *rates])


# per actuator: theta, omega, i_q, i_d; q_ref, qd_ref, f_load
STATE_SCALE = np.array([[2000.0], [300.0], [20.0], [20.0]])
REF_SCALE = np.array([[1.0], [0.5], [4e4]])


@settings(max_examples=60, deadline=None)
@given(
    x=arrays(float, (4, 3), elements=st.floats(-1.0, 1.0)),
    phi=arrays(float, (4, 3), elements=st.floats(0.0, 10.0)),
    ref=arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)),
)
def test_closed_loop_rounds_floats_and_arrays_alike(acts, x, phi, ref):
    # one implementation for all three callers: the rhs on each actuator's
    # record as floats, the traces on arrays and the Jacobian on complex
    # arrays, under mixed gains and the skewed plant
    motor = stack_params([a.motor for a in acts])
    drive = stack_params([a.drivetrain for a in acts])
    plant, plant_drive = _perturbed(motor, drive, nominal_disturbance().param_perturbation)
    record = loop_record(MIXED_GAINS, equivalent_params(drive).load_ratio, motor, plant,
                         equivalent_params(plant_drive))
    x, ref = STATE_SCALE * x, REF_SCALE * ref
    columns = [[c[:, j].tolist() for c in (x, phi, ref)] for j in range(3)]
    floats = np.stack([loop_values(closed_loop(loop, *column))
                       for loop, column in zip(record.T.tolist(), columns)], axis=1)
    # column j of the stacked record gives actuator j's bits
    assert np.array_equal(bits(loop_values(closed_loop(record, x, phi, ref))), bits(floats))
    # a zero imaginary part stays zero, and the real part is the floats'
    # value, every quotient a / b rounded as a complex one, a * (1 / b)
    z = loop_values(closed_loop(record, x + 0j, phi + 0j, ref + 0j))
    assert np.all(z.imag == 0.0)
    rounded = np.stack([loop_values(closed_loop(list(map(ComplexQuotient, loop)), *column))
                        for loop, column in zip(record.T.tolist(), columns)], axis=1)
    assert np.array_equal(z.real, rounded)


def test_rhs_call_budget(acts):
    """One rhs evaluation at a prefetched instant, as Radau makes it, may
    make at most 5 Python calls on three actuators (the rhs, the reference
    row lookup and closed_loop once per actuator; the plant helpers made it
    17) and 3 builtin ones (the state's ``tolist``, the row's ``dict.get``
    and the result's ``np.array``), so no helper call creeps back into
    the loop."""
    seen = captured_solve_ivp(acts, nominal_disturbance(), MIXED_GAINS)
    rhs, y = seen["fun"], seen["y0"] + 0.5
    seen["prefetch"]([0.25, 0.5, 0.75])
    expected = rhs(0.5, y)
    calls, builtins = [], []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and arg is not sys.setprofile:
            builtins.append(arg.__name__)

    sys.setprofile(profile)
    try:
        counted = rhs(0.5, y)
    finally:
        sys.setprofile(None)
    assert 0 < len(calls) <= 5, calls
    assert len(builtins) <= 3, builtins
    assert np.array_equal(counted, expected)


def stock_radau(fun, t_span, y0, method, steps, prefetch=None, **options):
    """solve_ivp with SciPy's own Radau, its accepted steps counted by a
    never-firing event, which is checked at t0 and after each of them.
    ``prefetch`` is dropped: SciPy's Radau warns about an option it does not
    take."""
    checks = []

    def count_step(t, y):
        checks.append(t)
        return 1.0

    sol = solve_ivp(fun, t_span, y0, method="Radau", events=count_step, **options)
    steps += checks[1:]
    return sol


def test_radau_subclass_takes_stock_radau_steps(acts):
    # 0.5 s of the stored grid winner: the start-up transient, whose steps
    # stay under the cap, then steps at the cap, where SciPy factors the
    # same matrices again.  Cached factors change no step, stage value or
    # trace, only nlu
    reference = TrajectoryResult.from_dict(json.loads(WINNER.read_text())["trajectory"])

    def run():
        return simulate_tracking(acts, reference, [published_gains()] * 3,
                                 disturbance=nominal_disturbance(), duration=0.5)

    cached = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("emlaopt.control.solve_ivp", stock_radau)
        stock = run()
    for f in fields(TrackingTraces):
        if f.name != "solver":
            assert np.array_equal(getattr(cached, f.name), getattr(stock, f.name)), f.name
    solver = dict(cached.solver, nlu=stock.solver["nlu"])
    assert solver == stock.solver
    assert cached.solver["nsteps"] > 0
    assert cached.solver["nlu"] < stock.solver["nlu"]


# Van der Pol at mu = 1e3 (Hairer & Wanner II, Sec. IV.1): stiff relaxation
# oscillations whose fast jumps make Radau fail Newton iterations, halve
# and reject steps
VDP_MU = 1e3


def vdp(t, y):
    return np.array([y[1], VDP_MU * (1 - y[0] ** 2) * y[1] - y[0]])


def vdp_jac(t, y):
    return np.array([[0.0, 1.0], [-2 * VDP_MU * y[0] * y[1] - 1.0, VDP_MU * (1 - y[0] ** 2)]])


def lines_run(code, run):
    """``run()`` and the line numbers it executed in ``code``."""
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, hit


def test_radau_iia_takes_stock_radau_steps_on_a_stiff_problem():
    # the branches the closed loop may never reach, each named by its line
    branches = {"Newton failure refreshes J": "J = self._jacobian(t, y)",
                "step halving": "h_abs *= 0.5",
                "rejected step re-estimated": "b = self._eval(t, y + error) + ZE",
                "last step clipped to t_bound": "t_new = self.t_bound"}
    source, first = inspect.getsourcelines(_RadauIIA._step_impl)
    line = {name: first + next(i for i, text in enumerate(source) if snippet in text)
            for name, snippet in branches.items()}
    options = dict(t_span=(0.0, 3000.0), y0=[2.0, 0.0], t_eval=np.linspace(0.0, 3000.0, 11),
                   rtol=1e-3, atol=1e-5, jac=vdp_jac)
    steps = []
    sol, hit = lines_run(_RadauIIA._step_impl.__code__, lambda: solve_ivp(
        vdp, method=_RadauIIA, steps=steps, **options))
    stock_steps = []
    stock = stock_radau(vdp, method="Radau", steps=stock_steps, **options)
    assert {name: line[name] in hit for name in branches} == dict.fromkeys(branches, True)
    assert sol.success and stock.success
    assert np.array_equal(sol.t, stock.t) and np.array_equal(sol.y, stock.y)
    assert (sol.nfev, sol.njev) == (stock.nfev, stock.njev)
    assert steps == stock_steps
    assert sol.nlu <= stock.nlu


def integrate(method, fun, jac, **options):
    """solve_ivp of ``fun`` from y = [1] over (0, 0.01) by ``method``."""
    extra = {"steps": []} if method is _RadauIIA else {}
    return solve_ivp(fun, (0.0, 0.01), [1.0], method=method, jac=jac, **extra, **options)


@pytest.mark.parametrize("method", [_RadauIIA, "Radau"], ids=["RadauIIA", "stock"])
def test_exactly_singular_iteration_matrix_warns(method):
    # y' = lam y with lam = MU_REAL / h: the first real iteration matrix
    # MU_REAL / h - lam is exactly zero
    h = 1e-3
    lam = MU_REAL / h
    with pytest.warns(LinAlgWarning, match="exactly zero"):
        integrate(method, lambda t, y: lam * y, lambda t, y: np.array([[lam]]), first_step=h)


@pytest.mark.parametrize("method", [_RadauIIA, "Radau"], ids=["RadauIIA", "stock"])
def test_non_finite_iteration_matrix_raises(method):
    with pytest.raises(ValueError, match="infs or NaNs"):
        integrate(method, lambda t, y: -y, lambda t, y: np.array([[np.nan]]))


@pytest.mark.parametrize("method", [_RadauIIA, "Radau"], ids=["RadauIIA", "stock"])
def test_non_finite_right_hand_side_raises(method):
    # the derivative at t0, the first call, is NaN: the first error
    # estimate solves the iteration matrix against f + ZE
    calls = []

    def fun(t, y):
        calls.append(t)
        return np.full(1, np.nan) if len(calls) == 1 else -y

    with pytest.raises(ValueError, match="infs or NaNs"):
        integrate(method, fun, lambda t, y: np.array([[-1.0]]), first_step=1e-3)


def bits(rows):
    return np.array(rows, dtype=float).view(np.int64)


@settings(max_examples=80, deadline=None)
@given(
    noise=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=4),
)
def test_prefetched_rows_are_the_per_instant_rows(noise, seed, times):
    # the ramp ends at 1 s: instants outside [0, 1] read the clamped spline
    # but the noise at the instant itself
    reference = ramp_reference()
    disturbance = DisturbanceProfile(force_noise_std=noise, seed=seed)
    per_instant = _ReferenceRows(reference, disturbance)
    expected = [per_instant(t) for t in times]
    rows = _ReferenceRows(reference, disturbance)
    rows.prefetch(times)
    assert set(rows.kept) == set(times)
    assert np.array_equal(bits([rows(t) for t in times]), bits(expected))
