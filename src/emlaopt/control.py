"""Robust decomposed tracking control of the EMLAs.

Each actuator is split into four cascaded subsystems (linear position,
linear velocity, q-axis current, d-axis current).  Every subsystem gets a
tracking error, a feedback law kappa = -(delta + eps*phi)/2 * Q, and a
first-order adaptive estimate phi of its disturbance bound.  The velocity
subsystem's error is offset by the position subsystem's virtual control;
the commanded torque is realized through the current loops with the d-axis
reference held at zero for maximum torque per ampere.

The closed loop (plant + adaptive states + continuous feedback) is stiff
at the published gains, so the simulation integrates the full ODE with an
implicit stiff solver rather than fixed explicit stepping.  Its right-hand
side is the tested pieces wired together over all actuators at once:
:func:`tracking_transform` and :func:`control_law` per subsystem,
:func:`~emlaopt.pmsm.torque_to_iq` for the current reference,
:func:`adaptive_rate` for the estimates and
:func:`~emlaopt.statespace.emla_rhs` for the plant.  Radau gets the exact
Jacobian of that right-hand side (one 8x8 block per actuator), not finite
differences, and reads the reference (q, qd and the load force) in one
spline call per evaluation (:func:`reference_spline`).

Radau's step is capped at :data:`RADAU_MAX_STEP`.  Longer steps make its
simplified Newton iteration fail even with a Jacobian evaluated at the
step's start: the cascade multiplies the predictor's error in the shaft
angle and speed, small on their own tolerance scale, by gains of about
1e6 A/rad into the current-loop error Q3 of the stage values, so the
estimate phi3, driven by (eps*k/2)*Q3^2 and held to atol, takes an
increment in the first iteration that the second takes back (rate near 1).
The row eps*k*Q3*dQ3 of the Jacobian is exact at the step's start but
says nothing about Q3 at those stage values.  No loop constant predicts
the cap (see the constant), so it is a measured one.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .drivetrain import DriveTrainParams, equivalent_params
from .effmap import EmlaModel
from .pmsm import PmsmParams, electromagnetic_torque, torque_to_iq
from .statespace import emla_rhs, stack_params
from .trajopt import TrajectoryResult

# Radau step cap [s], measured on the stored 5x5 grid winner (first 2 s,
# nominal disturbance with seed 8, rtol 1e-6, atol 1e-8).  Left free, Radau
# failed 1,846 of its 3,919 collocation solves, each at Newton iteration 2
# with a rate near 1 (median 0.99) and the telescope's phi3 dominating the
# increment, at steps of 1.2-14 ms.  Capped at 1 ms it fails 4 of 2,272,
# all in the start-up transient at steps under 0.2 ms.  On the first 0.3 s
# the failures per cap were 0 (0.8 ms), 2 (1 ms), 53 (1.2 ms) and 194
# (2 ms).  The failure-free cap follows no loop constant: it ignores sigma,
# and moves only from about 0.85 ms to about 1.4 ms as eps (so eps*k) goes
# from 4x to 1/4x the published value.
RADAU_MAX_STEP = 1e-3


@dataclass(frozen=True)
class SubsystemGains:
    """Per-subsystem gains (delta, epsilon, k, sigma), one entry per nu=1..4."""

    delta: np.ndarray
    epsilon: np.ndarray
    k: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("delta", "epsilon", "k", "sigma"):
            arr = np.broadcast_to(np.asarray(getattr(self, name), dtype=float), (4,)).copy()
            if np.any(arr <= 0):
                raise ValueError(f"{name} entries must be strictly positive")
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls, delta: float, epsilon: float, k: float, sigma: float) -> "SubsystemGains":
        return cls(np.full(4, delta), np.full(4, epsilon), np.full(4, k), np.full(4, sigma))


def published_gains() -> SubsystemGains:
    """The gain set used by the shipped 3-DoF case study."""
    return SubsystemGains.uniform(delta=75000.0, epsilon=9.0, k=7.0, sigma=9.0)


def tracking_transform(x, x_ref, kappa_prev, nu: int):
    """Subsystem error Q_nu; the velocity subsystem (nu=2) subtracts the
    position subsystem's virtual control."""
    if nu not in (1, 2, 3, 4):
        raise ValueError("nu must be in 1..4")
    if nu == 2:
        return x - x_ref - kappa_prev
    return x - x_ref


def control_law(delta: float, epsilon: float, phi: float, q_err: float):
    """kappa = -(delta + epsilon*phi)/2 * Q (dissipative for phi >= 0)."""
    return -0.5 * (delta + epsilon * phi) * q_err


def adaptive_rate(k: float, sigma: float, epsilon: float, phi: float, q_err):
    """phi_dot = -k*sigma*phi + (epsilon*k/2)|Q|^2.

    The rate is nonnegative at phi = 0, so a nonnegative estimate stays
    nonnegative under exact integration.
    """
    return -k * sigma * phi + 0.5 * epsilon * k * np.square(q_err)


@dataclass(frozen=True)
class DisturbanceProfile:
    """Load-force noise, plant parameter perturbation and sensor noise.

    ``force_noise_std`` scales band-limited noise relative to the peak
    reference force; ``param_perturbation`` multiplies the plant's
    resistance/inertia/damping style parameters by (1 + fraction);
    ``sensor_noise_std`` adds band-limited noise to the measured states
    (fractions of each signal's peak).  Everything is seeded.
    """

    force_noise_std: float = 0.0
    param_perturbation: float = 0.0
    sensor_noise_std: float = 0.0
    band_hz: tuple = (0.2, 8.0)
    n_tones: int = 24
    seed: int = 0

    def bound(self, peak_force: float) -> float:
        """Recorded sup-norm bound of the additive force disturbance."""
        return 3.0 * self.force_noise_std * peak_force


def nominal_disturbance() -> DisturbanceProfile:
    """Default study disturbance: 2% band-limited load noise, 5% parameter skew."""
    return DisturbanceProfile(force_noise_std=0.02, param_perturbation=0.05, seed=7)


class _ToneNoise:
    """Seeded sum-of-sines band-limited noise with unit standard deviation,
    one row of tones per channel."""

    def __init__(self, rng, band_hz, n_tones, n_channels):
        # each channel draws its frequencies, phases and amplitudes in turn
        rows = [
            (rng.uniform(band_hz[0], band_hz[1], n_tones),
             rng.uniform(0.0, 2.0 * np.pi, n_tones),
             rng.uniform(0.5, 1.0, n_tones))
            for _ in range(n_channels)
        ]
        self.freq, self.phase, self.amp = (np.array(r) for r in zip(*rows))
        self.amp /= np.sqrt(0.5 * np.sum(self.amp**2, axis=-1, keepdims=True))

    def __call__(self, t):
        """Noise of shape ``t.shape + (n_channels,)``."""
        t = np.asarray(t, dtype=float)
        return np.sum(
            self.amp * np.sin(2.0 * np.pi * self.freq * t[..., None, None] + self.phase),
            axis=-1,
        )


@dataclass
class TrackingTraces:
    """Dense closed-loop traces of one tracking run."""

    times: np.ndarray
    position: np.ndarray  # (n_t, n_a) load-side [m]
    velocity: np.ndarray
    position_ref: np.ndarray
    velocity_ref: np.ndarray
    i_q: np.ndarray
    i_d: np.ndarray
    i_q_ref: np.ndarray
    v_q: np.ndarray
    v_d: np.ndarray
    q_err: np.ndarray  # (n_t, n_a, 4)
    phi: np.ndarray  # (n_t, n_a, 4)
    force_em: np.ndarray  # electromagnetic force tau_m / f_eq
    force_ref: np.ndarray  # load-force reference from the trajectory
    lyapunov: np.ndarray
    gains: list
    disturbance: DisturbanceProfile
    solver: dict  # Radau status, message, nfev, njev, nlu, nsteps, max_step


def _perturbed(motor: PmsmParams, drivetrain: DriveTrainParams, fraction: float):
    """Plant-side parameter skew used to emulate model uncertainty."""
    f = 1.0 + fraction
    return (
        replace(motor, stator_resistance=motor.stator_resistance * f, pm_flux=motor.pm_flux / f),
        replace(drivetrain, motor_inertia=drivetrain.motor_inertia * f,
                viscous_motor=drivetrain.viscous_motor * f),
    )


def reference_spline(reference: TrajectoryResult):
    """One ``BSpline`` whose columns are [q, qd, f_x] of ``reference``.

    q is the trajectory's own spline, qd its derivative and f_x the natural
    cubic interpolant through the collocation forces.  All three lie in one
    spline space of degree max(p, 3): the union of their breakpoints, each
    with the multiplicity that keeps every column's smoothness (q is
    C^(p-1) at its knots, qd C^(p-2), the cubic C^2 at the collocation
    instants).  Interpolation at that space's Greville abscissae therefore
    reproduces each column exactly up to rounding, the same coefficients
    knot insertion (q), degree elevation (qd) and degree raising (f_x)
    give.  Evaluating it returns the stacked row, continuous as a spline,
    in one call.
    """
    from scipy.interpolate import BSpline, CubicSpline, make_interp_spline

    from .bspline import clamped_knots

    p, t_end, times = reference.degree, reference.t_final, reference.times
    k = max(p, 3)
    knots = clamped_knots(reference.control_points.shape[0], p) * t_end
    q = BSpline(knots, reference.control_points, p)
    f = CubicSpline(times, reference.f_x, bc_type="natural")
    inner_q = knots[p + 1:-p - 1]
    inner_f = times[(times > 0.0) & (times < t_end)]
    points = np.concatenate((inner_q, inner_f))
    order = np.argsort(points, kind="stable")
    points = points[order]
    needs = np.repeat([k - p + 2, k - 2], [len(inner_q), len(inner_f)])[order]
    # a knot and a collocation instant that differ by rounding are one breakpoint
    first = np.diff(points, prepend=-np.inf) > 1e-14 * t_end
    mult = np.zeros(first.sum(), dtype=int)
    np.maximum.at(mult, np.cumsum(first) - 1, needs)
    t = np.concatenate((np.zeros(k + 1), np.repeat(points[first], mult), np.full(k + 1, t_end)))
    # the mean of k equal end knots may round past them
    greville = np.clip(np.lib.stride_tricks.sliding_window_view(t[1:-1], k).mean(axis=1),
                       0.0, t_end)
    columns = np.hstack((q(greville), q.derivative()(greville), f(greville)))
    return make_interp_spline(greville, columns, k=k, t=t)


def simulate_tracking(
    actuator_models: list[EmlaModel],
    reference: TrajectoryResult,
    gains,
    disturbance: DisturbanceProfile = None,
    dt: float = 1e-3,
    initial_position_error=None,
    duration: float = None,
    rtol: float = 1e-6,
    atol: float = 1e-8,
) -> TrackingTraces:
    """Closed-loop co-simulation of all EMLAs against the reference.

    The reference trajectory is evaluated exactly from its spline; the
    per-joint load force is the trajectory's inverse-dynamics force plus
    the configured disturbance.  Both come from :func:`reference_spline`,
    one spline call per evaluation.  ``dt`` is the output sampling step of
    the returned traces, not an integration step (the stiff solver
    adapts).  Radau's Newton iterations use the closed loop's exact
    Jacobian, and its steps are capped at :data:`RADAU_MAX_STEP`, a
    measured bound past which those iterations fail.  ``solver`` records
    its status, work counters, accepted steps (``nsteps``) and the step
    cap (``max_step``).
    """
    n_a = reference.q.shape[1]
    if len(actuator_models) != n_a:
        raise ValueError("one actuator model per joint required")
    if isinstance(gains, SubsystemGains):
        gains = [gains] * n_a
    disturbance = disturbance or DisturbanceProfile()
    duration = reference.t_final if duration is None else duration

    t_end = reference.t_final
    ref = reference_spline(reference)

    # one stacked parameter object per side: the controller's nominal
    # motor, and the (possibly skewed) plant reflected once for the run
    motor = stack_params([m.motor for m in actuator_models])
    drive = stack_params([m.drivetrain for m in actuator_models])
    plant_motor, plant_drive = _perturbed(motor, drive, disturbance.param_perturbation)
    plant_eq = equivalent_params(plant_drive)
    f_eq = equivalent_params(drive).load_ratio
    delta, eps, kk, sig = (np.stack([getattr(g, a) for g in gains], axis=1)
                           for a in ("delta", "epsilon", "k", "sigma"))  # (4, n_a)

    rng = np.random.default_rng(disturbance.seed)
    peak_force = np.abs(reference.f_x).max(axis=0)
    force_noise = _ToneNoise(rng, disturbance.band_hz, disturbance.n_tones, n_a)
    sensor_noise = None
    if disturbance.sensor_noise_std:
        # channels (theta, omega, i_q, i_d) x joint, each scaled by its
        # signal's peak (angles and speeds through f_eq to the shaft)
        sensor_noise = _ToneNoise(rng, disturbance.band_hz, disturbance.n_tones, 4 * n_a)
        current_scale = np.maximum(torque_to_iq(motor, f_eq * peak_force), 1e-3)
        sensor_scale = disturbance.sensor_noise_std * np.stack([
            np.abs(reference.q).max(axis=0),
            np.maximum(np.abs(reference.qd).max(axis=0), 1e-6),
            current_scale,
            current_scale,
        ])
        sensor_scale[:2] /= f_eq

    def measured(t, x):
        """States (4, ..., n_a) as the controller reads them at times t."""
        if sensor_noise is None:
            return x
        wig = sensor_scale * sensor_noise(t).reshape(np.shape(t) + (4, n_a))
        return x + np.moveaxis(wig, -2, 0)[::-1]  # to [i_d, i_q, omega, theta]

    def controller(x, phi, q_ref, qd_ref):
        """Subsystem errors Q, i_q reference and (V_d, V_q) at measured
        states x with estimates phi, both (4, ..., n_a)."""
        i_d, i_q, omega, theta = x
        q1 = tracking_transform(f_eq * theta, q_ref, None, 1)
        q2 = tracking_transform(f_eq * omega, qd_ref,
                                control_law(delta[0], eps[0], phi[0], q1), 2)
        iq_ref = torque_to_iq(motor, control_law(delta[1], eps[1], phi[1], q2))
        q3 = tracking_transform(i_q, iq_ref, None, 3)
        q4 = tracking_transform(i_d, 0.0, None, 4)
        v_q = control_law(delta[2], eps[2], phi[2], q3)
        v_d = control_law(delta[3], eps[3], phi[3], q4)
        return np.array((q1, q2, q3, q4)), iq_ref, v_d, v_q

    # Radau state: [theta, omega, i_q, i_d] rows (the reverse of
    # emla_rhs's order), then the four estimates phi of each joint
    def unpack(y):
        return y[:4 * n_a].reshape(4, n_a)[::-1], y[4 * n_a:].reshape(n_a, 4).T

    def rhs(t, y):
        x, phi = unpack(y)
        q_ref, qd_ref, f_load = ref(min(max(t, 0.0), t_end)).reshape(3, n_a)
        q_err, _, v_d, v_q = controller(measured(t, x), phi, q_ref, qd_ref)
        if disturbance.force_noise_std:
            f_load = f_load + disturbance.force_noise_std * peak_force * force_noise(t)
        dx = emla_rhs(plant_motor, plant_eq, x, (v_d, v_q), f_load)
        return np.concatenate((dx[::-1], adaptive_rate(kk, sig, eps, phi, q_err).T), axis=None)

    # exact Jacobian of rhs: one 8x8 block per actuator over its local
    # state [theta, omega, i_q, i_d, phi_1..phi_4], scattered to the Radau
    # layout; actuators do not couple.  Sensor noise is additive, so the
    # controller rows differentiate at the measured state; the load force
    # depends on t only.
    iq_per_torque = torque_to_iq(motor, 1.0)
    p, r_s = plant_motor.pole_pairs, plant_motor.stator_resistance
    l_d, l_q, psi = plant_motor.inductance_d, plant_motor.inductance_q, plant_motor.pm_flux
    where = np.concatenate((np.arange(4 * n_a).reshape(4, n_a),
                            4 * n_a + np.arange(4 * n_a).reshape(n_a, 4).T))  # (8, n_a)

    def jac(t, y):
        x, phi = unpack(y)
        q_ref, qd_ref, _ = ref(min(max(t, 0.0), t_end)).reshape(3, n_a)
        q_err = controller(measured(t, x), phi, q_ref, qd_ref)[0]
        i_d, i_q, omega, _ = x
        a = delta + eps * phi  # feedback gain of each subsystem
        # gradients of the errors Q_nu along the cascade
        dq = np.zeros((4, 8, n_a))
        dq[0, 0] = f_eq
        dq[1, :2] = 0.5 * a[0] * f_eq, f_eq
        dq[1, 4] = 0.5 * eps[0] * q_err[0]
        dq[2] = 0.5 * iq_per_torque * a[1] * dq[1]  # Q3 = i_q - c*kappa_2
        dq[2, 2] = 1.0
        dq[2, 5] = 0.5 * iq_per_torque * eps[1] * q_err[1]
        dq[3, 3] = 1.0
        # voltages v_q = kappa_3 and v_d = kappa_4
        dv = -0.5 * a[2:, None] * dq[2:]
        dv[0, 6] -= 0.5 * eps[2] * q_err[2]
        dv[1, 7] -= 0.5 * eps[3] * q_err[3]
        blk = np.zeros((8, 8, n_a))
        # plant rows: shaft angle, mechanics, q- and d-axis currents
        blk[0, 1] = 1.0
        torque_grad = 1.5 * p * (psi + (l_d - l_q) * i_d), 1.5 * p * (l_d - l_q) * i_q
        blk[1, :4] = (-plant_eq.stiffness, -plant_eq.damping) + torque_grad
        blk[1] /= plant_eq.inertia
        blk[2] = dv[0]
        blk[2, 1:4] -= p * (l_d * i_d + psi), r_s, p * omega * l_d
        blk[2] /= l_q
        blk[3] = dv[1]
        blk[3, 1:4] += p * l_q * i_q, p * omega * l_q, -r_s
        blk[3] /= l_d
        # adaptive rates
        blk[4:] = (eps * kk * q_err)[:, None] * dq
        blk[range(4, 8), range(4, 8)] -= kk * sig
        out = np.zeros((8 * n_a, 8 * n_a))
        out[where[:, None], where[None, :]] = blk
        return out

    err0 = 0.0 if initial_position_error is None else np.asarray(initial_position_error, float)
    y0 = np.zeros(8 * n_a)
    q0, qd0, _ = ref(0.0).reshape(3, n_a)
    y0[:n_a] = (q0 + err0) / f_eq
    y0[n_a: 2 * n_a] = qd0 / f_eq

    # output grid: regular sampling plus the exact collocation instants so
    # reference columns can carry the trajectory samples verbatim
    base_grid = np.arange(0.0, duration + 0.5 * dt, dt)
    base_grid[-1] = min(base_grid[-1], duration)
    colloc = reference.times[reference.times <= duration + 1e-12]
    t_eval = np.union1d(base_grid, colloc)
    checks = []  # a never-firing event is checked at t=0 and after each accepted step

    def count_step(t, y):
        checks.append(t)
        return 1.0

    sol = solve_ivp(
        rhs,
        (0.0, duration),
        y0,
        method="Radau",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        jac=jac,
        events=count_step,
        max_step=RADAU_MAX_STEP,
    )
    if not sol.success:
        raise RuntimeError(f"closed-loop integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        bad = np.argmax(~np.isfinite(sol.y).all(axis=0))
        raise FloatingPointError(f"closed-loop state diverged near t={sol.t[bad]:.4f}s")

    # the same controller over every output sample at once
    t, y = sol.t, sol.y.T
    x = y[:, :4 * n_a].reshape(len(t), 4, n_a).transpose(1, 0, 2)[::-1]  # (4, n_t, n_a)
    phi = y[:, 4 * n_a:].reshape(len(t), n_a, 4)
    q_ref, qd_ref, f_ref = np.moveaxis(ref(np.clip(t, 0.0, t_end)).reshape(len(t), 3, n_a), 1, 0)
    q_err, iq_ref, v_d, v_q = controller(measured(t, x), phi.transpose(2, 0, 1), q_ref, qd_ref)
    i_d, i_q, omega, theta = x
    # reference columns carry the trajectory samples verbatim at the
    # collocation instants
    k = np.minimum(np.searchsorted(reference.times, t), len(reference.times) - 1)
    colloc_hit = (reference.times[k] == t)[:, None]
    traces = TrackingTraces(
        times=t,
        position=f_eq * theta,
        velocity=f_eq * omega,
        position_ref=np.where(colloc_hit, reference.q[k], q_ref),
        velocity_ref=np.where(colloc_hit, reference.qd[k], qd_ref),
        i_q=i_q,
        i_d=i_d,
        i_q_ref=iq_ref,
        v_q=v_q,
        v_d=v_d,
        q_err=np.moveaxis(q_err, 0, -1),
        phi=phi,
        # electromagnetic force produced, rated with the nominal motor constants
        force_em=electromagnetic_torque(motor, i_d, i_q) / f_eq,
        force_ref=np.where(colloc_hit, reference.f_x[k], f_ref),
        lyapunov=None,
        gains=list(gains),
        disturbance=disturbance,
        solver={"status": int(sol.status), "message": str(sol.message),
                "nfev": int(sol.nfev), "njev": int(sol.njev), "nlu": int(sol.nlu),
                "nsteps": len(checks) - 1, "max_step": RADAU_MAX_STEP},
    )
    traces.lyapunov = lyapunov_value(traces, gains)
    return traces


def lyapunov_value(traces: TrackingTraces, gains, phi_star=None) -> np.ndarray:
    """V(t) = 1/2 sum_i sum_nu (Q^2 + (phi - phi*)^2 / k)."""
    if isinstance(gains, SubsystemGains):
        gains = [gains] * traces.q_err.shape[1]
    n_t, n_a, _ = traces.q_err.shape
    if phi_star is None:
        phi_star = np.zeros((n_a, 4))
    phi_star = np.broadcast_to(np.asarray(phi_star, dtype=float), (n_a, 4))
    v = np.zeros(n_t)
    for j in range(n_a):
        k = gains[j].k
        v += 0.5 * np.sum(traces.q_err[:, j, :] ** 2, axis=1)
        v += 0.5 * np.sum((traces.phi[:, j, :] - phi_star[j]) ** 2 / k, axis=1)
    return v


@dataclass
class StabilityAudit:
    """Numerical Lyapunov descent summary for one tracking run."""

    zeta: float
    zeta_fit: float
    strictly_decreasing: bool
    fit_window: tuple
    lyapunov: np.ndarray
    times: np.ndarray
    descent_violations: int
    disturbance_bound: float


def lyapunov_audit(
    traces: TrackingTraces,
    gains,
    phi_star=None,
    disturbance_bound: float = 0.0,
) -> StabilityAudit:
    """Audit the recorded V(t) against the analytic descent structure.

    ``zeta`` is the closed-form min(delta, k*sigma) over every subsystem;
    ``zeta_fit`` is the slope of a least-squares line through log V over
    the initial decay window (from the start until the first sample that
    fails to decrease, i.e. until the numerical floor).  The sample-wise
    check counts violations of V(t+dt) <= V(t)(1 - zeta dt) + bound*dt,
    reported rather than asserted because the bound term is an estimate.
    """
    if isinstance(gains, SubsystemGains):
        gains = [gains] * traces.q_err.shape[1]
    zeta = min(min(g.delta.min(), (g.k * g.sigma).min()) for g in gains)
    v = lyapunov_value(traces, gains, phi_star)
    t = traces.times

    end = len(v)
    for i in range(1, len(v)):
        if v[i] >= v[i - 1]:
            end = i
            break
    window = (0, max(end, 2))
    seg_t = t[window[0]: window[1]]
    seg_v = v[window[0]: window[1]]
    strictly = bool(np.all(np.diff(seg_v) < 0.0)) and len(seg_v) >= 2
    mask = seg_v > 0
    if mask.sum() >= 2:
        slope = np.polyfit(seg_t[mask], np.log(seg_v[mask]), 1)[0]
        zeta_fit = -float(slope)
    else:
        zeta_fit = 0.0

    dt = np.diff(t)
    lhs = v[1:]
    rhs = v[:-1] * np.maximum(0.0, 1.0 - zeta * dt) + disturbance_bound * dt
    violations = int(np.sum(lhs > rhs + 1e-15))
    return StabilityAudit(
        zeta=float(zeta),
        zeta_fit=zeta_fit,
        strictly_decreasing=strictly,
        fit_window=window,
        lyapunov=v,
        times=t,
        descent_violations=violations,
        disturbance_bound=disturbance_bound,
    )


def tracking_errors(traces: TrackingTraces, settle_time: float = 0.2) -> dict:
    """RMS force/velocity tracking errors after the initial transient,
    normalized by each joint's reference peak.  Raises ``ValueError`` when
    no sample lies at or after ``settle_time``."""
    mask = traces.times >= settle_time
    if not np.any(mask):
        raise ValueError(f"no tracking sample at or after settle_time = {settle_time} s "
                         f"(the run ends at {traces.times[-1]} s)")
    out = {"velocity_rms_frac": [], "force_rms_frac": [], "settle_time": settle_time}
    for j in range(traces.position.shape[1]):
        v_err = traces.velocity[mask, j] - traces.velocity_ref[mask, j]
        v_peak = max(np.abs(traces.velocity_ref[:, j]).max(), 1e-12)
        f_err = traces.force_em[mask, j] - traces.force_ref[mask, j]
        f_peak = max(np.abs(traces.force_ref[:, j]).max(), 1e-12)
        out["velocity_rms_frac"].append(float(np.sqrt(np.mean(v_err**2)) / v_peak))
        out["force_rms_frac"].append(float(np.sqrt(np.mean(f_err**2)) / f_peak))
    return out


def traces_to_csv(traces: TrackingTraces) -> str:
    """Serialize with one column group per joint plus the Lyapunov value.

    Each row is formatted in one step (``%.12g`` per field) from a float
    table of the whole run.
    """
    n_a = traces.position.shape[1]
    header = ["t"]
    for j in range(1, n_a + 1):
        header += [
            f"fx{j}", f"fx_ref{j}", f"vx{j}", f"vx_ref{j}", f"iq{j}", f"id{j}",
            f"Vq{j}", f"Vd{j}",
        ] + [f"Q{nu}_{j}" for nu in range(1, 5)] + [f"phi{nu}_{j}" for nu in range(1, 5)]
    header.append("V_lyap")
    columns = [traces.times]
    for j in range(n_a):
        columns += [
            traces.force_em[:, j], traces.force_ref[:, j],
            traces.velocity[:, j], traces.velocity_ref[:, j],
            traces.i_q[:, j], traces.i_d[:, j],
            traces.v_q[:, j], traces.v_d[:, j],
            traces.q_err[:, j], traces.phi[:, j],
        ]
    columns.append(traces.lyapunov)
    row = ",".join(["%.12g"] * len(header))
    # one sample at a time keeps the Python float lists, and peak memory, small
    rows = [row % tuple(r.tolist()) for r in np.column_stack(columns)]
    return "\n".join([",".join(header)] + rows) + "\n"
