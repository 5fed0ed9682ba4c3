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
implicit stiff solver rather than fixed explicit stepping.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .drivetrain import equivalent_params
from .effmap import EmlaModel
from .pmsm import electromagnetic_torque
from .trajopt import TrajectoryResult


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


def adaptive_update(k: float, sigma: float, epsilon: float, phi: float, q_err, dt: float):
    """Advance phi_dot = -k*sigma*phi + (epsilon*k/2)|Q|^2 by one step.

    Q is held over the step, making the ODE linear; the update is its exact
    solution, so phi stays nonnegative for nonnegative starts.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    rate = k * sigma
    phi_inf = epsilon * float(np.square(q_err)) / (2.0 * sigma)
    return phi_inf + (phi - phi_inf) * np.exp(-rate * dt)


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
    """Seeded sum-of-sines band-limited noise with unit standard deviation."""

    def __init__(self, rng, band_hz, n_tones):
        self.freq = rng.uniform(band_hz[0], band_hz[1], n_tones)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, n_tones)
        self.amp = rng.uniform(0.5, 1.0, n_tones)
        self.amp /= np.sqrt(0.5 * np.sum(self.amp**2))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.sum(
            self.amp * np.sin(2.0 * np.pi * self.freq * t[..., None] + self.phase), axis=-1
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


def _perturbed(model: EmlaModel, fraction: float) -> EmlaModel:
    """Plant-side parameter skew used to emulate model uncertainty."""
    if fraction == 0.0:
        return model
    f = 1.0 + fraction
    motor = replace(
        model.motor,
        stator_resistance=model.motor.stator_resistance * f,
        pm_flux=model.motor.pm_flux / f,
    )
    dt = replace(
        model.drivetrain,
        motor_inertia=model.drivetrain.motor_inertia * f,
        viscous_motor=model.drivetrain.viscous_motor * f,
    )
    return replace(model, motor=motor, drivetrain=dt)


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
    the configured disturbance.  ``dt`` is the output sampling step of the
    returned traces, not an integration step (the stiff solver adapts).
    """
    n_a = reference.q.shape[1]
    if len(actuator_models) != n_a:
        raise ValueError("one actuator model per joint required")
    if isinstance(gains, SubsystemGains):
        gains = [gains] * n_a
    disturbance = disturbance or DisturbanceProfile()
    duration = reference.t_final if duration is None else duration

    from scipy.interpolate import BSpline, CubicSpline

    from .bspline import clamped_knots

    # smooth reference evaluation (C-level): exact B-spline for q and qd,
    # cubic interpolant through the collocation samples for the load force
    knots_phys = clamped_knots(reference.control_points.shape[0], reference.degree)
    knots_phys = knots_phys * reference.t_final
    bs_q = BSpline(knots_phys, reference.control_points, reference.degree)
    bs_qd = bs_q.derivative()
    cs_f = CubicSpline(reference.times, reference.f_x, bc_type="natural")
    t_end = reference.t_final

    def ref_q(t):
        return bs_q(min(max(t, 0.0), t_end))

    def ref_qd(t):
        return bs_qd(min(max(t, 0.0), t_end))

    def ref_f(t):
        return cs_f(min(max(t, 0.0), t_end))

    rng = np.random.default_rng(disturbance.seed)
    peak_force = np.abs(reference.f_x).max(axis=0)
    noise = [_ToneNoise(rng, disturbance.band_hz, disturbance.n_tones) for _ in range(n_a)]
    # sensor noise scales per measured channel (position, velocity, currents)
    sensor_noise = None
    if disturbance.sensor_noise_std:
        sensor_noise = [
            [_ToneNoise(rng, disturbance.band_hz, disturbance.n_tones) for _ in range(n_a)]
            for _ in range(4)
        ]
        kt_all = np.array(
            [1.5 * m.motor.pole_pairs * m.motor.pm_flux for m in actuator_models]
        )
        feq_all = np.array(
            [equivalent_params(m.drivetrain).load_ratio for m in actuator_models]
        )
        current_scale = np.maximum(feq_all * peak_force / kt_all, 1e-3)
        meas_scale = np.stack([
            np.abs(reference.q).max(axis=0),
            np.maximum(np.abs(reference.qd).max(axis=0), 1e-6),
            current_scale,
            current_scale,
        ])

    plants = [_perturbed(m, disturbance.param_perturbation) for m in actuator_models]
    eq_nom = [equivalent_params(m.drivetrain) for m in actuator_models]
    eq_plant = [equivalent_params(p.drivetrain) for p in plants]

    # per-joint constant arrays for the vectorized loop
    f_eq = np.array([e.load_ratio for e in eq_nom])
    j_p = np.array([e.inertia for e in eq_plant])
    b_p = np.array([e.damping for e in eq_plant])
    k_p = np.array([e.stiffness for e in eq_plant])
    feq_p = np.array([e.load_ratio for e in eq_plant])
    rs_p = np.array([p.motor.stator_resistance for p in plants])
    ld_p = np.array([p.motor.inductance_d for p in plants])
    lq_p = np.array([p.motor.inductance_q for p in plants])
    pp_p = np.array([float(p.motor.pole_pairs) for p in plants])
    psi_p = np.array([p.motor.pm_flux for p in plants])
    dl_p = ld_p - lq_p
    kt_nom = np.array(
        [1.5 * m.motor.pole_pairs * m.motor.pm_flux for m in actuator_models]
    )
    delta = np.stack([g.delta for g in gains])  # (n_a, 4)
    eps = np.stack([g.epsilon for g in gains])
    kk = np.stack([g.k for g in gains])
    sig = np.stack([g.sigma for g in gains])

    if initial_position_error is None:
        initial_position_error = np.zeros(n_a)
    initial_position_error = np.asarray(initial_position_error, dtype=float)

    def load_force(t):
        base = ref_f(t)
        if disturbance.force_noise_std:
            wig = np.array([noise[j](t) for j in range(n_a)])
            base = base + disturbance.force_noise_std * peak_force * wig
        return base

    # state layout: [theta(n), omega(n), iq(n), id(n), phi(n,4).ravel()]
    def split(y):
        return (
            y[0:n_a],
            y[n_a: 2 * n_a],
            y[2 * n_a: 3 * n_a],
            y[3 * n_a: 4 * n_a],
            y[4 * n_a:].reshape(n_a, 4),
        )

    def controller(t, y):
        theta, omega, i_q, i_d, phi = split(y)
        if sensor_noise is not None:
            s = disturbance.sensor_noise_std
            theta = theta + s * meas_scale[0] / f_eq * np.array([g(t) for g in sensor_noise[0]])
            omega = omega + s * meas_scale[1] / f_eq * np.array([g(t) for g in sensor_noise[1]])
            i_q = i_q + s * meas_scale[2] * np.array([g(t) for g in sensor_noise[2]])
            i_d = i_d + s * meas_scale[3] * np.array([g(t) for g in sensor_noise[3]])
        q_ref = ref_q(t)
        qd_ref = ref_qd(t)
        q1 = f_eq * theta - q_ref
        kap1 = -0.5 * (delta[:, 0] + eps[:, 0] * phi[:, 0]) * q1
        q2 = f_eq * omega - qd_ref - kap1
        torque_cmd = -0.5 * (delta[:, 1] + eps[:, 1] * phi[:, 1]) * q2
        iq_ref = torque_cmd / kt_nom
        q3 = i_q - iq_ref
        v_q = -0.5 * (delta[:, 2] + eps[:, 2] * phi[:, 2]) * q3
        q4 = i_d
        v_d = -0.5 * (delta[:, 3] + eps[:, 3] * phi[:, 3]) * q4
        q_errs = np.stack([q1, q2, q3, q4], axis=1)
        return q_errs, torque_cmd, iq_ref, v_q, v_d

    def rhs(t, y):
        theta, omega, i_q, i_d, phi = split(y)
        q_errs, _, _, v_q, v_d = controller(t, y)
        di_q = (v_q - rs_p * i_q - pp_p * omega * (ld_p * i_d + psi_p)) / lq_p
        di_d = (v_d - rs_p * i_d + pp_p * omega * lq_p * i_q) / ld_p
        torque = 1.5 * pp_p * i_q * (psi_p + dl_p * i_d)
        domega = (torque - b_p * omega - k_p * theta - feq_p * load_force(t)) / j_p
        dphi = -kk * sig * phi + 0.5 * eps * kk * q_errs**2
        return np.concatenate([omega, domega, di_q, di_d, dphi.ravel()])

    q0 = ref_q(0.0)
    qd0 = ref_qd(0.0)
    y0 = np.zeros(n_a * 8)
    y0[0:n_a] = (q0 + initial_position_error) / f_eq
    y0[n_a: 2 * n_a] = qd0 / f_eq

    # output grid: regular sampling plus the exact collocation instants so
    # reference columns can carry the trajectory samples verbatim
    base_grid = np.arange(0.0, duration + 0.5 * dt, dt)
    base_grid[-1] = min(base_grid[-1], duration)
    colloc = reference.times[reference.times <= duration + 1e-12]
    t_eval = np.union1d(base_grid, colloc)
    colloc_rows = {float(tc): k for k, tc in enumerate(reference.times)}
    sol = solve_ivp(
        rhs,
        (0.0, duration),
        y0,
        method="Radau",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"closed-loop integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        bad = np.argmax(~np.isfinite(sol.y).all(axis=0))
        raise FloatingPointError(f"closed-loop state diverged near t={sol.t[bad]:.4f}s")

    n_t = len(sol.t)
    traces = TrackingTraces(
        times=sol.t,
        position=np.zeros((n_t, n_a)),
        velocity=np.zeros((n_t, n_a)),
        position_ref=np.zeros((n_t, n_a)),
        velocity_ref=np.zeros((n_t, n_a)),
        i_q=np.zeros((n_t, n_a)),
        i_d=np.zeros((n_t, n_a)),
        i_q_ref=np.zeros((n_t, n_a)),
        v_q=np.zeros((n_t, n_a)),
        v_d=np.zeros((n_t, n_a)),
        q_err=np.zeros((n_t, n_a, 4)),
        phi=np.zeros((n_t, n_a, 4)),
        force_em=np.zeros((n_t, n_a)),
        force_ref=np.zeros((n_t, n_a)),
        lyapunov=np.zeros(n_t),
        gains=list(gains),
        disturbance=disturbance,
    )
    for it, t in enumerate(sol.t):
        y = sol.y[:, it]
        theta, omega, i_q, i_d, phi = split(y)
        q_errs, _, iq_ref, v_q, v_d = controller(t, y)
        traces.position[it] = f_eq * theta
        traces.velocity[it] = f_eq * omega
        if float(t) in colloc_rows:
            k = colloc_rows[float(t)]
            traces.position_ref[it] = reference.q[k]
            traces.velocity_ref[it] = reference.qd[k]
        else:
            traces.position_ref[it] = ref_q(t)
            traces.velocity_ref[it] = ref_qd(t)
        traces.i_q[it] = i_q
        traces.i_d[it] = i_d
        traces.i_q_ref[it] = iq_ref
        traces.v_q[it] = v_q
        traces.v_d[it] = v_d
        traces.q_err[it] = q_errs
        traces.phi[it] = phi
        if float(t) in colloc_rows:
            traces.force_ref[it] = reference.f_x[colloc_rows[float(t)]]
        else:
            traces.force_ref[it] = ref_f(t)
    # electromagnetic force produced, rated with the nominal motor constants
    for j, m in enumerate(actuator_models):
        traces.force_em[:, j] = (
            electromagnetic_torque(m.motor, traces.i_d[:, j], traces.i_q[:, j]) / f_eq[j]
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
    normalized by each joint's reference peak."""
    mask = traces.times >= settle_time
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
    """Serialize with one column group per joint plus the Lyapunov value."""
    import csv as _csv
    import io as _io

    n_a = traces.position.shape[1]
    header = ["t"]
    for j in range(1, n_a + 1):
        header += [
            f"fx{j}", f"fx_ref{j}", f"vx{j}", f"vx_ref{j}", f"iq{j}", f"id{j}",
            f"Vq{j}", f"Vd{j}",
        ] + [f"Q{nu}_{j}" for nu in range(1, 5)] + [f"phi{nu}_{j}" for nu in range(1, 5)]
    header.append("V_lyap")
    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
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
