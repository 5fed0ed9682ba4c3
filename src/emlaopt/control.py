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
implicit stiff solver rather than fixed explicit stepping.  One function,
:func:`closed_loop`, holds each actuator's loop: the four subsystem errors
Q1 = x - x_ref (position), Q2 = qd - qd_ref - kappa_1 (velocity),
Q3 = i_q - i_q_ref and Q4 = i_d - 0, each fed back as
-(delta + eps*phi)/2 * Q, :func:`~emlaopt.pmsm.torque_to_iq` for the
current reference, :func:`~emlaopt.statespace.emla_rhs` for the plant and
the adaptive law for the estimates.  It is plain arithmetic, so it runs
on Python floats or on arrays alike.  Radau's state holds the shaft
angles, shaft speeds, q- and d-axis currents of all actuators (one row of
n_a each), then each actuator's four estimates.  The right-hand side reads
that state as a list of floats, calls :func:`closed_loop` once per
actuator and returns one array in the same layout.  Its other NumPy work
is the reference (q, qd and the load force, one spline call,
:func:`reference_spline`) and the tone noise, once per instant: Radau
returns to each step's three stage instants in every Newton iteration, so
the last three instants' rows are kept.  Radau's Jacobian (one 8x8 block
per actuator) is :func:`closed_loop`'s complex-step derivative, exact to
rounding, and the recorded traces are :func:`closed_loop` on each
actuator's columns of every output sample.  Floats and arrays round
alike, so the traces hold the values the integration used, bit for bit.

Radau is SciPy's, through :class:`_Radau`, a subclass that factors each
distinct iteration matrix once.  SciPy drops its LU factors whenever it
proposes a step at least 1.2x longer, then clamps that step back to the
cap below and factors the same two matrices again; the subclass returns
the cached factors instead, and calls LAPACK directly.  Every step, stage
value and trace is the same, bit for bit, as with ``method="Radau"``.

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

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from warnings import warn

import numpy as np
from scipy.integrate import Radau, solve_ivp
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from .drivetrain import DriveTrainParams, equivalent_params
from .effmap import EmlaModel
from .pmsm import PmsmParams, electromagnetic_torque, torque_to_iq
from .statespace import emla_rhs, stack_params
from .trajopt import TrajectoryResult, check_count

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

# complex step h of the closed-loop Jacobian: Im f(y + i*h*e_c) / h is the
# derivative of an analytic f along e_c up to O(h^2), with no difference to
# cancel (Squire & Trapp, SIAM Review 40, 1998)
COMPLEX_STEP = 1e-20


class _Radau(Radau):
    """SciPy's Radau IIA, factoring each distinct iteration matrix once.

    ``Radau`` factors the real and the complex iteration matrix whenever it
    has dropped its factors, and it drops them whenever it proposes a step
    at least 1.2x longer, even when the step cap then clamps that step back
    to the one it just took.  This subclass keeps the factors of the last
    two matrices it factored and returns them for an equal matrix
    (``np.array_equal``) without counting an ``nlu``, as Hairer's RADAU5
    keeps its factorization while the step size does not change.  So
    ``nlu`` counts distinct factorizations; every step is the same, bit for
    bit.

    It factors and solves with LAPACK ``?getrf``/``?getrs`` directly,
    skipping the array-API wrappers of ``scipy.linalg.lu_factor`` and
    ``lu_solve`` but keeping their checks: a finite matrix and right-hand
    side, ``ValueError`` on an illegal argument and ``LinAlgWarning`` on an
    exactly singular pivot.  The routine is chosen by the matrix's type;
    Radau solves each factorization only with vectors of that type.  It
    takes dense Jacobians only.  ``lu`` and ``solve_lu`` are attributes that
    ``Radau.__init__`` sets, not public SciPy API.

    ``steps`` receives the end time of every accepted step.
    """

    def __init__(self, fun, t0, y0, t_bound, steps, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.steps = steps
        self.factored = []  # (matrix, factors) of the last two matrices factored
        self.lu = self._lu
        self.solve_lu = self._solve_lu

    def _lu(self, a):
        for matrix, factors in self.factored:
            if np.array_equal(matrix, a):
                return factors
        self.nlu += 1
        a = np.asarray_chkfinite(a)
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (a,))
        lu, piv, info = getrf(a)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
        if info > 0:
            warn(f"Diagonal number {info} is exactly zero. Singular matrix.", LinAlgWarning,
                 stacklevel=2)
        factors = lu, piv, getrs
        self.factored = self.factored[-1:] + [(a, factors)]
        return factors

    def _solve_lu(self, factors, b):
        lu, piv, getrs = factors
        x, info = getrs(lu, piv, np.asarray_chkfinite(b), overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gesv|posv")
        return x

    def _step_impl(self):
        accepted, message = super()._step_impl()
        if accepted:
            self.steps.append(self.t)
        return accepted, message


@dataclass(frozen=True)
class SubsystemGains:
    """Per-subsystem gains (delta, epsilon, k, sigma), one entry per nu=1..4;
    a scalar gives all four subsystems the same gain."""

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


def published_gains() -> SubsystemGains:
    """The gain set used by the shipped 3-DoF case study."""
    return SubsystemGains(75000.0, 9.0, 7.0, 9.0)


def closed_loop(actuator, x, phi, ref):
    """One actuator's controller, plant and estimate rates.

    ``actuator`` is (gains, f_eq, motor, plant, eq): the four subsystems'
    (delta, epsilon, k, sigma), each four values; the controller's nominal
    force-to-torque ratio and motor; the plant's motor and its reflected
    ``equivalent_params``.  ``x`` is [theta, omega, i_q, i_d], ``phi`` the
    four estimates and ``ref`` [q_ref, qd_ref, f_load].  Each subsystem's
    feedback is kappa = -(delta + epsilon*phi)/2 * Q (dissipative for
    phi >= 0) and its estimate follows phi_dot = -k*sigma*phi +
    (epsilon*k/2) Q^2, which is nonnegative at phi = 0, so a nonnegative
    estimate stays nonnegative under exact integration.

    Returns the errors (Q1..Q4), the i_q reference, (V_d, V_q), the plant's
    rates in ``x``'s order and the estimates' rates.  Everything is
    arithmetic: Python floats give one evaluation, arrays of equal shape
    give one per element, rounded alike.

    It must stay analytic in the state, with no ``abs``, ``min``/``max``,
    comparison or branch on a state or error value: the tracking Jacobian
    is its complex-step derivative, checked by central differences.
    """
    (d1, d2, d3, d4), (e1, e2, e3, e4), (k1, k2, k3, k4), (s1, s2, s3, s4) = actuator[0]
    f_eq, motor, plant, eq = actuator[1:]
    theta, omega, i_q, i_d = x
    p1, p2, p3, p4 = phi
    q_ref, qd_ref, f_load = ref
    g1 = -0.5 * (d1 + e1 * p1)  # -(delta + epsilon*phi)/2 of each subsystem
    g2 = -0.5 * (d2 + e2 * p2)
    g3 = -0.5 * (d3 + e3 * p3)
    g4 = -0.5 * (d4 + e4 * p4)
    q1 = f_eq * theta - q_ref
    q2 = f_eq * omega - qd_ref - g1 * q1  # offset by the position's virtual control
    iq_ref = torque_to_iq(motor, g2 * q2)
    q3 = i_q - iq_ref
    q4 = i_d - 0.0  # the d-axis reference is zero
    v_d, v_q = g4 * q4, g3 * q3
    di_d, di_q, domega, dtheta = emla_rhs(plant, eq, (i_d, i_q, omega, theta), (v_d, v_q), f_load)
    rates = (-k1 * s1 * p1 + 0.5 * e1 * k1 * (q1 * q1), -k2 * s2 * p2 + 0.5 * e2 * k2 * (q2 * q2),
             -k3 * s3 * p3 + 0.5 * e3 * k3 * (q3 * q3), -k4 * s4 * p4 + 0.5 * e4 * k4 * (q4 * q4))
    return (q1, q2, q3, q4), iq_ref, (v_d, v_q), (dtheta, domega, di_q, di_d), rates


# band [Hz] and number of sine tones of the load-force noise
NOISE_BAND_HZ = (0.2, 8.0)
NOISE_TONES = 24


@dataclass(frozen=True)
class DisturbanceProfile:
    """Load-force noise and plant parameter perturbation.

    ``force_noise_std`` scales band-limited noise (:data:`NOISE_TONES`
    tones in :data:`NOISE_BAND_HZ`) relative to the peak reference force;
    ``param_perturbation`` multiplies the plant's resistance/inertia/damping
    style parameters by (1 + fraction).  The noise is seeded.
    """

    force_noise_std: float = 0.0
    param_perturbation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.force_noise_std) and self.force_noise_std >= 0.0):
            raise ValueError("force_noise_std must be finite and >= 0, got "
                             f"{self.force_noise_std!r}")
        if not (np.isfinite(self.param_perturbation) and self.param_perturbation > -1.0):
            raise ValueError("param_perturbation must be finite and > -1, got "
                             f"{self.param_perturbation!r}")
        check_count(self.seed, "seed", minimum=0)

    def bound(self, peak_force: float) -> float:
        """Recorded sup-norm bound of the additive force disturbance."""
        return 3.0 * self.force_noise_std * peak_force


def nominal_disturbance() -> DisturbanceProfile:
    """Default study disturbance: 2% band-limited load noise, 5% parameter skew."""
    return DisturbanceProfile(force_noise_std=0.02, param_perturbation=0.05, seed=7)


class _ToneNoise:
    """Seeded sum-of-sines band-limited noise with unit standard deviation,
    one row of :data:`NOISE_TONES` tones in :data:`NOISE_BAND_HZ` per channel."""

    def __init__(self, rng, n_channels):
        # each channel draws its frequencies, phases and amplitudes in turn
        rows = [
            (rng.uniform(*NOISE_BAND_HZ, NOISE_TONES),
             rng.uniform(0.0, 2.0 * np.pi, NOISE_TONES),
             rng.uniform(0.5, 1.0, NOISE_TONES))
            for _ in range(n_channels)
        ]
        freq, self.phase, self.amp = (np.array(r) for r in zip(*rows))
        self.amp /= np.sqrt(0.5 * np.sum(self.amp**2, axis=-1, keepdims=True))
        self.omega = 2.0 * np.pi * freq  # the product 2*pi*f*t forms left to right

    def __call__(self, t: float):
        """Noise of the channels at time ``t``, shape (n_channels,)."""
        return np.add.reduce(self.amp * np.sin(self.omega * t + self.phase), axis=-1)


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
    solver: dict  # Radau status, message, nfev, njev, nlu, nsteps, max_step


def _perturbed(motor: PmsmParams, drivetrain: DriveTrainParams, fraction: float):
    """Plant-side parameter skew used to emulate model uncertainty."""
    f = 1.0 + fraction
    return (
        replace(motor, stator_resistance=motor.stator_resistance * f, pm_flux=motor.pm_flux / f),
        replace(drivetrain, motor_inertia=drivetrain.motor_inertia * f,
                viscous_motor=drivetrain.viscous_motor * f),
    )


def _per_joint(stacked) -> list:
    """One record of Python floats per actuator from a record of (n_a,)
    arrays: a params dataclass or an ``EquivalentParams``."""
    columns = stacked if isinstance(stacked, tuple) else [
        getattr(stacked, f.name) for f in fields(stacked)]
    return [type(stacked)(*row) for row in zip(*(np.asarray(c).tolist() for c in columns))]


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
    one spline call per instant.  The controller reads the plant's
    states as they are.  ``dt`` is the output sampling step of
    the returned traces, not an integration step (the stiff solver
    adapts).  Radau's Newton iterations use :func:`closed_loop`'s
    complex-step derivative as Jacobian, and its steps are capped at
    :data:`RADAU_MAX_STEP`, a measured bound past which those iterations
    fail.  ``solver`` records its status, work counters, accepted steps
    (``nsteps``) and the step cap (``max_step``).  ``gains`` holds one
    :class:`SubsystemGains` per actuator.  ``duration`` (the reference's
    ``t_final`` when ``None``) and ``dt`` must be > 0.
    """
    n_a = reference.q.shape[1]
    if len(actuator_models) != n_a or len(gains) != n_a:
        raise ValueError("one actuator model and one gain set per joint required")
    disturbance = disturbance or DisturbanceProfile()
    duration = reference.t_final if duration is None else duration
    if not duration > 0.0:  # an empty output grid
        raise ValueError(f"duration must be > 0, got {duration!r}")
    if not dt > 0.0:  # a zero step divides by zero, a negative one empties the grid
        raise ValueError(f"dt must be > 0, got {dt!r}")

    t_end = reference.t_final
    ref = reference_spline(reference)

    # one stacked parameter object per side: the controller's nominal
    # motor, and the (possibly skewed) plant reflected once for the run
    motor = stack_params([m.motor for m in actuator_models])
    drive = stack_params([m.drivetrain for m in actuator_models])
    plant_motor, plant_drive = _perturbed(motor, drive, disturbance.param_perturbation)
    plant_eq = equivalent_params(plant_drive)
    f_eq = equivalent_params(drive).load_ratio

    rng = np.random.default_rng(disturbance.seed)
    peak_force = np.abs(reference.f_x).max(axis=0)
    force_noise = _ToneNoise(rng, n_a)

    # one closed_loop record of Python floats per actuator
    loops = [((g.delta.tolist(), g.epsilon.tolist(), g.k.tolist(), g.sigma.tolist()), *joint)
             for g, *joint in zip(gains, f_eq.tolist(), _per_joint(motor), _per_joint(plant_motor),
                                  _per_joint(plant_eq))]
    force_scale = (disturbance.force_noise_std * peak_force).tolist()

    # the reference row [q, qd, f_load] of the joints at t.  Radau evaluates
    # each step's three stage instants again in every Newton iteration: on
    # the grid winner's first 2 s, 6,787 distinct instants among 16,982
    # evaluations
    @lru_cache(maxsize=3)
    def reference_row(t):
        row = ref(min(max(t, 0.0), t_end)).tolist()
        if disturbance.force_noise_std:
            row[2 * n_a:] = [f + c * w for f, c, w in
                             zip(row[2 * n_a:], force_scale, force_noise(t).tolist())]
        return tuple(row)

    # Radau state: [theta, omega, i_q, i_d] rows of n_a, then the four
    # estimates phi of each joint.  Of a list of it, s[j:4 * n_a:n_a] is
    # joint j's plant state and s[k:k + 4], k = 4 * (n_a + j), its
    # estimates; joint j's [q_ref, qd_ref, f_load] is row[j::n_a]
    def rhs(t, y):
        s = y.tolist()
        row = reference_row(t)
        out = [0.0] * (8 * n_a)
        for j, loop in enumerate(loops):
            k = 4 * (n_a + j)
            *_, out[j:4 * n_a:n_a], out[k:k + 4] = closed_loop(
                loop, s[j:4 * n_a:n_a], s[k:k + 4], row[j::n_a])
        return np.array(out)

    # Jacobian of rhs: one 8x8 block per actuator over its local state
    # [theta, omega, i_q, i_d, phi_1..phi_4], scattered to the Radau layout.
    # One closed_loop call on all actuators, each local state (row, joint)
    # stepped by i*h along each column, gives the blocks as Im(rates) / h
    stacked = (tuple(np.stack([getattr(g, a) for g in gains], axis=1)
                     for a in ("delta", "epsilon", "k", "sigma")),
               f_eq, motor, plant_motor, plant_eq)
    where = np.concatenate((np.arange(4 * n_a).reshape(4, n_a),
                            4 * n_a + np.arange(4 * n_a).reshape(n_a, 4).T))  # (8, n_a)
    probe = 1j * COMPLEX_STEP * np.eye(8)[:, :, None]  # (row, column, 1)

    def jac(t, y):
        z = y[where][:, None] + probe  # (row, column, joint)
        *_, x_rates, phi_rates = closed_loop(stacked, z[:4], z[4:],
                                             np.reshape(reference_row(t), (3, n_a)))
        blk = np.array(x_rates + phi_rates).imag / COMPLEX_STEP
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
    steps = []
    sol = solve_ivp(
        rhs,
        (0.0, duration),
        y0,
        method=_Radau,
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        jac=jac,
        max_step=RADAU_MAX_STEP,
        steps=steps,
    )
    if not sol.success:
        raise RuntimeError(f"closed-loop integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        bad = np.argmax(~np.isfinite(sol.y).all(axis=0))
        raise FloatingPointError(f"closed-loop state diverged near t={sol.t[bad]:.4f}s")

    # closed_loop once per actuator on its columns of every output sample
    t = sol.t
    ref_rows = ref(np.clip(t, 0.0, t_end)).T
    per_joint = [closed_loop(loop, sol.y[j:4 * n_a:n_a], sol.y[4 * (n_a + j):4 * (n_a + j) + 4],
                             ref_rows[j::n_a]) for j, loop in enumerate(loops)]
    q_err = np.array([r[0] for r in per_joint]).transpose(2, 0, 1)  # (n_t, n_a, 4)
    iq_ref = np.array([r[1] for r in per_joint]).T
    v_d, v_q = np.array([r[2] for r in per_joint]).transpose(1, 2, 0)
    theta, omega, i_q, i_d = sol.y[:4 * n_a].reshape(4, n_a, -1).transpose(0, 2, 1)
    q_ref, qd_ref, f_ref = ref_rows.reshape(3, n_a, -1).transpose(0, 2, 1)
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
        q_err=q_err,
        phi=sol.y[4 * n_a:].T.reshape(len(t), n_a, 4),
        # electromagnetic force produced, rated with the nominal motor constants
        force_em=electromagnetic_torque(motor, i_d, i_q) / f_eq,
        force_ref=np.where(colloc_hit, reference.f_x[k], f_ref),
        lyapunov=None,
        solver={"status": int(sol.status), "message": str(sol.message),
                "nfev": int(sol.nfev), "njev": int(sol.njev), "nlu": int(sol.nlu),
                "nsteps": len(steps), "max_step": RADAU_MAX_STEP},
    )
    traces.lyapunov = lyapunov_value(traces, gains)
    return traces


def lyapunov_value(traces: TrackingTraces, gains) -> np.ndarray:
    """V(t) = 1/2 sum_i sum_nu (Q^2 + phi^2 / k), with phi* = 0 and one gain
    set per actuator."""
    n_t, n_a, _ = traces.q_err.shape
    v = np.zeros(n_t)
    for j in range(n_a):
        k = gains[j].k
        v += 0.5 * np.sum(traces.q_err[:, j, :] ** 2, axis=1)
        v += 0.5 * np.sum(traces.phi[:, j, :] ** 2 / k, axis=1)
    return v


@dataclass
class StabilityAudit:
    """Numerical Lyapunov descent summary for one tracking run."""

    zeta: float
    zeta_fit: float | None
    strictly_decreasing: bool | None
    fit_window: tuple
    descent_violations: int


def lyapunov_audit(traces: TrackingTraces, gains, disturbance_bound: float = 0.0) -> StabilityAudit:
    """Audit the recorded V(t), ``traces.lyapunov``, against the analytic
    descent structure.

    ``zeta`` is the closed-form min(delta, k*sigma) over every subsystem;
    ``zeta_fit`` is the slope of a least-squares line through log V over
    the initial decay window (from the start until the first sample that
    fails to decrease, i.e. until the numerical floor).  A run that starts
    on its reference, V(0) = 0, has no decay to fit, so both ``zeta_fit``
    and ``strictly_decreasing`` are ``None``.  The sample-wise
    check counts violations of V(t+dt) <= V(t)(1 - zeta dt) + bound*dt,
    reported rather than asserted because the bound term is an estimate.
    ``gains`` holds one :class:`SubsystemGains` per actuator.
    """
    zeta = min(min(g.delta.min(), (g.k * g.sigma).min()) for g in gains)
    v = traces.lyapunov
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
    if v[0] == 0.0:
        zeta_fit = strictly = None
    elif mask.sum() >= 2:
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
        descent_violations=violations,
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
