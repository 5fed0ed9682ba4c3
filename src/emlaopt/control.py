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
-(delta + eps*phi)/2 * Q, the current reference, the plant's dq current
and shaft equations and the adaptive law for the estimates, all written
out in one body.  It reads the actuator's constants from one flat record
of plain numbers (:func:`loop_record`), built once per run, so one call
does all of one actuator's arithmetic.  It is plain arithmetic, so it runs
on Python floats or on arrays alike.  Radau's state holds the shaft
angles, shaft speeds, q- and d-axis currents of all actuators (one row of
n_a each), then each actuator's four estimates.  The right-hand side reads
that state as a list of floats, calls :func:`closed_loop` once per
actuator on the actuator's record as floats and returns one array in the
same layout.  Its other NumPy work is the reference (q, qd and the load
force from :func:`reference_spline`) and the tone noise.  Radau calls the
right-hand side at each attempted step's three stage instants in every
Newton iteration, so the rows of those three instants are built once per
attempt, in one spline call and one noise call, and looked up by instant.
Radau's Jacobian (one 8x8 block per actuator) is :func:`closed_loop`'s
complex-step derivative on the record stacked over the actuators, exact
to rounding, and the recorded traces are :func:`closed_loop` on each
actuator's columns of every output sample.  Floats and arrays round
alike, so the traces hold the values the integration used, bit for bit.
The plant's dq model, composed of separate functions as the equations
are written, is the tests' oracle (``tests/oracles.py``), which the
right-hand side matches bit for bit.

Radau is :class:`_RadauIIA`, a Radau IIA solver of order 5 on SciPy's
public ``OdeSolver`` interface that does the arithmetic of SciPy's
``Radau`` in its order, so every step, stage value and trace is the same,
bit for bit, as with ``method="Radau"``.  It does less work per step: it
calls the right-hand side and LAPACK directly, factors each distinct
iteration matrix once (SciPy factors the same two matrices again after the
cap below clamps a proposed longer step), and keeps the step's scalars in
Python floats.

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

import math
from dataclasses import dataclass, fields, replace
from warnings import warn

import numpy as np
from scipy.integrate import DenseOutput, OdeSolver, solve_ivp
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

from .drivetrain import DriveTrainParams, EquivalentParams, equivalent_params
from .effmap import EmlaModel
from .pmsm import PmsmParams, electromagnetic_torque
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

OUTPUT_DT = 2e-3  # default output sampling step [s] of the traces
SETTLE_TIME = 0.2  # default instant [s], past the start-up, that tracking_errors measures from

# complex step h of the closed-loop Jacobian: Im f(y + i*h*e_c) / h is the
# derivative of an analytic f along e_c up to O(h^2), with no difference to
# cancel (Squire & Trapp, SIAM Review 40, 1998)
COMPLEX_STEP = 1e-20


# Radau IIA of order 5 (Hairer & Wanner, Solving Ordinary Differential
# Equations II, Sec. IV.8) in the form and with the constants of SciPy's
# ``Radau``: collocation nodes C, error weights E, the transformation T of
# the stage matrix A = T diag(MU_REAL, MU_COMPLEX, conj) T^-1 (TI = T^-1,
# whose rows give the real and the complex transformed system), and the
# dense-output coefficients P
S6 = 6 ** 0.5
RADAU_C = np.array([(4 - S6) / 10, (4 + S6) / 10, 1])
RADAU_E = np.array([-13 - 7 * S6, -13 + 7 * S6, -1]) / 3
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
              - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
RADAU_T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1, 1, 0]])
RADAU_TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
TI_REAL = RADAU_TI[0]
TI_COMPLEX = RADAU_TI[1] + 1j * RADAU_TI[2]
RADAU_P = np.array([
    [13/3 + 7*S6/3, -23/3 - 22*S6/3, 10/3 + 5 * S6],
    [13/3 - 7*S6/3, -23/3 + 22*S6/3, 10/3 - 5 * S6],
    [1/3, -8/3, 10/3]])
NEWTON_MAXITER = 6  # Newton iterations per collocation solve
MIN_FACTOR = 0.2  # smallest and largest step-size change factors
MAX_FACTOR = 10
EPS = np.finfo(float).eps
# real and complex LAPACK LU factor and solve routines
LAPACK_LU = ((dgetrf, dgetrs), (zgetrf, zgetrs))


def _rms(x):
    """SciPy's RMS norm, sqrt(x . x) / sqrt(x.size), as one dot product."""
    x = x.ravel()
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _check_finite(*arrays):
    """``ValueError`` unless every array is finite, as ``lu_solve`` checks."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Step-size factor of the error norm, with the two-step (Gustafsson)
    controller when the previous step's size and error norm are known."""
    if error_norm_old is None or h_abs_old is None or error_norm == 0:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * (error_norm ** -0.25 if error_norm else math.inf)


class _RadauOutput(DenseOutput):
    """The collocation polynomial of one step, y_old + Q [x, x^2, x^3] at
    x = (t - t_old) / h, the same products in the same order as SciPy's
    ``tile``/``cumprod`` form."""

    def __init__(self, t_old, t, y_old, Q):
        super().__init__(t_old, t)
        self.h, self.y_old, self.Q = t - t_old, y_old, Q

    def _call_impl(self, t):
        x = (t - self.t_old) / self.h
        y = np.dot(self.Q, np.array([x, x * x, x * x * x]))
        y += self.y_old[:, None] if y.ndim == 2 else self.y_old
        return y


class _RadauIIA(OdeSolver):
    """Radau IIA of order 5, step for step SciPy's ``Radau``.

    It does ``Radau``'s arithmetic in ``Radau``'s order, so every step,
    stage value, dense output and nfev/njev is the same, bit for bit, as
    with ``method="Radau"``, and differs in how much work each step takes:

    - the Newton loop calls ``fun`` itself, three stages at a time, and
      counts ``nfev``; ``fun`` must return a float array of shape (n,);
    - it factors each distinct iteration matrix mu/h I - J once.  ``Radau``
      drops its LU factors whenever it proposes a step at least 1.2x
      longer, even when the step cap then clamps that step back to the one
      it just took; this solver keeps the factors of the last real and the
      last complex matrix, keyed by mu/h and the Jacobian array, as
      Hairer's RADAU5 keeps its factorization while the step size does not
      change.  So ``nlu`` counts distinct factorizations;
    - LAPACK ``?getrf``/``?getrs`` are called directly, with the checks of
      ``lu_factor``/``lu_solve``: ``ValueError`` on a non-finite matrix or
      right-hand side (checked when the solution's norm is not finite) and
      ``LinAlgWarning`` on an exactly singular pivot;
    - norms are one dot product and the step's scalars Python floats.

    ``jac(t, y)`` is required and returns a dense Jacobian.
    ``steps`` receives the end time of every accepted step.  ``prefetch``,
    when given, is called with each attempted step's three stage instants
    before its collocation solves, the instants at which the Newton loop
    then calls ``fun``.
    """

    def __init__(self, fun, t0, y0, t_bound, jac, steps, max_step=np.inf, rtol=1e-3, atol=1e-6,
                 first_step=None, vectorized=False, prefetch=None):
        super().__init__(fun, t0, y0, t_bound, vectorized)
        self.rhs, self.jac, self.steps, self.prefetch = fun, jac, steps, prefetch
        self.direction = float(self.direction)
        self.max_step, self.rtol, self.atol = max_step, rtol, np.asarray(atol)
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
        self.f = self._eval(t0, self.y)
        self.h_abs = self._initial_step() if first_step is None else first_step
        self.h_abs_old = self.error_norm_old = None
        self.J = np.array(jac(t0, self.y), dtype=float)
        self.njev = 1
        self.I = np.identity(self.n)
        self.current_jac = True
        self.lu_real = self.lu_complex = None
        self.kept = [None, None]  # (mu/h, J, factors) of the last real and complex matrix
        self.sol = None

    def _eval(self, t, y):
        self.nfev += 1
        return self.rhs(t, y)

    def _initial_step(self):
        """SciPy's initial step for an error of order 3 (Hairer, Norsett &
        Wanner, Solving Ordinary Differential Equations I, Sec. II.4)."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self._eval(t0 + h0 * direction, y0 + h0 * direction * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.25
        return min(100 * h0, h1, interval_length, self.max_step)

    def _factor(self, kind, mu_h, J):
        """LU factors of mu_h I - J (``kind`` 0 real, 1 complex), reused when
        the last matrix of that kind had the same mu_h and J."""
        kept = self.kept[kind]
        if kept is not None and kept[0] == mu_h and kept[1] is J:
            return kept[2]
        a = mu_h * self.I - J
        _check_finite(a)
        getrf, getrs = LAPACK_LU[kind]
        lu, piv, info = getrf(a, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
        if info > 0:
            warn(f"Diagonal number {info} is exactly zero. Singular matrix.", LinAlgWarning,
                 stacklevel=2)
        self.nlu += 1
        factors = lu, piv, getrs
        self.kept[kind] = mu_h, J, factors
        return factors

    @staticmethod
    def _solve(factors, b):
        lu, piv, getrs = factors
        x, info = getrs(lu, piv, b)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gesv|posv")
        return x

    def _collocate(self, stages, y, h, Z0, scale, lu_real, lu_complex):
        """SciPy's ``solve_collocation_system``: simplified Newton iterations
        on W = TI Z; returns (converged, iterations, Z, rate)."""
        M_real = MU_REAL / h
        M_complex = MU_COMPLEX / h
        W = RADAU_TI.dot(Z0)
        Z = Z0
        dW = np.empty_like(W)
        dW_norm_old = rate = None
        fun, tol = self.rhs, self.newton_tol
        t0, t1, t2 = stages
        for k in range(NEWTON_MAXITER):
            Y = y + Z
            F = np.array([fun(t0, Y[0]), fun(t1, Y[1]), fun(t2, Y[2])])
            self.nfev += 3
            if not np.isfinite(F).all():
                break
            f_real = F.T.dot(TI_REAL) - M_real * W[0]
            f_complex = F.T.dot(TI_COMPLEX) - M_complex * (W[1] + 1j * W[2])
            dW[0] = self._solve(lu_real, f_real)
            dW_complex = self._solve(lu_complex, f_complex)
            dW[1] = dW_complex.real
            dW[2] = dW_complex.imag
            dW_norm = _rms(dW / scale)
            if not math.isfinite(dW_norm):
                _check_finite(f_real, f_complex)
            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old
            if rate is not None and (rate >= 1 or
                                     rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol):
                break
            W += dW
            Z = RADAU_T.dot(W)
            if dW_norm == 0 or rate is not None and rate / (1 - rate) * dW_norm < tol:
                return True, k + 1, Z, rate
            dW_norm_old = dW_norm
        return False, k + 1, Z, rate

    def _step_impl(self):
        t, y, f, direction = self.t, self.y, self.f, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs, h_abs_old, error_norm_old = self.max_step, None, None
        elif self.h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old, error_norm_old = self.h_abs, self.h_abs_old, self.error_norm_old
        J, current_jac = self.J, self.current_jac
        lu_real, lu_complex = self.lu_real, self.lu_complex
        newton_scale = self.atol + np.abs(y) * self.rtol

        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            stages = [t + h * c for c in RADAU_C.tolist()]
            if self.prefetch is not None:
                self.prefetch(stages)
            Z0 = np.zeros((3, self.n)) if self.sol is None else self.sol(stages).T - y

            while True:
                if lu_real is None or lu_complex is None:
                    lu_real = self._factor(0, MU_REAL / h, J)
                    lu_complex = self._factor(1, MU_COMPLEX / h, J)
                converged, n_iter, Z, rate = self._collocate(
                    stages, y, h, Z0, newton_scale, lu_real, lu_complex)
                if converged or current_jac:
                    break
                J = self._jacobian(t, y)
                current_jac = True
                lu_real = lu_complex = None
            if not converged:
                h_abs *= 0.5
                lu_real = lu_complex = None
                continue

            y_new = y + Z[-1]
            ZE = Z.T.dot(RADAU_E) / h
            b = f + ZE
            error = self._solve(lu_real, b)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(error / scale)
            if not math.isfinite(error_norm):
                _check_finite(b)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                b = self._eval(t, y + error) + ZE
                error = self._solve(lu_real, b)
                error_norm = _rms(error / scale)
                if not math.isfinite(error_norm):
                    _check_finite(b)
            if not error_norm > 1:
                break
            factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
            h_abs *= max(MIN_FACTOR, safety * factor)
            lu_real = lu_complex = None
            rejected = True

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(MAX_FACTOR, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            lu_real = lu_complex = None
        f_new = self._eval(t_new, y_new)
        if recompute_jac:
            J = self._jacobian(t_new, y_new)
        current_jac = recompute_jac

        self.h_abs_old, self.error_norm_old = self.h_abs, error_norm
        self.h_abs = h_abs * factor
        self.t, self.y, self.f, self.J = t_new, y_new, f_new, J
        self.lu_real, self.lu_complex, self.current_jac = lu_real, lu_complex, current_jac
        self.sol = _RadauOutput(t, t_new, y, np.dot(Z.T, RADAU_P))
        self.steps.append(t_new)
        return True, None

    def _jacobian(self, t, y):
        self.njev += 1
        return np.array(self.jac(t, y), dtype=float)

    def _dense_output_impl(self):
        return self.sol


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


def stack_params(items):
    """One params dataclass whose fields are (n,) arrays over ``items``.

    The stacked object runs every actuator of a manipulator through the
    motor and drivetrain functions in one call.
    """
    cls = type(items[0])
    return cls(**{f.name: np.array([getattr(p, f.name) for p in items], dtype=float)
                  for f in fields(cls)})


def loop_record(gains, f_eq, motor: PmsmParams, plant: PmsmParams, eq: EquivalentParams):
    """:func:`closed_loop`'s constants of every actuator, shape (28, n_a).

    ``gains`` holds one :class:`SubsystemGains` per actuator; ``f_eq`` is the
    controller's nominal force-to-torque ratio and ``motor`` its nominal
    motor, ``plant`` the plant's motor and ``eq`` its reflected
    ``equivalent_params``, each stacked over the actuators.  The rows are
    delta and epsilon of the four subsystems, (-k)*sigma and (0.5*epsilon)*k
    of the four, f_eq, the nominal torque constant 1.5*p*psi, then the
    plant's p, R, L_d, L_q, psi, L_d - L_q, 1.5*p, J_eq, b_eq and f_eq.  Each
    product is formed once, in the order the equations form it, so the loop
    rounds as the plant's composed model does.  Column j, as Python floats,
    is actuator j's record.
    """
    delta, eps, k, sigma = (np.stack([getattr(g, a) for g in gains], axis=1)
                            for a in ("delta", "epsilon", "k", "sigma"))
    return np.array([*delta, *eps, *(-k * sigma), *(0.5 * eps * k),
                     f_eq, 1.5 * motor.pole_pairs * motor.pm_flux,
                     plant.pole_pairs, plant.stator_resistance, plant.inductance_d,
                     plant.inductance_q, plant.pm_flux, plant.inductance_d - plant.inductance_q,
                     1.5 * plant.pole_pairs, eq.inertia, eq.damping, eq.load_ratio])


def closed_loop(actuator, x, phi, ref):
    """One actuator's controller, plant and estimate rates.

    ``actuator`` is the actuator's :func:`loop_record`, its 28 constants as
    floats or each an array.  ``x`` is [theta, omega, i_q, i_d], ``phi``
    the four estimates and ``ref`` [q_ref, qd_ref, f_load].  Each
    subsystem's feedback is kappa = -(delta + epsilon*phi)/2 * Q
    (dissipative for phi >= 0) and its estimate follows phi_dot =
    -k*sigma*phi + (epsilon*k/2) Q^2, which is nonnegative at phi = 0, so a
    nonnegative estimate stays nonnegative under exact integration.  The
    velocity loop's torque command becomes the i_q reference through the
    nominal motor's torque constant (the reluctance term vanishes at the
    zero d-axis reference).  The plant is the dq current equations
    L_d di_d = V_d - R i_d + p omega L_q i_q and L_q di_q = V_q - R i_q -
    p omega (L_d i_d + psi), and the rigid shaft J_eq domega = tau - b_eq
    omega - f_eq f_load with tau = 1.5 p i_q (psi + (L_d - L_q) i_d).

    Returns the errors (Q1..Q4), (V_d, V_q), the plant's rates in ``x``'s
    order and the estimates' rates.  Everything is arithmetic: Python
    floats give one evaluation, arrays of equal shape give one per element,
    rounded alike.

    It must stay analytic in the state, with no ``abs``, ``min``/``max``,
    comparison or branch on a state or error value: the tracking Jacobian
    is its complex-step derivative, checked by central differences.
    """
    (d1, d2, d3, d4, e1, e2, e3, e4, kd1, kd2, kd3, kd4, ke1, ke2, ke3, ke4,
     f_eq, k_t, n_p, r, l_d, l_q, psi, dl, c_t, j_eq, b_eq, load_ratio) = actuator
    theta, omega, i_q, i_d = x
    p1, p2, p3, p4 = phi
    q_ref, qd_ref, f_load = ref
    g1 = -0.5 * (d1 + e1 * p1)  # -(delta + epsilon*phi)/2 of each subsystem
    g2 = -0.5 * (d2 + e2 * p2)
    g3 = -0.5 * (d3 + e3 * p3)
    g4 = -0.5 * (d4 + e4 * p4)
    q1 = f_eq * theta - q_ref
    q2 = f_eq * omega - qd_ref - g1 * q1  # offset by the position's virtual control
    iq_ref = g2 * q2 / k_t
    q3 = i_q - iq_ref
    q4 = i_d - 0.0  # the d-axis reference is zero
    v_d, v_q = g4 * q4, g3 * q3
    di_d = (v_d - r * i_d + n_p * omega * l_q * i_q) / l_d
    di_q = (v_q - r * i_q - n_p * omega * (l_d * i_d + psi)) / l_q
    domega = (c_t * i_q * (psi + dl * i_d) - b_eq * omega - load_ratio * f_load) / j_eq
    rates = (kd1 * p1 + ke1 * (q1 * q1), kd2 * p2 + ke2 * (q2 * q2),
             kd3 * p3 + ke3 * (q3 * q3), kd4 * p4 + ke4 * (q4 * q4))
    return (q1, q2, q3, q4), (v_d, v_q), (omega, domega, di_q, di_d), rates


# band [Hz] and number of sine tones of the load-force noise
NOISE_BAND_HZ = (0.2, 8.0)
NOISE_TONES = 24


@dataclass(frozen=True)
class DisturbanceProfile:
    """Load-force noise and plant parameter perturbation.

    ``force_noise_std`` scales band-limited noise (:data:`NOISE_TONES`
    tones in :data:`NOISE_BAND_HZ`) relative to the peak reference force;
    ``param_perturbation`` multiplies the plant's stator resistance, motor
    inertia and viscous damping by (1 + fraction) and divides its PM flux
    by it (:func:`_perturbed`).  The noise is seeded.
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

    def __call__(self, t):
        """Noise of the channels at time ``t``, shape (n_channels,), or at
        each of the instants ``t``, shape (len(t), n_channels)."""
        t = np.asarray(t)[..., None, None]
        return np.add.reduce(self.amp * np.sin(self.omega * t + self.phase), axis=-1)


class _ReferenceRows:
    """The right-hand side's reference at an instant: the row [q, qd,
    f_load] of all joints, as a tuple of floats.

    q, qd and the trajectory's force are :func:`reference_spline` at the
    instant clamped to [0, t_final]; under a ``disturbance`` with load
    noise, each joint's force gains its channel of the seeded tone noise at
    the instant itself, scaled by ``force_noise_std`` times the joint's peak
    reference force.  :meth:`prefetch` builds the rows of several instants
    in one spline call and one noise call and keeps them until the next
    prefetch.  A call returns a kept row, or builds the row of its one
    instant the same way; each instant's row has the same bits either way.
    """

    def __init__(self, reference: TrajectoryResult, disturbance: DisturbanceProfile):
        self.spline = reference_spline(reference)
        self.t_end = reference.t_final
        self.n_a = reference.q.shape[1]
        self.noise = _ToneNoise(np.random.default_rng(disturbance.seed), self.n_a)
        self.scale = (disturbance.force_noise_std * np.abs(reference.f_x).max(axis=0)
                      if disturbance.force_noise_std else None)
        self.kept = {}

    def rows(self, times) -> np.ndarray:
        """The rows of ``times``, shape (len(times), 3 n_a)."""
        rows = self.spline([min(max(t, 0.0), self.t_end) for t in times])
        if self.scale is not None:
            rows[:, 2 * self.n_a:] += self.scale * self.noise(times)
        return rows

    def prefetch(self, times):
        self.kept = dict(zip(times, map(tuple, self.rows(times).tolist())))

    def __call__(self, t) -> tuple:
        row = self.kept.get(t)
        return tuple(self.rows([t])[0].tolist()) if row is None else row


@dataclass
class TrackingTraces:
    """Dense closed-loop traces of one tracking run: the columns
    ``traces_to_csv`` writes (the i_q reference is i_q - Q3)."""

    times: np.ndarray
    velocity: np.ndarray  # (n_t, n_a) load-side [m/s]
    velocity_ref: np.ndarray
    i_q: np.ndarray
    i_d: np.ndarray
    v_q: np.ndarray
    v_d: np.ndarray
    q_err: np.ndarray  # (n_t, n_a, 4)
    phi: np.ndarray  # (n_t, n_a, 4)
    force_em: np.ndarray  # electromagnetic force tau_m / f_eq
    force_ref: np.ndarray  # load-force reference from the trajectory
    lyapunov: np.ndarray  # V(t), which lyapunov_audit fits
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
    dt: float = OUTPUT_DT,
    initial_position_error=None,
    duration: float = None,
    rtol: float = 1e-6,
    atol: float = 1e-8,
) -> TrackingTraces:
    """Closed-loop co-simulation of all EMLAs against the reference.

    The reference trajectory is evaluated exactly from its spline; the
    per-joint load force is the trajectory's inverse-dynamics force plus
    the configured disturbance.  Both come from :func:`reference_spline`,
    one spline call per attempted Radau step.  The controller reads the
    plant's states as they are.  ``dt`` is the output sampling step of
    the returned traces, not an integration step (the stiff solver
    adapts); the traces hold a sample every ``dt`` and end at
    ``duration``, onto which the last sample within dt/2 of it moves.
    Radau's Newton iterations use :func:`closed_loop`'s
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
    reference_row = _ReferenceRows(reference, disturbance)
    ref = reference_row.spline

    # one stacked parameter object per side: the controller's nominal
    # motor, and the (possibly skewed) plant reflected once for the run;
    # closed_loop's record of them, stacked for the Jacobian and one row
    # of Python floats per actuator for the rhs and the traces
    motor = stack_params([m.motor for m in actuator_models])
    drive = stack_params([m.drivetrain for m in actuator_models])
    plant_motor, plant_drive = _perturbed(motor, drive, disturbance.param_perturbation)
    f_eq = equivalent_params(drive).load_ratio
    stacked = loop_record(gains, f_eq, motor, plant_motor, equivalent_params(plant_drive))

    # Radau state: [theta, omega, i_q, i_d] rows of n_a, then the four
    # estimates phi of each joint.  Of a list of it, s[j:4 * n_a:n_a] is
    # joint j's plant state and s[k:k + 4], k = 4 * (n_a + j), its
    # estimates; joint j's [q_ref, qd_ref, f_load] is row[j::n_a].  The
    # plan holds each joint's record as floats and those three slices
    plan = [(loop, slice(j, 4 * n_a, n_a), slice(4 * (n_a + j), 4 * (n_a + j) + 4),
             slice(j, None, n_a)) for j, loop in enumerate(stacked.T.tolist())]

    def rhs(t, y):
        s = y.tolist()
        row = reference_row(t)
        out = [0.0] * (8 * n_a)
        for loop, x_at, phi_at, ref_at in plan:
            values = closed_loop(loop, s[x_at], s[phi_at], row[ref_at])
            out[x_at], out[phi_at] = values[2], values[3]
        return np.array(out)

    # Jacobian of rhs: one 8x8 block per actuator over its local state
    # [theta, omega, i_q, i_d, phi_1..phi_4], scattered to the Radau layout.
    # One closed_loop call on all actuators, each local state (row, joint)
    # stepped by i*h along each column, gives the blocks as Im(rates) / h
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

    # output grid: a sample every dt from 0, the last one, which lies within
    # dt/2 of duration, moved onto it (a run shorter than dt/2 keeps 0), plus
    # the exact collocation instants so reference columns can carry the
    # trajectory samples verbatim
    base_grid = np.arange(0.0, duration + 0.5 * dt, dt)
    base_grid = np.append(base_grid[:-1] if len(base_grid) > 1 else base_grid, duration)
    colloc = reference.times[reference.times <= duration + 1e-12]
    t_eval = np.union1d(base_grid, colloc)
    # Radau calls rhs at each attempted step's three stage instants in every
    # Newton iteration, so their reference rows are built once per attempt,
    # in one batch: on the grid winner's first 2 s, 6,875 distinct instants
    # among 17,188 evaluations
    steps = []
    sol = solve_ivp(
        rhs,
        (0.0, duration),
        y0,
        method=_RadauIIA,
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        jac=jac,
        max_step=RADAU_MAX_STEP,
        steps=steps,
        prefetch=reference_row.prefetch,
    )
    if not sol.success:
        raise RuntimeError(f"closed-loop integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        bad = np.argmax(~np.isfinite(sol.y).all(axis=0))
        raise FloatingPointError(f"closed-loop state diverged near t={sol.t[bad]:.4f}s")

    # closed_loop once per actuator on its columns of every output sample
    t = sol.t
    ref_rows = ref(np.clip(t, 0.0, t_end)).T
    per_joint = [closed_loop(loop, sol.y[x_at], sol.y[phi_at], ref_rows[ref_at])
                 for loop, x_at, phi_at, ref_at in plan]
    q_err = np.array([r[0] for r in per_joint]).transpose(2, 0, 1)  # (n_t, n_a, 4)
    v_d, v_q = np.array([r[1] for r in per_joint]).transpose(1, 2, 0)
    _, omega, i_q, i_d = sol.y[:4 * n_a].reshape(4, n_a, -1).transpose(0, 2, 1)
    _, qd_ref, f_ref = ref_rows.reshape(3, n_a, -1).transpose(0, 2, 1)
    # reference columns carry the trajectory samples verbatim at the
    # collocation instants
    k = np.minimum(np.searchsorted(reference.times, t), len(reference.times) - 1)
    colloc_hit = (reference.times[k] == t)[:, None]
    traces = TrackingTraces(
        times=t,
        velocity=f_eq * omega,
        velocity_ref=np.where(colloc_hit, reference.qd[k], qd_ref),
        i_q=i_q,
        i_d=i_d,
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


def lyapunov_audit(traces: TrackingTraces, gains) -> dict:
    """The ``lyapunov`` block of ``tracking.json``: the recorded V(t),
    ``traces.lyapunov`` of a run of at least two samples, against the
    analytic descent structure.

    ``zeta`` is the closed-form min(delta, k*sigma) over every subsystem;
    ``gains`` holds one :class:`SubsystemGains` per actuator.
    ``strictly_decreasing`` says whether V fell over the first output step,
    V(t_1) < V(t_0).  ``zeta_fit`` is minus the slope of a least-squares line
    through log V over the decay window: the samples from the start up to
    the first one at which V does not fall (the whole run if V falls
    throughout), at least two, of which those with V = 0 are left out; it is
    0.0 when fewer than two are left.  A run that starts on its reference,
    V(0) = 0, has no decay to fit, so both are ``None``.
    """
    zeta = float(min(min(g.delta.min(), (g.k * g.sigma).min()) for g in gains))
    v, t = traces.lyapunov, traces.times
    if v[0] == 0.0:
        return {"zeta": zeta, "zeta_fit": None, "strictly_decreasing": None}
    rises = np.flatnonzero(np.diff(v) >= 0.0)
    end = max(rises[0] + 1, 2) if rises.size else len(v)
    fit = v[:end] > 0.0
    log_v = np.log(v[:end][fit])
    zeta_fit = -float(np.polyfit(t[:end][fit], log_v, 1)[0]) if len(log_v) >= 2 else 0.0
    return {"zeta": zeta, "zeta_fit": zeta_fit, "strictly_decreasing": bool(v[1] < v[0])}


def tracking_errors(traces: TrackingTraces, settle_time: float = SETTLE_TIME) -> dict:
    """RMS force/velocity tracking errors after the initial transient,
    normalized by each joint's reference peak.  Raises ``ValueError`` when
    no sample lies at or after ``settle_time``."""
    mask = traces.times >= settle_time
    if not np.any(mask):
        raise ValueError(f"no tracking sample at or after settle_time = {settle_time} s "
                         f"(the run ends at {traces.times[-1]} s)")
    out = {"velocity_rms_frac": [], "force_rms_frac": [], "settle_time": settle_time}
    for j in range(traces.velocity.shape[1]):
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
    n_a = traces.velocity.shape[1]
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
