"""Direct-collocation trajectory generation on B-spline curves.

The configuration (piston strokes) is a clamped B-spline.  The stroke and
stroke-rate boxes hold on its control polygons, so by the convex-hull
property they hold at every instant: the q box bounds the control points,
and the q̇ box bounds the derivative's control points.  The force box holds
at the M+1 uniform collocation points only, the boundary states are
equalities, and the final time is a free variable inside its box.  The
strokes are the generalized coordinates, so the piston speed v_x is taken
as the stroke rate q̇ and its box is merged into the q̇ box.  The
transcribed problem is solved with SLSQP; the derivatives of (q, q̇, f_x)
by the decision vector are built once per iterate, from analytic basis
blocks and batched central differences of the inverse dynamics, and every
gradient and Jacobian is read from them.
"""

import json
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .bspline import basis_matrices, derivative_matrix

# central-difference step of the f_x partials; at 1e-5 the truncation error
# of the stroke partials reached 4e-6 of the cost on 3 s motions
FD_STEP = 1e-6
# a solve counts as converged when SLSQP succeeds within SLSQP_MAXITER
# iterations and no scaled constraint is violated by more than CONSTRAINT_TOL
CONSTRAINT_TOL = 1e-6
SLSQP_MAXITER = 200


def criterion_effort(f_x, dt: float) -> float:
    """0.5 * dt * sum_k f_k . f_k over all collocation samples."""
    f = np.asarray(f_x, dtype=float)
    return 0.5 * dt * float(np.sum(f * f))


def criterion_power(f_x, v_x, dt: float) -> float:
    """0.5 * dt * sum_k sum_i (f_ki v_ki)^2."""
    p = np.asarray(f_x, dtype=float) * np.asarray(v_x, dtype=float)
    return 0.5 * dt * float(np.sum(p * p))


def check_weights(weights, name: str = "weights") -> np.ndarray:
    """The two criterion weights as a float array; raises ``ValueError``
    unless both are finite and nonnegative with a positive sum."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (2,) or not np.all(np.isfinite(w) & (w >= 0)) or w.sum() <= 0:
        raise ValueError(
            f"{name} must be two finite nonnegative numbers with positive sum, got {w.tolist()}"
        )
    return w


def check_count(n, name: str, minimum: int = 1):
    """``n``, checked to be an integer (not a bool) >= ``minimum``; raises
    ``ValueError`` rather than truncate a float."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return n


@dataclass(frozen=True)
class NlpProblem:
    """Bounds, boundary states and transcription settings for one solve.

    ``criterion_scales`` divide the raw effort/power integrals so both
    criteria are O(1) on the intended problem; the reported result carries
    both the scaled criteria (entering the cost) and the raw values.
    """

    q_lower: np.ndarray
    q_upper: np.ndarray
    qd_lower: np.ndarray
    qd_upper: np.ndarray
    fx_lower: np.ndarray
    fx_upper: np.ndarray
    vx_lower: np.ndarray
    vx_upper: np.ndarray
    t_lower: float
    t_upper: float
    q_init: np.ndarray
    q_final: np.ndarray
    qd_init: np.ndarray
    qd_final: np.ndarray
    weights: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5]))
    criterion_scales: np.ndarray = field(default_factory=lambda: np.ones(2))
    degree: int = 5
    n_ctrl: int = 12
    n_partitions: int = 50

    def __post_init__(self):
        for name in (
            "q_lower", "q_upper", "qd_lower", "qd_upper", "fx_lower", "fx_upper",
            "vx_lower", "vx_upper", "q_init", "q_final", "qd_init", "qd_final",
            "weights", "criterion_scales",
        ):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        # the transcription divides by t_final, which SLSQP keeps above t_lower
        if not (np.isfinite(self.t_lower) and self.t_lower > 0):
            raise ValueError(f"t_lower must be finite and > 0, got {self.t_lower!r}")
        for lo, hi in (
            (self.q_lower, self.q_upper),
            (self.qd_lower, self.qd_upper),
            (self.fx_lower, self.fx_upper),
            (self.vx_lower, self.vx_upper),
            ((self.t_lower,), (self.t_upper,)),
        ):
            if np.any(np.asarray(lo) > np.asarray(hi)):
                raise ValueError("lower bounds must not exceed upper bounds")
        check_weights(self.weights)
        for name in ("degree", "n_ctrl", "n_partitions"):
            check_count(getattr(self, name), name)

    @property
    def n_joints(self) -> int:
        return len(self.q_lower)

    def check_boundary_feasible(self):
        eps = 1e-12
        for val, lo, hi, nm in (
            (self.q_init, self.q_lower, self.q_upper, "q_init"),
            (self.q_final, self.q_lower, self.q_upper, "q_final"),
            (self.qd_init, self.qd_lower, self.qd_upper, "qd_init"),
            (self.qd_final, self.qd_lower, self.qd_upper, "qd_final"),
        ):
            if np.any(val < lo - eps) or np.any(val > hi + eps):
                raise ValueError(f"boundary state {nm} violates its box bounds")


@dataclass
class TrajectoryResult:
    """Solved trajectory sampled on its collocation grid; its fields but
    ``initial_guess`` are the keys of ``trajectory.json``, in that order."""

    degree: int
    control_points: np.ndarray
    t_final: float
    times: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    v_x: np.ndarray
    f_x: np.ndarray
    power: np.ndarray
    psi: np.ndarray
    psi_raw: dict
    weights: np.ndarray
    cost: float
    constraint_violation: float
    converged: bool
    outer_iterations: int
    initial_guess: np.ndarray = None

    def __post_init__(self):
        # the controller and the report index each sampled array by (time, joint)
        if self.times.ndim != 1 or len(self.times) < 2 or self.control_points.ndim != 2:
            raise ValueError(f"expected at least 2 times and 2-D control points, got shapes "
                             f"{self.times.shape} and {self.control_points.shape}")
        samples = (len(self.times), self.control_points.shape[1])
        for name in ("q", "qd", "qdd", "v_x", "f_x", "power"):
            if getattr(self, name).shape != samples:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, "
                                 f"expected {samples}")

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "initial_guess"}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrajectoryResult":
        """Read ``to_dict`` output as strictly as a config block: a missing,
        unknown or mistyped key raises ``ConfigError`` naming its path."""
        from . import configio  # configio imports this module

        def criteria(value, path):
            keys = ("effort", "power")
            configio.check_keys(value, path, keys, "psi_raw", required=keys)
            return {k: configio.number(value[k], f"{path}.{k}") for k in keys}

        return configio.read(cls, doc, "trajectory", {
            float: configio.number, np.ndarray: configio.vector, bool: configio.boolean,
            "degree": lambda n, path: check_count(n, "degree"),
            "outer_iterations": lambda n, path: check_count(n, "outer_iterations", 0),
            "psi_raw": criteria,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        n = self.q.shape[1]
        header = (
            ["t"]
            + [f"q{i+1}" for i in range(n)]
            + [f"dq{i+1}" for i in range(n)]
            + [f"vx{i+1}" for i in range(n)]
            + [f"fx{i+1}" for i in range(n)]
            + [f"p{i+1}" for i in range(n)]
        )
        table = np.column_stack([self.times, self.q, self.qd, self.v_x, self.f_x, self.power])
        row = ",".join(["%.12g"] * len(header))
        rows = [row % tuple(r) for r in table.tolist()]
        return "\n".join([",".join(header)] + rows) + "\n"


def _solve_slsqp(kern, z0):
    """SLSQP from z0; returns (x, converged, nit, max constraint violation)."""
    import warnings

    from scipy.optimize import minimize as scipy_minimize

    cons = [
        {"type": "eq", "fun": kern.eq, "jac": kern.eq_jac},
        {"type": "ineq", "fun": kern.ineq, "jac": kern.ineq_jac},
    ]
    with warnings.catch_warnings():
        # SLSQP's line search probes slightly outside the box and clips;
        # routine behavior, not actionable for callers
        warnings.filterwarnings(
            "ignore", message="Values in x were outside bounds", category=RuntimeWarning
        )
        res = scipy_minimize(
            kern.cost,
            z0,
            jac=kern.cost_grad,
            method="SLSQP",
            bounds=kern.bounds,
            constraints=cons,
            options={"maxiter": SLSQP_MAXITER, "ftol": 1e-10},
        )
    viol = max(np.abs(kern.eq(res.x)).max(), np.maximum(0.0, -kern.ineq(res.x)).max())
    return res.x, bool(res.status == 0 and viol <= CONSTRAINT_TOL), int(res.nit), float(viol)


class _Transcription:
    """Evaluation kernel: decision vector -> trajectories, criteria, derivatives.

    The decision vector is z = [c.ravel(), t_final] with c the (n_ctrl, n)
    control points.  The sampled states are x_k = B_k c / t_final^k (q, q̇,
    q̈ for k = 0, 1, 2), so dx_k/dc is the constant block B_k ⊗ I over
    t_final^k and dx_k/dt_final is -k x_k / t_final.  The q box is SLSQP's
    bound on c.  The q̇ box bounds the rate polygon r = D c / t_final, with
    D from ``derivative_matrix``, so dr/dc is D ⊗ I over t_final and
    dr/dt_final is -r / t_final.  The strokes are the generalized
    coordinates, so the piston speed v_x is q̇: its box narrows the q̇ box
    and adds no rows.
    """

    def __init__(self, problem: NlpProblem, dynamics, weights):
        p = self.problem = problem
        self.dynamics = dynamics
        self.n, self.n_ctrl, self.m = p.n_joints, p.n_ctrl, p.n_partitions
        m1 = self.m + 1
        self.basis = basis_matrices(p.n_ctrl, p.degree, np.arange(m1) / self.m)
        self.rate_matrix = derivative_matrix(p.n_ctrl, p.degree)

        def kron_block(b):
            # b ⊗ I and a zero t_final column: (len(b), n, n_z), c[j, a] at z[j * n + a]
            block = np.zeros((len(b), self.n, self.n_ctrl * self.n + 1))
            kron = np.einsum("kj,ab->kajb", b, np.eye(self.n))
            block[..., :-1] = kron.reshape(len(b), self.n, -1)
            return block

        self.blocks = [kron_block(b) for b in self.basis]
        self.rate_block = kron_block(self.rate_matrix)
        self.weights_raw = check_weights(weights)
        self.weights = self.weights_raw / self.weights_raw.sum()
        qd_lower = np.maximum(p.qd_lower, p.vx_lower)
        qd_upper = np.minimum(p.qd_upper, p.vx_upper)
        self.boxes = [(qd_lower, qd_upper), (p.fx_lower, p.fx_upper)]
        self.box_scales = [np.maximum(1.0, np.maximum(abs(lo), abs(hi))) for lo, hi in self.boxes]
        s_q = np.maximum(1.0, np.abs(p.q_upper - p.q_lower))
        s_qd = np.maximum(1.0, np.abs(qd_upper - qd_lower))
        self.eq_target = np.concatenate([p.q_init, p.q_final, p.qd_init, p.qd_final])
        self.eq_scale = np.concatenate([s_q, s_q, s_qd, s_qd])
        self.bounds = list(
            zip(np.tile(p.q_lower, self.n_ctrl), np.tile(p.q_upper, self.n_ctrl))
        ) + [(p.t_lower, p.t_upper)]
        self._value_cache = (None, None)
        self._jac_cache = (None, None)

    def initial_guess(self):
        frac = np.linspace(0.0, 1.0, self.n_ctrl)[:, None]
        c0 = (1 - frac) * self.problem.q_init + frac * self.problem.q_final
        t0 = 0.5 * (self.problem.t_lower + self.problem.t_upper)
        return np.concatenate([c0.ravel(), [t0]])

    # -- evaluation --------------------------------------------------------
    def values(self, z):
        key = z.tobytes()
        if self._value_cache[0] == key:
            return self._value_cache[1]
        c, t_final = z[:-1].reshape(self.n_ctrl, self.n), z[-1]
        b0, b1, b2 = self.basis
        q = b0 @ c
        qd = b1 @ c / t_final
        qdd = b2 @ c / t_final**2
        f = self.dynamics(q, qd, qdd)[1]
        dt = t_final / self.m
        psi_raw = np.array([criterion_effort(f, dt), criterion_power(f, qd, dt)])
        psi = psi_raw / self.problem.criterion_scales
        out = {
            "c": c, "t_final": t_final, "q": q, "qd": qd, "qdd": qdd,
            "rates": self.rate_matrix @ c / t_final,
            "f": f, "dt": dt, "psi": psi, "psi_raw": psi_raw,
            "cost": float(self.weights @ psi),
        }
        self._value_cache = (key, out)
        return out

    def jacobians(self, z):
        """d(q, q̇, f_x)/dz, each of shape (M+1, n, n_z).

        The partials of f_x in (q, q̇, q̈) are central differences: all 6n
        perturbed copies of the trajectory are stacked on a leading axis so
        the dynamics runs once over shape (6n, M+1, n).  They are chained
        through the state derivatives in one batched product.
        """
        key = z.tobytes()
        if self._jac_cache[0] == key:
            return self._jac_cache[1]
        vals = self.values(z)
        t_final = vals["t_final"]
        states = (vals["q"], vals["qd"], vals["qdd"])
        m1, n = states[0].shape
        dx = []
        for k, (block, x) in enumerate(zip(self.blocks, states)):
            d = block / t_final**k
            d[..., -1] = -k * x / t_final
            dx.append(d)
        steps = FD_STEP * np.eye(n)[:, None, :]
        stacked = [np.broadcast_to(x, (6 * n, m1, n)).copy() for x in states]
        for k, big in enumerate(stacked):
            big[2 * k * n: 2 * (k + 1) * n: 2] += steps
            big[2 * k * n + 1: 2 * (k + 1) * n: 2] -= steps
        f_all = self.dynamics(*stacked)[1]
        # row k * n + b: d f_x / d (x_k)_b over (M+1, n)
        diffs = (f_all[0::2] - f_all[1::2]) / (2 * FD_STEP)
        df = diffs.transpose(1, 2, 0) @ np.concatenate(dx, axis=1)
        out = {"q": dx[0], "qd": dx[1], "f": df}
        self._jac_cache = (key, out)
        return out

    def cost(self, z):
        return self.values(z)["cost"]

    def cost_grad(self, z):
        vals = self.values(z)
        jac = self.jacobians(z)
        f, qd, dt, t_final = vals["f"], vals["qd"], vals["dt"], vals["t_final"]
        w = self.weights / self.problem.criterion_scales
        # sensitivities of the scaled cost to the sampled forces and rates
        fv = f * qd
        d_f = w[0] * dt * f + w[1] * dt * fv * qd
        d_qd = w[1] * dt * fv * f
        grad = np.einsum("ka,kaz->z", d_f, jac["f"]) + np.einsum("ka,kaz->z", d_qd, jac["qd"])
        # explicit dt = t/m dependence of both criteria
        grad[-1] += self.weights @ (vals["psi"] / t_final)
        return grad

    # -- constraints, in SLSQP's sign: eq == 0, ineq >= 0 ------------------
    def eq(self, z):
        vals = self.values(z)
        q, qd = vals["q"], vals["qd"]
        return (np.concatenate([q[0], q[-1], qd[0], qd[-1]]) - self.eq_target) / self.eq_scale

    def eq_jac(self, z):
        jac = self.jacobians(z)
        dq, dqd = jac["q"], jac["qd"]
        return np.concatenate([dq[0], dq[-1], dqd[0], dqd[-1]]) / self.eq_scale[:, None]

    def ineq(self, z):
        """Scaled margins to the q̇ box on the rate polygon, which bound q̇ at
        every instant, and to the f_x box at every sample."""
        vals = self.values(z)
        parts = []
        for x, (lo, hi), s in zip((vals["rates"], vals["f"]), self.boxes, self.box_scales):
            parts += [(hi - x) / s, (x - lo) / s]
        return np.concatenate([part.ravel() for part in parts])

    def ineq_jac(self, z):
        vals = self.values(z)
        d_rates = self.rate_block / vals["t_final"]
        d_rates[..., -1] = -vals["rates"] / vals["t_final"]
        rows = []
        for d, s in zip((d_rates, self.jacobians(z)["f"]), self.box_scales):
            scaled = (d / s[:, None]).reshape(-1, d.shape[-1])
            rows += [-scaled, scaled]
        return np.concatenate(rows)


def solve_inner(
    problem: NlpProblem,
    dynamics,
    weights=None,
    initial_guess=None,
) -> TrajectoryResult:
    """Solve the transcribed NLP for one weight vector.

    ``dynamics`` maps batched (q, qd, qdd) with shape (M+1, n) to the pair
    (v_x, f_x); only f_x is used, since in stroke coordinates v_x is qd, and
    the ``vx_*`` box is intersected with the ``qd_*`` box.  ``weights``
    overrides ``problem.weights`` and is checked the same way.  The start is
    the deterministic straight-line guess unless ``initial_guess`` provides
    a packed [c.ravel(), t_final] vector (used for warm starts).  The
    solve is deterministic given the start point.
    """
    problem.check_boundary_feasible()
    kern = _Transcription(problem, dynamics, problem.weights if weights is None else weights)
    z0 = kern.initial_guess() if initial_guess is None else np.asarray(initial_guess, dtype=float)
    x, converged, nit, violation = _solve_slsqp(kern, z0)
    vals = kern.values(x)
    return TrajectoryResult(
        degree=problem.degree,
        control_points=vals["c"],
        t_final=vals["t_final"],
        times=np.linspace(0.0, vals["t_final"], problem.n_partitions + 1),
        q=vals["q"],
        qd=vals["qd"],
        qdd=vals["qdd"],
        v_x=vals["qd"].copy(),
        f_x=vals["f"],
        power=vals["qd"] * vals["f"],
        psi=vals["psi"],
        psi_raw={"effort": vals["psi_raw"][0], "power": vals["psi_raw"][1]},
        weights=kern.weights_raw,
        cost=float(kern.weights_raw @ vals["psi"]),
        constraint_violation=violation,
        converged=converged,
        outer_iterations=nit,
        initial_guess=z0,
    )

