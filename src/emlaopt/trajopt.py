"""Direct-collocation trajectory generation on B-spline curves.

The configuration (piston strokes) is a clamped B-spline.  It interpolates
its end control points and leaves them along its end legs, so the boundary
states fix the four end control points exactly; the other n_ctrl - 4 and
the final time are the n(n_ctrl - 4) + 1 free variables.  The stroke and
stroke-rate boxes hold on the control polygons, so by the convex-hull
property they hold at every instant; the force box holds at the M+1
collocation points only.  The piston speed v_x is the stroke rate q̇ (the
strokes are the generalized coordinates), so its box is merged into the q̇
box.  SLSQP gets one inequality row per inner rate-polygon point (the end
points are the boundary rates) and force sample, n(n_ctrl - 3) + n(M + 1),
and no equality.  The derivatives of (q, q̇, f_x) by the decision vector
are built once per iterate, from analytic basis blocks and one batch of
inverse-dynamics differences (central in q, exact unit steps in q̇ and q̈).
SLSQP solves for z / s, s the inverse square root of the cost's Gauss–Newton
diagonal at the start point, so its identity start fits the cost's curvature.
"""

import json
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .bspline import basis_matrices, derivative_matrix

# central-difference step of the f_x partials in q; at 1e-5 the truncation error
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
        for f in fields(self):
            if f.type is np.ndarray:
                object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=float))
        # the transcription divides by t_final, which SLSQP keeps above t_lower
        if not (np.isfinite(self.t_lower) and self.t_lower > 0):
            raise ValueError(f"t_lower must be finite and > 0, got {self.t_lower!r}")
        if np.any(self.q_lower > self.q_upper) or self.t_lower > self.t_upper:
            raise ValueError("lower bounds must not exceed upper bounds")
        # a rate or force entry's one row is the margin to its nearer side,
        # which a box of zero width does not have
        for name, (lo, hi) in (("rate box (qd_* within vx_*)", self.rate_box),
                               ("force box fx_*", (self.fx_lower, self.fx_upper))):
            if np.any(lo >= hi):
                raise ValueError(f"the {name} must be wider than zero, got [{lo}, {hi}]")
        check_weights(self.weights)
        for name in ("degree", "n_ctrl", "n_partitions"):
            check_count(getattr(self, name), name)
        # the boundary states fix c_0, c_1, c_{n-2} and c_{n-1}, four distinct points
        check_count(self.n_ctrl, "n_ctrl", 4)

    @property
    def n_joints(self) -> int:
        return len(self.q_lower)

    @property
    def rate_box(self):
        """The q̇ box intersected with the v_x box, since v_x is q̇."""
        return np.maximum(self.qd_lower, self.vx_lower), np.minimum(self.qd_upper, self.vx_upper)

    def end_points(self):
        """(base, slope), both (n_ctrl, n), zero on the free rows: the end
        control points the boundary states fix, base + t_final * slope, are
        c_0 = q_init, c_1 = q_init + t_final qd_init / D[0, 1], c_{n-2} =
        q_final - t_final qd_final / D[-1, -1] and c_{n-1} = q_final."""
        d = derivative_matrix(self.n_ctrl, self.degree)
        base = np.zeros((self.n_ctrl, self.n_joints))
        slope = np.zeros_like(base)
        base[:2], base[-2:] = self.q_init, self.q_final
        slope[1], slope[-2] = self.qd_init / d[0, 1], -self.qd_final / d[-1, -1]
        return base, slope

    def check_boundary_feasible(self) -> tuple[float, float]:
        """The t_final box that keeps c_1 and c_{n-2} in the q box; raises
        ``ValueError`` if it is empty or a boundary state leaves its box."""
        eps, q_box = 1e-12, (self.q_lower, self.q_upper)
        for val, (lo, hi), nm in ((self.q_init, q_box, "q_init"), (self.q_final, q_box, "q_final"),
                                  (self.qd_init, self.rate_box, "qd_init"),
                                  (self.qd_final, self.rate_box, "qd_final")):
            if np.any(val < lo - eps) or np.any(val > hi + eps):
                raise ValueError(f"boundary state {nm} violates its box bounds")
        # c_1 and c_{n-2} move linearly in t_final away from q_init and q_final
        base, slope = self.end_points()
        moving = slope != 0
        room = np.where(slope > 0, self.q_upper - base, self.q_lower - base)
        t_upper = float(min([self.t_upper, *(room[moving] / slope[moving])]))
        if t_upper < self.t_lower:
            raise ValueError(f"the boundary rates move c_1 or c_{{n-2}} out of the q box for every "
                             f"t_final in [{self.t_lower}, {self.t_upper}]")
        return self.t_lower, t_upper


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
        header = ["t"] + [f"{name}{i+1}" for name in ("q", "dq", "vx", "fx", "p") for i in range(n)]
        table = np.column_stack([self.times, self.q, self.qd, self.v_x, self.f_x, self.power])
        row = ",".join(["%.12g"] * len(header))
        rows = [row % tuple(r) for r in table.tolist()]
        return "\n".join([",".join(header)] + rows) + "\n"


def _solve_slsqp(kern, z0):
    """SLSQP from z0 on y = z / s, s = d^(-1/2) for the ``curvature`` d at z0
    floored at 1e-12 of its largest entry (s = 1 where d is zero or not
    finite), so that SLSQP's identity start fits the cost's curvature.  Each
    evaluation and the returned x take z = s y clipped to the box, bit for
    bit.  Returns (x, converged, nit, max constraint violation)."""
    import warnings

    from scipy.optimize import minimize as scipy_minimize

    lo, hi = np.array(kern.bounds).T
    d = kern.curvature(z0)
    finite = np.isfinite(d)
    d = np.where(finite, np.maximum(d, 1e-12 * d[finite].max(initial=0.0)), 0.0)
    s = np.divide(1.0, np.sqrt(d), out=np.ones_like(d), where=d > 0)
    z_of = lambda y: np.clip(s * y, lo, hi)

    with warnings.catch_warnings():
        # SLSQP's line search probes slightly outside the box and clips;
        # routine behavior, not actionable for callers
        warnings.filterwarnings(
            "ignore", message="Values in x were outside bounds", category=RuntimeWarning
        )
        res = scipy_minimize(
            lambda y: kern.cost(z_of(y)),
            z0 / s,
            jac=lambda y: s * kern.cost_grad(z_of(y)),
            method="SLSQP",
            bounds=list(zip(lo / s, hi / s)),
            constraints=[{"type": "ineq", "fun": lambda y: kern.ineq(z_of(y)),
                          "jac": lambda y: kern.ineq_jac(z_of(y)) * s}],
            options={"maxiter": SLSQP_MAXITER, "ftol": 1e-10},
        )
    x = z_of(res.x)
    viol = np.maximum(0.0, -kern.ineq(x)).max()
    return x, bool(res.status == 0 and viol <= CONSTRAINT_TOL), int(res.nit), float(viol)


class _Transcription:
    """Evaluation kernel: decision vector -> trajectories, criteria, derivatives.

    The decision vector z = [c_2 … c_{n-3}, t_final] holds the free rows of
    the (n_ctrl, n) control points c; the boundary states fix the other four
    at ``NlpProblem.end_points``, base + t_final * slope.  The states q, q̇,
    q̈ and the inner rate polygon are b c / t_final^k for b = B_0, B_1, B_2
    and D (``derivative_matrix``) less the end rows, which give qd_init and
    qd_final, k = 0, 1, 2 and 1: each has the block b ⊗ I on the free rows
    over t_final^k and the t_final column b slope / t_final^k - k x /
    t_final.  The q box bounds the free rows and, through
    ``check_boundary_feasible``, t_final.  Each inner rate-polygon point and
    f_x sample of a joint gives one row, the scaled margin to the nearer
    side of its box: 25 variables and 180 rows on the benchmark problem.
    """

    def __init__(self, problem: NlpProblem, dynamics, weights):
        p = self.problem = problem
        self.dynamics = dynamics
        self.n, self.n_ctrl, self.m = p.n_joints, p.n_ctrl, p.n_partitions
        t_box = p.check_boundary_feasible()
        self.end_base, self.end_slope = p.end_points()
        basis = basis_matrices(p.n_ctrl, p.degree, np.arange(self.m + 1) / self.m)
        n_free = self.n_ctrl - 4

        def block(b):
            # b ⊗ I on the free rows, c[j, a] at z[(j - 2) n + a], and a t_final
            # column set per iterate: (len(b), n, n_z)
            kron = np.einsum("kj,ab->kajb", b[:, 2:-2], np.eye(self.n))
            kron = kron.reshape(len(b), self.n, n_free * self.n)
            return np.concatenate([kron, np.zeros((len(b), self.n, 1))], axis=-1)

        # (b, its block, b slope, k) of q, q̇, q̈ and the inner rate polygon
        inner = derivative_matrix(p.n_ctrl, p.degree)[1:-1]
        self.maps = [(b, block(b), b @ self.end_slope, k)
                     for b, k in zip((*basis, inner), (0, 1, 2, 1))]
        self.weights_raw = check_weights(weights)
        self.weights = self.weights_raw / self.weights_raw.sum()
        self.boxes = [p.rate_box, (p.fx_lower, p.fx_upper)]
        self.box_scales = [np.maximum(1.0, np.maximum(abs(lo), abs(hi))) for lo, hi in self.boxes]
        self.bounds = list(zip(np.tile(p.q_lower, n_free), np.tile(p.q_upper, n_free))) + [t_box]
        self._value_cache = (None, None)
        self._jac_cache = (None, None)

    def initial_guess(self):
        frac = np.linspace(0.0, 1.0, self.n_ctrl)[:, None]
        c0 = (1 - frac) * self.problem.q_init + frac * self.problem.q_final
        return np.concatenate([c0.ravel(), [0.5 * sum(self.bounds[-1])]])

    def free(self, packed):
        """z from a packed [c.ravel(), t_final]: its free rows and t_final."""
        return np.concatenate([packed[2 * self.n: -2 * self.n - 1], packed[-1:]])

    # -- evaluation --------------------------------------------------------
    def values(self, z):
        key = z.tobytes()
        if self._value_cache[0] == key:
            return self._value_cache[1]
        t_final = z[-1]
        c = self.end_base + t_final * self.end_slope
        c[2:-2] = z[:-1].reshape(-1, self.n)
        q, qd, qdd, rates = [b @ c / t_final**k for b, _, _, k in self.maps]
        f = self.dynamics(q, qd, qdd)[1]
        dt = t_final / self.m
        psi_raw = np.array([criterion_effort(f, dt), criterion_power(f, qd, dt)])
        psi = psi_raw / self.problem.criterion_scales
        out = {
            "c": c, "t_final": t_final, "q": q, "qd": qd, "qdd": qdd,
            "rates": rates, "f": f, "dt": dt, "psi": psi, "psi_raw": psi_raw,
            "cost": float(self.weights @ psi),
        }
        self._value_cache = (key, out)
        return out

    def force_partials(self, vals):
        """d f_x / d(x_k)_b for x = q, q̇, q̈ in row k n + b, each (M+1, n), from
        one dynamics run over 5n copies of the states: joint b's q at
        ±FD_STEP, q̇ at ±1 and q̈ at +1.  f_x is quadratic in q̇ and affine in
        q̈ at fixed q, so the unit steps, the last against the value row, are
        exact to rounding."""
        n, eye = self.n, np.eye(self.n)[:, None, :]
        q, qd, qdd = [np.repeat(vals[x][None], 5 * n, axis=0) for x in ("q", "qd", "qdd")]
        for x, first, step in ((q, 0, FD_STEP), (qd, 2 * n, 1.0)):
            x[first: first + 2 * n: 2] += step * eye
            x[first + 1: first + 2 * n: 2] -= step * eye
        qdd[4 * n:] += eye
        f = self.dynamics(q, qd, qdd)[1]
        return np.concatenate([(f[0: 2 * n: 2] - f[1: 2 * n: 2]) / (2 * FD_STEP),
                               (f[2 * n: 4 * n: 2] - f[2 * n + 1: 4 * n: 2]) / 2.0,
                               f[4 * n:] - vals["f"]])

    def jacobians(self, z):
        """d(q̇, f_x)/dz, each of shape (M+1, n, n_z), and d(rates)/dz; the
        :meth:`force_partials` are chained through the state derivatives in
        one batched product."""
        key = z.tobytes()
        if self._jac_cache[0] == key:
            return self._jac_cache[1]
        vals = self.values(z)
        t_final = vals["t_final"]
        dx = []
        for (_, block, slope, k), name in zip(self.maps, ("q", "qd", "qdd", "rates")):
            d = block / t_final**k
            d[..., -1] = slope / t_final**k - k * vals[name] / t_final
            dx.append(d)
        df = self.force_partials(vals).transpose(1, 2, 0) @ np.concatenate(dx[:3], axis=1)
        out = {"qd": dx[1], "f": df, "rates": dx[3]}
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

    def curvature(self, z):
        """Diagonal of the cost's Gauss–Newton Hessian, sum_j (dr_j/dz_i)^2, for
        the residuals r = [sqrt(dt w̃_1) f, sqrt(dt w̃_2) f q̇] whose half
        squared norm is the cost (w̃: the weights over ``criterion_scales``);
        dt = t_final / M adds r / (2 t_final) to the t_final column."""
        vals, jac = self.values(z), self.jacobians(z)
        f, qd = vals["f"][..., None], vals["qd"][..., None]
        w = self.weights / self.problem.criterion_scales
        dt_col = np.eye(len(z))[-1] * (0.5 / vals["t_final"])
        d_f = jac["f"] + f * dt_col
        d_fv = jac["f"] * qd + f * jac["qd"] + f * qd * dt_col
        return vals["dt"] * (w[0] * np.einsum("kaz,kaz->z", d_f, d_f)
                             + w[1] * np.einsum("kaz,kaz->z", d_fv, d_fv))

    # -- constraints, in SLSQP's sign: ineq >= 0 ---------------------------
    def ineq(self, z):
        """Scaled margins to the nearer side of the q̇ box on the inner rate
        polygon, which with the boundary rates bound q̇ at every instant, and
        of the f_x box at every sample: min(hi - x, x - lo) / s."""
        vals = self.values(z)
        return np.concatenate([
            (np.minimum(hi - x, x - lo) / s).ravel()
            for x, (lo, hi), s in zip((vals["rates"], vals["f"]), self.boxes, self.box_scales)
        ])

    def ineq_jac(self, z):
        """The nearer side's row of each margin; a tie takes the upper side."""
        vals, jac = self.values(z), self.jacobians(z)
        rows = []
        for x, d, (lo, hi), s in zip((vals["rates"], vals["f"]), (jac["rates"], jac["f"]),
                                     self.boxes, self.box_scales):
            sign = 1.0 - 2.0 * (hi - x <= x - lo)
            rows.append((d / s[:, None] * sign[..., None]).reshape(-1, d.shape[-1]))
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
    a packed [c.ravel(), t_final] vector (used for warm starts); only its
    free rows and t_final are read, since the boundary states fix the four
    end control points.  The solve is deterministic given the start point.
    """
    kern = _Transcription(problem, dynamics, problem.weights if weights is None else weights)
    z0 = kern.initial_guess() if initial_guess is None else np.asarray(initial_guess, dtype=float)
    x, converged, nit, violation = _solve_slsqp(kern, kern.free(z0))
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

