"""Direct-collocation trajectory generation on B-spline curves.

The configuration (piston strokes) is a clamped B-spline; bounds on
positions, rates, piston velocities and forces are enforced at M+1 uniform
collocation points, boundary states as equalities, and the final time is a
free variable inside its box.  The transcribed problem is solved with
SLSQP; gradients combine analytic basis chain rules with batched central
differences of the inverse dynamics.
"""

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .bspline import basis_matrices

FD_STEP = 1e-5


@dataclass(frozen=True)
class TimeGrid:
    """M+1 uniform collocation instants over [0, t_final]."""

    t_final: float
    n_partitions: int

    def __post_init__(self):
        if self.t_final <= 0 or self.n_partitions < 1:
            raise ValueError("need t_final > 0 and at least one partition")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_partitions

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_partitions + 1)


def criterion_effort(f_x, dt: float) -> float:
    """0.5 * dt * sum_k f_k . f_k over all collocation samples."""
    f = np.asarray(f_x, dtype=float)
    return 0.5 * dt * float(np.sum(f * f))


def criterion_power(f_x, v_x, dt: float) -> float:
    """0.5 * dt * sum_k sum_i (f_ki v_ki)^2."""
    p = np.asarray(f_x, dtype=float) * np.asarray(v_x, dtype=float)
    return 0.5 * dt * float(np.sum(p * p))


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
    ctrl_lower: np.ndarray = None  # evaluable box for control points
    ctrl_upper: np.ndarray = None

    def __post_init__(self):
        for name in (
            "q_lower", "q_upper", "qd_lower", "qd_upper", "fx_lower", "fx_upper",
            "vx_lower", "vx_upper", "q_init", "q_final", "qd_init", "qd_final",
            "weights", "criterion_scales",
        ):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for lo, hi in (
            (self.q_lower, self.q_upper),
            (self.qd_lower, self.qd_upper),
            (self.fx_lower, self.fx_upper),
            (self.vx_lower, self.vx_upper),
            ((self.t_lower,), (self.t_upper,)),
        ):
            if np.any(np.asarray(lo) > np.asarray(hi)):
                raise ValueError("lower bounds must not exceed upper bounds")
        if np.any(self.weights < 0) or self.weights.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        if self.ctrl_lower is None:
            pad = 0.1 * (self.q_upper - self.q_lower)
            object.__setattr__(self, "ctrl_lower", self.q_lower - pad)
            object.__setattr__(self, "ctrl_upper", self.q_upper + pad)
        else:
            object.__setattr__(self, "ctrl_lower", np.asarray(self.ctrl_lower, dtype=float))
            object.__setattr__(self, "ctrl_upper", np.asarray(self.ctrl_upper, dtype=float))

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
        if self.t_lower > self.t_upper:
            raise ValueError("empty final-time interval")


@dataclass
class TrajectoryResult:
    """Solved trajectory sampled on its collocation grid."""

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
    degree: int
    initial_guess: np.ndarray = None

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "control_points": self.control_points.tolist(),
            "t_final": self.t_final,
            "times": self.times.tolist(),
            "q": self.q.tolist(),
            "qd": self.qd.tolist(),
            "qdd": self.qdd.tolist(),
            "v_x": self.v_x.tolist(),
            "f_x": self.f_x.tolist(),
            "power": self.power.tolist(),
            "psi": self.psi.tolist(),
            "psi_raw": self.psi_raw,
            "weights": self.weights.tolist(),
            "cost": self.cost,
            "constraint_violation": self.constraint_violation,
            "converged": self.converged,
            "outer_iterations": self.outer_iterations,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrajectoryResult":
        arr = lambda k: np.asarray(doc[k], dtype=float)
        return cls(
            control_points=arr("control_points"),
            t_final=float(doc["t_final"]),
            times=arr("times"),
            q=arr("q"),
            qd=arr("qd"),
            qdd=arr("qdd"),
            v_x=arr("v_x"),
            f_x=arr("f_x"),
            power=arr("power"),
            psi=arr("psi"),
            psi_raw=dict(doc["psi_raw"]),
            weights=arr("weights"),
            cost=float(doc["cost"]),
            constraint_violation=float(doc["constraint_violation"]),
            converged=bool(doc["converged"]),
            outer_iterations=int(doc["outer_iterations"]),
            degree=int(doc["degree"]),
        )

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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for k, t in enumerate(self.times):
            row = [t] + list(self.q[k]) + list(self.qd[k]) + list(self.v_x[k]) \
                + list(self.f_x[k]) + list(self.power[k])
            writer.writerow(["%.12g" % x for x in row])
        return buf.getvalue()


def _solve_slsqp(kern, z0, ctol, maxiter):
    """SLSQP from z0; returns (x, converged, nit, max constraint violation)."""
    import warnings

    from scipy.optimize import minimize as scipy_minimize

    cons = [
        {"type": "eq", "fun": kern.eq, "jac": kern.eq_jac},
        {"type": "ineq", "fun": lambda z: -kern.ineq(z), "jac": lambda z: -kern.ineq_jac(z)},
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
            bounds=kern.bounds(),
            constraints=cons,
            options={"maxiter": maxiter, "ftol": 1e-10},
        )
    viol = max(np.abs(kern.eq(res.x)).max(), np.maximum(0.0, kern.ineq(res.x)).max())
    return res.x, bool(res.status == 0 and viol <= ctol), int(res.nit), float(viol)


class _Transcription:
    """Evaluation kernel: decision vector -> trajectories, criteria, jacobians."""

    def __init__(self, problem: NlpProblem, dynamics, weights):
        self.problem = problem
        self.dynamics = dynamics
        self.n = problem.n_joints
        self.n_ctrl = problem.n_ctrl
        self.m = problem.n_partitions
        s = np.arange(self.m + 1) / self.m
        self.b0, self.b1, self.b2 = basis_matrices(problem.n_ctrl, problem.degree, s)
        w = np.asarray(weights, dtype=float)
        self.weights_raw = w
        self.weights = w / w.sum()
        self._value_cache = (None, None)
        self._jac_cache = (None, None)

    # -- decision vector helpers ------------------------------------------
    def pack(self, c, t_final):
        return np.concatenate([np.asarray(c, dtype=float).ravel(), [t_final]])

    def unpack(self, z):
        return z[:-1].reshape(self.n_ctrl, self.n), z[-1]

    def bounds(self):
        lo = np.tile(self.problem.ctrl_lower, self.n_ctrl)
        hi = np.tile(self.problem.ctrl_upper, self.n_ctrl)
        return list(zip(lo, hi)) + [(self.problem.t_lower, self.problem.t_upper)]

    def initial_guess(self):
        frac = np.linspace(0.0, 1.0, self.n_ctrl)[:, None]
        c0 = (1 - frac) * self.problem.q_init + frac * self.problem.q_final
        t0 = 0.5 * (self.problem.t_lower + self.problem.t_upper)
        return self.pack(c0, t0)

    # -- evaluation --------------------------------------------------------
    def values(self, z):
        key = z.tobytes()
        if self._value_cache[0] == key:
            return self._value_cache[1]
        c, t_final = self.unpack(z)
        q = self.b0 @ c
        qd = self.b1 @ c / t_final
        qdd = self.b2 @ c / t_final**2
        v, f = self.dynamics(q, qd, qdd)
        dt = t_final / self.m
        psi_raw = np.array([criterion_effort(f, dt), criterion_power(f, v, dt)])
        psi = psi_raw / self.problem.criterion_scales
        out = {
            "c": c, "t_final": t_final, "q": q, "qd": qd, "qdd": qdd,
            "v": v, "f": f, "dt": dt, "psi": psi, "psi_raw": psi_raw,
            "cost": float(self.weights @ psi),
        }
        self._value_cache = (key, out)
        return out

    def jacobians(self, z):
        """Central differences of f_x w.r.t. (q, qd, qdd), one batched call.

        All 6n perturbed copies of the trajectory are stacked on a leading
        axis so the dynamics runs once over shape (6n, M+1, n).
        """
        key = z.tobytes()
        if self._jac_cache[0] == key:
            return self._jac_cache[1]
        vals = self.values(z)
        q, qd, qdd = vals["q"], vals["qd"], vals["qdd"]
        m1, n = q.shape
        eye = FD_STEP * np.eye(n)
        big_q = np.broadcast_to(q, (6 * n, m1, n)).copy()
        big_qd = np.broadcast_to(qd, (6 * n, m1, n)).copy()
        big_qdd = np.broadcast_to(qdd, (6 * n, m1, n)).copy()
        for i in range(n):
            big_q[2 * i] += eye[i]
            big_q[2 * i + 1] -= eye[i]
            big_qd[2 * n + 2 * i] += eye[i]
            big_qd[2 * n + 2 * i + 1] -= eye[i]
            big_qdd[4 * n + 2 * i] += eye[i]
            big_qdd[4 * n + 2 * i + 1] -= eye[i]
        f_all = self.dynamics(big_q, big_qd, big_qdd)[1]
        diffs = (f_all[0::2] - f_all[1::2]) / (2 * FD_STEP)  # (3n, m1, n)
        jq = np.moveaxis(diffs[:n], 0, -1)
        jqd = np.moveaxis(diffs[n: 2 * n], 0, -1)
        jqdd = np.moveaxis(diffs[2 * n:], 0, -1)
        out = {"jq": jq, "jqd": jqd, "jqdd": jqdd}
        self._jac_cache = (key, out)
        return out

    def _chain_to_z(self, df, vals, jac, extra_t=0.0):
        """Gradient w.r.t. z of a scalar with sensitivity df (m1, n) to f_x."""
        t_final = vals["t_final"]
        aq = np.einsum("ka,kab->kb", df, jac["jq"])
        aqd = np.einsum("ka,kab->kb", df, jac["jqd"])
        aqdd = np.einsum("ka,kab->kb", df, jac["jqdd"])
        dc = (
            np.einsum("kj,kb->jb", self.b0, aq)
            + np.einsum("kj,kb->jb", self.b1, aqd) / t_final
            + np.einsum("kj,kb->jb", self.b2, aqdd) / t_final**2
        )
        dt_implicit = -np.sum(aqd * vals["qd"]) / t_final - 2.0 * np.sum(aqdd * vals["qdd"]) / t_final
        return np.concatenate([dc.ravel(), [dt_implicit + extra_t]])

    def cost(self, z):
        return self.values(z)["cost"]

    def cost_grad(self, z):
        vals = self.values(z)
        jac = self.jacobians(z)
        f, v, dt, t_final = vals["f"], vals["v"], vals["dt"], vals["t_final"]
        w = self.weights / self.problem.criterion_scales
        # sensitivities of the scaled cost to the sampled forces and rates
        df = w[0] * dt * f + w[1] * dt * (f * v) * v
        dv_direct = w[1] * dt * (f * v) * f  # v == qd rows couple through the basis
        # explicit dt = t/m dependence of both criteria
        extra_t = float(self.weights @ (vals["psi"] / t_final))
        grad = self._chain_to_z(df, vals, jac, extra_t=extra_t)
        # v-sensitivity maps through qd = B1 c / t
        dc_v = np.einsum("kj,kb->jb", self.b1, dv_direct) / t_final
        grad[:-1] += dc_v.ravel()
        grad[-1] += -np.sum(dv_direct * vals["qd"]) / t_final
        return grad

    # -- constraints --------------------------------------------------------
    def _eq_scales(self):
        p = self.problem
        s_q = np.maximum(1.0, np.abs(p.q_upper - p.q_lower))
        s_qd = np.maximum(1.0, np.abs(p.qd_upper - p.qd_lower))
        return np.concatenate([s_q, s_q, s_qd, s_qd])

    def eq(self, z):
        vals = self.values(z)
        p = self.problem
        res = np.concatenate(
            [
                vals["q"][0] - p.q_init,
                vals["q"][-1] - p.q_final,
                vals["qd"][0] - p.qd_init,
                vals["qd"][-1] - p.qd_final,
            ]
        )
        return res / self._eq_scales()

    def eq_jac(self, z):
        vals = self.values(z)
        t_final = vals["t_final"]
        n, nc, nz = self.n, self.n_ctrl, self.n_ctrl * self.n + 1
        jac = np.zeros((4 * n, nz))
        for a in range(n):
            jac[a, a::n][:nc] = self.b0[0]
            jac[n + a, a::n][:nc] = self.b0[-1]
            jac[2 * n + a, a::n][:nc] = self.b1[0] / t_final
            jac[3 * n + a, a::n][:nc] = self.b1[-1] / t_final
        jac[2 * n: 3 * n, -1] = -vals["qd"][0] / t_final
        jac[3 * n: 4 * n, -1] = -vals["qd"][-1] / t_final
        return jac / self._eq_scales()[:, None]

    def _ineq_scales(self):
        p = self.problem
        s_q = np.maximum(1.0, np.abs(np.stack([p.q_lower, p.q_upper])).max(axis=0))
        s_qd = np.maximum(1.0, np.abs(np.stack([p.qd_lower, p.qd_upper])).max(axis=0))
        s_v = np.maximum(1.0, np.abs(np.stack([p.vx_lower, p.vx_upper])).max(axis=0))
        s_f = np.maximum(1.0, np.abs(np.stack([p.fx_lower, p.fx_upper])).max(axis=0))
        return s_q, s_qd, s_v, s_f

    def ineq(self, z):
        vals = self.values(z)
        p = self.problem
        q, qd, v, f = vals["q"], vals["qd"], vals["v"], vals["f"]
        s_q, s_qd, s_v, s_f = self._ineq_scales()
        parts = [
            (q - p.q_upper) / s_q, (p.q_lower - q) / s_q,
            (qd - p.qd_upper) / s_qd, (p.qd_lower - qd) / s_qd,
            (v - p.vx_upper) / s_v, (p.vx_lower - v) / s_v,
            (f - p.fx_upper) / s_f, (p.fx_lower - f) / s_f,
        ]
        return np.concatenate([part.ravel() for part in parts])

    def ineq_jac(self, z):
        vals = self.values(z)
        jac = self.jacobians(z)
        t_final = vals["t_final"]
        m1, n, nc = self.m + 1, self.n, self.n_ctrl
        nz = nc * n + 1
        s_q, s_qd, s_v, s_f = self._ineq_scales()

        # q rows: d q[k,a] / d c[j,b] = b0[k,j] delta_ab
        jq_box = np.zeros((m1, n, nz))
        jqd_box = np.zeros((m1, n, nz))
        for a in range(n):
            jq_box[:, a, a: nc * n: n] = self.b0
            jqd_box[:, a, a: nc * n: n] = self.b1 / t_final
        jqd_box[:, :, -1] = -vals["qd"] / t_final

        jf = np.zeros((m1, n, nz))
        for b in range(n):
            jf[:, :, b: nc * n: n] += (
                np.einsum("kab,kj->kaj", jac["jq"][:, :, b: b + 1], self.b0)
                + np.einsum("kab,kj->kaj", jac["jqd"][:, :, b: b + 1], self.b1) / t_final
                + np.einsum("kab,kj->kaj", jac["jqdd"][:, :, b: b + 1], self.b2) / t_final**2
            )
        jf[:, :, -1] = (
            -np.einsum("kab,kb->ka", jac["jqd"], vals["qd"]) / t_final
            - 2.0 * np.einsum("kab,kb->ka", jac["jqdd"], vals["qdd"]) / t_final
        )

        blocks = [
            jq_box / s_q[:, None], -jq_box / s_q[:, None],
            jqd_box / s_qd[:, None], -jqd_box / s_qd[:, None],
            jqd_box / s_v[:, None], -jqd_box / s_v[:, None],
            jf / s_f[:, None], -jf / s_f[:, None],
        ]
        return np.concatenate([b.reshape(m1 * n, nz) for b in blocks], axis=0)


def solve_inner(
    problem: NlpProblem,
    dynamics,
    weights=None,
    initial_guess=None,
    ctol=1e-6,
    maxiter=200,
) -> TrajectoryResult:
    """Solve the transcribed NLP for one weight vector.

    ``dynamics`` maps batched (q, qd, qdd) with shape (M+1, n) to the pair
    (v_x, f_x); for stroke-coordinate models v_x equals qd.  The start is
    the deterministic straight-line guess unless ``initial_guess`` provides
    a packed [c.ravel(), t_final] vector (used for warm starts).  The
    solve is deterministic given the start point.
    """
    problem.check_boundary_feasible()
    w = problem.weights if weights is None else np.asarray(weights, dtype=float)
    kern = _Transcription(problem, dynamics, w)
    z0 = kern.initial_guess() if initial_guess is None else np.asarray(initial_guess, dtype=float)
    x, converged, nit, violation = _solve_slsqp(kern, z0, ctol=ctol, maxiter=maxiter)
    vals = kern.values(x)
    grid = TimeGrid(vals["t_final"], problem.n_partitions)
    return TrajectoryResult(
        control_points=vals["c"],
        t_final=vals["t_final"],
        times=grid.times,
        q=vals["q"],
        qd=vals["qd"],
        qdd=vals["qdd"],
        v_x=vals["v"],
        f_x=vals["f"],
        power=vals["v"] * vals["f"],
        psi=vals["psi"],
        psi_raw={"effort": vals["psi_raw"][0], "power": vals["psi_raw"][1]},
        weights=kern.weights_raw,
        cost=float(kern.weights_raw @ vals["psi"]),
        constraint_violation=violation,
        converged=converged,
        outer_iterations=nit,
        degree=problem.degree,
        initial_guess=z0,
    )


def resample(result: TrajectoryResult, dynamics, times) -> dict:
    """Evaluate a solved trajectory on a denser grid (for tracking references)."""
    from .bspline import SplineTrajectory

    spline = SplineTrajectory(
        degree=result.degree, control_points=result.control_points, t_final=result.t_final
    )
    q, qd, qdd = spline.eval(np.asarray(times, dtype=float))
    v, f = dynamics(q, qd, qdd)
    return {"times": np.asarray(times, dtype=float), "q": q, "qd": qd, "qdd": qdd, "v_x": v, "f_x": f}
