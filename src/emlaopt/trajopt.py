"""Direct-collocation trajectory generation on B-spline curves.

The configuration (piston strokes) is a clamped B-spline.  It interpolates
its end control points and leaves them along its end legs, so the boundary
states fix the four end control points exactly; the other n_ctrl - 4 and
the final time are the n(n_ctrl - 4) + 1 free variables.  The stroke and
stroke-rate boxes hold on the control polygons, so by the convex-hull
property they hold at every instant; the force box holds at the M+1
collocation points only.  The piston speed v_x is the stroke rate q̇ (the
strokes are the generalized coordinates), so its box is merged into the q̇
box.  The transcription has one inequality row per inner rate-polygon point
(the end points are the boundary rates) and force sample, n(n_ctrl - 3) +
n(M + 1), and no equality.  SLSQP gets the rate rows, and a joint's force
rows only once a point it starts or stops at leaves that joint's force box;
convergence is judged on every row.  One inverse-dynamics call per iterate,
on the states and their differences (central in q, exact unit steps in q̇
and q̈), gives the values and, with analytic basis blocks, the derivatives
by the decision vector.
SLSQP steps in y, z = z0 + S y with S S^T the inverse of the cost's full
Gauss–Newton Hessian at the start point, so its identity start fits the
cost's curvature and its couplings.
"""

import json
from dataclasses import dataclass, field, fields
from functools import lru_cache
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


def normalize_weights(w: np.ndarray) -> np.ndarray:
    """w / sum(w), the point of the weights' ray that the follower's cost
    reads; the leader keys its rays by these bits."""
    return w / w.sum()


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
    """Solved trajectory sampled on its collocation grid; its fields are the
    keys of ``trajectory.json``, in that order."""

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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
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
    """SLSQP in rounds of ``_slsqp_round``.  Each round gets the rate-polygon
    rows, the box rows and the force rows of the joints in play: at first
    those whose force box z0 leaves (read from z0's evaluation, which the
    first round's preconditioner needs anyway).  A round that stops outside
    the force box of a joint not yet in play adds that joint and starts the
    next round at its stop, so there are at most n_joints restarts, all
    within one SLSQP_MAXITER budget.  On the benchmark problem no force box
    is left, and SLSQP never re-linearizes the 153 force rows.  Returns (x,
    converged, nit summed over the rounds, max constraint violation), the
    last two over all rows at x, seen by SLSQP or not."""
    joints = kern.force_violated(z0)
    nit = 0
    while True:
        x, res = _slsqp_round(kern, z0, joints, SLSQP_MAXITER - nit)
        nit += int(res.nit)
        new = kern.force_violated(x) & ~joints
        if not new.any() or nit >= SLSQP_MAXITER:
            break
        joints |= new
        z0 = x
    viol = np.maximum(0.0, -kern.ineq(x)).max()
    return x, bool(res.status == 0 and viol <= CONSTRAINT_TOL), nit, float(viol)


def _slsqp_round(kern, z0, joints, maxiter):
    """SLSQP from y0 = 0 on y, z = z0 + S y clipped to the box, S = V Λ^(-1/2)
    for the ``gauss_newton`` H = V Λ V^T at z0, Λ floored at 1e-12 of its
    largest entry (S = I where H is not finite or has no positive
    eigenvalue): SLSQP's identity start fits the cost's curvature, and its
    first point is z0, which ``gauss_newton`` has evaluated.  S mixes the
    variables, so the q and t_final box reaches SLSQP as the linear rows
    [z - lo; hi - z], which its steps keep to rounding; the other rows are
    ``ineq``'s, with the force rows of the joints in the boolean mask
    ``joints``.  Returns (x, SciPy's result)."""
    from scipy.optimize import minimize as scipy_minimize

    lo, hi = np.array(kern.bounds).T
    h = kern.gauss_newton(z0)
    s = np.eye(len(z0))
    if np.isfinite(h).all():
        lam, v = np.linalg.eigh(h)
        if lam[-1] > 0:
            s = v / np.sqrt(np.maximum(lam, 1e-12 * lam[-1]))
    box_jac = np.concatenate([s, -s])
    z_of = lambda y: np.clip(z0 + s @ y, lo, hi)

    def box(y):
        z = z0 + s @ y
        return np.concatenate([z - lo, hi - z])

    res = scipy_minimize(
        lambda y: kern.cost(z_of(y)),
        np.zeros(len(z0)),
        jac=lambda y: kern.cost_grad(z_of(y)) @ s,
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda y: kern.ineq(z_of(y), joints),
                      "jac": lambda y: kern.ineq_jac(z_of(y), joints) @ s},
                     {"type": "ineq", "fun": box, "jac": lambda y: box_jac}],
        options={"maxiter": maxiter, "ftol": 1e-10},
    )
    return z_of(res.x), res


@lru_cache(maxsize=8)
def _constants(n_ctrl: int, degree: int, m: int, n: int):
    """The transcription's weight- and problem-free constants: for B_0, B_1
    and B_2 on the M + 1 collocation points and for D less its end rows,
    the pair (b, b ⊗ I on the free rows), c[j, a] at z[(j - 2) n + a], with
    a zero t_final column, (len(b), n, n_z).  Cached per (n_ctrl, degree, M,
    n) for the life of the process, so every array is read-only."""
    basis = basis_matrices(n_ctrl, degree, np.arange(m + 1) / m)
    inner = derivative_matrix(n_ctrl, degree)[1:-1]
    out = []
    for b in (*basis, inner):
        kron = np.einsum("kj,ab->kajb", b[:, 2:-2], np.eye(n)).reshape(len(b), n, -1)
        block = np.concatenate([kron, np.zeros((len(b), n, 1))], axis=-1)
        for x in (b, block):
            x.setflags(write=False)
        out.append((b, block))
    return tuple(out)


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
    side of its box: 25 variables and 180 rows on the benchmark problem, of
    which ``ineq`` builds the 27 rate rows and the force rows of the joints
    it is given.
    The bases and blocks come read-only from ``_constants``, shared by every
    kernel of the same shape; only ``cost`` and its derivatives read the
    weights, so ``cache`` may hand in another weight vector's evaluation.
    """

    def __init__(self, problem: NlpProblem, dynamics, weights, cache=None):
        p = self.problem = problem
        self.dynamics = dynamics
        self.n, self.n_ctrl, self.m = p.n_joints, p.n_ctrl, p.n_partitions
        t_box = p.check_boundary_feasible()
        self.end_base, self.end_slope = p.end_points()
        n_free = self.n_ctrl - 4
        # (b, its block, b slope, k) of q, q̇, q̈ and the inner rate polygon
        self.maps = [(b, block, b @ self.end_slope, k) for (b, block), k in
                     zip(_constants(p.n_ctrl, p.degree, self.m, self.n), (0, 1, 2, 1))]
        self.weights_raw = check_weights(weights)
        self.weights = normalize_weights(self.weights_raw)
        self.boxes = [p.rate_box, (p.fx_lower, p.fx_upper)]
        self.box_scales = [np.maximum(1.0, np.maximum(abs(lo), abs(hi))) for lo, hi in self.boxes]
        self.bounds = list(zip(np.tile(p.q_lower, n_free), np.tile(p.q_upper, n_free))) + [t_box]
        self._cache = [None] if cache is None else cache

    def initial_guess(self):
        frac = np.linspace(0.0, 1.0, self.n_ctrl)[:, None]
        c0 = (1 - frac) * self.problem.q_init + frac * self.problem.q_final
        return np.concatenate([c0.ravel(), [0.5 * sum(self.bounds[-1])]])

    def free(self, packed):
        """z from a packed [c.ravel(), t_final]: its free rows and t_final."""
        return np.concatenate([packed[2 * self.n: -2 * self.n - 1], packed[-1:]])

    # -- evaluation --------------------------------------------------------
    def evaluate(self, z):
        """Everything the solver reads at z, from one dynamics run over 5n + 1
        copies of the states: joint b's q at ±FD_STEP, q̇ at ±1 and q̈ at +1,
        and last the states themselves, whose row is f_x.  f_x is quadratic
        in q̇ and affine in q̈ at fixed q, so the unit steps, the last against
        the f_x row, are exact to rounding.  ``f_partials`` holds d f_x /
        d(x_k)_b for x = q, q̇, q̈ in row k n + b, each (M+1, n); they are
        chained through the state derivatives into d(q̇, f_x)/dz, each
        (M+1, n, n_z), and d(rates)/dz.  Nothing in it depends on the weights,
        so a kernel of another weight vector may start from it: the last z
        evaluated is cached as the pair (z bytes, values) in the one-item list
        ``self._cache``, which the caller may own."""
        key = z.tobytes()
        if self._cache[0] is not None and self._cache[0][0] == key:
            return self._cache[0][1]
        n, t_final = self.n, z[-1]
        c = self.end_base + t_final * self.end_slope
        c[2:-2] = z[:-1].reshape(-1, n)
        q, qd, qdd, rates = states = [b @ c / t_final**k for b, _, _, k in self.maps]
        eye = np.eye(n)[:, None, :]
        batch = [np.repeat(x[None], 5 * n + 1, axis=0) for x in (q, qd, qdd)]
        for x, first, step in ((batch[0], 0, FD_STEP), (batch[1], 2 * n, 1.0)):
            x[first: first + 2 * n: 2] += step * eye
            x[first + 1: first + 2 * n: 2] -= step * eye
        batch[2][4 * n: 5 * n] += eye
        forces = self.dynamics(*batch)
        f = forces[-1]
        partials = np.concatenate([(forces[0: 2 * n: 2] - forces[1: 2 * n: 2]) / (2 * FD_STEP),
                                   (forces[2 * n: 4 * n: 2] - forces[2 * n + 1: 4 * n: 2]) / 2.0,
                                   forces[4 * n: 5 * n] - f])
        dx = []
        for (_, block, slope, k), x in zip(self.maps, states):
            d = block / t_final**k
            d[..., -1] = slope / t_final**k - k * x / t_final
            dx.append(d)
        dt = t_final / self.m
        psi_raw = np.array([criterion_effort(f, dt), criterion_power(f, qd, dt)])
        psi = psi_raw / self.problem.criterion_scales
        out = {
            "c": c, "t_final": t_final, "q": q, "qd": qd, "qdd": qdd,
            "rates": rates, "f": f, "dt": dt, "psi": psi, "psi_raw": psi_raw,
            "f_partials": partials, "d_qd": dx[1], "d_rates": dx[3],
            "d_f": partials.transpose(1, 2, 0) @ np.concatenate(dx[:3], axis=1),
        }
        self._cache[0] = (key, out)
        return out

    def cost(self, z):
        return float(self.weights @ self.evaluate(z)["psi"])

    def cost_grad(self, z):
        vals = self.evaluate(z)
        f, qd, dt, t_final = vals["f"], vals["qd"], vals["dt"], vals["t_final"]
        w = self.weights / self.problem.criterion_scales
        # sensitivities of the scaled cost to the sampled forces and rates
        fv = f * qd
        d_f = w[0] * dt * f + w[1] * dt * fv * qd
        d_qd = w[1] * dt * fv * f
        grad = np.einsum("ka,kaz->z", d_f, vals["d_f"]) + np.einsum("ka,kaz->z", d_qd, vals["d_qd"])
        # explicit dt = t/m dependence of both criteria
        grad[-1] += self.weights @ (vals["psi"] / t_final)
        return grad

    def gauss_newton(self, z):
        """The cost's Gauss–Newton Hessian, sum_j dr_j/dz dr_j/dz^T, (n_z, n_z),
        for the residuals r = [sqrt(dt w̃_1) f, sqrt(dt w̃_2) f q̇] whose half
        squared norm is the cost (w̃: the weights over ``criterion_scales``);
        dt = t_final / M adds r / (2 t_final) to the t_final column."""
        vals = self.evaluate(z)
        f, qd = vals["f"][..., None], vals["qd"][..., None]
        w = self.weights / self.problem.criterion_scales
        dt_col = np.eye(len(z))[-1] * (0.5 / vals["t_final"])
        d_f = vals["d_f"] + f * dt_col
        d_fv = vals["d_f"] * qd + f * vals["d_qd"] + f * qd * dt_col
        return vals["dt"] * (w[0] * np.einsum("kaz,kay->zy", d_f, d_f)
                             + w[1] * np.einsum("kaz,kay->zy", d_fv, d_fv))

    # -- constraints, in SLSQP's sign: ineq >= 0 ---------------------------
    def force_violated(self, z):
        """Per joint, whether some f_x sample at z leaves its force box."""
        f, (lo, hi) = self.evaluate(z)["f"], self.boxes[1]
        return ((f < lo) | (f > hi)).any(axis=0)

    def _families(self, z, joints):
        """(x, dx/dz, lo, hi, scale) of the inner rate polygon and of the f_x
        samples of ``joints`` (every joint if None)."""
        vals = self.evaluate(z)
        c = slice(None) if joints is None else joints
        ((rate_lo, rate_hi), (f_lo, f_hi)), (rate_s, f_s) = self.boxes, self.box_scales
        return [(vals["rates"], vals["d_rates"], rate_lo, rate_hi, rate_s),
                (vals["f"][:, c], vals["d_f"][:, c], f_lo[c], f_hi[c], f_s[c])]

    def ineq(self, z, joints=None):
        """Scaled margins to the nearer side of the q̇ box on the inner rate
        polygon, which with the boundary rates bound q̇ at every instant, and
        of the f_x box at every sample of the joints in the boolean mask
        ``joints`` (every joint if None): min(hi - x, x - lo) / s."""
        return np.concatenate([(np.minimum(hi - x, x - lo) / s).ravel()
                               for x, _, lo, hi, s in self._families(z, joints)])

    def ineq_jac(self, z, joints=None):
        """The nearer side's row of each margin; a tie takes the upper side."""
        rows = []
        for x, d, lo, hi, s in self._families(z, joints):
            sign = 1.0 - 2.0 * (hi - x <= x - lo)
            rows.append((d / s[:, None] * sign[..., None]).reshape(-1, d.shape[-1]))
        return np.concatenate(rows)


def solve_inner(
    problem: NlpProblem,
    dynamics,
    weights,
    initial_guess=None,
    _evaluation=None,
) -> TrajectoryResult:
    """Solve the transcribed NLP for the criterion ``weights``, two finite
    nonnegative numbers with a positive sum.

    ``dynamics`` maps batched (q, qd, qdd) with shape (..., M+1, n) to the
    piston forces f_x of the same shape; in stroke coordinates v_x is qd, and
    the ``vx_*`` box is intersected with the ``qd_*`` box.  Each point SLSQP
    asks for costs one call, on 5n + 1 copies of the states: their
    differences, then the states themselves.  The start is
    the deterministic straight-line guess unless ``initial_guess`` provides
    a packed [c.ravel(), t_final] vector (used for warm starts); only its
    free rows and t_final are read, since the boundary states fix the four
    end control points.  The solve is deterministic given the start point.
    SLSQP sees a joint's force rows only once a round starts or stops
    outside its force box (``_solve_slsqp``); ``outer_iterations`` sums the
    rounds, and ``converged`` and ``constraint_violation`` read every row.
    ``_evaluation`` is private plumbing for the leader's grid: a one-item
    list that holds the solve's evaluation cache.  An item the caller put
    there, the last evaluation of a solve of the same problem and dynamics,
    serves this solve if it asks for that point; on return the item is the
    evaluation at this solve's solution.
    """
    kern = _Transcription(problem, dynamics, weights, cache=_evaluation)
    z0 = kern.initial_guess() if initial_guess is None else np.asarray(initial_guess, dtype=float)
    x, converged, nit, violation = _solve_slsqp(kern, kern.free(z0))
    vals = kern.evaluate(x)
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
    )

