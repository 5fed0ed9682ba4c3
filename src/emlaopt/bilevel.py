"""Outer-level search for criterion weights that maximize actuation efficiency.

For a candidate weight vector the inner trajectory generator is solved,
the resulting force/velocity samples are rated through the per-joint
efficiency characteristics, and the time-aggregated squared total
efficiency becomes the outer objective.  The search evaluates every point
of a lattice over the weight box; the inner objective depends on the
weights only through their ratio, so the box is a 1-D family of rays and
an exhaustive lattice covers it.  Each distinct ray is solved once, by
continuation out from the box centre's ray, in one process.  The search is
deterministic and records its full evaluation trace.
"""

from dataclasses import dataclass

import numpy as np

from .chain import StrokeRangeError
from .effmap import EfficiencyMap
from .manipulator import ChainModel, SingularConfigurationError, rnea
from .trajopt import (
    NlpProblem,
    TrajectoryResult,
    check_count,
    check_weights,
    normalize_weights,
    solve_inner,
)


def _rate(v, f, eta_fns):
    """Per-sample, per-joint efficiency table: eta_fns[i] called once, on
    joint i's whole column of (f, v)."""
    eta = np.empty(f.shape)
    for i in range(f.shape[-1]):
        eta[..., i] = eta_fns[i](f[..., i], v[..., i])
    return eta


def _combine(p, eta):
    """(eta_act, flagged) per sample from the joint powers p and the joint
    efficiencies eta, both (..., n_joints); see :func:`total_efficiency`."""
    shape = p.shape[:-1]
    num = np.zeros(shape)
    den = np.zeros(shape)
    flagged = ~np.any(p > 0.0, axis=-1)
    for i in range(p.shape[-1]):
        active = p[..., i] > 0.0
        flagged |= active & (eta[..., i] <= 0.0)
        num += np.where(active, p[..., i], 0.0)
        den += np.divide(p[..., i], eta[..., i], out=np.zeros(shape), where=active & ~flagged)
    return np.divide(num, den, out=np.zeros(shape), where=~flagged), flagged


def total_efficiency(v_x, f_x, eta_fns):
    """Combined efficiency of all actuators, per sample.

    eta_Act = (sum_i p_i) / (sum_i p_i / eta_i) over the motoring joints
    (p_i = f_i v_i > 0).  Regenerating joints are excluded from both sums.
    v_x and f_x are (n_joints,) for one sample or (n_samples, n_joints);
    each eta_fns[i] is called once, on joint i's column.  Returns (eta_act,
    flagged) over the samples: flagged where no joint delivers positive
    power, or an active joint has zero efficiency; eta_act is 0 there.
    """
    v = np.asarray(v_x, dtype=float)
    f = np.asarray(f_x, dtype=float)
    eta, flagged = _combine(f * v, _rate(v, f, eta_fns))
    return eta[()], flagged[()]


def efficiency_objective(result: TrajectoryResult, eta_fns) -> float:
    """F = 0.5 dt sum_k eta_Act^2 over the collocation samples."""
    dt = result.t_final / (len(result.times) - 1)
    eta, _ = total_efficiency(result.v_x, result.f_x, eta_fns)
    return 0.5 * dt * float(np.sum(eta**2))


def efficiency_summary(v_x, f_x, eta_fns) -> dict:
    """Energy-weighted per-joint and total efficiencies over a trajectory.

    Per joint: delivered energy / drawn energy over its motoring samples.
    Total: same ratio summed across joints (the power-weighted time mean
    of the per-sample combined efficiency).  Each eta_fns[i] is called
    once, on joint i's whole column, and every figure is read from that
    one table.
    """
    v = np.asarray(v_x, dtype=float)
    f = np.asarray(f_x, dtype=float)
    p = f * v
    eta = _rate(v, f, eta_fns)
    per_joint = []
    num_tot = 0.0
    den_tot = 0.0
    for i in range(p.shape[1]):
        good = (p[:, i] > 0) & (eta[:, i] > 0)
        num = float(np.sum(p[good, i]))
        den = float(np.sum(p[good, i] / eta[good, i]))
        per_joint.append(num / den if den > 0 else 0.0)
        num_tot += num
        den_tot += den
    total = num_tot / den_tot if den_tot > 0 else 0.0
    eta_samples, flagged = _combine(p, eta)
    return {
        "per_joint": per_joint,
        "total": total,
        "sample_mean": float(eta_samples[~flagged].mean()) if np.any(~flagged) else 0.0,
        "flagged_samples": int(flagged.sum()),
        "n_samples": int(len(eta_samples)),
    }


def quartile_occupancy(v_x, f_x, maps: list[EfficiencyMap]) -> list:
    """Fraction of each joint's motoring samples inside the map's top band.

    A sample counts when its interpolated efficiency reaches the upper
    quartile of the map's feasible positive-efficiency cells.
    """
    v = np.asarray(v_x, dtype=float)
    f = np.asarray(f_x, dtype=float)
    p = f * v
    out = []
    for i, emap in enumerate(maps):
        mask = p[:, i] > 0
        if not np.any(mask):
            out.append(0.0)
            continue
        threshold = emap.eta_upper_quartile()
        eta = emap.interp_eta(f[mask, i], v[mask, i])
        out.append(float(np.mean(eta >= threshold)))
    return out


def samples_outside_map(v_x, f_x, maps: list[EfficiencyMap]) -> list:
    """Per joint, the motoring samples whose (|f|, |v|) lies beyond the map's
    axes, where ``EfficiencyMap.interp_eta`` rates them at the clipped edge."""
    v = np.asarray(v_x, dtype=float)
    f = np.asarray(f_x, dtype=float)
    out = []
    for i, emap in enumerate(maps):
        mask = f[:, i] * v[:, i] > 0
        fi, vi = np.abs(f[mask, i]), np.abs(v[mask, i])
        fa, va = emap.force_axis, emap.velocity_axis
        outside = (fi < fa[0]) | (fi > fa[-1]) | (vi < va[0]) | (vi > va[-1])
        out.append(int(outside.sum()))
    return out


@dataclass(frozen=True)
class BilevelConfig:
    """Outer-search settings: the weight box and its lattice points per axis."""

    weight_lower: np.ndarray = (0.05, 0.05)
    weight_upper: np.ndarray = (1.0, 1.0)
    grid_points: int = 5

    def __post_init__(self):
        lo = np.asarray(self.weight_lower, dtype=float)
        hi = np.asarray(self.weight_upper, dtype=float)
        object.__setattr__(self, "weight_lower", lo)
        object.__setattr__(self, "weight_upper", hi)
        # the lower corner is itself a candidate, so it must be a valid weight vector
        check_weights(lo, "weight_lower")
        if hi.shape != lo.shape or not np.all(np.isfinite(hi) & (lo <= hi)):
            raise ValueError("need weight_lower <= weight_upper, both finite and of shape (2,)")
        check_count(self.grid_points, "grid_points")


@dataclass
class BilevelResult:
    weights_opt: np.ndarray
    outer_value: float
    inner: TrajectoryResult
    summary: dict
    trace: list  # (weights, F, converged) in evaluation order
    n_inner_solves: int  # solve_inner calls: the centre's, and one per ray it does not stand for

    def trace_to_csv(self) -> str:
        """One row per evaluated point, each formatted in one step."""
        e = len(self.weights_opt)
        header = [f"w{i+1}" for i in range(e)] + ["F", "inner_converged"]
        row = ",".join(["%.12g"] * (e + 1)) + ",%d"
        rows = [row % (*w, value, ok) for w, value, ok in self.trace]
        return "\n".join([",".join(header)] + rows) + "\n"

    def to_dict(self) -> dict:
        return {
            "weights_opt": self.weights_opt.tolist(),
            "outer_value": self.outer_value,
            "summary": self.summary,
            "n_inner_solves": self.n_inner_solves,
            "trace": [
                {"weights": list(map(float, w)), "F": float(v), "inner_converged": bool(ok)}
                for w, v, ok in self.trace
            ],
            "trajectory": self.inner.to_dict(),
        }


def map_eta_fns(maps: list[EfficiencyMap]):
    """Bilinear-lookup efficiency callables from per-joint maps."""
    return [m.interp_eta for m in maps]


def solve_outer(
    config: BilevelConfig,
    problem: NlpProblem,
    model: ChainModel,
    eta_maps: list[EfficiencyMap],
) -> BilevelResult:
    """Run the leader-level weight search over the weight-box lattice.

    The inner problem reads the weights only through their normalized value
    w / sum(w) (``normalize_weights``), so the lattice points are grouped by
    its bits into rays, and each ray is solved once, at its first point in
    meshgrid order; the other points on it take its F.  One cold inner
    solve at the box centre starts two continuation sweeps out from the
    centre's ray: the rays above it in ascending order, and those below it
    in descending order.  If the centre
    solve converged and its ray is a lattice ray, it is that ray's solve, so
    when that ray wins, ``inner.weights`` holds the centre's weights, which
    lie on w*'s ray; otherwise the centre's ray heads the ascending sweep.
    Each ray starts from the optimum of the last converged solve before it in
    its sweep, or from the centre's, with that solve's last evaluation, which
    lies at the warm start, so its first point costs no dynamics call.  A
    point whose inner solve does not converge, leaves the chains' feasible
    strokes or reaches a fold is traced with F = -inf and never wins, and
    its sweep goes on; a failed centre solve raises.  The best converged
    point is returned.
    """
    dynamics = lambda q, qd, qdd: rnea(model, q, qd, qdd)
    eta_fns = map_eta_fns(eta_maps)
    lo, hi = config.weight_lower, config.weight_upper
    mid = 0.5 * (lo + hi)
    axes = [np.linspace(lo[i], hi[i], config.grid_points) for i in range(len(lo))]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    keys = [tuple(normalize_weights(w)) for w in mesh]
    rays = {}
    for key, w in zip(keys, mesh):
        rays.setdefault(key, w)
    centre = tuple(normalize_weights(mid))
    order = sorted(rays)

    cache = [None]
    base = solve_inner(problem, dynamics, weights=mid, _evaluation=cache)
    solved = {}
    if base.converged and centre in rays:
        solved[centre] = (efficiency_objective(base, eta_fns), base)
        order.remove(centre)
    for sweep in ([k for k in order if k >= centre], [k for k in order[::-1] if k < centre]):
        start = np.concatenate([base.control_points.ravel(), [base.t_final]])
        evaluation = cache[0]
        for key in sweep:
            step = [evaluation]
            try:
                result = solve_inner(problem, dynamics, weights=rays[key], initial_guess=start,
                                     _evaluation=step)
            except (StrokeRangeError, SingularConfigurationError):
                continue
            solved[key] = (efficiency_objective(result, eta_fns), result)
            if result.converged:
                start = np.concatenate([result.control_points.ravel(), [result.t_final]])
                evaluation = step[0]

    trace = []
    best = None
    for w, key in zip(mesh, keys):
        point = solved.get(key)
        ok = point is not None and point[1].converged
        trace.append((np.array(w), point[0] if ok else float("-inf"), ok))
        if ok and (best is None or point[0] > best[1]):
            best = (trace[-1][0], point[0], point[1])
    if best is None:
        raise RuntimeError("no outer candidate produced a converged inner solve")
    w_opt, value, result = best
    return BilevelResult(
        weights_opt=w_opt,
        outer_value=value,
        inner=result,
        summary=efficiency_summary(result.v_x, result.f_x, eta_fns),
        trace=trace,
        n_inner_solves=1 + len(order),
    )
