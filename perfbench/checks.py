"""Checks of the program's outputs.

Each check compares an output with a computation made apart from the
program, or with a property the method must have, never with a stored copy
of an earlier output.  A check returns a list of failure messages; an empty
list means the output passed.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

# the NLP's converged-solve tolerance on its scaled constraints
CONSTRAINT_TOL = 1e-6
# relative error of the work-energy balance; today's worst optimum is 4.4e-5
ENERGY_TOL = 2e-4
# relative tolerance for values that went through "%.12g" text
TEXT_RTOL = 1e-10
# tracked piston speed RMS error after settling, share of the reference peak
VELOCITY_RMS_TOL = 0.02
SETTLE_S = 0.2
LOSS_COLUMNS = ("p_cu", "p_co", "p_sw", "p_d", "p_mech", "p_sc")


def read_csv(path) -> dict:
    """Columns of a CSV artifact as arrays of floats (text kept where not numeric)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {}
    for i, name in enumerate(header):
        values = [r[i] for r in body]
        try:
            cols[name] = np.array([float(x) for x in values])
        except ValueError:
            cols[name] = np.array(values, dtype=object)
    return cols


def _stack(cols, prefix, n):
    return np.stack([cols[f"{prefix}{j}"] for j in range(1, n + 1)], axis=1)


def _close(a, b, rtol=TEXT_RTOL, atol=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


def check_manifest(out_dir) -> list:
    """Every artifact's SHA-256 matches the manifest, and nothing is unlisted."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    listed = manifest["outputs"]
    present = {f.name for f in out_dir.iterdir()} - {"manifest.json"}
    fails = []
    if set(listed) != present:
        fails.append(f"{out_dir.name}: manifest lists {sorted(listed)}, found {sorted(present)}")
    for name, digest in listed.items():
        path = out_dir / name
        if path.exists() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            fails.append(f"{out_dir.name}/{name}: checksum differs from the manifest")
    return fails


def check_bilevel(out_dir, problem, model) -> list:
    """Winner feasibility, energy balance, weight-scale invariance and the
    outer optimum, recomputed from the bilevel artifacts."""
    from emlaopt.manipulator import potential_energy

    out_dir = Path(out_dir)
    fails = check_manifest(out_dir)
    doc = json.loads((out_dir / "bilevel.json").read_text())
    cols = read_csv(out_dir / "trajectory.csv")
    n = problem.n_joints
    t = cols["t"]
    q, dq = _stack(cols, "q", n), _stack(cols, "dq", n)
    vx, fx = _stack(cols, "vx", n), _stack(cols, "fx", n)

    def scale(lo, hi):
        return np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))

    for name, value, target, s in (
        ("q(0)", q[0], problem.q_init, np.maximum(1.0, problem.q_upper - problem.q_lower)),
        ("q(T)", q[-1], problem.q_final, np.maximum(1.0, problem.q_upper - problem.q_lower)),
        ("dq(0)", dq[0], problem.qd_init, np.maximum(1.0, problem.qd_upper - problem.qd_lower)),
        ("dq(T)", dq[-1], problem.qd_final, np.maximum(1.0, problem.qd_upper - problem.qd_lower)),
    ):
        if np.any(np.abs(value - target) > CONSTRAINT_TOL * s + 1e-11):
            fails.append(f"winner boundary state {name} = {value} misses {target}")
    for name, value, lo, hi in (
        ("stroke", q, problem.q_lower, problem.q_upper),
        ("stroke rate", dq, problem.qd_lower, problem.qd_upper),
        ("piston speed", vx, problem.vx_lower, problem.vx_upper),
        ("piston force", fx, problem.fx_lower, problem.fx_upper),
    ):
        slack = CONSTRAINT_TOL * scale(lo, hi) + TEXT_RTOL * np.abs(value)
        worst = np.max(np.maximum(value - hi, lo - value) - slack)
        if worst > 0:
            fails.append(f"winner {name} leaves its bounds by {worst:.3g}")
    t_final = doc["trajectory"]["t_final"]
    if not problem.t_lower <= t_final <= problem.t_upper or abs(t[-1] - t_final) > 1e-9:
        fails.append(f"winner t_final {t_final} outside [{problem.t_lower}, {problem.t_upper}]")

    # rest to rest: piston work equals the change in potential energy
    work = simpson(np.sum(vx * fx, axis=1), x=t)
    d_pe = float(potential_energy(model, q[-1]) - potential_energy(model, q[0]))
    rel = abs(work - d_pe) / max(abs(d_pe), 1e-9)
    if rel > ENERGY_TOL:
        fails.append(f"piston work {work:.6g} J vs potential energy change {d_pe:.6g} J "
                     f"(relative error {rel:.2e} > {ENERGY_TOL:g})")

    trace = read_csv(out_dir / "trace.csv")
    w1, w2, f_val = trace["w1"], trace["w2"], trace["F"]
    diagonal = f_val[np.isclose(w1, w2, rtol=0, atol=1e-12)]
    if len(diagonal) < 2 or not _close(diagonal, diagonal[0]):
        fails.append(f"diagonal grid points share one normalized weight but give F = {diagonal}")
    converged = [row["F"] for row in doc["trace"] if row["inner_converged"]]
    if not converged or doc["outer_value"] != max(converged):
        fails.append(f"outer_value {doc['outer_value']} is not the largest converged F")
    etas = list(doc["summary"]["per_joint"]) + [doc["summary"]["total"],
                                                 doc["summary"]["sample_mean"]]
    if not all(0.0 < e <= 1.0 for e in etas):
        fails.append(f"efficiency outside (0, 1]: {etas}")
    if not all(0.0 <= o <= 1.0 for o in doc["quartile_occupancy"]):
        fails.append(f"quartile occupancy outside [0, 1]: {doc['quartile_occupancy']}")
    return fails


def check_tracking(out_dir, reference: dict, duration: float, gains) -> list:
    """Velocity tracking, reference columns, adaptive estimates and the audited rate."""
    out_dir = Path(out_dir)
    fails = check_manifest(out_dir)
    cols = read_csv(out_dir / "tracking.csv")
    summary = json.loads((out_dir / "tracking.json").read_text())
    t = cols["t"]
    n = np.asarray(reference["qd"]).shape[1]
    vx, vx_ref = _stack(cols, "vx", n), _stack(cols, "vx_ref", n)
    fx_ref = _stack(cols, "fx_ref", n)
    if abs(t[-1] - duration) > 1e-9:
        fails.append(f"tracking ends at {t[-1]} s, not at {duration} s")

    settled = t >= SETTLE_S
    rms = np.sqrt(np.mean((vx[settled] - vx_ref[settled]) ** 2, axis=0))
    rms_frac = rms / np.maximum(np.abs(vx_ref).max(axis=0), 1e-12)
    if np.any(rms_frac > VELOCITY_RMS_TOL):
        fails.append(f"velocity RMS error {rms_frac} of the reference peak > {VELOCITY_RMS_TOL}")

    times = np.asarray(reference["times"])
    qd, f_x = np.asarray(reference["qd"]), np.asarray(reference["f_x"])
    for k in np.flatnonzero(times <= duration + 1e-12):
        rows = np.flatnonzero(np.abs(t - times[k]) <= 1e-9)
        if len(rows) != 1:
            fails.append(f"collocation instant t={times[k]} missing from the traces")
            continue
        r = rows[0]
        if not (_close(vx_ref[r], qd[k]) and _close(fx_ref[r], f_x[k])):
            fails.append(f"reference columns at t={times[k]} differ from the trajectory samples")

    phi = np.stack([cols[f"phi{nu}_{j}"] for j in range(1, n + 1) for nu in range(1, 5)])
    if np.any(phi < 0.0):
        fails.append(f"adaptive estimate phi went negative (min {phi.min():.3g})")

    zeta = min(min(float(g.delta.min()), float((g.k * g.sigma).min())) for g in gains)
    if summary["lyapunov"]["zeta"] != zeta:
        fails.append(f"audited zeta {summary['lyapunov']['zeta']} != min(delta, k sigma) = {zeta}")
    return fails


def check_map_dir(out_dir) -> list:
    """Loss balance of every feasible cell and the JSON round trip of one map."""
    from emlaopt.effmap import map_from_json, map_to_json

    out_dir = Path(out_dir)
    fails = check_manifest(out_dir)
    cols = read_csv(out_dir / "efficiency_map.csv")
    feasible = cols["feasible"] == 1.0
    f = cols["f_x"][feasible]
    v = cols["v_x"][feasible]
    eta = cols["eta"][feasible].astype(float)
    losses = sum(cols[c][feasible].astype(float) for c in LOSS_COLUMNS)
    p_out = f * v
    if not _close(eta, p_out / (p_out + losses), rtol=1e-9):
        bad = np.argmax(np.abs(eta - p_out / (p_out + losses)))
        fails.append(f"{out_dir.name}: cell (f={f[bad]}, v={v[bad]}) has eta {eta[bad]} "
                     f"!= P_out/(P_out + losses) {p_out[bad] / (p_out[bad] + losses[bad])}")
    if np.any(cols["eta"][~feasible] != "infeasible"):
        fails.append(f"{out_dir.name}: an infeasible cell carries a number")

    text = (out_dir / "efficiency_map.json").read_text()
    emap = map_from_json(text)
    if map_to_json(emap) != text:
        fails.append(f"{out_dir.name}: efficiency_map.json does not round-trip")
    if not _close(emap.eta[emap.feasible], cols["eta"][feasible].astype(float)):
        fails.append(f"{out_dir.name}: JSON and CSV efficiencies differ")
    return fails


def interp_tolerance(emap) -> float:
    """Bilinear-interpolation error allowed on a map: 0.0104 on the 40x40 grid
    (the largest error on the 26 grid trajectories is 0.01034), shrinking
    with the square of the cell size."""
    return 0.0104 * (39.0 / (len(emap.force_axis) - 1)) * (39.0 / (len(emap.velocity_axis) - 1))


def check_ratings(maps, actuators, trajectories, ratings) -> list:
    """Sign symmetry of the ratings and agreement with the exact model in the map."""
    from emlaopt.bilevel import efficiency_summary, map_eta_fns, quartile_occupancy

    fails = []
    eta_fns = map_eta_fns(maps)
    for k, ((v_x, f_x), rating) in enumerate(zip(trajectories, ratings)):
        mirrored = efficiency_summary(-v_x, -f_x, eta_fns)
        mirrored["quartile_occupancy"] = quartile_occupancy(-v_x, -f_x, maps)
        if json.dumps(mirrored, sort_keys=True) != json.dumps(rating, sort_keys=True):
            fails.append(f"trajectory {k}: rating changes under (f, v) -> (-f, -v)")
        for j, (emap, model) in enumerate(zip(maps, actuators)):
            f, v = f_x[:, j], v_x[:, j]
            motoring = f * v > 0
            f, v = np.abs(f[motoring]), np.abs(v[motoring])
            fa, va = emap.force_axis, emap.velocity_axis
            inside = (f >= fa[0]) & (f <= fa[-1]) & (v >= va[0]) & (v <= va[-1])
            if not np.any(inside):
                continue
            looked_up = emap.interp_eta(f[inside], v[inside])
            exact = np.array([model.efficiency_at(fi, vi)
                              for fi, vi in zip(f[inside], v[inside])])
            err = np.abs(looked_up - exact).max()
            if err > interp_tolerance(emap):
                fails.append(f"trajectory {k} joint {j + 1}: map lookup differs from the exact "
                             f"model by {err:.4f} inside the axes")
    return fails


def check_maps(map_dirs, maps, actuators, trajectories, ratings) -> list:
    fails = []
    for d in map_dirs:
        fails += check_map_dir(d)
    if ratings is None:
        return fails + ["no ratings were produced"]
    return fails + check_ratings(maps, actuators, trajectories, ratings)
