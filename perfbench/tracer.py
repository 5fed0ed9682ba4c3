"""Spans and counters recorded at the program's public functions.

Every layer is measured from outside the program.  A public function is
replaced, at every module attribute bound to it, by a wrapper, so the
import style of the calling module does not matter.  A wrapper either
records a span (name, start, end, parent) or, for a leaf called many
thousands of times, a tally (calls and seconds) charged to the enclosing
span.  A layer's self time is its spans' time minus the time their child
spans and tallies cover.
"""

import sys
import time
from collections import Counter

import numpy as np

# modules searched for bindings besides the program's own package
EXTRA_MODULES = ("scipy.optimize", "scipy.integrate")


def _searched(name: str) -> bool:
    return name == "emlaopt" or name.startswith("emlaopt.") or name in EXTRA_MODULES


def rebind(original, replacement) -> list:
    """Point every searched module attribute bound to ``original`` at
    ``replacement``; return the undo list."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not _searched(name):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    if not undo:
        raise RuntimeError(f"no module attribute is bound to {original!r}")
    return undo


def rebind_method(cls, attr, replacement) -> list:
    original = cls.__dict__[attr]
    setattr(cls, attr, replacement)
    return [(cls, attr, original)]


def undo(entries: list):
    for namespace, attr, original in reversed(entries):
        setattr(namespace, attr, original)


class Tracer:
    """In-memory spans, leaf tallies and counters of one traced repetition."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child seconds]
        self.stack = []
        self.tallies = {}  # name -> [calls, seconds]
        self.counts = Counter()
        self.rated = []  # (f_x, v_x, maps) of every trajectory rating
        self.ray_keys = []  # normalized weights of every inner solve
        self.undo = []
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------
    def enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def exit(self, index: int):
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def tally(self, name: str, seconds: float):
        entry = self.tallies.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    # -- wrappers ----------------------------------------------------------
    def spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def tallied(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.tally(name, time.perf_counter() - start)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, name, fn, after=None):
        self.undo += rebind(fn, self.spanned(name, fn, after))

    # -- summaries ---------------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        if name in self.tallies:
            return self.tallies[name][0]
        return sum(1 for s in self.spans if s[0] == name)

    def tally_seconds(self, name: str) -> float:
        return self.tallies.get(name, [0, 0.0])[1]

    def to_doc(self) -> dict:
        return {
            "spans": [
                [s[0], round(s[1] - self.t0, 9), round(s[2] - self.t0, 9), s[3]]
                for s in self.spans
            ],
            "tallies": self.tallies,
            "counts": dict(self.counts),
        }


def _rows(q) -> int:
    shape = np.shape(q)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def install(tracer: Tracer):
    """Wrap the public functions named in the benchmark's per-layer table."""
    import scipy.integrate
    import scipy.optimize

    from emlaopt import bilevel, cli, configio, control, effmap, manipulator, trajopt

    t = tracer

    def after_rnea(args, kwargs, result):
        q = args[1] if len(args) > 1 else kwargs["q"]
        rows = _rows(q)
        t.counts["rnea.rows"] += rows
        if np.ndim(q) == 3:  # stacked finite-difference copies
            t.counts["rnea.fd_rows"] += rows

    def after_inner(args, kwargs, result):
        problem = args[0] if args else kwargs["problem"]
        w = kwargs.get("weights", args[2] if len(args) > 2 else None)
        w = problem.weights if w is None else np.asarray(w, dtype=float)
        t.ray_keys.append(tuple(np.round(w / w.sum(), 12)))
        t.counts["solve_inner.converged"] += int(bool(result.converged))

    def note_rating(f_x, v_x, eta_fns):
        maps = [getattr(fn, "__self__", None) for fn in eta_fns]
        t.rated.append((np.asarray(f_x, dtype=float), np.asarray(v_x, dtype=float), maps))

    def after_objective(args, kwargs, result):
        traj = args[0] if args else kwargs["result"]
        note_rating(traj.f_x, traj.v_x, args[1] if len(args) > 1 else kwargs["eta_fns"])

    def after_summary(args, kwargs, result):
        note_rating(args[1], args[0], args[2] if len(args) > 2 else kwargs["eta_fns"])

    def after_build(args, kwargs, result):
        t.counts["effmap.cells"] += result.eta.size

    def after_interp(args, kwargs, result):
        t.counts["effmap.interp_samples"] += int(np.size(result))

    t.wrap("cli.run", cli.main)
    t.wrap("configio.write_artifacts", configio.write_artifacts)
    t.wrap("manipulator.rnea", manipulator.rnea, after_rnea)
    t.wrap("trajopt.solve_inner", trajopt.solve_inner, after_inner)
    t.wrap("bilevel.solve_outer", bilevel.solve_outer)
    t.wrap("bilevel.rating", bilevel.efficiency_objective, after_objective)
    t.wrap("bilevel.rating", bilevel.efficiency_summary, after_summary)
    t.wrap("bilevel.rating", bilevel.quartile_occupancy)
    t.wrap("effmap.build", effmap.build_efficiency_map, after_build)
    t.wrap("effmap.serialize", effmap.map_to_csv)
    t.wrap("effmap.serialize", effmap.map_to_json)
    t.wrap("control.simulate_tracking", control.simulate_tracking)
    t.wrap("control.lyapunov_audit", control.lyapunov_audit)
    t.wrap("control.traces_to_csv", control.traces_to_csv)
    t.undo += rebind_method(
        effmap.EmlaModel, "cell", t.tallied("effmap.cell", effmap.EmlaModel.cell)
    )
    t.undo += rebind_method(
        effmap.EfficiencyMap,
        "interp_eta",
        t.tallied("effmap.interp", effmap.EfficiencyMap.interp_eta, after_interp),
    )

    minimize = scipy.optimize.minimize

    def traced_minimize(fun, x0, *args, **kwargs):
        if str(kwargs.get("method", "")).upper() != "SLSQP":
            return minimize(fun, x0, *args, **kwargs)
        cb = "trajopt.callback"
        fun = t.spanned(cb, fun)
        if callable(kwargs.get("jac")):
            kwargs["jac"] = t.spanned(cb, kwargs["jac"])
        kwargs["constraints"] = [
            {**c, **{k: t.spanned(cb, c[k]) for k in ("fun", "jac") if callable(c.get(k))}}
            for c in kwargs.get("constraints", ())
        ]
        index = t.enter("trajopt.slsqp")
        try:
            res = minimize(fun, x0, *args, **kwargs)
        finally:
            t.exit(index)
        t.counts["slsqp.nit"] += int(res.nit)
        t.counts["slsqp.nfev"] += int(res.nfev)
        t.counts["slsqp.njev"] += int(res.njev)
        return res

    t.undo += rebind(minimize, traced_minimize)

    solve_ivp = scipy.integrate.solve_ivp

    def traced_solve_ivp(fun, *args, **kwargs):
        index = t.enter("control.radau")
        try:
            sol = solve_ivp(t.tallied("control.rhs", fun), *args, **kwargs)
        finally:
            t.exit(index)
        t.counts["radau.nfev"] += int(sol.nfev)
        t.counts["radau.njev"] += int(sol.njev)
        t.counts["radau.nlu"] += int(sol.nlu)
        return sol

    t.undo += rebind(solve_ivp, traced_solve_ivp)


def samples_outside_map(rated) -> int:
    """Motoring samples of every rated trajectory beyond its map's axes.

    Reverse-quadrant motoring samples are mirrored into the first quadrant,
    as the map lookup does, before they are compared with the axes.
    """
    total = 0
    for f_x, v_x, maps in rated:
        for j, emap in enumerate(maps):
            if emap is None:
                continue
            f, v = f_x[:, j], v_x[:, j]
            motoring = f * v > 0
            f, v = np.abs(f[motoring]), np.abs(v[motoring])
            fa, va = emap.force_axis, emap.velocity_axis
            outside = (f < fa[0]) | (f > fa[-1]) | (v < va[0]) | (v > va[-1])
            total += int(outside.sum())
    return total


def layer_metrics(t: Tracer, import_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit); zero where unused."""
    rnea_calls = t.calls("manipulator.rnea")
    rows = t.counts["rnea.rows"]
    rnea_s = t.self_time("manipulator.rnea")
    inner_calls = t.calls("trajopt.solve_inner")
    cells = t.counts["effmap.cells"]
    build_s = t.total("effmap.build")
    interp_samples = t.counts["effmap.interp_samples"]
    rhs_calls = t.calls("control.rhs")

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "manipulator.rnea.calls": (rnea_calls, "count"),
        "manipulator.rnea.rows": (rows, "count"),
        "manipulator.rnea.self_s": (rnea_s, "s"),
        "manipulator.rnea.us_per_row": (ratio(rnea_s, rows, 1e6), "us"),
        "manipulator.rnea.fd_share": (ratio(t.counts["rnea.fd_rows"], rows), "fraction"),
        "trajopt.solve_inner.calls": (inner_calls, "count"),
        "trajopt.solve_inner.self_s": (t.self_time("trajopt.solve_inner"), "s"),
        "trajopt.slsqp.nit": (t.counts["slsqp.nit"], "count"),
        "trajopt.slsqp.nfev": (t.counts["slsqp.nfev"], "count"),
        "trajopt.slsqp.njev": (t.counts["slsqp.njev"], "count"),
        "trajopt.slsqp.self_s": (t.self_time("trajopt.slsqp"), "s"),
        "trajopt.converged_frac": (
            ratio(t.counts["solve_inner.converged"], inner_calls), "fraction"),
        "bilevel.solve_outer.self_s": (t.self_time("bilevel.solve_outer"), "s"),
        "bilevel.rating_s": (t.total("bilevel.rating"), "s"),
        "bilevel.unique_ray_frac": (ratio(len(set(t.ray_keys)), inner_calls), "fraction"),
        "effmap.build.s": (build_s, "s"),
        "effmap.build.us_per_cell": (ratio(build_s, cells, 1e6), "us"),
        "effmap.cell.calls": (t.calls("effmap.cell"), "count"),
        "effmap.interp.calls": (t.calls("effmap.interp"), "count"),
        "effmap.interp.us_per_sample": (
            ratio(t.tally_seconds("effmap.interp"), interp_samples, 1e6), "us"),
        "effmap.serialize.s": (t.total("effmap.serialize"), "s"),
        "effmap.samples_outside_map": (samples_outside_map(t.rated), "count"),
        "control.radau.s": (t.total("control.radau"), "s"),
        "control.radau.nfev": (t.counts["radau.nfev"], "count"),
        "control.radau.njev": (t.counts["radau.njev"], "count"),
        "control.radau.nlu": (t.counts["radau.nlu"], "count"),
        "control.rhs.calls": (rhs_calls, "count"),
        "control.rhs.us_per_call": (ratio(t.tally_seconds("control.rhs"), rhs_calls, 1e6), "us"),
        "control.simulate_tracking.self_s": (t.self_time("control.simulate_tracking"), "s"),
        "control.lyapunov_audit.s": (t.total("control.lyapunov_audit"), "s"),
        "control.traces_to_csv.s": (t.total("control.traces_to_csv"), "s"),
        "configio.write_artifacts.s": (t.total("configio.write_artifacts"), "s"),
        "cli.run.self_s": (t.self_time("cli.run"), "s"),
        "process.import_s": (import_s, "s"),
    }
