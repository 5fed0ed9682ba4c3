"""Steady-state efficiency maps over the (axial force, linear velocity) plane.

Each cell solves the steady operating point: shaft speed from the ideal
transmission, q-axis current from the torque demand with i_d = 0, dq
voltages from the steady current equations.  Cells whose current or voltage
exceed the configured drive limits are tagged infeasible (NaN efficiency),
never clamped or zeroed.
"""

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .drivetrain import DriveTrainParams, equivalent_params, rotary_linear_map
from .losses import DriveConfig, LossBreakdown, efficiency, loss_breakdown
from .pmsm import PmsmParams, dq_voltages, torque_to_iq

MAP_CSV_HEADER = ["f_x", "v_x", "eta", "p_cu", "p_co", "p_sw", "p_d", "p_mech", "p_sc", "feasible"]
INFEASIBLE_TOKEN = "infeasible"


@dataclass(frozen=True)
class EmlaModel:
    """One actuator: motor, drivetrain and drive/loss configuration."""

    motor: PmsmParams
    drivetrain: DriveTrainParams
    drive: DriveConfig
    name: str = "emla"

    def steady_state(self, f_x: float, v_x: float):
        """Operating point (omega_m, i_q, v_d, v_q) delivering (f_x, v_x), with i_d = 0."""
        tau_m, omega_m = rotary_linear_map(self.drivetrain, f_x, v_x)
        i_q = torque_to_iq(self.motor, tau_m, i_d=0.0)
        v_d, v_q = dq_voltages(self.motor, 0.0, i_q, omega_m)
        return float(omega_m), float(i_q), float(v_d), float(v_q)

    def cell(self, f_x: float, v_x: float, allow_regeneration: bool = False):
        """Efficiency and loss breakdown at one grid point.

        Returns (nan, None, False) for points beyond the current/voltage
        limits and for regenerating points when regeneration rating is off;
        both are excluded from the map rather than clamped.
        """
        if f_x * v_x < 0 and not allow_regeneration:
            return float("nan"), None, False
        omega_m, i_q, v_d, v_q = self.steady_state(f_x, v_x)
        if abs(i_q) > self.drive.max_current or np.hypot(v_d, v_q) > self.drive.max_voltage:
            return float("nan"), None, False
        losses = loss_breakdown(
            self.motor, self.drivetrain, self.drive, 0.0, i_q, omega_m, f_x, v_x
        )
        eta = efficiency(f_x, v_x, losses, allow_regeneration=allow_regeneration)
        return eta, losses, True

    def efficiency_at(self, f_x: float, v_x: float) -> float:
        """Exact-model efficiency (0.0 returned for infeasible points)."""
        eta, _, feasible = self.cell(f_x, v_x)
        return eta if feasible else 0.0


@dataclass
class EfficiencyMap:
    """Gridded efficiency with per-source losses over (force, velocity)."""

    force_axis: np.ndarray
    velocity_axis: np.ndarray
    eta: np.ndarray  # (n_force, n_vel), NaN where infeasible
    losses: dict  # name -> (n_force, n_vel) arrays for p_cu, p_co, p_sw, p_d, p_mech, p_sc
    feasible: np.ndarray  # boolean mask

    def __post_init__(self):
        nf, nv = len(self.force_axis), len(self.velocity_axis)
        if self.eta.shape != (nf, nv):
            raise ValueError("eta shape does not match axes")
        if np.any(np.diff(self.force_axis) <= 0) or np.any(np.diff(self.velocity_axis) <= 0):
            raise ValueError("axes must be strictly increasing")
        finite = self.eta[np.isfinite(self.eta)]
        if finite.size and (finite.min() < -1e-12 or finite.max() > 1.0 + 1e-12):
            raise ValueError("eta outside [0, 1]")

    def interp_eta(self, f_x, v_x) -> np.ndarray:
        """Bilinear efficiency lookup, clipped to the grid envelope.

        Motoring points in the reverse quadrant (f < 0, v < 0) are looked
        up at (|f|, |v|): the steady-state losses depend on current and
        speed magnitudes only, so the map is symmetric under joint sign
        reversal.  Infeasible cells contribute 0 to the interpolation so
        that trajectories skirting the infeasible boundary are rated
        poorly rather than propagating NaN.
        """
        table = np.where(self.feasible, np.nan_to_num(self.eta, nan=0.0), 0.0)
        f_in = np.asarray(f_x, dtype=float)
        v_in = np.asarray(v_x, dtype=float)
        reverse = (f_in < 0) & (v_in < 0)
        f_in = np.where(reverse, -f_in, f_in)
        v_in = np.where(reverse, -v_in, v_in)
        f = np.clip(f_in, self.force_axis[0], self.force_axis[-1])
        v = np.clip(v_in, self.velocity_axis[0], self.velocity_axis[-1])
        i = np.clip(np.searchsorted(self.force_axis, f) - 1, 0, len(self.force_axis) - 2)
        j = np.clip(np.searchsorted(self.velocity_axis, v) - 1, 0, len(self.velocity_axis) - 2)
        df = self.force_axis[i + 1] - self.force_axis[i]
        dv = self.velocity_axis[j + 1] - self.velocity_axis[j]
        tf = (f - self.force_axis[i]) / df
        tv = (v - self.velocity_axis[j]) / dv
        return (
            table[i, j] * (1 - tf) * (1 - tv)
            + table[i + 1, j] * tf * (1 - tv)
            + table[i, j + 1] * (1 - tf) * tv
            + table[i + 1, j + 1] * tf * tv
        )

    def eta_quantile(self, q: float) -> float:
        """Quantile of eta over the feasible motoring cells (axes > 0)."""
        vals = self.eta[self.feasible & np.isfinite(self.eta)]
        vals = vals[vals > 0]
        if vals.size == 0:
            raise ValueError("map has no feasible cells with positive efficiency")
        return float(np.quantile(vals, q))


def _map_row(model, f, velocity_axis, allow_regeneration):
    n = len(velocity_axis)
    eta = np.empty(n)
    feas = np.zeros(n, dtype=bool)
    loss_rows = {k: np.zeros(n) for k in ("p_cu", "p_co", "p_sw", "p_d", "p_mech", "p_sc")}
    for j, v in enumerate(velocity_axis):
        e, losses, ok = model.cell(float(f), float(v), allow_regeneration)
        eta[j] = e
        feas[j] = ok
        if ok:
            loss_rows["p_cu"][j] = losses.p_cu
            loss_rows["p_co"][j] = losses.p_co
            loss_rows["p_sw"][j] = losses.p_sw
            loss_rows["p_d"][j] = losses.p_d
            loss_rows["p_mech"][j] = losses.p_mech
            loss_rows["p_sc"][j] = losses.p_sc
        else:
            for k in loss_rows:
                loss_rows[k][j] = np.nan
    return eta, feas, loss_rows


def build_efficiency_map(
    model: EmlaModel,
    force_grid,
    velocity_grid,
    allow_regeneration: bool = False,
) -> EfficiencyMap:
    """Evaluate the steady-state efficiency over a rectangular grid, row by row."""
    force_axis = np.asarray(force_grid, dtype=float)
    velocity_axis = np.asarray(velocity_grid, dtype=float)
    if np.any(np.diff(force_axis) <= 0) or np.any(np.diff(velocity_axis) <= 0):
        raise ValueError("grids must be strictly increasing")

    nf, nv = len(force_axis), len(velocity_axis)
    eta = np.empty((nf, nv))
    feasible = np.zeros((nf, nv), dtype=bool)
    losses = {k: np.zeros((nf, nv)) for k in ("p_cu", "p_co", "p_sw", "p_d", "p_mech", "p_sc")}

    for i, f in enumerate(force_axis):
        eta[i], feasible[i], loss_rows = _map_row(model, f, velocity_axis, allow_regeneration)
        for k in losses:
            losses[k][i] = loss_rows[k]

    return EfficiencyMap(force_axis, velocity_axis, eta, losses, feasible)


def _fmt(x) -> str:
    return "%.12g" % x


def map_to_csv(emap: EfficiencyMap) -> str:
    """Serialize row-major with the fixed header; infeasible cells carry a token."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MAP_CSV_HEADER)
    for i, f in enumerate(emap.force_axis):
        for j, v in enumerate(emap.velocity_axis):
            if emap.feasible[i, j]:
                row = [
                    _fmt(f),
                    _fmt(v),
                    _fmt(emap.eta[i, j]),
                    _fmt(emap.losses["p_cu"][i, j]),
                    _fmt(emap.losses["p_co"][i, j]),
                    _fmt(emap.losses["p_sw"][i, j]),
                    _fmt(emap.losses["p_d"][i, j]),
                    _fmt(emap.losses["p_mech"][i, j]),
                    _fmt(emap.losses["p_sc"][i, j]),
                    "1",
                ]
            else:
                row = [_fmt(f), _fmt(v)] + [INFEASIBLE_TOKEN] * 7 + ["0"]
            writer.writerow(row)
    return buf.getvalue()


def map_to_json(emap: EfficiencyMap) -> str:
    """JSON document with axes and row-major matrices (null = infeasible)."""

    def matrix(a):
        return [[None if not np.isfinite(x) else x for x in row] for row in a]

    doc = {
        "force_axis": emap.force_axis.tolist(),
        "velocity_axis": emap.velocity_axis.tolist(),
        "eta": matrix(emap.eta),
        "feasible": emap.feasible.astype(int).tolist(),
        "losses": {k: matrix(v) for k, v in emap.losses.items()},
    }
    return json.dumps(doc, indent=2)


def map_from_json(text: str) -> EfficiencyMap:
    doc = json.loads(text)

    def matrix(rows):
        return np.array([[np.nan if x is None else x for x in row] for row in rows], dtype=float)

    return EfficiencyMap(
        force_axis=np.asarray(doc["force_axis"], dtype=float),
        velocity_axis=np.asarray(doc["velocity_axis"], dtype=float),
        eta=matrix(doc["eta"]),
        losses={k: matrix(v) for k, v in doc["losses"].items()},
        feasible=np.asarray(doc["feasible"], dtype=bool),
    )
