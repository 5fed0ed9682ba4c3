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
from .losses import DriveConfig, efficiency, loss_breakdown
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

    def steady_state(self, f_x, v_x):
        """Operating point (omega_m, i_q, v_d, v_q) delivering (f_x, v_x), with i_d = 0."""
        tau_m, omega_m = rotary_linear_map(self.drivetrain, f_x, v_x)
        i_q = torque_to_iq(self.motor, tau_m, i_d=0.0)
        v_d, v_q = dq_voltages(self.motor, 0.0, i_q, omega_m)
        return omega_m, i_q, v_d, v_q

    def cell(self, f_x, v_x, allow_regeneration: bool = False):
        """Efficiency, loss breakdown and feasibility at (f_x, v_x) points.

        Points beyond the current/voltage limits, and regenerating points
        when regeneration rating is off, are infeasible: their efficiency is
        NaN, so they are excluded from the map rather than clamped.  The
        losses are evaluated at every point.
        """
        omega_m, i_q, v_d, v_q = self.steady_state(f_x, v_x)
        p_out = np.multiply(f_x, v_x)
        feasible = ~(
            (np.abs(i_q) > self.drive.max_current)
            | (np.hypot(v_d, v_q) > self.drive.max_voltage)
            | ((p_out < 0) & (not allow_regeneration))
        )
        losses = loss_breakdown(
            self.motor, self.drivetrain, self.drive, 0.0, i_q, omega_m, f_x, v_x
        )
        # eta is masked to the feasible points, so rating every point here is safe
        eta = efficiency(f_x, v_x, losses, allow_regeneration=True)
        return np.where(feasible, eta, np.nan)[()], losses, feasible

    def efficiency_at(self, f_x, v_x):
        """Exact-model efficiency (0.0 returned for infeasible points)."""
        eta, _, feasible = self.cell(f_x, v_x)
        return np.where(feasible, eta, 0.0)[()]


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


def build_efficiency_map(
    model: EmlaModel,
    force_grid,
    velocity_grid,
    allow_regeneration: bool = False,
) -> EfficiencyMap:
    """Evaluate the steady-state efficiency over a rectangular grid in one model call."""
    force_axis = np.asarray(force_grid, dtype=float)
    velocity_axis = np.asarray(velocity_grid, dtype=float)
    if np.any(np.diff(force_axis) <= 0) or np.any(np.diff(velocity_axis) <= 0):
        raise ValueError("grids must be strictly increasing")

    ff, vv = np.meshgrid(force_axis, velocity_axis, indexing="ij")
    eta, losses, feasible = model.cell(ff, vv, allow_regeneration)
    columns = {
        k: np.where(feasible, getattr(losses, k), np.nan)
        for k in ("p_cu", "p_co", "p_sw", "p_d", "p_mech", "p_sc")
    }
    return EfficiencyMap(force_axis, velocity_axis, eta, columns, feasible)


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
