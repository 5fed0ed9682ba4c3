"""Steady-state efficiency maps over the (axial force, linear velocity) plane.

Each cell solves the steady operating point: shaft speed from the ideal
transmission, q-axis current from the torque demand with i_d = 0, dq
voltages from the steady current equations.  Cells whose current or voltage
exceed the configured drive limits, and regenerating cells, are tagged
infeasible (NaN efficiency), never clamped or zeroed.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .drivetrain import DriveTrainParams, rotary_linear_map
from .losses import DriveConfig, efficiency, loss_breakdown
from .pmsm import PmsmParams, dq_voltages, torque_to_iq

MAP_CSV_HEADER = ["f_x", "v_x", "eta", "p_cu", "p_co", "p_sw", "p_d", "p_mech", "p_sc", "feasible"]
INFEASIBLE_TOKEN = "infeasible"


@dataclass(frozen=True)
class EmlaModel:
    """One actuator: motor, drivetrain and drive/loss configuration."""

    motor: PmsmParams
    drivetrain: DriveTrainParams
    drive: DriveConfig = field(default_factory=DriveConfig)
    name: str = "emla"

    def steady_state(self, f_x, v_x):
        """Operating point (omega_m, i_q, v_d, v_q) delivering (f_x, v_x), with i_d = 0."""
        tau_m, omega_m = rotary_linear_map(self.drivetrain, f_x, v_x)
        i_q = torque_to_iq(self.motor, tau_m)
        v_d, v_q = dq_voltages(self.motor, i_q, omega_m)
        return omega_m, i_q, v_d, v_q

    def cell(self, f_x, v_x):
        """Efficiency, loss record and feasibility at (f_x, v_x) points.

        Points beyond the current/voltage limits, and regenerating points,
        are infeasible: their efficiency is NaN, so they are excluded from
        the map rather than clamped.  The losses are evaluated at every
        point; the record is :func:`emlaopt.losses.loss_breakdown`'s, the
        map's six loss columns.
        """
        omega_m, i_q, v_d, v_q = self.steady_state(f_x, v_x)
        feasible = ~(
            (np.abs(i_q) > self.drive.max_current)
            | (np.hypot(v_d, v_q) > self.drive.max_voltage)
            | (np.multiply(f_x, v_x) < 0)
        )
        losses = loss_breakdown(self.motor, self.drivetrain, self.drive, i_q, omega_m, f_x, v_x)
        eta = efficiency(f_x, v_x, losses)
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
        # bilinear lookup needs at least one cell of positive width per axis
        for name in ("force_axis", "velocity_axis"):
            a = np.asarray(getattr(self, name))
            if not (a.ndim == 1 and a.size >= 2 and np.all(np.isfinite(a))
                    and np.all(np.diff(a) > 0)):
                raise ValueError(
                    f"{name} must be finite, strictly increasing and at least 2 points long"
                )
        shape = (len(self.force_axis), len(self.velocity_axis))
        if self.eta.shape != shape:
            raise ValueError("eta shape does not match axes")
        for name, a in [("feasible", self.feasible)] + list(self.losses.items()):
            if np.shape(a) != shape:
                raise ValueError(f"{name} shape {np.shape(a)} does not match eta {shape}")
        finite = self.eta[np.isfinite(self.eta)]
        if finite.size and (finite.min() < -1e-12 or finite.max() > 1.0 + 1e-12):
            raise ValueError("eta outside [0, 1]")
        # the table interp_eta reads: infeasible and NaN cells rate 0
        self._rating_table = np.where(self.feasible, np.nan_to_num(self.eta, nan=0.0), 0.0)
        self._upper_quartile = None

    def interp_eta(self, f_x, v_x) -> np.ndarray:
        """Bilinear efficiency lookup, clipped to the grid envelope.

        Motoring points in the reverse quadrant (f < 0, v < 0) are looked
        up at (|f|, |v|): the steady-state losses depend on current and
        speed magnitudes only, so the map is symmetric under joint sign
        reversal.  Infeasible cells contribute 0 to the interpolation so
        that trajectories skirting the infeasible boundary are rated
        poorly rather than propagating NaN.
        """
        table = self._rating_table
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

    def eta_upper_quartile(self) -> float:
        """Upper quartile of eta over the feasible motoring cells (axes > 0); computed once."""
        if self._upper_quartile is None:
            vals = self.eta[self.feasible & np.isfinite(self.eta)]
            vals = vals[vals > 0]
            if vals.size == 0:
                raise ValueError("map has no feasible cells with positive efficiency")
            self._upper_quartile = float(np.quantile(vals, 0.75))
        return self._upper_quartile


def build_efficiency_map(model: EmlaModel, force_grid, velocity_grid) -> EfficiencyMap:
    """Evaluate the steady-state efficiency over a rectangular grid in one model call."""
    force_axis = np.asarray(force_grid, dtype=float)
    velocity_axis = np.asarray(velocity_grid, dtype=float)
    ff, vv = np.meshgrid(force_axis, velocity_axis, indexing="ij")
    eta, losses, feasible = model.cell(ff, vv)
    columns = {k: np.where(feasible, v, np.nan) for k, v in losses.items()}
    return EfficiencyMap(force_axis, velocity_axis, eta, columns, feasible)


def _row_texts(a: np.ndarray, encode):
    """The cell texts of the 2-D array ``a``, one list per row (force value),
    with ``encode`` turning a 1-D array into the list of its values' texts.

    A matrix whose cells are bit-equal along every row is encoded once down
    its first column, and one bit-equal along every column once along its
    first row; the texts are then repeated.  Any other matrix is encoded row
    by row as the rows are taken.  Bits, not values, are compared, so 0.0 and
    -0.0 are never merged.
    """
    bits = a.view(f"u{a.itemsize}")
    if (bits == bits[:, :1]).all():
        return [[t] * a.shape[1] for t in encode(a[:, 0])]
    if (bits == bits[:1]).all():
        return [encode(a[0])] * a.shape[0]
    return map(encode, a)


def _csv_texts(values: np.ndarray) -> list:
    """``%.12g`` of each value."""
    return ("%.12g," * len(values) % tuple(values.tolist())).split(",")[:-1]


def map_to_csv(emap: EfficiencyMap) -> str:
    """Serialize with the fixed header, one row per cell in row-major order.

    A feasible cell's row is ten ``%.12g`` fields; an infeasible one's is its
    two coordinates, the infeasible token in every value column and ``0``.
    Each column is formatted by :func:`_row_texts`, so a column that varies
    along one axis only, such as ``f_x`` or a loss of force alone, is
    formatted once per point of that axis.  The rows of each force value make
    one block; the blocks are joined once.
    """
    ff, vv = np.meshgrid(emap.force_axis, emap.velocity_axis, indexing="ij")
    columns = [ff, vv, emap.eta] + [emap.losses[k] for k in MAP_CSV_HEADER[3:9]]
    texts = [_row_texts(np.asarray(c, dtype=float), _csv_texts)
             for c in columns + [emap.feasible]]
    blocks = []
    for cells, ok in zip(zip(*texts), emap.feasible.tolist()):
        if not all(ok):  # the token goes where the mask, not the text, says
            cells = cells[:2] + tuple([t if o else INFEASIBLE_TOKEN for t, o in zip(c, ok)]
                                      for c in cells[2:9]) + cells[9:]
        blocks.append("\n".join(map(",".join, zip(*cells))))
    # the empty last piece ends the text with a newline without another copy of it
    return "\n".join([",".join(MAP_CSV_HEADER)] + blocks + [""])


def _json_texts(values: np.ndarray) -> list:
    """The JSON text of each value, ``null`` where it is not finite."""
    cells = values.astype(object)
    cells[~np.isfinite(values)] = None
    return json.dumps(cells.tolist())[1:-1].split(", ")


def _json_matrix(a: np.ndarray, pad: str) -> list:
    """A 2-D array (null at non-finite cells) as ``json.dumps(indent=2)`` lays
    it out at indentation ``pad``: one piece per row, each with the bracket or
    separator before it, and the closing bracket."""
    row_pad, cell_pad = pad + "  ", pad + "    "
    head, sep, tail = ",\n" + row_pad + "[\n" + cell_pad, ",\n" + cell_pad, "\n" + row_pad + "]"
    rows = [head + sep.join(texts) + tail for texts in _row_texts(a, _json_texts)]
    rows[0] = "[" + rows[0][1:]
    return rows + ["\n" + pad + "]"]


def map_to_json(emap: EfficiencyMap) -> str:
    """JSON document with axes and row-major matrices (null = infeasible).

    The text is the fixed ``json.dumps(doc, indent=2)`` layout, joined once
    from one flat list of pieces: field headers, axes and matrix rows.  Each
    matrix is formatted by :func:`_row_texts`, so one that varies along one
    axis only is formatted once per point of that axis.
    """
    axes = ["[\n    " + ",\n    ".join(_json_texts(a)) + "\n  ]"
            for a in (emap.force_axis, emap.velocity_axis)]
    pieces = [
        '{\n  "force_axis": ', axes[0], ',\n  "velocity_axis": ', axes[1],
        ',\n  "eta": ', *_json_matrix(emap.eta, "  "),
        ',\n  "feasible": ', *_json_matrix(emap.feasible.astype(int), "  "),
        ',\n  "losses": {',
    ]
    for i, (k, v) in enumerate(emap.losses.items()):
        pieces += [(",\n    " if i else "\n    ") + json.dumps(k) + ": ", *_json_matrix(v, "    ")]
    pieces.append("\n  }\n}" if emap.losses else "}\n}")
    return "".join(pieces)


def map_from_json(text: str) -> EfficiencyMap:
    """Parse ``map_to_json`` output; null cells read back as NaN."""
    doc = json.loads(text)
    return EfficiencyMap(
        force_axis=np.asarray(doc["force_axis"], dtype=float),
        velocity_axis=np.asarray(doc["velocity_axis"], dtype=float),
        eta=np.asarray(doc["eta"], dtype=float),
        losses={k: np.asarray(v, dtype=float) for k, v in doc["losses"].items()},
        feasible=np.asarray(doc["feasible"], dtype=bool),
    )
