"""Clamped B-spline bases and spline trajectories.

The basis is de Boor's B-spline basis on a clamped uniform knot vector over
[0, 1], evaluated by ``scipy.interpolate.BSpline``, so its derivatives are
analytic (no differencing).  Trajectories map the normalized parameter to
physical time through the final time t_M, which multiplies the derivative
bases by 1/t_M and 1/t_M^2.
"""

from dataclasses import dataclass

import numpy as np


def clamped_knots(n_ctrl: int, degree: int) -> np.ndarray:
    """Clamped uniform knot vector on [0, 1] for ``n_ctrl`` control points."""
    if n_ctrl < degree + 1:
        raise ValueError("need at least degree+1 control points")
    interior = n_ctrl - degree - 1
    return np.concatenate(
        [
            np.zeros(degree + 1),
            np.arange(1, interior + 1) / (interior + 1),
            np.ones(degree + 1),
        ]
    )


def basis_matrices(n_ctrl: int, degree: int, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis rows and their first two parameter derivatives at s in [0, 1].

    Returns three (len(s), n_ctrl) matrices (B, dB/ds, d2B/ds2); rows of B
    sum to one, rows of the derivatives to zero.
    """
    from scipy.interpolate import BSpline

    if degree < 2:
        raise ValueError("degree must be >= 2 for acceleration evaluation")
    # one spline per basis function: control points are the identity
    basis = BSpline(clamped_knots(n_ctrl, degree), np.eye(n_ctrl), degree)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return basis(s), basis(s, nu=1), basis(s, nu=2)


@dataclass(frozen=True)
class SplineTrajectory:
    """Multi-joint trajectory q(t) = B(t/t_M) c over [0, t_M].

    ``control_points`` has shape (n_ctrl, n_joints); clamped ends make the
    first/last rows the boundary configurations.
    """

    degree: int
    control_points: np.ndarray
    t_final: float

    def __post_init__(self):
        c = np.asarray(self.control_points, dtype=float)
        if c.ndim != 2:
            raise ValueError("control_points must be (n_ctrl, n_joints)")
        if c.shape[0] < self.degree + 1:
            raise ValueError("need at least degree+1 control points")
        if self.t_final <= 0:
            raise ValueError("t_final must be > 0")
        object.__setattr__(self, "control_points", c)

    @property
    def n_ctrl(self) -> int:
        return self.control_points.shape[0]

    @property
    def n_joints(self) -> int:
        return self.control_points.shape[1]

    def eval(self, t):
        """(q, qd, qdd) at times t; raises outside [0, t_M]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.t_final * (1 + 1e-12)):
            raise ValueError("t outside the trajectory horizon")
        s = np.clip(t / self.t_final, 0.0, 1.0)
        b, db, d2b = basis_matrices(self.n_ctrl, self.degree, np.atleast_1d(s))
        q = b @ self.control_points
        qd = db @ self.control_points / self.t_final
        qdd = d2b @ self.control_points / self.t_final**2
        if t.ndim == 0:
            return q[0], qd[0], qdd[0]
        return q, qd, qdd
