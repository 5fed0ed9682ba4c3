"""Clamped B-spline bases.

The basis is de Boor's B-spline basis on a clamped uniform knot vector over
[0, 1], evaluated by ``scipy.interpolate.BSpline``, so its derivatives are
analytic (no differencing).  A trajectory maps the normalized parameter to
physical time through its final time t_M, which multiplies the derivative
bases by 1/t_M and 1/t_M^2.  A clamped spline lies in the convex hull of
its control points, and its derivative is the spline over
``derivative_matrix`` times them, so a box that holds on either control
polygon holds at every s (de Boor, A Practical Guide to Splines, ch. IX).
"""

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


def derivative_matrix(n_ctrl: int, degree: int) -> np.ndarray:
    """(n_ctrl - 1, n_ctrl) matrix D whose product D c is the control
    polygon of dq/ds, the degree-1 lower spline on the inner knots:
    (D c)_i = degree (c_{i+1} - c_i) / (t_{i+degree+1} - t_{i+1})."""
    knots = clamped_knots(n_ctrl, degree)
    gaps = knots[degree + 1: n_ctrl + degree] - knots[1:n_ctrl]
    return degree * (np.eye(n_ctrl - 1, n_ctrl, 1) - np.eye(n_ctrl - 1, n_ctrl)) / gaps[:, None]
