"""Clamped B-spline bases.

The basis is de Boor's B-spline basis on a clamped uniform knot vector over
[0, 1], evaluated by his recursion (A Practical Guide to Splines, ch. X) in
the order of SciPy's ``BSpline``, whose bits it gives without importing
``scipy.interpolate``, so its derivatives are analytic (no differencing).
A trajectory maps the normalized parameter to physical time through its
final time t_M, which multiplies the derivative bases by 1/t_M and 1/t_M^2.
A clamped spline lies in the convex hull of its control points, and its
derivative is the spline over ``derivative_matrix`` times them, so a box
that holds on either control polygon holds at every s (de Boor, A Practical
Guide to Splines, ch. IX).
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
    sum to one, rows of the derivatives to zero.  Each row holds the
    degree + 1 values ``_de_boor`` gives on the knot interval of its s and
    zeros elsewhere, the bits of ``BSpline(knots, eye(n_ctrl), degree)(s, nu)``.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2 for acceleration evaluation")
    knots = clamped_knots(n_ctrl, degree)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    # the interval t[ell] <= s < t[ell+1], closed at s = 1 (SciPy's find_interval)
    ell = np.clip(np.searchsorted(knots, s, side="right") - 1, degree, n_ctrl - 1)
    rows = np.arange(len(s))[:, None]
    cols = ell[:, None] + np.arange(-degree, 1)
    out = []
    for nu in range(3):
        b = np.zeros((len(s), n_ctrl))
        # SciPy sums 0.0 + c w over the interval's functions, which turns -0.0 into 0.0
        b[rows, cols] = _de_boor(knots, s, degree, ell, nu) + 0.0
        out.append(b)
    return tuple(out)


def _de_boor(knots, s, degree, ell, nu) -> np.ndarray:
    """(len(s), degree + 1) nu-th derivatives of the B-splines B_{ell-degree} …
    B_ell that are nonzero on each s's interval [t_ell, t_ell+1): degree - nu
    steps of de Boor's recursion, then nu derivative steps, each step's
    products and sums in the order of SciPy's ``_deBoor_D``.  The interval
    has positive length, so no knot difference below is zero."""
    h = np.zeros((len(s), degree + 1))
    h[:, 0] = 1.0
    for j in range(1, degree + 1):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            right, left = knots[ell + n], knots[ell + n - j]
            if j <= degree - nu:
                w = prev[:, n - 1] / (right - left)
                h[:, n - 1] += w * (right - s)
                h[:, n] = w * (s - left)
            else:
                w = j * prev[:, n - 1] / (right - left)
                h[:, n - 1] -= w
                h[:, n] = w
    return h


def derivative_matrix(n_ctrl: int, degree: int) -> np.ndarray:
    """(n_ctrl - 1, n_ctrl) matrix D whose product D c is the control
    polygon of dq/ds, the degree-1 lower spline on the inner knots:
    (D c)_i = degree (c_{i+1} - c_i) / (t_{i+degree+1} - t_{i+1})."""
    knots = clamped_knots(n_ctrl, degree)
    gaps = knots[degree + 1: n_ctrl + degree] - knots[1:n_ctrl]
    return degree * (np.eye(n_ctrl - 1, n_ctrl, 1) - np.eye(n_ctrl - 1, n_ctrl)) / gaps[:, None]
