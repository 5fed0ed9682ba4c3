import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.interpolate import BSpline

from emlaopt.bspline import basis_matrices, clamped_knots, derivative_matrix
from conftest import spline_states

# (degree, n_ctrl) with degree in 2..5 and n_ctrl in degree+1..16
shapes = st.integers(2, 5).flatmap(lambda p: st.tuples(st.just(p), st.integers(p + 1, 16)))


@settings(max_examples=30, deadline=None)
@given(shapes)
def test_partition_of_unity_and_derivative_sums(shape):
    degree, n_ctrl = shape
    rng = np.random.default_rng(0)
    s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 1000)])
    b, db, d2b = basis_matrices(n_ctrl, degree, s)
    assert np.abs(b.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(db.sum(axis=1)).max() <= 1e-12
    assert np.abs(d2b.sum(axis=1)).max() <= 1e-12
    assert b.min() >= 0.0
    # clamped ends: the curve starts at the first and ends at the last control point
    assert np.array_equal(b[0], np.eye(n_ctrl)[0])
    assert np.array_equal(b[1], np.eye(n_ctrl)[-1])


@settings(max_examples=30, deadline=None)
@given(shapes)
def test_derivatives_match_finite_differences(shape):
    degree, n_ctrl = shape
    rng = np.random.default_rng(1)
    h = 1e-6
    s = rng.uniform(2 * h, 1 - 2 * h, 1000)
    # a low-degree basis is only C^(degree-1) at its knots, where a central
    # difference straddles a jump in a higher derivative
    knots = clamped_knots(n_ctrl, degree)
    s = s[np.abs(s[:, None] - knots[None, :]).min(axis=1) > 2 * h]
    b, db, d2b = basis_matrices(n_ctrl, degree, s)
    b_p, db_p, _ = basis_matrices(n_ctrl, degree, s + h)
    b_m, db_m, _ = basis_matrices(n_ctrl, degree, s - h)
    assert np.abs((b_p - b_m) / (2 * h) - db).max() <= 1e-6
    assert np.abs((db_p - db_m) / (2 * h) - d2b).max() <= 1e-6


@settings(max_examples=30, deadline=None)
@given(shapes.flatmap(lambda shape: st.tuples(
    st.just(shape), st.lists(st.floats(-10.0, 10.0), min_size=shape[1], max_size=shape[1]))))
def test_derivative_matrix_gives_derivative_control_points(drawn):
    (degree, n_ctrl), c = drawn
    c = np.array(c)
    deriv = BSpline(clamped_knots(n_ctrl, degree), c, degree).derivative()
    # SciPy pads the derivative's coefficients with zeros to its knot count
    assert not np.any(deriv.c[n_ctrl - 1:])
    # each entry is degree * (c_{i+1} - c_i) / gap, a gap no shorter than
    # 1 / (n_ctrl - degree); the two sides round those terms differently
    scale = degree * (n_ctrl - degree) * max(1.0, np.abs(c).max())
    err = np.abs(derivative_matrix(n_ctrl, degree) @ c - deriv.c[:n_ctrl - 1]).max()
    assert err <= 1e-14 * scale


def test_constant_control_points_reproduce_constants():
    q, qd, qdd = spline_states(5, np.full((9, 2), -1.4), 3.0, np.linspace(0, 3, 17))
    assert np.abs(q + 1.4).max() < 1e-13
    assert np.abs(qd).max() < 1e-12
    assert np.abs(qdd).max() < 1e-11


def test_linear_precision_gives_zero_acceleration():
    n, p = 10, 4
    knots = clamped_knots(n, p)
    greville = np.array([knots[i + 1: i + 1 + p].mean() for i in range(n)])
    c = np.stack([3.0 * greville - 1.0, -0.5 * greville], axis=1)
    t = np.linspace(0, 2, 21)
    q, qd, qdd = spline_states(p, c, 2.0, t)
    assert np.abs(q[:, 0] - (3.0 * t / 2.0 - 1.0)).max() < 1e-12
    assert np.abs(qdd).max() < 1e-10


def test_clamped_boundary_interpolation():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((8, 3))
    (q0, q1), _, _ = spline_states(5, c, 1.7, [0.0, 1.7])
    assert np.array_equal(q0, c[0])
    assert np.array_equal(q1, c[-1])


def test_degenerate_settings_rejected():
    with pytest.raises(ValueError):
        clamped_knots(3, 5)
    with pytest.raises(ValueError):
        basis_matrices(8, 1, np.array([0.5]))
    with pytest.raises(ValueError):
        basis_matrices(4, 5, np.array([0.5]))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda p: st.tuples(st.just(p), st.integers(p + 1, 30))),
       st.lists(st.floats(0.0, 1.0), max_size=40))
def test_basis_equals_scipy_bit_for_bit(shape, drawn):
    # the basis runs SciPy's recursion in its order, so SciPy's BSpline, the
    # oracle here, gives every bit, signed zeros included, at the drawn
    # points, at every knot and at both ends
    degree, n_ctrl = shape
    knots = clamped_knots(n_ctrl, degree)
    s = np.concatenate([drawn, knots, [0.0, 1.0]])
    reference = BSpline(knots, np.eye(n_ctrl), degree)
    for nu, b in enumerate(basis_matrices(n_ctrl, degree, s)):
        assert np.array_equal(b.view(np.uint64), reference(s, nu=nu).view(np.uint64)), nu
