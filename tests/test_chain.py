import numpy as np
import pytest

from emlaopt.chain import ClosedChainGeometry, StrokeRangeError
from oracles import closure_rates, loop_closure

GEOM = ClosedChainGeometry(
    base_len=0.65, rocker_len=1.1, barrel_len=0.55, rod_root_len=0.3,
    rod_frame_setback=0.12, stroke_min=0.03, stroke_max=0.54,
)


def test_right_angle_at_pythagorean_length():
    c = np.hypot(GEOM.base_len, GEOM.rocker_len)
    x = c - GEOM.zero_stroke_len
    q, q1, q2 = loop_closure(GEOM, x)
    assert np.isclose(q, -np.pi / 2, atol=1e-12)


def test_angle_sum_is_pi():
    xs = np.linspace(GEOM.stroke_min, GEOM.stroke_max, 1000)
    q, q1, q2 = loop_closure(GEOM, xs)
    assert np.abs(np.abs(q) + np.abs(q1) + np.abs(q2) - np.pi).max() <= 1e-10
    assert np.all(q < 0) and np.all(q1 < 0) and np.all(q2 < 0)


def test_matches_planar_intersection_solver():
    """Place the triangle in the plane and measure the angles directly."""
    x = 0.5 * (GEOM.stroke_min + GEOM.stroke_max)
    c = x + GEOM.zero_stroke_len
    q, q1, q2 = loop_closure(GEOM, x)
    # hinge at origin, anchor on the +x axis; pin from circle intersection
    ell, ell1 = GEOM.base_len, GEOM.rocker_len
    px = (ell1**2 - c**2 + ell**2) / (2 * ell)
    py = np.sqrt(ell1**2 - px**2)
    pin = np.array([px, py])
    anchor = np.array([ell, 0.0])

    def angle_between(u, v):
        return np.arccos(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    assert np.isclose(abs(q), angle_between(anchor, pin), atol=1e-12)
    assert np.isclose(abs(q1), angle_between(-anchor, pin - anchor), atol=1e-12)
    assert np.isclose(abs(q2), angle_between(-pin, anchor - pin), atol=1e-12)


def test_rates_match_finite_differences():
    # the acceleration oracle differentiates the analytic rate along the
    # trajectory x(t), avoiding noisy double differences of the angle
    rng = np.random.default_rng(4)
    h = 1e-7
    for _ in range(25):
        x = rng.uniform(GEOM.stroke_min + 0.01, GEOM.stroke_max - 0.01)
        xd = rng.standard_normal()
        xdd = rng.standard_normal()
        triples = closure_rates(GEOM, x, xd, xdd)
        plus = loop_closure(GEOM, x + h)
        minus = loop_closure(GEOM, x - h)
        mid = loop_closure(GEOM, x)
        rate_plus = closure_rates(GEOM, x + h * xd, xd + h * xdd, 0.0)
        rate_minus = closure_rates(GEOM, x - h * xd, xd - h * xdd, 0.0)
        for i, (ang, rate, accel) in enumerate(triples):
            dq_dx = (plus[i] - minus[i]) / (2 * h)
            accel_fd = (rate_plus[i][1] - rate_minus[i][1]) / (2 * h)
            assert np.isclose(ang, mid[i], atol=1e-14)
            assert np.isclose(rate, dq_dx * xd, rtol=1e-6, atol=1e-8)
            assert np.isclose(accel, accel_fd, rtol=1e-6, atol=1e-7)


def test_stroke_range_errors_name_the_bound():
    with pytest.raises(StrokeRangeError, match="base_len . rocker_len"):
        loop_closure(GEOM, 1.5)
    short = ClosedChainGeometry(
        base_len=1.0, rocker_len=0.2, barrel_len=0.5, rod_root_len=0.4,
        rod_frame_setback=0.05, stroke_min=0.0, stroke_max=0.25,
    )
    with pytest.raises(StrokeRangeError, match="<="):
        loop_closure(short, -0.12)


def test_triangle_infeasible_range_rejected_at_construction():
    with pytest.raises(ValueError, match="triangle"):
        ClosedChainGeometry(
            base_len=0.65, rocker_len=1.1, barrel_len=0.55, rod_root_len=0.3,
            rod_frame_setback=0.12, stroke_min=0.03, stroke_max=1.0,
        )


def test_hinge_angle_inversion():
    xs = np.linspace(GEOM.stroke_min, GEOM.stroke_max, 40)
    q, _, _ = loop_closure(GEOM, xs)
    # law of cosines across the hinge: the actuator length from the two links
    c = np.sqrt(GEOM.base_len**2 + GEOM.rocker_len**2
                - 2.0 * GEOM.base_len * GEOM.rocker_len * np.cos(q))
    back = c - GEOM.zero_stroke_len
    assert np.abs(back - xs).max() < 1e-12
