import numpy as np

from emlaopt.manipulator import RigidBodyParams, planar_angle
from oracles import (
    _fixed_child,
    _force_to_parent,
    coriolis_matrix,
    gravity_wrench,
    mass_matrix,
    net_force,
    rot_y,
    skew,
)

rng = np.random.default_rng(123)


def random_rotation():
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def test_skew_zero():
    assert np.array_equal(skew(np.zeros(3)), np.zeros((3, 3)))


def test_skew_basis_cross():
    assert np.allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])


def test_skew_matches_cross_product():
    for _ in range(25):
        r, v = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(skew(r) @ v, np.cross(r, v), atol=1e-14)
        assert np.allclose(skew(r).T, -skew(r))


def test_chain_frame_change_preserves_power_pairing():
    # the chain walk moves velocities to a child frame and wrenches back to
    # the parent; the power V.F must not depend on the frame it is read in
    for _ in range(30):
        r, p = random_rotation(), rng.standard_normal(3)
        v_a, f_b = rng.standard_normal(6), rng.standard_normal(6)
        v_b = _fixed_child((np.eye(3), np.zeros(3), v_a, np.zeros(6)), r, p)[2]
        f_a = _force_to_parent(r, p, f_b)
        assert abs(v_a @ f_a - v_b @ f_b) < 1e-10 * max(1, abs(v_a @ f_a))


# the world gravity vector of a model under g = 9.81
GRAVITY = np.array([0.0, 0.0, 9.81])


def body(mass=7.0, com=(0.2, 0.0, -0.1)):
    inertia = np.diag([0.4, 0.5, 0.3])
    return RigidBodyParams(mass=mass, inertia=inertia, com_offset=np.array(com))


def test_net_force_statics_is_gravity_wrench():
    b = body()
    r_w = random_rotation()
    out = net_force(b, np.zeros(6), np.zeros(6), r_w, GRAVITY)
    g_body = b.mass * r_w.T @ GRAVITY
    assert np.allclose(out[:3], g_body, atol=1e-12)
    assert np.allclose(out[3:], np.cross(b.com_offset, g_body), atol=1e-12)


def test_net_force_pure_linear_acceleration():
    b = body(com=(0.0, 0.0, 0.0))
    acc = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0])
    out = net_force(b, np.zeros(6), acc, np.eye(3), np.zeros(3))
    assert np.allclose(out[:3], b.mass * acc[:3])
    assert np.allclose(out[3:], 0.0)


def test_net_force_matches_momentum_rate():
    """F* - G equals the inertial-frame derivative of spatial momentum."""
    b = body()
    # smooth rigid motion: R(t) rotating about a fixed axis, p(t) polynomial
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    a0, a1 = rng.standard_normal(3), rng.standard_normal(3)

    def pose(t):
        ang = 0.7 * t + 0.3 * t**2
        k = skew(axis)
        r = np.eye(3) + np.sin(ang) * k + (1 - np.cos(ang)) * (k @ k)
        p = a0 * t + 0.5 * a1 * t**2
        return r, p

    def body_velocity(t, h=1e-6):
        r, p = pose(t)
        rp, pp = pose(t + h)
        rm, pm = pose(t - h)
        omega_w = np.array([  # world angular velocity from dR R^T
            ((rp - rm) / (2 * h) @ r.T)[2, 1],
            ((rp - rm) / (2 * h) @ r.T)[0, 2],
            ((rp - rm) / (2 * h) @ r.T)[1, 0],
        ])
        v_w = (pp - pm) / (2 * h)
        return np.concatenate([r.T @ v_w, r.T @ omega_w])

    t0, h = 0.4, 1e-6
    r, _ = pose(t0)
    vel = body_velocity(t0)
    acc = (body_velocity(t0 + h) - body_velocity(t0 - h)) / (2 * h)
    out = net_force(b, vel, acc, r, GRAVITY)

    m_mat = mass_matrix(b)

    def momentum_world(t):
        rt, _ = pose(t)
        h_body = m_mat @ body_velocity(t)
        lin = rt @ h_body[:3]
        ang = rt @ h_body[3:]
        return np.concatenate([lin, ang])

    hdot_w = (momentum_world(t0 + h) - momentum_world(t0 - h)) / (2 * h)
    # moment balance about the moving origin includes the v x P transport term
    p_lin_w = r @ (m_mat @ vel)[:3]
    v_origin_w = r @ vel[:3]
    expected_lin = r.T @ hdot_w[:3]
    expected_ang = r.T @ (hdot_w[3:] + np.cross(v_origin_w, p_lin_w))
    grav = gravity_wrench(b, r, GRAVITY)
    assert np.allclose(out[:3] - grav[:3], expected_lin, rtol=1e-4, atol=1e-4)
    assert np.allclose(out[3:] - grav[3:], expected_ang, rtol=1e-4, atol=1e-4)


def test_coriolis_power_free():
    b = body()
    for _ in range(20):
        v = rng.standard_normal(6)
        c = coriolis_matrix(b, v[3:])
        assert abs(v @ (c @ v)) < 1e-10


def test_rot_y_and_planar_angle():
    t = 0.73
    r = rot_y(t)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-15)
    v = r @ np.array([2.0, 0.0, 0.0])
    assert np.isclose(planar_angle(v), t)
