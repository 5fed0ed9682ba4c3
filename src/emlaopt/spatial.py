"""Rigid-body terms of the 6-D spatial recursion: inertia, Coriolis and
gravity operators and the net wrench a body requires.

Spatial vectors are plain (..., 6) arrays that stack the linear part on
top of the angular part: velocities [v; w] and forces/moments [f; m],
both expressed in a frame attached to the body.  Frame changes (forces
with the 6x6 block transform [[R, 0], [skew(r) R, R]], velocities with its
transpose, so the power pairing V.F is invariant) are made where the chain
is walked, in ``manipulator._fixed_child`` and
``manipulator._force_to_parent``.

All functions broadcast over leading batch dimensions so a whole
trajectory of poses can be processed in one call.
"""

from dataclasses import dataclass, field

import numpy as np


def skew(r):
    """Skew-symmetric matrix of a 3-vector: skew(r) @ v == cross(r, v)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape[:-1] + (3, 3))
    rx, ry, rz = r[..., 0], r[..., 1], r[..., 2]
    out[..., 0, 1] = -rz
    out[..., 0, 2] = ry
    out[..., 1, 0] = rz
    out[..., 1, 2] = -rx
    out[..., 2, 0] = -ry
    out[..., 2, 1] = rx
    return out


@dataclass(frozen=True)
class RigidBodyParams:
    """Mass, rotational inertia about the COM (in body axes) and COM offset.

    ``com_offset`` runs from the body frame origin to the center of mass,
    expressed in the body frame.  ``gravity`` is the magnitude-signed world
    vector used by the gravity wrench (default [0, 0, 9.81]; the wrench it
    produces is the support force the body requires).
    """

    mass: float
    inertia: np.ndarray
    com_offset: np.ndarray
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))

    def __post_init__(self):
        inertia = np.asarray(self.inertia, dtype=float)
        if self.mass <= 0:
            raise ValueError("mass must be > 0")
        if inertia.shape != (3, 3):
            raise ValueError("inertia must be 3x3")
        if np.abs(inertia - inertia.T).max() > 1e-9:
            raise ValueError("inertia must be symmetric")
        if np.any(np.linalg.eigvalsh(inertia) <= 0):
            raise ValueError("inertia must be positive definite")
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "com_offset", np.asarray(self.com_offset, dtype=float))
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float))

    def mass_matrix(self) -> np.ndarray:
        """6x6 spatial inertia about the body frame origin."""
        rx = skew(self.com_offset)
        m = self.mass
        top = np.concatenate([m * np.eye(3), -m * rx], axis=-1)
        bottom = np.concatenate([m * rx, self.inertia - m * (rx @ rx)], axis=-1)
        return np.concatenate([top, bottom], axis=-2)


def coriolis_matrix(body: RigidBodyParams, omega) -> np.ndarray:
    """6x6 Coriolis/centrifugal operator at angular velocity omega (body frame)."""
    wx = skew(omega)
    rx = skew(body.com_offset)
    m = body.mass
    eye_a = body.inertia
    top = np.concatenate([m * wx, -m * (wx @ rx)], axis=-1)
    bottom = np.concatenate(
        [m * (rx @ wx), wx @ eye_a + eye_a @ wx - m * (rx @ wx @ rx)], axis=-1
    )
    return np.concatenate([top, bottom], axis=-2)


def gravity_wrench(body: RigidBodyParams, rot_world) -> np.ndarray:
    """Gravity term [m R g; m skew(r) R g] with R mapping world vectors into the body frame."""
    rot_world = np.asarray(rot_world, dtype=float)
    r_ai = np.swapaxes(rot_world, -1, -2)
    g_body = np.einsum("...ij,j->...i", r_ai, body.gravity) * body.mass
    ang = np.cross(np.broadcast_to(body.com_offset, g_body.shape), g_body)
    return np.concatenate([g_body, ang], axis=-1)


def net_force(body: RigidBodyParams, vel, acc, rot_world):
    """Net wrench a body requires for its current motion, in its own frame.

    ``vel`` and ``acc`` are the body-frame spatial velocity and its apparent
    (frame-relative) time derivative; ``rot_world`` maps body coordinates to
    the world (gravity) frame.  Returns M dV + C(w) V + G.
    """
    v = np.asarray(vel, dtype=float)
    a = np.asarray(acc, dtype=float)
    return (
        np.einsum("ij,...j->...i", body.mass_matrix(), a)
        + np.einsum("...ij,...j->...i", coriolis_matrix(body, v[..., 3:]), v)
        + gravity_wrench(body, rot_world)
    )


def rot_y(angle):
    """Rotation about the +y axis; broadcasts over the angle array."""
    angle = np.asarray(angle, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(angle.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 2] = s
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = -s
    out[..., 2, 2] = c
    return out


def planar_angle(v):
    """Angle t of an x-z plane vector such that v = |v| * rot_y(t) @ ex."""
    v = np.asarray(v, dtype=float)
    return np.arctan2(-v[..., 2], v[..., 0])
