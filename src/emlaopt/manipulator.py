"""Closed-chain dynamics of a planar parallel-serial manipulator.

The machine is a stack of stages over a fixed base.  Each stage is either a
linearly actuated closed chain (hinge + anchor on the carrying body, a
driven link, and a barrel/rod actuator closing the triangle) or a
telescopic prismatic slide.  All motion happens in the world x-z plane with
revolute axes along +y; gravity acts along -z.

Generalized coordinates are the piston strokes, one per stage.  ``rnea``
and ``potential_energy`` run one planar kernel: frames are in-plane
angle/position/velocity tuples, and the wrench a stage carries is the world
sum of its subtree's net wrenches, so no pin or bearing force is resolved.
Its constants (body scalars, the constant frames' cosines, sines and
offsets, the closure's scalars) are built once per model, on the first
call.  The tests check it against an independent 6-D spatial-vector
recursion that resolves every pin and slide force, in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ClosedChainGeometry, _hinge_anchor_closure

SINGULARITY_TOL = 1e-6


class SingularConfigurationError(ValueError):
    """Chain at (or numerically at) a fold where the pin angle vanishes."""


@dataclass(frozen=True)
class RigidBodyParams:
    """Mass, rotational inertia about the COM (in body axes) and COM offset.

    ``com_offset`` runs from the body frame origin to the center of mass,
    expressed in the body frame.  ``gravity`` is the magnitude-signed world
    vector of the gravity terms (default [0, 0, 9.81]; the force it gives
    is the support force the body requires).
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


def planar_angle(v):
    """Angle t of an x-z plane vector v = |v| (cos t, 0, -sin t), the turn
    about +y that carries the x-axis onto v."""
    v = np.asarray(v, dtype=float)
    return np.arctan2(-v[..., 2], v[..., 0])


def _check_planar(body: RigidBodyParams, name: str):
    if abs(body.com_offset[1]) > 1e-12:
        raise ValueError(f"{name}: com offset must lie in the x-z plane")
    if abs(body.inertia[0, 1]) > 1e-12 or abs(body.inertia[1, 2]) > 1e-12:
        raise ValueError(f"{name}: inertia products Ixy and Iyz must vanish")


@dataclass(frozen=True)
class ClosedChainStage:
    """One linearly actuated revolute stage.

    ``hinge_pos`` and ``anchor_pos`` sit on the carrying body (stage base
    frame); the driven link frame has its origin at the hinge with x toward
    the rod pin.  ``mount_pos``/``mount_angle`` place the next stage on the
    driven link.
    """

    name: str
    geometry: ClosedChainGeometry
    hinge_pos: np.ndarray
    anchor_pos: np.ndarray
    boom: RigidBodyParams
    barrel: RigidBodyParams
    rod: RigidBodyParams
    mount_pos: np.ndarray
    mount_angle: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hinge_pos", np.asarray(self.hinge_pos, dtype=float))
        object.__setattr__(self, "anchor_pos", np.asarray(self.anchor_pos, dtype=float))
        object.__setattr__(self, "mount_pos", np.asarray(self.mount_pos, dtype=float))
        for p, nm in ((self.hinge_pos, "hinge_pos"), (self.anchor_pos, "anchor_pos"),
                      (self.mount_pos, "mount_pos")):
            if abs(p[1]) > 1e-12:
                raise ValueError(f"{self.name}.{nm} must lie in the x-z plane")
        span = np.linalg.norm(self.anchor_pos - self.hinge_pos)
        if abs(span - self.geometry.base_len) > 1e-9:
            raise ValueError(
                f"{self.name}: |anchor - hinge| = {span:.9g} does not match "
                f"geometry.base_len = {self.geometry.base_len:.9g}"
            )
        for body, nm in ((self.boom, "boom"), (self.barrel, "barrel"), (self.rod, "rod")):
            _check_planar(body, f"{self.name}.{nm}")

    @property
    def base_angle(self) -> float:
        """Planar angle of the hinge-to-anchor direction in the stage base frame."""
        return float(planar_angle(self.anchor_pos - self.hinge_pos))


@dataclass(frozen=True)
class TelescopeStage:
    """Prismatic slide along the carrying body's x-axis."""

    name: str
    carriage: RigidBodyParams
    slide_pos: np.ndarray
    stroke_min: float
    stroke_max: float
    mount_pos: np.ndarray
    mount_angle: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "slide_pos", np.asarray(self.slide_pos, dtype=float))
        object.__setattr__(self, "mount_pos", np.asarray(self.mount_pos, dtype=float))
        if self.stroke_min >= self.stroke_max:
            raise ValueError("stroke_min must be < stroke_max")
        _check_planar(self.carriage, f"{self.name}.carriage")


@dataclass(frozen=True)
class ChainModel:
    """Fixed base plus an ordered stack of actuated stages."""

    base: RigidBodyParams
    stages: tuple
    base_pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    base_angle: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "base_pos", np.asarray(self.base_pos, dtype=float))
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("model needs at least one stage")

    @property
    def n_joints(self) -> int:
        return len(self.stages)

    @property
    def joint_names(self):
        return [s.name for s in self.stages]

    def stroke_limits(self):
        lo, hi = [], []
        for s in self.stages:
            if isinstance(s, ClosedChainStage):
                lo.append(s.geometry.stroke_min)
                hi.append(s.geometry.stroke_max)
            else:
                lo.append(s.stroke_min)
                hi.append(s.stroke_max)
        return np.array(lo), np.array(hi)

    @cached_property
    def _planar_plan(self):
        """What the planar kernel reads of the model, built on its first call.

        A ``dataclasses.replace`` copy builds its own; the model's arrays
        must not be changed in place once it exists.
        """
        return _build_planar_plan(self)


# ---------------------------------------------------------------------------
# planar force-only kernel behind rnea
#
# Every body moves in the world x-z plane (``_check_planar``), so a frame is
# the tuple (cos phi, sin phi, p_x, p_z, v_x, v_z, w, a_x, a_z, alpha): the
# world angle about +y, the world origin, and the in-plane components of the
# body-frame spatial velocity and its apparent derivative.  Each primitive
# keeps exactly the in-plane terms of its 6-D counterpart in
# ``tests/oracles.py``.  Wrenches are (f_x, f_z, m_y).  Entries stay plain
# floats until the first joint.

_GROUND = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _fixed_pose(angle, offset):
    """A constant frame's ``(cos, sin)`` of ``angle`` and x-z of ``offset``;
    either is None when zero, and :func:`_planar_fixed` then skips its terms."""
    turn = None if angle == 0.0 else (math.cos(angle), math.sin(angle))
    ox, oz = float(offset[0]), float(offset[2])
    return turn, None if ox == 0.0 and oz == 0.0 else (ox, oz)


def _planar_fixed(frame, turn, shift):
    """Child at parent point ``shift``, turned by ``turn`` about y (see :func:`_fixed_pose`).

    A zero offset or angle would only add exact zeros and multiply by one,
    which changes a finite value by at most the sign of a zero, so those
    terms are left out; with both zero the frame itself is returned.
    """
    if turn is None and shift is None:
        return frame
    c, s, px, pz, vx, vz, w, ax, az, al = frame
    if shift is not None:
        ox, oz = shift
        px, pz = px + c * ox + s * oz, pz - s * ox + c * oz
        vx, vz = vx + w * oz, vz - w * ox
        ax, az = ax + al * oz, az - al * ox
    if turn is not None:
        ct, st = turn
        c, s = c * ct - s * st, s * ct + c * st
        vx, vz = ct * vx - st * vz, st * vx + ct * vz
        ax, az = ct * ax - st * az, st * ax + ct * az
    return c, s, px, pz, vx, vz, w, ax, az, al


def _planar_revolute(frame, angle, rate, accel):
    """Child turned by the joint ``angle`` about the parent y-axis at its origin."""
    c, s, px, pz, vx, vz, w, ax, az, al = frame
    ct, st = np.cos(angle), np.sin(angle)
    lx, lz = ct * vx - st * vz, st * vx + ct * vz
    return (
        c * ct - s * st, s * ct + c * st, px, pz,
        lx, lz, w + rate,
        ct * ax - st * az - rate * lz, st * ax + ct * az + rate * lx, al + accel,
    )


def _planar_prismatic(frame, disp, rate, accel):
    """Child sliding ``disp`` along the parent x-axis."""
    c, s, px, pz, vx, vz, w, ax, az, al = frame
    return (
        c, s, px + c * disp, pz - s * disp,
        vx + rate, vz - w * disp, w,
        ax + accel, az - al * disp - rate * w, al,
    )


def _planar_body(body: RigidBodyParams):
    """The scalars :func:`_planar_net` and :func:`_planar_potential` read:
    m, r_x, r_z, m g_x, m g_z, the inertia about the frame origin, m r_z and
    m r_x."""
    m = float(body.mass)
    rx, rz = float(body.com_offset[0]), float(body.com_offset[2])
    i_origin = float(body.inertia[1, 1]) + m * (rx * rx + rz * rz)
    return (m, rx, rz, m * float(body.gravity[0]), m * float(body.gravity[2]),
            i_origin, m * rz, m * rx)


def _planar_net(body, frame):
    """(f_x, f_z, m_y) of the body's net wrench (``net_force`` in
    ``tests/oracles.py``), in body axes, for the scalars ``body`` of
    :func:`_planar_body`."""
    c, s, _, _, vx, vz, w, ax, az, al = frame
    m, rx, rz, gx, gz, i_origin, m_rz, m_rx = body
    # origin acceleration with the Coriolis/centrifugal term, times m, plus
    # the gravity support force in body axes
    kx = m * (ax + w * (vz - w * rx)) + (c * gx - s * gz)
    kz = m * (az - w * (vx + w * rz)) + (s * gx + c * gz)
    return kx + m_rz * al, kz - m_rx * al, rz * kx - rx * kz + i_origin * al


def _planar_add(total, frame, wrench):
    """``total`` plus a body wrench turned to world axes, moment about the world origin."""
    c, s, px, pz = frame[:4]
    fx, fz, my = wrench
    wx, wz = c * fx + s * fz, c * fz - s * fx
    return total[0] + wx, total[1] + wz, total[2] + (my + pz * wx - px * wz)


def _build_planar_plan(model: ChainModel):
    """The base frame and body scalars and, per stage, the constant frames
    and body scalars of :func:`_planar_forward`.  Nothing reads the last
    stage's mount frame, so it is the identity."""
    base = _planar_fixed(_GROUND, *_fixed_pose(model.base_angle, model.base_pos))
    steps = []
    for k, stage in enumerate(model.stages):
        last = k == model.n_joints - 1
        mount = (None, None) if last else _fixed_pose(stage.mount_angle, stage.mount_pos)
        if isinstance(stage, ClosedChainStage):
            theta_a = stage.base_angle
            steps.append((
                stage, mount,
                _fixed_pose(theta_a, stage.hinge_pos),
                _fixed_pose(theta_a + math.pi, stage.anchor_pos),
                _planar_body(stage.boom), _planar_body(stage.barrel), _planar_body(stage.rod),
            ))
        else:
            steps.append((stage, mount, _fixed_pose(0.0, stage.slide_pos),
                          _planar_body(stage.carriage)))
    return base, _planar_body(model.base), tuple(steps)


def _planar_forward(model: ChainModel, q, qd, qdd):
    """The kernel's forward pass: per stage, its moving bodies as (frame,
    body scalars) pairs, the boom or carriage first, and for a chain what
    the backward pass reads of its closure (geometry, pin angle and its
    sine, actuator length), empty for a telescope.

    Raises ``StrokeRangeError`` outside a chain's triangle and
    ``SingularConfigurationError`` at a fold.
    """
    frame, _, steps = model._planar_plan
    passes = []
    for k, (stage, mount, *consts) in enumerate(steps):
        x, xd, xdd = q[..., k], qd[..., k], qdd[..., k]
        if isinstance(stage, TelescopeStage):
            slide, carriage_body = consts
            carriage = _planar_prismatic(_planar_fixed(frame, *slide), x, xd, xdd)
            passes.append((((carriage, carriage_body),), ()))
            frame = _planar_fixed(carriage, *mount)
            continue
        hinge, anchor, boom_body, barrel_body, rod_body = consts
        geom = stage.geometry
        c = x + geom.zero_stroke_len
        geom.check_length(c)
        (qh, dh, d2h), (qa, da, d2a), cos_qp = _hinge_anchor_closure(geom, c)
        qp = -np.arccos(cos_qp)
        sin_qp = np.sin(qp)
        if (np.abs(sin_qp) < SINGULARITY_TOL).any():
            raise SingularConfigurationError(
                f"{stage.name}: pin angle within {SINGULARITY_TOL} of a fold"
            )
        xd2 = xd * xd
        boom = _planar_revolute(
            _planar_fixed(frame, *hinge), qh, dh * xd, d2h * xd2 + dh * xdd
        )
        barrel = _planar_revolute(
            _planar_fixed(frame, *anchor), -qa, -(da * xd), -(d2a * xd2 + da * xdd)
        )
        rod = _planar_prismatic(barrel, c - geom.rod_frame_setback, xd, xdd)
        passes.append((((boom, boom_body), (barrel, barrel_body), (rod, rod_body)),
                       (geom, qp, sin_qp, c)))
        frame = _planar_fixed(boom, *mount)
    return passes


def _piston_forces(model: ChainModel, q, qd, qdd):
    """Piston forces from in-plane motion and subtree wrench sums.

    The wrench a stage carries is the world sum of its subtree's net
    wrenches (internal pin and bearing forces cancel), so only three
    projections of the 6-D constraint resolution are needed: the rod's body
    wrench, the barrel's moment about the anchor and the boom subtree's
    moment about the hinge.  A telescope's force is the x-component of its
    subtree force in carriage axes.
    """
    passes = _planar_forward(model, q, qd, qdd)
    piston = np.empty(q.shape)
    subtree = (0.0, 0.0, 0.0)  # world axes, moment about the world origin
    for k in range(len(passes) - 1, -1, -1):
        ((body, scalars), *lower), chain = passes[k]
        subtree = _planar_add(subtree, body, _planar_net(scalars, body))
        fx, fz, my = subtree
        if not chain:  # telescope: subtree force along the carriage x-axis
            piston[..., k] = body[0] * fx - body[1] * fz
            continue
        (barrel, barrel_body), (rod, rod_body) = lower
        barrel_net, rod_net = _planar_net(barrel_body, barrel), _planar_net(rod_body, rod)
        geom, qp, sin_qp, c = chain
        m_hinge = my - body[3] * fx + body[2] * fz  # boom subtree about the hinge
        rod_x, rod_z, rod_m = rod_net
        lam = (barrel_net[2] + rod_m + geom.rod_frame_setback * rod_z) / c
        piston[..., k] = (
            rod_x + (lam - rod_z) / np.tan(qp) + m_hinge / (geom.rocker_len * sin_qp)
        )
        subtree = _planar_add(_planar_add(subtree, barrel, barrel_net), rod, rod_net)
    return piston


def _planar_potential(body, frame):
    """m g . r_com of the scalars ``body`` of :func:`_planar_body` in ``frame``."""
    c, s, px, pz = frame[:4]
    _, rx, rz, gx, gz = body[:5]
    return gx * (px + c * rx + s * rz) + gz * (pz - s * rx + c * rz)


def _as_states(model: ChainModel, q, qd, qdd):
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    if q.shape != qd.shape or q.shape != qdd.shape or q.shape[-1] != model.n_joints:
        raise ValueError("q, qd, qdd must share shape (..., n_joints)")
    return q, qd, qdd


# ---------------------------------------------------------------------------
# public API


def rnea(model: ChainModel, q, qd, qdd):
    """Inverse dynamics: piston velocities and forces for a stroke trajectory.

    Accepts single configurations (shape (n,)) or batches (..., n); the
    piston velocities equal the stroke rates since the strokes are the
    generalized coordinates.

    The forces come from the planar force-only kernel, which builds no
    frames or wrench dicts; the tests audit it against the 6-D recursion
    in ``tests/oracles.py``.  Raises ``StrokeRangeError`` outside a chain's
    triangle and ``SingularConfigurationError`` at a fold.
    """
    q, qd, qdd = _as_states(model, q, qd, qdd)
    return qd.copy(), _piston_forces(model, q, qd, qdd)


def potential_energy(model: ChainModel, q):
    """Total gravitational potential energy [J] (g from each body's params).

    The sum over the bodies, base included, of m g . r_com, with each
    center of mass placed by the kernel's forward pass.  Raises as
    :func:`rnea` does.
    """
    qz = np.zeros_like(np.asarray(q, dtype=float))
    q, qz, _ = _as_states(model, q, qz, qz)
    base, base_body, _ = model._planar_plan
    total = _planar_potential(base_body, base)
    for bodies, _ in _planar_forward(model, q, qz, qz):
        for frame, body in bodies:
            total = total + _planar_potential(body, frame)
    return total
