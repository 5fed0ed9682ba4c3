"""Closed-chain dynamics of a planar parallel-serial manipulator.

The machine is a stack of stages over a fixed base.  Each stage is either a
linearly actuated closed chain (hinge + anchor on the carrying body, a
driven link, and a barrel/rod actuator closing the triangle) or a
telescopic prismatic slide.  All motion happens in the world x-z plane with
revolute axes along +y; gravity acts along -z.

Generalized coordinates are the piston strokes, one per stage.  ``rnea``
and ``potential_energy`` run one planar kernel on complex numbers x - i z:
a frame is its orientation, origin, velocity and acceleration, a turn is a
complex product, the chain's joints turn by the closure's cosines and
sines, and the wrench a stage carries is the world sum of its subtree's net
wrenches, so no pin or bearing force is resolved.  Its constants (body
constants, the constant frames' turns and offsets, the closure's scalars)
are built once per model, on the first call.  The tests check it against an
independent 6-D spatial-vector recursion that resolves every pin and slide
force, in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ClosedChainGeometry, _closure

SINGULARITY_TOL = 1e-6


class SingularConfigurationError(ValueError):
    """Chain at (or numerically at) a fold where the pin angle vanishes."""


@dataclass(frozen=True)
class RigidBodyParams:
    """Mass, rotational inertia about the COM (in body axes) and COM offset.

    ``com_offset`` runs from the body frame origin to the center of mass,
    expressed in the body frame.
    """

    mass: float
    inertia: np.ndarray
    com_offset: np.ndarray

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
    """Fixed base plus an ordered stack of actuated stages, every body under
    one ``gravity`` [m/s^2] along world -z (a tilted one is a turned base)."""

    base: RigidBodyParams
    stages: tuple
    base_pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    base_angle: float = 0.0
    gravity: float = 9.81

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
# Every body moves in the world x-z plane (``_check_planar``), so an in-plane
# vector (x, z) is the complex number x - i z, and a turn by phi about +y is
# the product with e^(i phi).  A frame is the tuple (e, p, V, w, A, alpha):
# its world orientation e = e^(i phi) and origin p, and the in-plane parts of
# its body-frame spatial velocity (V, w) and of that velocity's apparent
# derivative (A, alpha).  Each primitive keeps exactly the in-plane terms of
# its 6-D counterpart in ``tests/oracles.py``.  A wrench is (F, m_y).
# Entries stay Python scalars until the first joint.

_GROUND = (1.0 + 0j, 0j, 0j, 0.0, 0j, 0.0)


def _fixed_pose(angle, offset):
    """A constant frame's turn (e^(i angle), its conjugate) and its offset
    (o, i o), o = x - i z; either is None when zero, and :func:`_fixed` then
    skips its terms."""
    turn = complex(math.cos(angle), math.sin(angle))
    shift = complex(float(offset[0]), -float(offset[2]))
    return (None if angle == 0.0 else (turn, turn.conjugate()),
            None if shift == 0 else (shift, 1j * shift))


def _fixed(frame, turn, shift):
    """Child at parent point ``shift``, turned by ``turn`` (see :func:`_fixed_pose`).

    A zero offset or angle would only add exact zeros and multiply by one,
    which changes a finite value by at most the sign of a zero, so those
    terms are left out; with both zero the frame itself is returned.
    """
    if turn is None and shift is None:
        return frame
    e, p, v, w, a, alpha = frame
    if shift is not None:
        o, i_o = shift
        p, v, a = p + e * o, v + i_o * w, a + i_o * alpha
    if turn is not None:
        t, t_conj = turn
        e, v, a = e * t, t_conj * v, t_conj * a
    return e, p, v, w, a, alpha


def _revolute(frame, turn, rate, accel):
    """Child turned by ``turn`` (e^(i angle), its conjugate) about the parent
    y-axis at its origin."""
    e, p, v, w, a, alpha = frame
    turn, turn_conj = turn
    v = turn_conj * v
    return e * turn, p, v, w + rate, turn_conj * a - 1j * rate * v, alpha + accel


def _prismatic(frame, disp, rate, accel):
    """Child sliding ``disp`` along the parent x-axis."""
    e, p, v, w, a, alpha = frame
    return (e, p + e * disp, v + (rate + 1j * (w * disp)), w,
            a + (accel + 1j * (alpha * disp + rate * w)), alpha)


def _body(body: RigidBodyParams, g: float):
    """The constants :func:`_net` and :func:`_potential` read: m, the COM
    offset r, i m r, the gravity support force m g under gravity ``g``, the
    inertia about the frame origin, conj(r) and conj(m g), vectors as x - i z."""
    m = float(body.mass)
    rx, rz = float(body.com_offset[0]), float(body.com_offset[2])
    r = complex(rx, -rz)
    gravity = complex(0.0, -m * g)
    i_origin = float(body.inertia[1, 1]) + m * (rx * rx + rz * rz)
    return m, r, 1j * m * r, gravity, i_origin, r.conjugate(), gravity.conjugate()


def _net(body, frame):
    """(F, m_y) of the body's net wrench (``net_force`` in
    ``tests/oracles.py``), in body axes, for the constants ``body`` of
    :func:`_body`."""
    e, _, v, w, a, alpha = frame
    m, r, i_m_r, gravity, i_origin, r_conj, _ = body
    # m times the origin acceleration with the Coriolis/centrifugal term,
    # plus the gravity support force in body axes
    k = m * (a + w * (1j * v - w * r)) + np.conjugate(e) * gravity
    return k + i_m_r * alpha, (r_conj * k).imag + i_origin * alpha


def _add(total, frame, wrench):
    """``total`` plus a body wrench turned to world axes, moment about the world origin."""
    e, p = frame[:2]
    force, m_y = wrench
    world = e * force
    return total[0] + world, total[1] + (m_y + (np.conjugate(p) * world).imag)


def _build_planar_plan(model: ChainModel):
    """The base frame and body constants and, per stage, the constant frames
    and body constants of :func:`_forward`.  Nothing reads the last stage's
    mount frame, so it is the identity."""
    base = _fixed(_GROUND, *_fixed_pose(model.base_angle, model.base_pos))
    g = float(model.gravity)
    steps = []
    for k, stage in enumerate(model.stages):
        last = k == model.n_joints - 1
        mount = (None, None) if last else _fixed_pose(stage.mount_angle, stage.mount_pos)
        if isinstance(stage, ClosedChainStage):
            theta_a = stage.base_angle
            steps.append((stage, mount, _fixed_pose(theta_a, stage.hinge_pos),
                          _fixed_pose(theta_a + math.pi, stage.anchor_pos),
                          _body(stage.boom, g), _body(stage.barrel, g), _body(stage.rod, g)))
        else:
            steps.append((stage, mount, _fixed_pose(0.0, stage.slide_pos),
                          _body(stage.carriage, g)))
    return base, _body(model.base, g), tuple(steps)


def _forward(model: ChainModel, q, qd, qdd):
    """The kernel's forward pass: per stage, its moving bodies as (frame,
    body constants) pairs, the boom or carriage first, and for a chain what
    the backward pass reads of its closure (geometry, the pin angle's cosine
    and sine, actuator length), empty for a telescope.

    The chain's joints turn by the cosines and sines of the closure.  Raises
    ``StrokeRangeError`` outside a chain's triangle and
    ``SingularConfigurationError`` at a fold.
    """
    frame, _, steps = model._planar_plan
    passes = []
    for k, (stage, mount, *consts) in enumerate(steps):
        x, xd, xdd = q[..., k], qd[..., k], qdd[..., k]
        if isinstance(stage, TelescopeStage):
            slide, carriage_body = consts
            carriage = _prismatic(_fixed(frame, *slide), x, xd, xdd)
            passes.append((((carriage, carriage_body),), ()))
            frame = _fixed(carriage, *mount)
            continue
        hinge, anchor, boom_body, barrel_body, rod_body = consts
        geom = stage.geometry
        c = x + geom.zero_stroke_len
        geom.check_length(c)
        (cos_h, sin_h, dh, d2h), (cos_a, sin_a, da, d2a), (cos_p, sin_p) = _closure(geom, c)
        if (sin_p > -SINGULARITY_TOL).any():
            raise SingularConfigurationError(
                f"{stage.name}: pin angle within {SINGULARITY_TOL} of a fold"
            )
        xd2 = xd * xd
        i_sin_h, i_sin_a = 1j * sin_h, 1j * sin_a
        # the boom turns by the hinge angle, the barrel by minus the anchor angle
        boom = _revolute(_fixed(frame, *hinge), (cos_h + i_sin_h, cos_h - i_sin_h),
                         dh * xd, d2h * xd2 + dh * xdd)
        barrel = _revolute(_fixed(frame, *anchor), (cos_a - i_sin_a, cos_a + i_sin_a),
                           np.negative(da * xd), np.negative(d2a * xd2 + da * xdd))
        rod = _prismatic(barrel, c - geom.rod_frame_setback, xd, xdd)
        passes.append((((boom, boom_body), (barrel, barrel_body), (rod, rod_body)),
                       (geom, cos_p, sin_p, c)))
        frame = _fixed(boom, *mount)
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
    passes = _forward(model, q, qd, qdd)
    piston = np.empty(q.shape)
    subtree = (0j, 0.0)  # world axes, moment about the world origin
    for k in range(len(passes) - 1, -1, -1):
        ((body, constants), *lower), chain = passes[k]
        subtree = _add(subtree, body, _net(constants, body))
        force, moment = subtree
        if not chain:  # telescope: subtree force along the carriage x-axis
            piston[..., k] = (np.conjugate(body[0]) * force).real
            continue
        (barrel, barrel_body), (rod, rod_body) = lower
        barrel_net, rod_net = _net(barrel_body, barrel), _net(rod_body, rod)
        geom, cos_p, sin_p, c = chain
        m_hinge = moment - (np.conjugate(body[1]) * force).imag  # boom subtree about the hinge
        (rod_f, rod_m), rod_minus_z = rod_net, rod_net[0].imag  # x - i z
        lam = (barrel_net[1] + rod_m - geom.rod_frame_setback * rod_minus_z) / c
        # the pin angle's cotangent is cos_p / sin_p
        piston[..., k] = (
            rod_f.real + ((lam + rod_minus_z) * cos_p + m_hinge / geom.rocker_len) / sin_p
        )
        subtree = _add(_add(subtree, barrel, barrel_net), rod, rod_net)
    return piston


def _potential(body, frame):
    """m g . r_com of the constants ``body`` of :func:`_body` in ``frame``."""
    e, p = frame[:2]
    return ((p + e * body[1]) * body[6]).real


def _as_states(model: ChainModel, q, qd, qdd):
    """q, qd and qdd as float arrays of one shape (..., n_joints) with a
    leading axis of one.  NumPy's complex product rounds differently on 0-d
    operands than in its array loop, whose results depend on neither length
    nor stride, so a single configuration runs as a batch of one and gets
    the bits of its row in any batch."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    if q.shape != qd.shape or q.shape != qdd.shape or q.shape[-1] != model.n_joints:
        raise ValueError("q, qd, qdd must share shape (..., n_joints)")
    return q[None], qd[None], qdd[None]


# ---------------------------------------------------------------------------
# public API


def rnea(model: ChainModel, q, qd, qdd):
    """Inverse dynamics: the piston forces f_x for a stroke trajectory, of
    ``q``'s shape.

    Accepts single configurations (shape (n,)) or batches (..., n).  The
    piston velocities are the stroke rates ``qd`` themselves, since the
    strokes are the generalized coordinates.

    The forces come from the planar force-only kernel, which builds no
    frames or wrench dicts; the tests audit it against the 6-D recursion
    in ``tests/oracles.py``.  Raises ``StrokeRangeError`` outside a chain's
    triangle and ``SingularConfigurationError`` at a fold.
    """
    q, qd, qdd = _as_states(model, q, qd, qdd)
    return _piston_forces(model, q, qd, qdd)[0]


def potential_energy(model: ChainModel, q):
    """Total gravitational potential energy [J] under the model's gravity.

    The sum over the bodies, base included, of m g . r_com, with each
    center of mass placed by the kernel's forward pass.  Raises as
    :func:`rnea` does.
    """
    qz = np.zeros_like(np.asarray(q, dtype=float))
    q, qz, _ = _as_states(model, q, qz, qz)
    base, base_body, _ = model._planar_plan
    total = _potential(base_body, base)
    for bodies, _ in _forward(model, q, qz, qz):
        for frame, body in bodies:
            total = total + _potential(body, frame)
    return total[0]
