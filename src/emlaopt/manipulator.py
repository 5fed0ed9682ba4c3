"""Closed-chain dynamics of a planar parallel-serial manipulator.

The machine is a stack of stages over a fixed base.  Each stage is either a
linearly actuated closed chain (hinge + anchor on the carrying body, a
driven link, and a barrel/rod actuator closing the triangle) or a
telescopic prismatic slide.  All motion happens in the world x-z plane with
revolute axes along +y; gravity acts along -z.

Generalized coordinates are the piston strokes, one per stage.  Two paths
compute the dynamics:

* ``rnea`` (the optimizer's hot path) runs a planar force-only kernel:
  frames are in-plane angle/position/velocity tuples, and the wrench a
  stage carries is the world sum of its subtree's net wrenches, so no pin
  or bearing force is resolved.  Its constants (body scalars, the constant
  frames' cosines, sines and offsets, the closure's scalars) are built
  once per model, on the first call.
* ``evaluate_dynamics``, ``kinetic_energy`` and ``potential_energy`` run
  the 6-D recursion, the audit and oracle path: the forward pass propagates
  body-frame spatial velocities and their apparent derivatives through both
  branches of every chain; the backward pass aggregates net wrenches
  leaf-to-root and resolves each chain's internal pin/slide constraint
  system to extract the piston force.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ClosedChainGeometry, _hinge_anchor_closure, closure_rates
from .spatial import RigidBodyParams, net_force, planar_angle, rot_y

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])

SINGULARITY_TOL = 1e-6


class SingularConfigurationError(ValueError):
    """Chain at (or numerically at) a fold where the pin angle vanishes."""


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
    """Fixed base plus an ordered stack of actuated stages.

    The class-level unit selectors pick components of the chain wrenches:
    the piston (axial) direction, the in-plane lateral direction, and the
    hinge-moment component.
    """

    PISTON_AXIS = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    LATERAL_AXIS = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    HINGE_MOMENT_AXIS = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])

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
# forward propagation primitives: state = (R_world, p_world, V, A)
# V is the body-frame spatial velocity [v; w]; A its frame-apparent
# derivative, which is what the net-force formula consumes.


def _mat_vec(m, v):
    return np.einsum("...ij,...j->...i", m, v)


def _cross(a, b):
    """np.cross for (..., 3) operands without its axis-juggling overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _fixed_child(state, r_fix, p_fix):
    r_w, p_w, vel, acc = state
    rt = np.swapaxes(r_fix, -1, -2) if r_fix.ndim > 2 else r_fix.T
    v, w = vel[..., :3], vel[..., 3:]
    av, aw = acc[..., :3], acc[..., 3:]
    lin = _mat_vec(rt, v + _cross(w, p_fix))
    ang = _mat_vec(rt, w)
    alin = _mat_vec(rt, av + _cross(aw, p_fix))
    aang = _mat_vec(rt, aw)
    return (
        r_w @ r_fix,
        p_w + _mat_vec(r_w, np.broadcast_to(p_fix, p_w.shape)),
        np.concatenate([lin, ang], axis=-1),
        np.concatenate([alin, aang], axis=-1),
    )


def _revolute_y_child(state, p_fix, angle, rate, accel):
    """Child rotated by ``angle`` about the parent y-axis at parent point p_fix."""
    r_w, p_w, vel, acc = state
    rj = rot_y(angle)
    rt = np.swapaxes(rj, -1, -2)
    v, w = vel[..., :3], vel[..., 3:]
    av, aw = acc[..., :3], acc[..., 3:]
    lin = _mat_vec(rt, v + _cross(w, p_fix))
    ang = _mat_vec(rt, w)
    ang = ang + rate[..., None] * EY
    rate_vec = rate[..., None] * EY
    alin = _mat_vec(rt, av + _cross(aw, p_fix)) - _cross(rate_vec, lin)
    aang = _mat_vec(rt, aw) - _cross(rate_vec, ang) + accel[..., None] * EY
    return (
        r_w @ rj,
        p_w + _mat_vec(r_w, np.broadcast_to(p_fix, p_w.shape)),
        np.concatenate([lin, ang], axis=-1),
        np.concatenate([alin, aang], axis=-1),
    )


def _prismatic_x_child(state, disp, rate, accel):
    """Child sliding along the parent x-axis; orientations coincide."""
    r_w, p_w, vel, acc = state
    r = disp[..., None] * EX
    v, w = vel[..., :3], vel[..., 3:]
    av, aw = acc[..., :3], acc[..., 3:]
    lin = v + _cross(w, r) + rate[..., None] * EX
    alin = av + _cross(aw, r) + rate[..., None] * _cross(w, EX) + accel[..., None] * EX
    return (
        r_w,
        p_w + _mat_vec(r_w, r),
        np.concatenate([lin, w], axis=-1),
        np.concatenate([alin, aw], axis=-1),
    )


def _force_to_parent(rotation, offset, force):
    """Re-express a child-frame wrench in the parent frame; rotation=None is identity."""
    if rotation is None:
        lin = force[..., :3]
        ang = force[..., 3:]
    else:
        lin = _mat_vec(rotation, force[..., :3])
        ang = _mat_vec(rotation, force[..., 3:])
    ang = ang + _cross(offset, lin)
    return np.concatenate([lin, ang], axis=-1)


@dataclass
class DynamicsState:
    """Everything one evaluation produces: frames, wrenches, piston forces."""

    frames: dict  # name -> (R_world, p_world, V, A)
    net_wrenches: dict  # body name -> wrench in body frame
    frame_forces: dict  # frame name -> transmitted wrench in frame coords
    piston_forces: np.ndarray  # (..., n)


def _as_states(model: ChainModel, q, qd, qdd):
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    if q.shape != qd.shape or q.shape != qdd.shape or q.shape[-1] != model.n_joints:
        raise ValueError("q, qd, qdd must share shape (..., n_joints)")
    return q, qd, qdd


def _evaluate(model: ChainModel, q, qd, qdd) -> DynamicsState:
    q, qd, qdd = _as_states(model, q, qd, qdd)
    batch = q.shape[:-1]

    zeros6 = np.zeros(batch + (6,))
    ground = (
        np.broadcast_to(np.eye(3), batch + (3, 3)),
        np.zeros(batch + (3,)),
        zeros6,
        zeros6.copy(),
    )
    frames = {"ground": ground}
    base_state = _fixed_child(ground, rot_y(model.base_angle), model.base_pos)
    frames["base"] = base_state

    net = {"base": net_force(model.base, base_state[2], base_state[3], base_state[0])}
    chain_angles = {}
    per_stage = []  # bookkeeping for the backward pass

    state = base_state
    for k, stage in enumerate(model.stages):
        x, xd, xdd = q[..., k], qd[..., k], qdd[..., k]
        if isinstance(stage, ClosedChainStage):
            geom = stage.geometry
            (qh, qh_d, qh_dd), (qa, qa_d, qa_dd), (qp, qp_d, qp_dd) = closure_rates(
                geom, x, xd, xdd
            )
            if np.any(np.abs(np.sin(qp)) < SINGULARITY_TOL):
                raise SingularConfigurationError(
                    f"{stage.name}: pin angle within {SINGULARITY_TOL} of a fold"
                )
            c = x + geom.zero_stroke_len
            theta_a = stage.base_angle

            hinge_base = _fixed_child(state, rot_y(theta_a), stage.hinge_pos)
            boom = _revolute_y_child(hinge_base, np.zeros(3), qh, qh_d, qh_dd)
            pin_upper = _fixed_child(boom, np.eye(3), geom.rocker_len * EX)
            anchor_base = _fixed_child(state, rot_y(theta_a + np.pi), stage.anchor_pos)
            barrel = _revolute_y_child(anchor_base, np.zeros(3), -qa, -qa_d, -qa_dd)
            rod = _prismatic_x_child(barrel, c - geom.rod_frame_setback, xd, xdd)
            pin_lower = _revolute_y_child(
                rod, geom.rod_frame_setback * EX, -qp, -qp_d, -qp_dd
            )
            mount = _fixed_child(boom, rot_y(stage.mount_angle), stage.mount_pos)

            nm = stage.name
            frames.update(
                {
                    f"{nm}.hinge_base": hinge_base,
                    f"{nm}.boom": boom,
                    f"{nm}.pin_upper": pin_upper,
                    f"{nm}.anchor_base": anchor_base,
                    f"{nm}.barrel": barrel,
                    f"{nm}.rod": rod,
                    f"{nm}.pin_lower": pin_lower,
                    f"{nm}.mount": mount,
                }
            )
            net[f"{nm}.boom"] = net_force(stage.boom, boom[2], boom[3], boom[0])
            net[f"{nm}.barrel"] = net_force(stage.barrel, barrel[2], barrel[3], barrel[0])
            net[f"{nm}.rod"] = net_force(stage.rod, rod[2], rod[3], rod[0])
            chain_angles[nm] = (qh, qa, qp)
            per_stage.append(("chain", stage, {"q_pin": qp, "c": c}))
            state = mount
        else:
            slide = _fixed_child(state, np.eye(3), stage.slide_pos)
            carriage = _prismatic_x_child(slide, x, xd, xdd)
            mount = _fixed_child(carriage, rot_y(stage.mount_angle), stage.mount_pos)
            nm = stage.name
            frames[f"{nm}.slide"] = slide
            frames[f"{nm}.carriage"] = carriage
            frames[f"{nm}.mount"] = mount
            net[f"{nm}.carriage"] = net_force(
                stage.carriage, carriage[2], carriage[3], carriage[0]
            )
            per_stage.append(("telescope", stage, {"x": x}))
            state = mount

    # backward pass: aggregate leaf-to-root, resolving each chain's pin force
    frame_forces = {}
    piston = [None] * model.n_joints
    carried = np.zeros(batch + (6,))  # wrench entering the mount of the current stage
    for k in range(model.n_joints - 1, -1, -1):
        kind, stage, info = per_stage[k]
        nm = stage.name
        if kind == "telescope":
            subtree = net[f"{nm}.carriage"] + _force_to_parent(
                rot_y(stage.mount_angle), stage.mount_pos, carried
            )
            frame_forces[f"{nm}.carriage"] = subtree
            piston[k] = subtree @ ChainModel.PISTON_AXIS
            # transmitted through the slide to the carrying body
            x = info["x"]
            at_slide = _force_to_parent(None, x[..., None] * EX, subtree)
            carried = _force_to_parent(np.eye(3), stage.slide_pos, at_slide)
            frame_forces[f"{nm}.stage_total"] = carried
        else:
            geom = stage.geometry
            qh, qa, qp = chain_angles[nm]
            c = info["c"]
            f_rod = net[f"{nm}.rod"]
            f_barrel = net[f"{nm}.barrel"]
            boom_subtree = net[f"{nm}.boom"] + _force_to_parent(
                rot_y(stage.mount_angle), stage.mount_pos, carried
            )
            frame_forces[f"{nm}.boom_subtree"] = boom_subtree

            # constraint resolution (moments about the hinge, anchor and pin
            # y-axes): lateral slide force, then the axial piston force
            ax_f = ChainModel.PISTON_AXIS
            ax_l = ChainModel.LATERAL_AXIS
            ax_m = ChainModel.HINGE_MOMENT_AXIS
            lam = (
                f_barrel @ ax_m + f_rod @ ax_m + geom.rod_frame_setback * (f_rod @ ax_l)
            ) / c
            sin_qp, tan_qp = np.sin(qp), np.tan(qp)
            f_c = (
                f_rod @ ax_f
                + (lam - f_rod @ ax_l) / tan_qp
                + (boom_subtree @ ax_m) / (geom.rocker_len * sin_qp)
            )
            piston[k] = f_c

            # pin force applied by the rod to the driven link, rod-frame axes
            pin_force_rod = np.zeros(batch + (6,))
            pin_force_rod[..., 0] = f_c - f_rod @ ax_f
            pin_force_rod[..., 2] = lam - f_rod @ ax_l
            pin_in_pin = _force_to_parent(
                np.swapaxes(rot_y(-qp), -1, -2), np.zeros(3), pin_force_rod
            )
            frame_forces[f"{nm}.pin_upper"] = pin_in_pin
            frame_forces[f"{nm}.pin_lower"] = -pin_in_pin

            # hinge bearing force: upper subtree minus the pin contribution
            pin_at_boom = _force_to_parent(None, geom.rocker_len * EX, pin_in_pin)
            hinge_at_boom = boom_subtree - pin_at_boom
            hinge = _force_to_parent(rot_y(qh), np.zeros(3), hinge_at_boom)
            frame_forces[f"{nm}.hinge_base"] = hinge

            # anchor bearing force: the slide transmits the rod net plus the
            # pin load the driven link puts back on the rod
            rod_total = f_rod + _force_to_parent(
                rot_y(-qp), geom.rod_frame_setback * EX, pin_in_pin
            )
            lower_at_barrel = f_barrel + _force_to_parent(
                None, (c - geom.rod_frame_setback)[..., None] * EX, rod_total
            )
            anchor = _force_to_parent(rot_y(-qa), np.zeros(3), lower_at_barrel)
            frame_forces[f"{nm}.anchor_base"] = anchor

            theta_a = stage.base_angle
            carried = _force_to_parent(rot_y(theta_a), stage.hinge_pos, hinge) + _force_to_parent(
                rot_y(theta_a + np.pi), stage.anchor_pos, anchor
            )
            frame_forces[f"{nm}.stage_total"] = carried

    base_total = net["base"] + carried
    frame_forces["base"] = base_total
    frame_forces["ground"] = _force_to_parent(
        rot_y(model.base_angle), model.base_pos, base_total
    )

    return DynamicsState(
        frames=frames,
        net_wrenches=net,
        frame_forces=frame_forces,
        piston_forces=np.stack(piston, axis=-1),
    )


# ---------------------------------------------------------------------------
# planar force-only kernel behind rnea
#
# Every body moves in the world x-z plane (``_check_planar``), so a frame is
# the tuple (cos phi, sin phi, p_x, p_z, v_x, v_z, w, a_x, a_z, alpha): the
# world angle about +y, the world origin, and the in-plane components of the
# body-frame spatial velocity and its apparent derivative.  Each primitive
# keeps exactly the in-plane terms of its 6-D counterpart above.  Wrenches
# are (f_x, f_z, m_y).  Entries stay plain floats until the first joint.

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
    """The scalars :func:`_planar_net` reads: m, r_x, r_z, m g_x, m g_z,
    the inertia about the frame origin, m r_z and m r_x."""
    m = float(body.mass)
    rx, rz = float(body.com_offset[0]), float(body.com_offset[2])
    i_origin = float(body.inertia[1, 1]) + m * (rx * rx + rz * rz)
    return (m, rx, rz, m * float(body.gravity[0]), m * float(body.gravity[2]),
            i_origin, m * rz, m * rx)


def _planar_net(body, frame):
    """(f_x, f_z, m_y) of :func:`emlaopt.spatial.net_force`, in body axes,
    for the scalars ``body`` of :func:`_planar_body`."""
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
    """The base frame and, per stage, the constant frames and body scalars
    of :func:`_piston_forces`.  Nothing reads the last stage's mount frame,
    so it is the identity."""
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
    return base, tuple(steps)


def _piston_forces(model: ChainModel, q, qd, qdd):
    """Piston forces from in-plane motion and subtree wrench sums.

    The wrench a stage carries is the world sum of its subtree's net
    wrenches (internal pin and bearing forces cancel), so only the three
    projections of ``_evaluate``'s constraint resolution are needed: the
    rod's body wrench, the barrel's moment about the anchor and the boom
    subtree's moment about the hinge.  A telescope's force is the
    x-component of its subtree force in carriage axes.
    """
    frame, steps = model._planar_plan
    passes = []  # per stage, what the backward pass needs
    for k, (stage, mount, *consts) in enumerate(steps):
        x, xd, xdd = q[..., k], qd[..., k], qdd[..., k]
        if isinstance(stage, TelescopeStage):
            slide, carriage_body = consts
            carriage = _planar_prismatic(_planar_fixed(frame, *slide), x, xd, xdd)
            passes.append((carriage, _planar_net(carriage_body, carriage)))
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
        passes.append((boom, _planar_net(boom_body, boom), geom, barrel,
                       _planar_net(barrel_body, barrel), rod,
                       _planar_net(rod_body, rod), qp, sin_qp, c))
        frame = _planar_fixed(boom, *mount)

    piston = np.empty(q.shape)
    subtree = (0.0, 0.0, 0.0)  # world axes, moment about the world origin
    for k in range(len(steps) - 1, -1, -1):
        body, net, *chain = passes[k]
        subtree = _planar_add(subtree, body, net)
        fx, fz, my = subtree
        if not chain:  # telescope: subtree force along the carriage x-axis
            piston[..., k] = body[0] * fx - body[1] * fz
            continue
        geom, barrel, barrel_net, rod, rod_net, qp, sin_qp, c = chain
        m_hinge = my - body[3] * fx + body[2] * fz  # boom subtree about the hinge
        rod_x, rod_z, rod_m = rod_net
        lam = (barrel_net[2] + rod_m + geom.rod_frame_setback * rod_z) / c
        piston[..., k] = (
            rod_x + (lam - rod_z) / np.tan(qp) + m_hinge / (geom.rocker_len * sin_qp)
        )
        subtree = _planar_add(_planar_add(subtree, barrel, barrel_net), rod, rod_net)
    return piston


# ---------------------------------------------------------------------------
# public API


def rnea(model: ChainModel, q, qd, qdd):
    """Inverse dynamics: piston velocities and forces for a stroke trajectory.

    Accepts single configurations (shape (n,)) or batches (..., n); the
    piston velocities equal the stroke rates since the strokes are the
    generalized coordinates.

    The forces come from the planar force-only kernel, which builds no
    frames or wrench dicts; :func:`evaluate_dynamics` runs the 6-D
    recursion that the tests audit it against.  Raises ``StrokeRangeError``
    outside a chain's triangle and ``SingularConfigurationError`` at a fold.
    """
    q, qd, qdd = _as_states(model, q, qd, qdd)
    return qd.copy(), _piston_forces(model, q, qd, qdd)


def evaluate_dynamics(model: ChainModel, q, qd, qdd) -> DynamicsState:
    """Full 6-D evaluation for callers that need frames and wrenches.

    This is the audit path: its ``piston_forces`` resolve every pin and
    bearing force, and they equal :func:`rnea`'s to rounding.
    """
    return _evaluate(model, q, qd, qdd)


def kinetic_energy(model: ChainModel, q, qd):
    """Total kinetic energy [J] at (q, qd)."""
    state = _evaluate(model, q, qd, np.zeros_like(np.asarray(q, dtype=float)))
    total = 0.0
    for name, body in _iter_bodies(model):
        vel = state.frames[name][2]
        total = total + 0.5 * np.einsum(
            "...i,ij,...j->...", vel, body.mass_matrix(), vel
        )
    return total


def potential_energy(model: ChainModel, q):
    """Total gravitational potential energy [J] (g from each body's params)."""
    qz = np.zeros_like(np.asarray(q, dtype=float))
    state = _evaluate(model, q, qz, qz)
    total = 0.0
    for name, body in _iter_bodies(model):
        r_w, p_w = state.frames[name][0], state.frames[name][1]
        com_world = p_w + _mat_vec(r_w, np.broadcast_to(body.com_offset, p_w.shape))
        total = total + body.mass * np.einsum("...i,i->...", com_world, body.gravity)
    return total


def _iter_bodies(model: ChainModel):
    yield "base", model.base
    for stage in model.stages:
        if isinstance(stage, ClosedChainStage):
            yield f"{stage.name}.boom", stage.boom
            yield f"{stage.name}.barrel", stage.barrel
            yield f"{stage.name}.rod", stage.rod
        else:
            yield f"{stage.name}.carriage", stage.carriage
