"""Reference models the tests check the program against.

The program computes piston forces with the planar kernel behind
``emlaopt.manipulator.rnea``.  This module holds independent models of the
same physics, which only tests read:

* the 6-D spatial-vector recursion of the closed-chain boom
  (:func:`evaluate_dynamics`, :func:`kinetic_energy`,
  :func:`potential_energy`): the forward pass propagates body-frame spatial
  velocities and their apparent derivatives through both branches of every
  chain; the backward pass aggregates net wrenches leaf-to-root and resolves
  each chain's internal pin/slide constraint system to extract the piston
  force;
* the rigid-body operators it is built from (:func:`mass_matrix`,
  :func:`coriolis_matrix`, :func:`gravity_wrench`, :func:`net_force`);
* the loop-closure angles with their time derivatives, including the pin
  angle's (:func:`loop_closure`, :func:`closure_rates`);
* the nonlinear model of one EMLA, composed as its equations are
  written: the dq current equations (:func:`current_derivatives`), the
  electromagnetic torque (:func:`electromagnetic_torque`) and the rigid
  shaft it drives (:func:`emla_rhs`),
  which ``emlaopt.control.closed_loop`` writes out inline; its
  first-order model and its stored energy (:func:`linearize`,
  :func:`stored_energy`);
* the adaptive law of one subsystem's estimate, on arrays
  (:func:`adaptive_rate`);
* the transcription's box rows in their two-row form, one row per side
  (:func:`two_sided_box_rows`).

Spatial vectors are plain (..., 6) arrays that stack the linear part on top
of the angular part: velocities [v; w] and forces/moments [f; m], both
expressed in a frame attached to the body.  Frame changes (forces with the
6x6 block transform [[R, 0], [skew(r) R, R]], velocities with its
transpose, so the power pairing V.F is invariant) are made where the chain
is walked, in :func:`_fixed_child` and :func:`_force_to_parent`.  All
functions broadcast over leading batch dimensions.
"""

from dataclasses import dataclass

import numpy as np

from emlaopt.chain import ClosedChainGeometry
from emlaopt.drivetrain import DriveTrainParams, EquivalentParams, equivalent_params
from emlaopt.manipulator import (
    SINGULARITY_TOL,
    ChainModel,
    ClosedChainStage,
    RigidBodyParams,
    SingularConfigurationError,
)
from emlaopt.pmsm import PmsmParams

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])

# unit selectors of the chain wrenches: the piston (axial) direction, the
# in-plane lateral direction and the hinge-moment component
PISTON_AXIS = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
LATERAL_AXIS = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
HINGE_MOMENT_AXIS = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# rigid-body operators


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


def mass_matrix(body: RigidBodyParams) -> np.ndarray:
    """6x6 spatial inertia about the body frame origin."""
    rx = skew(body.com_offset)
    m = body.mass
    top = np.concatenate([m * np.eye(3), -m * rx], axis=-1)
    bottom = np.concatenate([m * rx, body.inertia - m * (rx @ rx)], axis=-1)
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


def gravity_wrench(body: RigidBodyParams, rot_world, gravity) -> np.ndarray:
    """Gravity term [m R g; m skew(r) R g] with R mapping world vectors into
    the body frame, for the world vector ``gravity`` ([0, 0, g] for a model
    under g; the force it gives is the support force the body requires)."""
    rot_world = np.asarray(rot_world, dtype=float)
    r_ai = np.swapaxes(rot_world, -1, -2)
    g_body = np.einsum("...ij,j->...i", r_ai, gravity) * body.mass
    ang = np.cross(np.broadcast_to(body.com_offset, g_body.shape), g_body)
    return np.concatenate([g_body, ang], axis=-1)


def net_force(body: RigidBodyParams, vel, acc, rot_world, gravity):
    """Net wrench a body requires for its current motion, in its own frame.

    ``vel`` and ``acc`` are the body-frame spatial velocity and its apparent
    (frame-relative) time derivative; ``rot_world`` maps body coordinates to
    the world (gravity) frame.  Returns M dV + C(w) V + G under the world
    vector ``gravity`` (see :func:`gravity_wrench`).
    """
    v = np.asarray(vel, dtype=float)
    a = np.asarray(acc, dtype=float)
    return (
        np.einsum("ij,...j->...i", mass_matrix(body), a)
        + np.einsum("...ij,...j->...i", coriolis_matrix(body, v[..., 3:]), v)
        + gravity_wrench(body, rot_world, gravity)
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


# ---------------------------------------------------------------------------
# loop closure with the pin angle's derivatives


def loop_closure(geom: ClosedChainGeometry, x):
    """The three interior angles (q_hinge, q_anchor, q_pin) at stroke x.

    All negative; |q_hinge| is the angle between the two links at the
    hinge, |q_anchor| at the actuator anchor and |q_pin| at the rod pin.
    """
    geom.check_length(x + geom.zero_stroke_len)
    q, q1, q2, *_ = _closure_with_derivatives(geom, np.asarray(x, dtype=float))
    return q, q1, q2


def _arccos_branch(u, du_dc, d2u_dc2):
    """(-arccos(u), and its first/second derivatives w.r.t. the length c)."""
    one_minus = 1.0 - u * u
    s = np.sqrt(one_minus)
    q = -np.arccos(u)
    dq = du_dc / s
    d2q = (d2u_dc2 * one_minus + u * du_dc**2) / s**3
    return q, dq, d2q


def _hinge_anchor_closure(geom: ClosedChainGeometry, c):
    """Hinge and anchor angles, each with its first and second derivative
    with respect to the actuator length ``c``, and the pin angle's cosine.
    They are formed as angles, where the program's kernel reads only the
    cosines and sines (``emlaopt.chain._closure``)."""
    ell, ell1 = geom.base_len, geom.rocker_len
    k = ell**2 - ell1**2
    c2 = c**2
    hinge = _arccos_branch(
        (ell**2 + ell1**2 - c2) / (2.0 * ell * ell1), -c / (ell * ell1), -1.0 / (ell * ell1)
    )
    v = (c2 + k) / (2.0 * c * ell)
    anchor = _arccos_branch(v, (c2 - k) / (2.0 * c2 * ell), k / (c**3 * ell))
    return hinge, anchor, (c2 - k) / (2.0 * c * ell1)


def _closure_with_derivatives(geom: ClosedChainGeometry, x):
    """Angles plus first and second derivatives with respect to the stroke."""
    c = np.asarray(x, dtype=float) + geom.zero_stroke_len
    (q, dq, d2q), (q1, dq1, d2q1), w = _hinge_anchor_closure(geom, c)
    ell1, k2 = geom.rocker_len, geom.rocker_len**2 - geom.base_len**2
    q2, dq2, d2q2 = _arccos_branch(w, (c**2 - k2) / (2.0 * c**2 * ell1), k2 / (c**3 * ell1))
    return q, q1, q2, dq, dq1, dq2, d2q, d2q1, d2q2


def closure_rates(geom: ClosedChainGeometry, x, xd, xdd):
    """Angles with their time derivatives for stroke trajectories (x, xd, xdd).

    Returns three (angle, rate, accel) triples in hinge/anchor/pin order.
    """
    geom.check_length(x + geom.zero_stroke_len)
    xd = np.asarray(xd, dtype=float)
    xdd = np.asarray(xdd, dtype=float)
    q, q1, q2, dq, dq1, dq2, d2q, d2q1, d2q2 = _closure_with_derivatives(
        geom, np.asarray(x, dtype=float)
    )
    out = []
    for ang, d1, d2 in ((q, dq, d2q), (q1, dq1, d2q1), (q2, dq2, d2q2)):
        out.append((ang, d1 * xd, d2 * xd**2 + d1 * xdd))
    return tuple(out)


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


# ---------------------------------------------------------------------------
# the 6-D recursion


@dataclass
class DynamicsState:
    """Everything one evaluation produces: frames, wrenches, piston forces."""

    frames: dict  # name -> (R_world, p_world, V, A)
    net_wrenches: dict  # body name -> wrench in body frame
    frame_forces: dict  # frame name -> transmitted wrench in frame coords
    piston_forces: np.ndarray  # (..., n)


def model_gravity(model: ChainModel) -> np.ndarray:
    """The world gravity vector of ``model``: its g along -z, as [0, 0, g]."""
    return np.array([0.0, 0.0, model.gravity])


def _evaluate(model: ChainModel, q, qd, qdd, gravity=None) -> DynamicsState:
    q, qd, qdd = (np.asarray(x, dtype=float) for x in (q, qd, qdd))
    gravity = model_gravity(model) if gravity is None else np.asarray(gravity, dtype=float)
    if q.shape != qd.shape or q.shape != qdd.shape or q.shape[-1] != model.n_joints:
        raise ValueError("q, qd, qdd must share shape (..., n_joints)")
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

    net = {"base": net_force(model.base, base_state[2], base_state[3], base_state[0], gravity)}
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
            net[f"{nm}.boom"] = net_force(stage.boom, boom[2], boom[3], boom[0], gravity)
            net[f"{nm}.barrel"] = net_force(stage.barrel, barrel[2], barrel[3], barrel[0],
                                            gravity)
            net[f"{nm}.rod"] = net_force(stage.rod, rod[2], rod[3], rod[0], gravity)
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
                stage.carriage, carriage[2], carriage[3], carriage[0], gravity
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
            piston[k] = subtree @ PISTON_AXIS
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
            ax_f = PISTON_AXIS
            ax_l = LATERAL_AXIS
            ax_m = HINGE_MOMENT_AXIS
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


def evaluate_dynamics(model: ChainModel, q, qd, qdd, gravity=None) -> DynamicsState:
    """Full 6-D evaluation: frames, net and transmitted wrenches, piston forces.

    Its ``piston_forces`` resolve every pin and bearing force, and they
    equal :func:`emlaopt.manipulator.rnea`'s to rounding.  ``gravity`` is
    a world vector in place of the model's [0, 0, g]: one tilted in the x-z
    plane, which the program expresses by turning the base.
    """
    return _evaluate(model, q, qd, qdd, gravity)


def kinetic_energy(model: ChainModel, q, qd):
    """Total kinetic energy [J] at (q, qd)."""
    state = _evaluate(model, q, qd, np.zeros_like(np.asarray(q, dtype=float)))
    total = 0.0
    for name, body in _iter_bodies(model):
        vel = state.frames[name][2]
        total = total + 0.5 * np.einsum(
            "...i,ij,...j->...", vel, mass_matrix(body), vel
        )
    return total


def potential_energy(model: ChainModel, q):
    """Total gravitational potential energy [J] under the model's gravity."""
    qz = np.zeros_like(np.asarray(q, dtype=float))
    state = _evaluate(model, q, qz, qz)
    total = 0.0
    for name, body in _iter_bodies(model):
        r_w, p_w = state.frames[name][0], state.frames[name][1]
        com_world = p_w + _mat_vec(r_w, np.broadcast_to(body.com_offset, p_w.shape))
        total = total + body.mass * np.einsum("...i,i->...", com_world, model_gravity(model))
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


# ---------------------------------------------------------------------------
# one EMLA: vector field, linearization and stored energy


def current_derivatives(params: PmsmParams, i_d, i_q, omega_m, v_d, v_q) -> tuple:
    """Solve the dq voltage equations for (di_d/dt, di_q/dt)."""
    p = params.pole_pairs
    di_d = (
        v_d
        - params.stator_resistance * i_d
        + p * omega_m * params.inductance_q * i_q
    ) / params.inductance_d
    di_q = (
        v_q
        - params.stator_resistance * i_q
        - p * omega_m * (params.inductance_d * i_d + params.pm_flux)
    ) / params.inductance_q
    return di_d, di_q


def electromagnetic_torque(params: PmsmParams, i_d, i_q):
    """Electromagnetic torque (3/2) p i_q [psi_PM + (L_d - L_q) i_d] in N*m."""
    dl = params.inductance_d - params.inductance_q
    return 1.5 * params.pole_pairs * i_q * (params.pm_flux + dl * i_d)


def emla_rhs(params: PmsmParams, eq: EquivalentParams, x, u, f_x) -> tuple:
    """Nonlinear vector field in [i_d, i_q, omega, theta] order, input [V_d, V_q].

    The dq current equations couple with the reflected mechanics of a
    rigid shaft: the electromagnetic torque drives the equivalent inertia
    against viscous drag and the load force reflected through the
    transmission.  No term depends on the shaft angle.  ``eq`` is
    ``equivalent_params(drivetrain)``.  Returns the four rates as a tuple:
    floats for one actuator's floats, (n,) arrays for stacked (n,)
    parameters, ``x`` (4, n), ``u`` a pair of (n,) voltages and ``f_x`` (n,)
    load forces.
    """
    i_d, i_q, omega, _ = x
    v_d, v_q = u
    di_d, di_q = current_derivatives(params, i_d, i_q, omega, v_d, v_q)
    torque = electromagnetic_torque(params, i_d, i_q)
    domega = (torque - eq.damping * omega - eq.load_ratio * f_x) / eq.inertia
    return di_d, di_q, domega, omega


@dataclass(frozen=True)
class OperatingPoint:
    """Linearization point for shaft speed and the two currents."""

    omega0: float
    iq0: float
    id0: float


def linearize(
    params: PmsmParams,
    drivetrain: DriveTrainParams,
    op: OperatingPoint,
    f_x: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-order model x_dot = A x + B u + r around an operating point.

    The bilinear speed/current products are expanded to first order around
    (omega0, iq0, id0); r collects the expansion residuals plus the load
    force term.  States [i_d, i_q, omega, theta] and inputs [V_d, V_q], in
    the order of :func:`emla_rhs`.
    """
    eq = equivalent_params(drivetrain)
    p = params.pole_pairs
    l_d, l_q = params.inductance_d, params.inductance_q
    alpha = l_d / l_q  # saliency ratio
    beta = 2.0 * eq.inertia / (3.0 * p)
    dl = params.inductance_d - params.inductance_q
    w0, iq0, id0 = op.omega0, op.iq0, op.id0

    a = np.array(
        [
            [-params.stator_resistance / l_d, p / alpha * w0, p / alpha * iq0, 0.0],
            [
                -p * alpha * w0,
                -params.stator_resistance / l_q,
                -(p * alpha * id0 + p * params.pm_flux / l_q),
                0.0,
            ],
            [
                dl * iq0 / beta,
                (dl * id0 + params.pm_flux) / beta,
                -eq.damping / eq.inertia,
                0.0,
            ],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([[1.0 / l_d, 0.0], [0.0, 1.0 / l_q], [0.0, 0.0], [0.0, 0.0]])
    # residuals of the first-order expansion of each bilinear product; the
    # q-axis speed coupling enters its row negatively, so its residual is
    # positive, and the load term carries 1/J_eq like the rest of the
    # mechanical row
    r = np.array(
        [
            -p / alpha * w0 * iq0,
            p * alpha * w0 * id0,
            -dl / beta * iq0 * id0 - eq.load_ratio * f_x / eq.inertia,
            0.0,
        ]
    )
    return a, b, r


def stored_energy(params: PmsmParams, drivetrain: DriveTrainParams, x) -> float:
    """Kinetic + magnetic energy of the state vector [J].

    Used by the power-balance audit: d/dt of this quantity plus the copper
    and viscous dissipation plus the delivered mechanical power equals the
    electrical input power (3/2)(V_d i_d + V_q i_q).
    """
    i_d, i_q, omega, _ = x
    eq = equivalent_params(drivetrain)
    kinetic = 0.5 * eq.inertia * omega**2
    magnetic = 0.75 * (params.inductance_d * i_d**2 + params.inductance_q * i_q**2)
    return kinetic + magnetic


# ---------------------------------------------------------------------------
# the adaptive law on arrays


def adaptive_rate(k: float, sigma: float, epsilon: float, phi: float, q_err):
    """phi_dot = -k*sigma*phi + (epsilon*k/2)|Q|^2.

    The rate is nonnegative at phi = 0, so a nonnegative estimate stays
    nonnegative under exact integration.
    """
    return -k * sigma * phi + 0.5 * epsilon * k * np.square(q_err)


# ---------------------------------------------------------------------------
# the transcription's box rows, two per entry


def two_sided_box_rows(kern, z):
    """(upper, lower, d_upper, d_lower): the margins (hi - x) / s and
    (x - lo) / s of the inner rate polygon (its end points are the
    boundary rates) and then of the f_x samples, with their Jacobians
    -dx/dz / s and dx/dz / s, as SLSQP got them when each side had a row of
    its own."""
    vals = kern.evaluate(z)
    upper, lower, d_upper, d_lower = [], [], [], []
    for x, d, (lo, hi), s in zip((vals["rates"], vals["f"]), (vals["d_rates"], vals["d_f"]),
                                 kern.boxes, kern.box_scales):
        scaled = (d / s[:, None]).reshape(-1, d.shape[-1])
        upper.append(((hi - x) / s).ravel())
        lower.append(((x - lo) / s).ravel())
        d_upper.append(-scaled)
        d_lower.append(scaled)
    return tuple(np.concatenate(rows) for rows in (upper, lower, d_upper, d_lower))
