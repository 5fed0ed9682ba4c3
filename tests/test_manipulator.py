import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlaopt import manipulator
from emlaopt.chain import ClosedChainGeometry, StrokeRangeError
from emlaopt.manipulator import (
    ChainModel,
    ClosedChainStage,
    RigidBodyParams,
    SingularConfigurationError,
    rnea,
)
from emlaopt.presets import default_manipulator
from conftest import scaled_masses
from oracles import (
    _iter_bodies,
    evaluate_dynamics,
    kinetic_energy,
    mass_matrix,
    model_gravity,
    potential_energy,
)

rng = np.random.default_rng(77)


def random_state(model, margin=0.15):
    lo, hi = model.stroke_limits()
    q = lo + (hi - lo) * rng.uniform(margin, 1 - margin, model.n_joints)
    qd = 0.1 * rng.standard_normal(model.n_joints)
    qdd = 0.3 * rng.standard_normal(model.n_joints)
    return q, qd, qdd


def total_mass(model):
    masses = [model.base.mass]
    for s in model.stages:
        if isinstance(s, ClosedChainStage):
            masses += [s.boom.mass, s.barrel.mass, s.rod.mass]
        else:
            masses.append(s.carriage.mass)
    return sum(masses)


def test_zero_rates_zero_velocities(model):
    q, _, _ = random_state(model)
    frames = evaluate_dynamics(model, q, np.zeros(3), np.zeros(3)).frames
    for name, (_, _, vel, _) in frames.items():
        assert np.abs(vel).max() == 0.0, name


def test_closed_chain_velocity_consistency(model):
    for _ in range(20):
        q, qd, qdd = random_state(model)
        st = evaluate_dynamics(model, q, qd, qdd)
        for nm in ("lift", "tilt"):
            dv = st.frames[f"{nm}.pin_upper"][2] - st.frames[f"{nm}.pin_lower"][2]
            da = st.frames[f"{nm}.pin_upper"][3] - st.frames[f"{nm}.pin_lower"][3]
            assert np.abs(dv).max() <= 1e-9
            assert np.abs(da).max() <= 1e-7


def test_end_effector_velocity_matches_fk_difference(model):
    q, qd, _ = random_state(model)
    st = evaluate_dynamics(model, q, qd, np.zeros(3))
    h = 1e-6
    for frame in ("telescope.mount", "tilt.boom", "lift.rod"):
        p_plus = evaluate_dynamics(model, q + h * qd, qd, np.zeros(3)).frames[frame][1]
        p_minus = evaluate_dynamics(model, q - h * qd, qd, np.zeros(3)).frames[frame][1]
        v_world_fd = (p_plus - p_minus) / (2 * h)
        r_w, _, vel, _ = st.frames[frame]
        assert np.abs(r_w @ vel[:3] - v_world_fd).max() < 1e-6


def test_nearly_massless_bodies_give_no_forces():
    model = default_manipulator()
    scaled = scaled_masses(model, 1e-9)
    q, qd, qdd = random_state(scaled)
    forces = evaluate_dynamics(scaled, q, qd, qdd).frame_forces
    for name, f in forces.items():
        assert np.abs(f).max() < 1e-4, name


def test_static_ground_reaction_is_total_weight(model):
    q, _, _ = random_state(model)
    st = evaluate_dynamics(model, q, np.zeros(3), np.zeros(3))
    fg = st.frame_forces["ground"]
    assert np.abs(fg[0]) < 1e-8
    assert np.abs(fg[1]) < 1e-8
    assert np.isclose(fg[2], total_mass(model) * 9.81, rtol=1e-12)


def test_ground_wrench_equals_momentum_rate_plus_gravity(model):
    q, qd, qdd = random_state(model)
    h = 1e-6

    def world_momentum(qq, qqd):
        st = evaluate_dynamics(model, qq, qqd, np.zeros(3))
        total = np.zeros(6)
        for name, body in _iter_bodies(model):
            r_w, p_w, vel, _ = st.frames[name]
            h_body = mass_matrix(body) @ vel
            lin = r_w @ h_body[:3]
            ang = r_w @ h_body[3:] + np.cross(p_w, lin)
            total += np.concatenate([lin, ang])
        return total

    mom_dot = (
        world_momentum(q + h * qd, qd + h * qdd) - world_momentum(q - h * qd, qd - h * qdd)
    ) / (2 * h)
    st = evaluate_dynamics(model, q, qd, qdd)
    fg = st.frame_forces["ground"]  # ground frame == world frame here
    weight = total_mass(model) * 9.81
    assert np.allclose(fg[:3], mom_dot[:3] + np.array([0, 0, weight]), rtol=1e-5, atol=1e-3)


def test_static_forces_match_potential_gradient(model):
    lo, hi = model.stroke_limits()
    q = lo + (hi - lo) * 0.5
    f = rnea(model, q, np.zeros(3), np.zeros(3))
    h = 1e-6
    for i in range(3):
        dq = np.zeros(3)
        dq[i] = h
        grad = (potential_energy(model, q + dq) - potential_energy(model, q - dq)) / (2 * h)
        assert np.isclose(f[i], grad, rtol=1e-6, atol=1e-3)


def test_doubling_masses_doubles_static_forces(model):
    q, _, _ = random_state(model)
    f1 = rnea(model, q, np.zeros(3), np.zeros(3))
    f2 = rnea(scaled_masses(model, 2.0), q, np.zeros(3), np.zeros(3))
    assert np.allclose(f2, 2.0 * f1, rtol=1e-12)


def test_power_identity_on_smooth_trajectory(model):
    lo, hi = model.stroke_limits()
    mid, amp = (lo + hi) / 2, 0.28 * (hi - lo)
    phases = np.array([0.0, 1.1, 2.3])

    def traj(t):
        t = np.atleast_1d(t)
        arg = 2 * np.pi * t[:, None] + phases
        q = mid + amp * np.sin(arg)
        qd = amp * 2 * np.pi * np.cos(arg)
        qdd = -amp * (2 * np.pi) ** 2 * np.sin(arg)
        return q, qd, qdd

    ts = np.linspace(0.0, 0.63, 1500)
    q, qd, qdd = traj(ts)
    f = rnea(model, q, qd, qdd)
    from scipy.integrate import simpson

    work = simpson(np.sum(qd * f, axis=1), x=ts)
    e0 = kinetic_energy(model, q[0], qd[0]) + potential_energy(model, q[0])
    e1 = kinetic_energy(model, q[-1], qd[-1]) + potential_energy(model, q[-1])
    assert abs(work - (e1 - e0)) <= 1e-5 * max(1.0, abs(e1 - e0))


def test_actuator_force_equals_virtual_work_dynamically(model):
    """f . qd equals the mechanical energy rate at a random dynamic state."""
    q, qd, qdd = random_state(model)
    f = rnea(model, q, qd, qdd)
    h = 1e-6
    e_p = kinetic_energy(model, q + h * qd, qd + h * qdd) + potential_energy(model, q + h * qd)
    e_m = kinetic_energy(model, q - h * qd, qd - h * qdd) + potential_energy(model, q - h * qd)
    e_dot = (e_p - e_m) / (2 * h)
    assert np.isclose(np.sum(f * qd), e_dot, rtol=1e-6, atol=1e-2)


def test_stage_total_equals_net_wrench_sum(model):
    """The constraint-path aggregation must match the direct subtree sum."""
    q, qd, qdd = random_state(model)
    st = evaluate_dynamics(model, q, qd, qdd)
    fg = st.frame_forces["ground"]
    total = np.zeros(6)
    for name, body in _iter_bodies(model):
        r_w, p_w, _, _ = st.frames[name]
        f6 = st.net_wrenches[name]
        lin = r_w @ f6[:3]
        ang = r_w @ f6[3:] + np.cross(p_w, lin)
        total += np.concatenate([lin, ang])
    assert np.allclose(fg, total, rtol=1e-9, atol=1e-6)


def test_infeasible_configuration_raises(model):
    lo, hi = model.stroke_limits()
    bad = hi + 1.0
    with pytest.raises(StrokeRangeError):
        evaluate_dynamics(model, bad, np.zeros(3), np.zeros(3))


def test_singular_configuration_detected():
    # stroke range ends within ~4e-13 of the fully unfolded triangle, where
    # the pin angle's sine drops below the singularity threshold
    geom = ClosedChainGeometry(
        base_len=1.0, rocker_len=0.6, barrel_len=1.0, rod_root_len=0.5,
        rod_frame_setback=0.1, stroke_min=-0.1, stroke_max=0.1 - 4e-13,
    )
    body = RigidBodyParams(mass=10.0, inertia=np.eye(3), com_offset=np.zeros(3))
    model = ChainModel(
        base=body,
        base_pos=np.zeros(3),
        stages=(
            ClosedChainStage(
                name="j", geometry=geom,
                hinge_pos=np.zeros(3), anchor_pos=np.array([1.0, 0.0, 0.0]),
                boom=body, barrel=body, rod=body,
                mount_pos=np.array([0.6, 0.0, 0.0]),
            ),
        ),
    )
    with pytest.raises(SingularConfigurationError):
        rnea(model, np.array([0.1 - 4.1e-13]), np.zeros(1), np.zeros(1))


def test_batch_matches_scalar(model):
    q, qd, qdd = random_state(model)
    qs = np.stack([q, q * 1.01, q * 0.99])
    qds = np.stack([qd, -qd, 0.5 * qd])
    qdds = np.stack([qdd, qdd, -qdd])
    fb = rnea(model, qs, qds, qdds)
    for k in range(3):
        assert np.array_equal(fb[k], rnea(model, qs[k], qds[k], qdds[k]))


@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 5, 3)])
def test_rnea_returns_forces_of_the_shape_of_q(model, shape):
    # the piston velocities are the stroke rates themselves, so rnea returns
    # the forces alone
    state = random_state(model)
    f = rnea(model, *(np.broadcast_to(x, shape) for x in state))
    assert isinstance(f, np.ndarray) and f.shape == shape
    assert np.array_equal(f.reshape(-1, 3), np.tile(rnea(model, *state), (f.size // 3, 1)))


def test_zero_gravity_zero_motion_zero_forces(model_no_gravity):
    lo, hi = model_no_gravity.stroke_limits()
    q = 0.5 * (lo + hi)
    f = rnea(model_no_gravity, q, np.zeros(3), np.zeros(3))
    assert np.abs(f).max() < 1e-9


def test_rnea_out_of_range_stroke_raises(model):
    lo, hi = model.stroke_limits()
    mid = 0.5 * (lo + hi)
    for bad in (lo - 1.0, hi + 1.0):
        with pytest.raises(StrokeRangeError):
            rnea(model, bad, np.zeros(3), np.zeros(3))
    batch = np.stack([mid, mid, hi + 1.0])  # one bad row fails the whole batch
    with pytest.raises(StrokeRangeError):
        rnea(model, batch, np.zeros((3, 3)), np.zeros((3, 3)))


def test_rnea_mismatched_shapes_raise(model):
    q, qd, qdd = random_state(model)
    with pytest.raises(ValueError):
        rnea(model, q, np.stack([qd, qd]), np.stack([qdd, qdd]))
    with pytest.raises(ValueError):
        rnea(model, q, qd, qdd[:2])
    with pytest.raises(ValueError):
        rnea(model, q[:2], qd[:2], qdd[:2])


# ---------------------------------------------------------------------------
# the planar force-only kernel (rnea) against the 6-D oracle (evaluate_dynamics)

def turned_and_shifted(model):
    """``model`` with a base pose, mount angles and a slide offset.  The
    preset has none of them, so on it the kernel only ever skips the terms
    of a zero angle or offset."""
    lift, tilt, telescope = model.stages
    shift = np.array([0.1, 0.0, -0.05])  # moves the tilt hinge off the lift mount
    return replace(
        model, base_angle=0.4, base_pos=np.array([0.3, 0.0, -0.2]),
        stages=(
            replace(lift, mount_angle=0.25),
            replace(tilt, hinge_pos=tilt.hinge_pos + shift,
                    anchor_pos=tilt.anchor_pos + shift, mount_angle=-0.3),
            replace(telescope, slide_pos=np.array([0.15, 0.0, 0.05]), mount_angle=0.2),
        ),
    )


MODELS = {"default": default_manipulator(), "no_gravity": default_manipulator(gravity=0.0),
          "turned": turned_and_shifted(default_manipulator())}


@st.composite
def model_and_states(draw):
    name = draw(st.sampled_from(["default", "scaled", "no_gravity", "turned"]))
    if name == "scaled":
        model = scaled_masses(MODELS["default"], draw(st.floats(0.05, 20.0)))
    else:
        model = MODELS[name]
    shape = draw(st.sampled_from([(3,), (4, 3), (2, 3, 3)]))
    lo, hi = model.stroke_limits()
    u = draw(arrays(float, shape, elements=st.floats(0.02, 0.98)))
    qd = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    qdd = draw(arrays(float, shape, elements=st.floats(-5.0, 5.0)))
    return model, lo + (hi - lo) * u, qd, qdd


def row_scale(*forces):
    """Largest |f| per row over the given force arrays, at least 1 N."""
    return np.maximum(np.max([np.abs(f).max(axis=-1) for f in forces], axis=0), 1.0)


@settings(max_examples=60, deadline=None)
@given(model_and_states())
def test_planar_kernel_matches_6d_oracle(case):
    model, q, qd, qdd = case
    f = rnea(model, q, qd, qdd)
    oracle = evaluate_dynamics(model, q, qd, qdd).piston_forces
    assert f.shape == oracle.shape == q.shape
    err = np.abs(f - oracle).max(axis=-1)
    assert np.all(err <= 1e-9 * row_scale(oracle))


@settings(max_examples=40, deadline=None)
@given(model_and_states(), st.floats(-1.0, 1.0))
def test_tilted_gravity_is_a_turned_base(case, angle):
    """Gravity tilted by ``angle`` about y, which only the 6-D oracle takes,
    gives the piston forces of the same machine under the model's gravity
    with its base turned by -angle, the program's way to tilt it: the
    kernel's in-plane x gravity terms are reached through the base turn."""
    model, q, qd, qdd = case
    tilted = model.gravity * np.array([np.sin(angle), 0.0, np.cos(angle)])
    oracle = evaluate_dynamics(model, q, qd, qdd, gravity=tilted).piston_forces
    f = rnea(replace(model, base_angle=model.base_angle - angle), q, qd, qdd)
    err = np.abs(f - oracle).max(axis=-1)
    assert np.all(err <= 1e-9 * row_scale(oracle))


def potential_terms(model, q):
    """Sum over the bodies of |m g . r_com|, placed by the 6-D oracle: the
    size of the terms the potential energy adds up, which may cancel."""
    qz = np.zeros_like(q)
    frames = evaluate_dynamics(model, q, qz, qz).frames
    total = 0.0
    for name, body in _iter_bodies(model):
        r_w, p_w = frames[name][:2]
        com = p_w + np.einsum("...ij,j->...i", r_w, body.com_offset)
        total = total + np.abs(body.mass * (com @ model_gravity(model)))
    return total


@settings(max_examples=40, deadline=None)
@given(model_and_states())
def test_planar_potential_energy_matches_6d_oracle(case):
    """The program's potential energy runs on the planar kernel; it equals
    the oracle's to rounding and, like rnea, rejects a batch with one
    stroke outside a chain's triangle."""
    model, q, _, _ = case
    energy = manipulator.potential_energy(model, q)
    oracle = potential_energy(model, q)
    assert np.shape(energy) == np.shape(oracle) == q.shape[:-1]
    assert np.all(np.abs(energy - oracle) <= 1e-11 * potential_terms(model, q))
    for k, stage in enumerate(model.stages):
        if not isinstance(stage, ClosedChainStage):
            continue
        g = stage.geometry
        for c in (abs(g.base_len - g.rocker_len) - 0.01, g.base_len + g.rocker_len + 0.01):
            bad = q.copy()
            bad.reshape(-1, model.n_joints)[0, k] = c - g.zero_stroke_len
            with pytest.raises(StrokeRangeError):
                manipulator.potential_energy(model, bad)


@settings(max_examples=40, deadline=None)
@given(model_and_states(), arrays(float, 3, elements=st.floats(-5.0, 5.0)))
def test_planar_kernel_is_affine_in_acceleration(case, delta):
    """f(q, qd, qdd + d) - f(q, qd, qdd) = f(q, 0, d) - f(q, 0, 0): the mass
    matrix is all that multiplies qdd, whatever the rates."""
    model, q, qd, qdd = case
    zero = np.zeros_like(q)
    d = np.broadcast_to(delta, q.shape)
    f_hi = rnea(model, q, qd, qdd + d)
    f_lo = rnea(model, q, qd, qdd)
    m_hi = rnea(model, q, zero, d)
    m_lo = rnea(model, q, zero, zero)
    err = np.abs((f_hi - f_lo) - (m_hi - m_lo)).max(axis=-1)
    assert np.all(err <= 1e-9 * row_scale(f_hi, f_lo, m_hi, m_lo))


def test_each_model_keeps_its_own_kernel_plan():
    """The kernel's per-model constants are built once per model: a copy
    made with ``replace`` gets its own, and using one model leaves another
    model's forces bit-for-bit as a fresh model gives them."""
    a = default_manipulator()
    copies = (scaled_masses(a, 2.0), replace(a, base_angle=0.3), turned_and_shifted(a))
    q, qd, qdd = random_state(a)
    first = rnea(a, q, qd, qdd)
    for b in copies:
        f_b = rnea(b, q, qd, qdd)
        assert not np.array_equal(f_b, first)
        assert np.array_equal(rnea(a, q, qd, qdd), first)
        assert np.array_equal(f_b, rnea(replace(b), q, qd, qdd))
    assert np.array_equal(first, rnea(default_manipulator(), q, qd, qdd))


def test_rnea_ufunc_call_budget(monkeypatch):
    """At the transcription's batch sizes rnea's cost is NumPy's dispatch per
    ufunc call, so one (51, 3) call on the default boom may make at most 420
    of them (the real-arithmetic kernel made 665).  Arrays that count the
    ufunc calls made on them, and on what those return, are passed in below
    ``_as_states``, which would turn them into plain ones; the forces keep
    their bits."""
    calls = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append(ufunc.__name__)
            plain = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs)
            return out.view(Counting) if isinstance(out, np.ndarray) else out

    model = default_manipulator()
    lo, hi = model.stroke_limits()
    grid = np.linspace(0.05, 0.95, 51)[:, None]
    q = lo + (hi - lo) * grid
    qd, qdd = np.cos(7.0 * grid + [0, 1, 2]), 3.0 * np.sin(5.0 * grid + [2, 0, 1])
    plain = rnea(model, q, qd, qdd)
    as_states = manipulator._as_states
    monkeypatch.setattr(manipulator, "_as_states", lambda *args: tuple(
        x.view(Counting) for x in as_states(*args)))
    counted = rnea(model, q, qd, qdd)
    assert 0 < len(calls) <= 420, len(calls)
    assert np.array_equal(counted, plain)
