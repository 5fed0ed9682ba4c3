"""Loop-closure geometry of the linearly actuated 1-DoF parallel mechanism.

The mechanism is a triangle: two links of fixed length joined at the hinge,
with the actuator forming the third side.  As the piston stroke changes,
the three interior angles follow from the law of cosines; all three are
reported with the negative sign convention (angles in (-pi, 0)) and their
magnitudes sum to pi.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class StrokeRangeError(ValueError):
    """Stroke outside the triangle-feasible range; names the violated bound."""


@dataclass(frozen=True)
class ClosedChainGeometry:
    """Lengths defining one closed chain.

    ``base_len`` is the hinge-to-anchor distance on the carrying body,
    ``rocker_len`` the hinge-to-pin distance on the driven link.  The
    retracted actuator length is ``barrel_len + rod_root_len``; the rod
    body frame sits ``rod_frame_setback`` before the pin.
    """

    base_len: float
    rocker_len: float
    barrel_len: float
    rod_root_len: float
    rod_frame_setback: float
    stroke_min: float
    stroke_max: float

    def __post_init__(self):
        if self.base_len <= 0 or self.rocker_len <= 0:
            raise ValueError("link lengths must be > 0")
        if self.stroke_min >= self.stroke_max:
            raise ValueError("stroke_min must be < stroke_max")
        lo = self.zero_stroke_len + self.stroke_min
        hi = self.zero_stroke_len + self.stroke_max
        if lo <= abs(self.base_len - self.rocker_len) or hi >= self.base_len + self.rocker_len:
            raise ValueError("stroke range violates the triangle inequality")

    @property
    def zero_stroke_len(self) -> float:
        """Actuator pivot-to-pin distance at zero stroke."""
        return self.barrel_len + self.rod_root_len

    def check_stroke(self, x):
        self.check_length(x + self.zero_stroke_len)

    def check_length(self, c):
        """Raise ``StrokeRangeError`` unless every actuator length ``c`` closes the triangle."""
        lo = abs(self.base_len - self.rocker_len)
        hi = self.base_len + self.rocker_len
        c = np.asarray(c)
        if (c <= lo).any():
            raise StrokeRangeError(
                f"actuator length {np.min(c):.6g} <= |base_len - rocker_len| = {lo:.6g}"
            )
        if (c >= hi).any():
            raise StrokeRangeError(
                f"actuator length {np.max(c):.6g} >= base_len + rocker_len = {hi:.6g}"
            )

    @cached_property
    def _closure_constants(self):
        """The closure's stroke-independent scalars, computed once per geometry:
        l^2 + l1^2, 2 l l1, l l1, -1/(l l1), l^2 - l1^2 and l1^2 - l^2 for
        l = ``base_len`` and l1 = ``rocker_len``."""
        ell, ell1 = self.base_len, self.rocker_len
        return (ell**2 + ell1**2, 2.0 * ell * ell1, ell * ell1, -1.0 / (ell * ell1),
                ell**2 - ell1**2, ell1**2 - ell**2)


def _arccos_branch(u, du_dc, d2u_dc2):
    """(-arccos(u), and its first/second derivatives w.r.t. the length c)."""
    one_minus = 1.0 - u * u
    s = np.sqrt(one_minus)
    q = -np.arccos(u)
    dq = du_dc / s
    d2q = (d2u_dc2 * one_minus + u * du_dc**2) / s**3
    return q, dq, d2q


def loop_closure(geom: ClosedChainGeometry, x):
    """The three interior angles (q_hinge, q_anchor, q_pin) at stroke x.

    All negative; |q_hinge| is the angle between the two links at the
    hinge, |q_anchor| at the actuator anchor and |q_pin| at the rod pin.
    """
    geom.check_stroke(x)
    q, q1, q2, *_ = _closure_with_derivatives(geom, np.asarray(x, dtype=float))
    return q, q1, q2


def _hinge_anchor_closure(geom: ClosedChainGeometry, c):
    """Hinge and anchor angles, each with its first and second derivative
    with respect to the actuator length ``c``, and the pin angle's cosine.

    The planar kernel reads no pin-angle derivatives, so only
    :func:`_closure_with_derivatives` computes them.
    """
    ell, ell1 = geom.base_len, geom.rocker_len
    sq_sum, two_prod, prod, d2u, k, k2 = geom._closure_constants
    c2 = c**2
    hinge = _arccos_branch((sq_sum - c2) / two_prod, -c / prod, d2u)
    v = (c2 + k) / (2.0 * c * ell)
    anchor = _arccos_branch(v, (c2 - k) / (2.0 * c2 * ell), k / (c**3 * ell))
    return hinge, anchor, (c2 + k2) / (2.0 * c * ell1)


def _closure_with_derivatives(geom: ClosedChainGeometry, x):
    """Angles plus first and second derivatives with respect to the stroke."""
    c = np.asarray(x, dtype=float) + geom.zero_stroke_len
    (q, dq, d2q), (q1, dq1, d2q1), w = _hinge_anchor_closure(geom, c)
    ell1, k2 = geom.rocker_len, geom._closure_constants[-1]
    q2, dq2, d2q2 = _arccos_branch(w, (c**2 - k2) / (2.0 * c**2 * ell1), k2 / (c**3 * ell1))
    return q, q1, q2, dq, dq1, dq2, d2q, d2q1, d2q2


def closure_rates(geom: ClosedChainGeometry, x, xd, xdd):
    """Angles with their time derivatives for stroke trajectories (x, xd, xdd).

    Returns three (angle, rate, accel) triples in hinge/anchor/pin order.
    """
    geom.check_stroke(x)
    xd = np.asarray(xd, dtype=float)
    xdd = np.asarray(xdd, dtype=float)
    q, q1, q2, dq, dq1, dq2, d2q, d2q1, d2q2 = _closure_with_derivatives(
        geom, np.asarray(x, dtype=float)
    )
    out = []
    for ang, d1, d2 in ((q, dq, d2q), (q1, dq1, d2q1), (q2, dq2, d2q2)):
        out.append((ang, d1 * xd, d2 * xd**2 + d1 * xdd))
    return tuple(out)

