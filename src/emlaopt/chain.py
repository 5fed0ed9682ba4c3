"""Loop-closure geometry of the linearly actuated 1-DoF parallel mechanism.

The mechanism is a triangle: two links of fixed length joined at the hinge,
with the actuator forming the third side.  As the piston stroke changes,
the interior angles follow from the law of cosines, with the negative sign
convention (angles in (-pi, 0)).  The manipulator's kernel reads the hinge
and anchor angles with their derivatives and the pin angle's cosine; the
three angles with all their time derivatives are a test oracle, in
``tests/oracles.py``.
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


def _hinge_anchor_closure(geom: ClosedChainGeometry, c):
    """Hinge and anchor angles, each with its first and second derivative
    with respect to the actuator length ``c``, and the pin angle's cosine.

    The planar kernel reads no pin-angle derivatives, so none are computed.
    """
    ell, ell1 = geom.base_len, geom.rocker_len
    sq_sum, two_prod, prod, d2u, k, k2 = geom._closure_constants
    c2 = c**2
    hinge = _arccos_branch((sq_sum - c2) / two_prod, -c / prod, d2u)
    v = (c2 + k) / (2.0 * c * ell)
    anchor = _arccos_branch(v, (c2 - k) / (2.0 * c2 * ell), k / (c**3 * ell))
    return hinge, anchor, (c2 + k2) / (2.0 * c * ell1)
