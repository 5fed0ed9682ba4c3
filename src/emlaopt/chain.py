"""Loop-closure geometry of the linearly actuated 1-DoF parallel mechanism.

The mechanism is a triangle: two links of fixed length joined at the hinge,
with the actuator forming the third side.  As the piston stroke changes,
the interior angles follow from the law of cosines, with the negative sign
convention (angles in (-pi, 0)).  The manipulator's kernel reads the
cosines and sines of the hinge, anchor and pin angles, and the hinge and
anchor angles' derivatives by the actuator length; the angles themselves,
with all their time derivatives, are a test oracle, in ``tests/oracles.py``.
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
        """The closure's stroke-independent scalars, once per geometry: l^2 +
        l1^2, 2 l l1, -1/(l l1), 2 l, k, 2 k, 2 l1 and -k for k = l^2 - l1^2,
        l = ``base_len`` and l1 = ``rocker_len``."""
        ell, ell1 = self.base_len, self.rocker_len
        k = ell**2 - ell1**2
        return (ell**2 + ell1**2, 2.0 * ell * ell1, -1.0 / (ell * ell1), 2.0 * ell, k, 2.0 * k,
                2.0 * ell1, -k)


def _sine_and_rates(u, du_dc, d2u_dc2):
    """sin q = -sqrt(1 - u^2), dq/dc and d2q/dc2 of q = -arccos(u) in (-pi, 0)."""
    root = np.sqrt(1.0 - u * u)
    dq = du_dc / root
    return np.negative(root), dq, (d2u_dc2 + u * dq * dq) / root


def _closure(geom: ClosedChainGeometry, c):
    """The hinge and anchor angles at actuator lengths ``c`` as (cos, sin,
    first and second derivative by c) and the pin angle as (cos, sin), all
    from the law of cosines (:func:`_sine_and_rates`); no angle is formed."""
    sq_sum, two_prod, d2u, two_ell, k, two_k, two_ell1, k1 = geom._closure_constants
    c2 = c * c
    u = (sq_sum - c2) / two_prod
    c_two_ell = c * two_ell
    v = (c2 + k) / c_two_ell  # the anchor cosine (c^2 + k) / (2 l c)
    w = (c2 + k1) / (c * two_ell1)
    return ((u, *_sine_and_rates(u, c * d2u, d2u)),
            (v, *_sine_and_rates(v, (c2 - k) / (c * c_two_ell), two_k / (c2 * c_two_ell))),
            (w, np.negative(np.sqrt(1.0 - w * w))))
