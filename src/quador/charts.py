"""Closed-form parametrizations of non-degenerate quadric surfaces.

Every chart works in the canonical frame of a
:class:`~quador.algebra.QuadricClassification`: the forward map sends
parameters ``(u, v)`` to a world point on the surface, the inverse recovers
parameters for an on-surface world point, and ``forward(inverse(p))``
reproduces ``p``.  Angular parameters are flagged so trimming curves can be
unwrapped across the 2*pi seam.

Six classes are one swept profile, ``y[pair] = a (cos u, sin u) rho(v)``
and ``y[o] = h(v)``; the hyperbolic paraboloid and the parabolic cylinder
are one graph over their two non-parabolic axes; only the hyperbolic
cylinder has its own sec/tan chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import CHARTED_CLASSES, QuadricClass, QuadricClassification
from .errors import UnsupportedClassError

__all__ = ["SurfaceChart", "parametrize"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """Exact parametric form of one quadric surface class."""

    label: QuadricClass
    classification: QuadricClassification
    domain: str
    u_period: float  # 0.0 when the parameter is not angular
    v_period: float
    _forward: Callable[[float, float], np.ndarray]
    _inverse: Callable[[np.ndarray], tuple[float, float]]

    def forward(self, u: float, v: float) -> np.ndarray:
        y = self._forward(float(u), float(v))
        return self.classification.to_world(y)

    def inverse(self, p) -> tuple[float, float]:
        y = self.classification.to_canonical(p)
        return self._inverse(y)


def parametrize(cls: QuadricClassification) -> SurfaceChart:
    """Build the standard chart for a classified quadric.

    Supported classes: ellipsoid, both hyperboloids, both paraboloids, the
    three cylinders, and the cone.  Raises :class:`UnsupportedClassError`
    for plane pairs, lines, points, and empty sets.
    """
    label = cls.label
    if label not in CHARTED_CLASSES:
        raise UnsupportedClassError(f"no chart for class {label.value}")

    lam = np.asarray(cls.diag)
    nz = [i for i in range(3) if lam[i] != 0.0]
    null = [i for i in range(3) if lam[i] == 0.0]
    c_t = cls.scalar if cls.parabolic_axis is None else 0.0
    d, s = cls.parabolic_axis, cls.scalar

    def chart(fwd, inv, domain, u_period=0.0, v_period=0.0):
        return SurfaceChart(label, cls, domain, u_period, v_period, fwd, inv)

    def swept(pair, a, o, rho, h, v_of, domain, v_period=0.0):
        # ``v_of(y[o], r)`` inverts h, with r the radius in units of ``a``;
        # ``float`` serves as the identity.  Dividing by rho(v) before atan2
        # keeps u on the v < 0 side of a profile that crosses the axis (the
        # cone's second nappe); u is 0 where rho(v) is 0.
        def fwd(u, v):
            y = np.zeros(3)
            r = rho(v)
            y[pair[0]] = a[0] * math.cos(u) * r
            y[pair[1]] = a[1] * math.sin(u) * r
            y[o] = h(v)
            return y

        def inv(y):
            c0, c1 = y[pair[0]] / a[0], y[pair[1]] / a[1]
            v = v_of(y[o], math.hypot(c0, c1))
            r = rho(v)
            return (math.atan2(c1 / r, c0 / r) if r != 0.0 else 0.0), v

        return chart(fwd, inv, domain, TWO_PI, v_period)

    if label is QuadricClass.ELLIPSOID:
        a = np.sqrt(-c_t / lam)
        return swept(
            (0, 1), a, 2, math.cos, lambda v: a[2] * math.sin(v),
            lambda yo, r: math.asin(min(1.0, max(-1.0, yo / a[2]))),
            "u in [-pi, pi), v in [-pi/2, pi/2]",
        )

    if label is QuadricClass.HYPERBOLOID_ONE_SHEET:
        pair = [i for i in nz if lam[i] * c_t < 0]
        (o,) = [i for i in nz if i not in pair]
        co = math.sqrt(c_t / lam[o])
        return swept(
            pair, np.sqrt(-c_t / lam[pair]), o, math.cosh, lambda v: co * math.sinh(v),
            lambda yo, r: math.asinh(yo / co), "u in [-pi, pi), v in R",
        )

    if label is QuadricClass.HYPERBOLOID_TWO_SHEETS:
        pair = [i for i in nz if lam[i] * c_t > 0]
        (o,) = [i for i in nz if i not in pair]
        co = math.sqrt(-c_t / lam[o])
        # sec/tan profile: v in (-pi/2, pi/2) covers the +axis sheet, the
        # complementary branch of sec covers the other sheet.
        return swept(
            pair, np.sqrt(c_t / lam[pair]), o, math.tan, lambda v: co / math.cos(v),
            lambda yo, r: math.atan2(r * (co / yo), co / yo),
            "u in [-pi, pi), v in (-pi/2, pi/2) u (pi/2, 3pi/2)", TWO_PI,
        )

    if label is QuadricClass.ELLIPTIC_PARABOLOID:
        # u is the angle, v >= 0 the radial parameter.
        sgn = math.copysign(1.0, lam[nz[0]])
        return swept(
            nz, 1.0 / np.sqrt(np.abs(lam[nz])), d, float, lambda v: -sgn * v * v / (2.0 * s),
            lambda yo, r: r, "u in [-pi, pi), v in [0, inf)",
        )

    if label is QuadricClass.ELLIPTIC_CYLINDER:
        return swept(
            nz, np.sqrt(-c_t / lam[nz]), null[0], lambda v: 1.0, float,
            lambda yo, r: float(yo), "u in [-pi, pi), v in R",
        )

    if label is QuadricClass.CONE:
        pos = [i for i in nz if lam[i] > 0]
        neg = [i for i in nz if lam[i] < 0]
        pair, (o,) = (pos, neg) if len(pos) == 2 else (neg, pos)
        return swept(
            pair, np.sqrt(-lam[o] / lam[pair]), o, float, float,
            lambda yo, r: float(yo), "u in [-pi, pi), v in R (apex at v=0)",
        )

    if label is QuadricClass.HYPERBOLIC_CYLINDER:
        (n,) = null
        (m,) = [i for i in nz if lam[i] * c_t < 0]
        (w,) = [i for i in nz if i != m]
        am = math.sqrt(-c_t / lam[m])
        bw = math.sqrt(c_t / lam[w])

        # sec/tan chart: u in (-pi/2, pi/2) is one branch, the complementary
        # interval the other.
        def fwd(u, v):
            y = np.zeros(3)
            y[m] = am / math.cos(u)
            y[w] = bw * math.tan(u)
            y[n] = v
            return y

        def inv(y):
            t = am / y[m]
            u = math.atan2((y[w] / bw) * t, t)
            return u, float(y[n])

        return chart(fwd, inv, "u in (-pi/2, pi/2) u (pi/2, 3pi/2), v in R", TWO_PI)

    # HYPERBOLIC_PARABOLOID and PARABOLIC_CYLINDER: a graph over the two
    # non-parabolic axes, u on a curved one and v on the other (for the
    # cylinder its rulings, where lam is 0).
    p1, p2 = [i for i in nz + null if i != d]

    def fwd(u, v):
        y = np.zeros(3)
        y[p1] = u
        y[p2] = v
        y[d] = -(lam[p1] * u * u + lam[p2] * v * v) / (2.0 * s)
        return y

    def inv(y):
        return float(y[p1]), float(y[p2])

    return chart(fwd, inv, "(u, v) in R^2")
