"""Plane-quadric intersections: classified, parametrized conics in 3D.

A plane is represented by a deterministic :class:`PlaneFrame`; substituting
the frame into a quadric yields exact 2D coefficients
``a s^2 + 2b st + c t^2 + 2d s + 2e t + f`` which are classified and given a
closed-form parametrization.  Sampled points satisfy both the 2D implicit
equation and the original 3D quadric to tight relative tolerance.
``CURVE_CLASSES``, ``COMPACT_CLASSES`` and ``CLOSED_CLASSES`` say once which
classes are curves, bounded and closed; :func:`conic_pieces` splits samples
into the polylines that draw them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import LinearForm, Quadric, _axis_complement, stack_forms, stacked_values
from .charts import SurfaceChart
from .errors import AllZeroError, NotACurveError, PointOffSurfaceError, ZeroGradientError
from .tolerances import CONIC_CLASSIFY_TOL, SURF_RESIDUAL_TOL, UNBOUNDED_PARAM_RANGE

__all__ = [
    "PlaneFrame",
    "Conic",
    "ConicClass",
    "plane_frame",
    "intersect_quadric_plane",
    "classify_conic",
    "sample_conic",
    "conic_pieces",
    "pcurve",
]

TWO_PI = 2.0 * math.pi


class ConicClass(Enum):
    ELLIPSE = "ELLIPSE"
    CIRCLE = "CIRCLE"
    PARABOLA = "PARABOLA"
    HYPERBOLA = "HYPERBOLA"
    PARALLEL_LINES = "PARALLEL_LINES"
    CROSSING_LINES = "CROSSING_LINES"
    SINGLE_LINE = "SINGLE_LINE"
    POINT = "POINT"
    EMPTY = "EMPTY"


#: Classes that are closed curves, drawn as one loop.
CLOSED_CLASSES = frozenset({ConicClass.ELLIPSE, ConicClass.CIRCLE})

#: Classes that are bounded point sets.
COMPACT_CLASSES = CLOSED_CLASSES | {ConicClass.POINT}

#: Classes that contain at least one curve point.
CURVE_CLASSES = frozenset(ConicClass) - {ConicClass.POINT, ConicClass.EMPTY}


@dataclass(frozen=True, eq=False)
class PlaneFrame:
    """Orthonormal frame of a plane.

    ``origin`` is the foot of the perpendicular from the global origin; the
    in-plane axes are built from the global axis least aligned with the
    normal (ties resolved x before y before z), so frames are reproducible.
    """

    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    normal: np.ndarray

    def point(self, s: float, t: float) -> np.ndarray:
        return self.origin + s * self.u + t * self.v


def plane_frame(lin: LinearForm) -> PlaneFrame:
    gn = lin.grad_norm()
    if gn == 0.0:
        raise ZeroGradientError("linear form has zero gradient; no plane")
    n = lin.g / gn
    origin = -lin.c0 * lin.g / (gn * gn)
    return PlaneFrame(origin, *_axis_complement(n), n)


@dataclass(frozen=True, eq=False)
class Conic:
    """A classified conic in a plane frame.

    ``coeffs`` are ``(a, b, c, d, e, f)`` of
    ``a s^2 + 2b st + c t^2 + 2d s + 2e t + f`` in frame coordinates.
    Parametrization data depends on the class:

    * ellipse/circle: ``center``, ``axes`` (2x2, rows unit), ``radii``
    * parabola: ``center`` = vertex, ``axes`` rows = (sweep dir, axis dir),
      ``radii[0]`` = quadratic coefficient kappa in ``q(t) = t d1 + kappa t^2 d2``
    * hyperbola: ``center``, ``axes`` rows = (transverse, conjugate),
      ``radii`` = (a, b) with branches ``center +- a cosh(t) d1 + b sinh(t) d2``
    * line classes: ``lines`` = tuple of (base point, unit direction) in 2D
    * point: ``center``
    """

    frame: PlaneFrame
    coeffs: tuple[float, float, float, float, float, float]
    klass: ConicClass
    center: np.ndarray | None = None
    axes: np.ndarray | None = None
    radii: tuple[float, ...] = ()
    lines: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def point3d(self, s: float, t: float) -> np.ndarray:
        return self.frame.point(s, t)


def _eigen2(a: float, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of [[a, b], [b, c]]; eigenvalues by |.| descending,
    right-handed unit eigenvectors with deterministic signs."""
    half_tr = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    m1, m2 = half_tr + disc, half_tr - disc
    if abs(m2) > abs(m1):
        m1, m2 = m2, m1
    # Eigenvector for m1 from the better-conditioned row.
    r1 = (m1 - c, b)
    r2 = (b, m1 - a)
    e1 = np.array(r1 if math.hypot(*r1) >= math.hypot(*r2) else r2, dtype=float)
    n = math.hypot(*e1)
    e1 = e1 / n if n > 0.0 else np.array([1.0, 0.0])
    if abs(e1[0]) >= abs(e1[1]):
        if e1[0] < 0:
            e1 = -e1
    elif e1[1] < 0:
        e1 = -e1
    e2 = np.array([-e1[1], e1[0]])
    return np.array([m1, m2]), np.vstack([e1, e2])


def classify_conic(coeffs) -> ConicClass:
    """Classify 2D conic coefficients ``(a, b, c, d, e, f)``."""
    return _analyze(coeffs)[0]


def _analyze(coeffs):
    """``(klass, fields)``: the class and the parametrization fields of
    :class:`Conic` that it sets, by name; shared with the builder."""
    a, b, c, d, e, f = (float(x) for x in coeffs)
    scale = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f))
    if scale <= 1e-300:
        raise AllZeroError("all conic coefficients are zero")
    thr = CONIC_CLASSIFY_TOL * scale
    mu, E = _eigen2(a, b, c)  # rows of E are eigenvectors
    mu_max = max(abs(mu[0]), abs(mu[1]))

    if mu_max <= thr:
        # Purely linear.
        ln = math.hypot(d, e)
        if ln <= thr:
            return ConicClass.EMPTY, {}
        base = np.array([-f * d, -f * e]) / (2.0 * ln * ln)
        direction = np.array([-e, d]) / ln
        return ConicClass.SINGLE_LINE, dict(lines=((base, direction),))

    zero = np.abs(mu) <= CONIC_CLASSIFY_TOL * mu_max
    lin = E @ np.array([d, e])

    if not zero.any():
        # Central conic.
        w0 = np.array([-lin[0] / mu[0], -lin[1] / mu[1]])
        center = E.T @ w0
        c_t = f + float(lin @ w0)
        c_zero = abs(c_t) <= thr
        if mu[0] * mu[1] > 0:
            sgn = math.copysign(1.0, mu[0])
            if c_zero:
                return ConicClass.POINT, dict(center=center)
            if c_t * sgn > 0:
                return ConicClass.EMPTY, {}
            radii = (math.sqrt(-c_t / mu[0]), math.sqrt(-c_t / mu[1]))
            klass = (
                ConicClass.CIRCLE
                if abs(mu[0] - mu[1]) <= CONIC_CLASSIFY_TOL * mu_max
                else ConicClass.ELLIPSE
            )
            return klass, dict(center=center, axes=E, radii=radii)
        if c_zero:
            # Two crossing lines through the center.
            k = math.sqrt(-mu[1] / mu[0])
            d1 = E[0] * k + E[1]
            d2 = -E[0] * k + E[1]
            d1 /= np.linalg.norm(d1)
            d2 /= np.linalg.norm(d2)
            lines = ((center, d1), (center, d2))
            return ConicClass.CROSSING_LINES, dict(center=center, lines=lines)
        ti = 0 if mu[0] * c_t < 0 else 1
        oi = 1 - ti
        ra = math.sqrt(-c_t / mu[ti])
        rb = math.sqrt(c_t / mu[oi])
        axes = np.vstack([E[ti], E[oi]])
        return ConicClass.HYPERBOLA, dict(center=center, axes=axes, radii=(ra, rb))

    # Rank one: mu[0] nonzero (|mu| descending), mu[1] ~ 0.
    w1c = -lin[0] / mu[0]
    c_t = f - lin[0] * lin[0] / mu[0]
    if abs(lin[1]) > thr:
        # Parabola opening along the null eigendirection.
        vertex = E.T @ np.array([w1c, -c_t / (2.0 * lin[1])])
        kappa = -mu[0] / (2.0 * lin[1])
        axes = np.vstack([E[0], E[1]])
        return ConicClass.PARABOLA, dict(center=vertex, axes=axes, radii=(kappa,))
    if abs(c_t) <= thr:
        base = E.T @ np.array([w1c, 0.0])
        return ConicClass.SINGLE_LINE, dict(lines=((base, E[1].copy()),))
    if c_t * math.copysign(1.0, mu[0]) < 0:
        off = math.sqrt(-c_t / mu[0])
        base1 = E.T @ np.array([w1c + off, 0.0])
        base2 = E.T @ np.array([w1c - off, 0.0])
        return ConicClass.PARALLEL_LINES, dict(lines=((base1, E[1].copy()), (base2, E[1].copy())))
    return ConicClass.EMPTY, {}


def intersect_quadric_plane(q: Quadric, lin: LinearForm) -> Conic:
    """Exact conic section of ``q`` by the plane ``lin = 0``."""
    fr = plane_frame(lin)
    x0, u, v = fr.origin, fr.u, fr.v
    Au = q.A @ u
    Av = q.A @ v
    Ax0 = q.A @ x0
    a = float(u @ Au)
    b = float(u @ Av)
    c = float(v @ Av)
    d = float(u @ Ax0 + q.b @ u)
    e = float(v @ Ax0 + q.b @ v)
    f = q.value(x0)
    klass, fields = _analyze((a, b, c, d, e, f))
    return Conic(fr, (a, b, c, d, e, f), klass, **fields)


def sample_conic(conic: Conic, n: int) -> np.ndarray:
    """``n`` points on the conic as an (n, 3) array.

    Ellipses/circles are sampled by uniform angle starting on the first
    principal axis; parabolas by uniform parameter over ``[-r, r]`` with
    ``r = UNBOUNDED_PARAM_RANGE``; hyperbolas and line pairs by uniform
    parameter per branch/line over the same symmetric range.  Raises
    :class:`NotACurveError` for point/empty conics.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if conic.klass not in CURVE_CLASSES:
        raise NotACurveError(f"cannot sample a {conic.klass.value} conic")
    r = UNBOUNDED_PARAM_RANGE
    # Every point takes the float operations, in the order, that one
    # ``center + r1 cos(th) d1 + r2 sin(th) d2`` (and so on) per point takes.
    if conic.axes is None:  # line classes
        k = len(conic.lines)
        counts = [n // k + (i < n % k) for i in range(k)]
        pts2 = np.concatenate([base + np.linspace(-r, r, m)[:, None] * direction
                               for (base, direction), m in zip(conic.lines, counts)])
    else:
        if conic.klass is ConicClass.PARABOLA:
            (kappa,) = conic.radii
            c1 = np.linspace(-r, r, n)
            c2 = kappa * c1 * c1
        elif conic.klass is ConicClass.HYPERBOLA:
            ra, rb = conic.radii
            m = n - n // 2  # the first branch's share
            t = np.linspace(-r, r, m).tolist() + np.linspace(-r, r, n - m).tolist()
            c1 = np.array([(1.0 if i < m else -1.0) * ra * math.cosh(x) for i, x in enumerate(t)])
            c2 = np.array([rb * math.sinh(x) for x in t])
        else:
            r1, r2 = conic.radii
            th = [TWO_PI * j / n for j in range(n)]
            c1 = np.array([r1 * math.cos(x) for x in th])
            c2 = np.array([r2 * math.sin(x) for x in th])
        d1, d2 = conic.axes
        pts2 = conic.center + c1[:, None] * d1 + c2[:, None] * d2
    return conic.point3d(pts2[:, :1], pts2[:, 1:])  # (n, 1) columns broadcast


def conic_pieces(conic: Conic, pts: np.ndarray) -> list[np.ndarray]:
    """``sample_conic(conic, n)``'s points as the polylines that draw them: a
    hyperbola's two branches or a line pair's two lines, the first with the
    ``n - n // 2`` points sampled first; any other class in one piece."""
    if conic.klass is ConicClass.HYPERBOLA or len(conic.lines) == 2:
        half = len(pts) - len(pts) // 2
        return [pts[:half], pts[half:]]
    return [pts]


def pcurve(conic: Conic, chart: SurfaceChart, n: int) -> np.ndarray:
    """Trimming curve of a conic in a chart's parameter space.

    Samples the conic, checks each sample lies on the chart's surface, and
    inverts the chart.  Angular parameters are unwrapped so consecutive
    samples never jump by a period.  Returns an (n, 2) array of ``(u, v)``.
    """
    q = chart.classification.reconstruct()
    pts = sample_conic(conic, n)
    scale = np.maximum(1.0, np.abs(q.coeffs()).max() * np.maximum(1.0, (pts * pts).sum(1)))
    off = np.abs(stacked_values(stack_forms([q]), pts)[:, 0]) > SURF_RESIDUAL_TOL * scale
    if off.any():
        p = pts[off.argmax()]
        raise PointOffSurfaceError(f"conic sample {tuple(p)} is not on the chart surface")
    uv = np.array([chart.inverse(p) for p in pts], dtype=float)
    for col, period in ((0, chart.u_period), (1, chart.v_period)):
        if period > 0.0:
            uv[:, col] = np.unwrap(uv[:, col], period=period)
    return uv
