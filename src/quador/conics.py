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
from typing import NamedTuple

import numpy as np

from .algebra import LinearForm, Quadric, _axis_complement, _dots, stacked_values
from .charts import SurfaceChart
from .errors import (AllZeroError, NotACurveError, PointOffSurfaceError, QuadorError,
                     ZeroGradientError)
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
    if lin.grad_norm() == 0.0:
        raise ZeroGradientError("linear form has zero gradient; no plane")
    return PlaneFrame(*(a[0] for a in _frames(lin.g[None], np.array([lin.c0]))))


def _frames(g: np.ndarray, c0: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`plane_frame`'s origin, u, v and normal, as rows ``(m, 3)``, of
    the planes ``g . x + c0 = 0`` with ``g (m, 3)``, ``c0 (m,)``."""
    gn = np.sqrt(_dots(g, g))
    n = g / gn[:, None]
    return (-c0[:, None] * g / (gn * gn)[:, None], *_axis_complement(n), n)


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


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise; ``np.hypot`` differs from it in the last bit
    on some pairs."""
    return np.array([math.hypot(p, q) for p, q in zip(x.tolist(), y.tolist())])


def _eigen2(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompositions of [[a, b], [b, c]] for rows ``a``, ``b``, ``c``
    ``(m,)``: eigenvalues ``(m, 2)`` by |.| descending and right-handed unit
    eigenvectors as the rows of ``(m, 2, 2)``, with deterministic signs."""
    half_tr = 0.5 * (a + c)
    disc = _hypot(0.5 * (a - c), b)
    m1, m2 = half_tr + disc, half_tr - disc
    swap = np.abs(m2) > np.abs(m1)
    m1, m2 = np.where(swap, m2, m1), np.where(swap, m1, m2)
    # Eigenvector for m1 from the better-conditioned row.
    first = _hypot(m1 - c, b) >= _hypot(b, m1 - a)
    x, y = np.where(first, m1 - c, b), np.where(first, b, m1 - a)
    n = _hypot(x, y)
    x, y = np.where(n > 0.0, x / n, 1.0), np.where(n > 0.0, y / n, 0.0)
    flip = np.where(np.abs(x) >= np.abs(y), x < 0, y < 0)
    x, y = np.where(flip, -x, x), np.where(flip, -y, y)
    return np.stack([m1, m2], -1), np.stack([np.stack([x, y], -1), np.stack([-y, x], -1)], -2)


def classify_conic(coeffs) -> ConicClass:
    """Classify 2D conic coefficients ``(a, b, c, d, e, f)``."""
    klass = _analyze(np.array([coeffs], dtype=float))[0][0]
    if isinstance(klass, QuadorError):
        raise klass
    return klass


#: Per class: whether it has a center, how many radii and how many lines.
_FIELDS = {
    ConicClass.ELLIPSE: (True, 2, 0),
    ConicClass.CIRCLE: (True, 2, 0),
    ConicClass.HYPERBOLA: (True, 2, 0),
    ConicClass.PARABOLA: (True, 1, 0),
    ConicClass.POINT: (True, 0, 0),
    ConicClass.CROSSING_LINES: (True, 0, 2),
    ConicClass.PARALLEL_LINES: (False, 0, 2),
    ConicClass.SINGLE_LINE: (False, 0, 1),
    ConicClass.EMPTY: (False, 0, 0),
}


class _Sections(NamedTuple):
    """Conics as rows: plane frames ``(m, 3)`` each, coefficients ``(m, 6)``,
    the class of each row (or the coded error it raises), and the fields of
    :class:`Conic` as arrays: centers ``(m, 2)``, axes ``(m, 2, 2)``, radii
    ``(m, 2)`` and up to two lines ``(m, 2, 2, 2)`` of (base, direction)."""

    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    normal: np.ndarray
    coeffs: np.ndarray
    klass: list
    center: np.ndarray
    axes: np.ndarray
    radii: np.ndarray
    lines: np.ndarray

    def conic(self, i: int) -> Conic:
        """Row ``i`` as a :class:`Conic`; raises a copy of the row's error."""
        klass = self.klass[i]
        if isinstance(klass, QuadorError):
            raise type(klass)(*klass.args)
        centered, radii, lines = _FIELDS[klass]
        fields = dict(center=self.center[i]) if centered else {}
        if radii:
            fields.update(axes=self.axes[i], radii=tuple(self.radii[i, :radii].tolist()))
        frame = PlaneFrame(self.origin[i], self.u[i], self.v[i], self.normal[i])
        return Conic(frame, tuple(self.coeffs[i].tolist()), klass,
                     lines=tuple((ln[0], ln[1]) for ln in self.lines[i, :lines]), **fields)


def _analyze(coeffs: np.ndarray) -> tuple:
    """Classify conic rows ``(m, 6)``: the class of each row (an
    :class:`AllZeroError` for an all-zero one) and the centers, axes, radii
    and lines of :class:`_Sections`.  Each branch runs on every row, or on
    none when no row takes it, and each row keeps its own branch's values,
    with that branch's bits."""
    a, b, c, d, e, f = coeffs.T
    scale = np.abs(coeffs).max(axis=1)
    thr = CONIC_CLASSIFY_TOL * scale

    def ET_at(s, t):
        return (ET @ np.stack([s, t], -1)[:, :, None])[:, :, 0]

    with np.errstate(divide="ignore", invalid="ignore"):
        mu, E = _eigen2(a, b, c)  # rows of E are eigenvectors
        mu0, mu1 = mu.T
        mu_max = np.maximum(np.abs(mu0), np.abs(mu1))
        ET = np.swapaxes(E, 1, 2)
        ln = _hypot(d, e)
        zero = np.abs(mu) <= CONIC_CLASSIFY_TOL * mu_max[:, None]
        lin = (E @ np.stack([d, e], -1)[:, :, None])[:, :, 0]
        # Central conic.
        w0 = -lin / mu
        center = (ET @ w0[:, :, None])[:, :, 0]
        c_t = f + _dots(lin, w0)
        radii = np.sqrt(-c_t[:, None] / mu)
        transverse = mu0 * c_t < 0  # a hyperbola's, else along the second eigenvector
        mu_t, mu_o = np.where(transverse, mu0, mu1), np.where(transverse, mu1, mu0)
        # Rank one: mu[0] nonzero (|mu| descending), mu[1] ~ 0.
        w1c = -lin[:, 0] / mu0
        c_t1 = f - lin[:, 0] * lin[:, 0] / mu0

    c_zero, sgn = np.abs(c_t) <= thr, np.copysign(1.0, mu0)
    flat, central, definite = mu_max <= thr, ~zero.any(axis=1), mu0 * mu1 > 0
    cases = [
        (scale <= 1e-300, None),
        (flat & (ln <= thr), ConicClass.EMPTY),
        (flat, ConicClass.SINGLE_LINE),
        (central & definite & c_zero, ConicClass.POINT),
        (central & definite & (c_t * sgn > 0), ConicClass.EMPTY),
        (central & definite & (np.abs(mu0 - mu1) <= CONIC_CLASSIFY_TOL * mu_max),
         ConicClass.CIRCLE),
        (central & definite, ConicClass.ELLIPSE),
        (central & c_zero, ConicClass.CROSSING_LINES),
        (central, ConicClass.HYPERBOLA),
        (np.abs(lin[:, 1]) > thr, ConicClass.PARABOLA),
        (np.abs(c_t1) <= thr, ConicClass.SINGLE_LINE),
        (c_t1 * sgn < 0, ConicClass.PARALLEL_LINES),
        (np.ones_like(flat), ConicClass.EMPTY),
    ]
    case = np.argmax(np.stack([m for m, _ in cases]), axis=0)
    klass = [cases[i][1] or AllZeroError("all conic coefficients are zero") for i in case.tolist()]

    axes, lines = E.copy(), np.full((len(case), 2, 2, 2), np.nan)

    def put(k, fields, make):
        """Row fields of the rows of case ``k``, from ``make()`` (all rows)."""
        at = case == k
        if at.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                fields[at] = make()[at]

    def pairs(*lines):
        return np.stack([np.stack(ln, 1) for ln in lines], 1)

    put(8, axes, lambda: np.where(transverse[:, None, None], E, E[:, ::-1]))
    put(8, radii, lambda: np.stack([np.sqrt(-c_t / mu_t), np.sqrt(c_t / mu_o)], -1))
    put(9, center, lambda: ET_at(w1c, -c_t1 / (2.0 * lin[:, 1])))
    put(9, radii[:, 0], lambda: -mu0 / (2.0 * lin[:, 1]))
    put(2, lines, lambda: pairs(*[(np.stack([-f * d, -f * e], -1) / (2.0 * ln * ln)[:, None],
                                   np.stack([-e, d], -1) / ln[:, None])] * 2))

    def crossing():
        k = np.sqrt(-mu1 / mu0)[:, None]
        d1, d2 = E[:, 0] * k + E[:, 1], -E[:, 0] * k + E[:, 1]
        return pairs((center, d1 / np.sqrt(_dots(d1, d1))[:, None]),
                     (center, d2 / np.sqrt(_dots(d2, d2))[:, None]))

    put(7, lines, crossing)
    def parallel():
        off = np.sqrt(-c_t1 / mu0)
        return pairs((ET_at(w1c + off, zeros), E[:, 1]), (ET_at(w1c - off, zeros), E[:, 1]))

    zeros = np.zeros_like(w1c)
    put(10, lines, lambda: pairs(*[(ET_at(w1c, zeros), E[:, 1])] * 2))
    put(11, lines, parallel)
    return klass, center, axes, radii, lines


def _sections(q: tuple[np.ndarray, np.ndarray, np.ndarray], g: np.ndarray,
              c0: np.ndarray) -> _Sections:
    """The conic section of each quadric row ``q = (A (m,3,3), b (m,3), c (m,))``
    by its plane row ``g . x + c0 = 0``, with :func:`intersect_quadric_plane`'s
    bits; a plane whose gradient is zero holds a :class:`ZeroGradientError`."""
    A, b, c = q
    with np.errstate(divide="ignore", invalid="ignore"):
        x0, u, v, n = _frames(g, c0)
        Au, Av, Ax0 = ((A @ w[:, :, None])[:, :, 0] for w in (u, v, x0))
        f = stacked_values((A[:, None], b[:, None, None], c[:, None]), x0)[:, 0]
        coeffs = np.stack([_dots(u, Au), _dots(u, Av), _dots(v, Av),
                           _dots(u, Ax0) + _dots(b, u), _dots(v, Ax0) + _dots(b, v), f], -1)
        klass, *fields = _analyze(coeffs)
    for i in np.flatnonzero(_dots(g, g) == 0.0).tolist():
        klass[i] = ZeroGradientError("linear form has zero gradient; no plane")
    return _Sections(x0, u, v, n, coeffs, klass, *fields)


def intersect_quadric_plane(q: Quadric, lin: LinearForm) -> Conic:
    """Exact conic section of ``q`` by the plane ``lin = 0``."""
    return _sections((q.A[None], q.b[None], np.array([q.c])), lin.g[None],
                     np.array([lin.c0])).conic(0)


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
    off = np.abs(stacked_values(q._row(), pts)[:, 0]) > SURF_RESIDUAL_TOL * scale
    if off.any():
        p = pts[off.argmax()]
        raise PointOffSurfaceError(f"conic sample {tuple(p.tolist())} is not on the chart surface")
    uv = np.array([chart.inverse(p) for p in pts], dtype=float)
    for col, period in ((0, chart.u_period), (1, chart.v_period)):
        if period > 0.0:
            uv[:, col] = np.unwrap(uv[:, col], period=period)
    return uv
