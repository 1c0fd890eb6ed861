"""Plane-quadric intersections: classified, parametrized conics in 3D.

A plane is represented by a deterministic :class:`PlaneFrame`; substituting
the frame into a quadric yields exact 2D coefficients
``a s^2 + 2b st + c t^2 + 2d s + 2e t + f`` which are classified and given a
closed-form parametrization.  Sampled points satisfy both the 2D implicit
equation and the original 3D quadric to tight relative tolerance.

Conics are rows: a section holds many as arrays, and a :class:`Conic` is a
view of one row.  :func:`sample_conic` samples one conic or a whole
section (a fillet stack's ``conic1`` or ``conic2``) by the same code.
``CURVE_CLASSES``, ``COMPACT_CLASSES`` and ``CLOSED_CLASSES`` say once which
classes are curves, bounded and closed; :func:`conic_pieces` splits samples
into the polylines that draw them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .algebra import (_BATCH, LinearForm, Quadric, _axis_complement, _dots,
                      stacked_values)
from .errors import AllZeroError, NotACurveError, QuadorError, ZeroGradientError
from .tolerances import CONIC_CLASSIFY_TOL, UNBOUNDED_PARAM_RANGE

__all__ = [
    "PlaneFrame",
    "Conic",
    "ConicClass",
    "plane_frame",
    "intersect_quadric_plane",
    "classify_conic",
    "sample_conic",
    "conic_pieces",
]


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
    """A classified conic in a plane frame: a view of row ``row`` of
    ``sections``, each field read from its arrays on each read.

    ``coeffs`` are ``(a, b, c, d, e, f)`` of
    ``a s^2 + 2b st + c t^2 + 2d s + 2e t + f`` in frame coordinates.
    Parametrization data depends on the class (a field the class lacks reads
    None or empty):

    * ellipse/circle: ``center``, ``axes`` (2x2, rows unit), ``radii``
    * parabola: ``center`` = vertex, ``axes`` rows = (sweep dir, axis dir),
      ``radii[0]`` = quadratic coefficient kappa in ``q(t) = t d1 + kappa t^2 d2``
    * hyperbola: ``center``, ``axes`` rows = (transverse, conjugate),
      ``radii`` = (a, b) with branches ``center +- a cosh(t) d1 + b sinh(t) d2``
    * line classes: ``lines`` = tuple of (base point, unit direction) in 2D
    * point: ``center``
    """

    sections: _Sections = field(repr=False)  # its repr holds every row
    row: int

    frame = property(lambda c: PlaneFrame(*(a[c.row] for a in c.sections[:4])))
    coeffs = property(lambda c: tuple(c.sections.coeffs[c.row].tolist()))
    klass = property(lambda c: c.sections.klass[c.row])
    center = property(lambda c: c.sections.center[c.row] if _FIELDS[c.klass][0] else None)
    axes = property(lambda c: c.sections.axes[c.row] if _FIELDS[c.klass][1] else None)
    radii = property(lambda c: tuple(c.sections.radii[c.row, :_FIELDS[c.klass][1]].tolist()))
    lines = property(lambda c: tuple((ln[0], ln[1])
                                     for ln in c.sections.lines[c.row, :_FIELDS[c.klass][2]]))

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
        """Row ``i`` as a :class:`Conic` view; raises a copy of the row's error."""
        klass = self.klass[i]
        if isinstance(klass, QuadorError):
            raise type(klass)(*klass.args)
        return Conic(self, i)


def _analyze(coeffs: np.ndarray) -> tuple:
    """Classify conic rows ``(m, 6)``: the class of each row (an
    :class:`AllZeroError` for an all-zero one, a :class:`NotACurveError` for
    one with a coefficient that is not finite) and the centers, axes, radii
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
    for i in np.flatnonzero(~np.isfinite(coeffs).all(axis=1)).tolist():
        klass[i] = NotACurveError("conic coefficients are not finite")

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


def sample_conic(conic: Conic | _Sections, n: int) -> np.ndarray:
    """``n`` points on a conic as an ``(n, 3)`` array, or on each row of a
    section (a fillet stack's ``conic1`` or ``conic2``) as ``(m, n, 3)``.

    Ellipses/circles are sampled by uniform angle starting on the first
    principal axis; parabolas by uniform parameter over ``[-r, r]`` with
    ``r = UNBOUNDED_PARAM_RANGE``; hyperbolas and line pairs by uniform
    parameter per branch/line over the same symmetric range.  Raises
    ``ValueError`` for ``n < 2``; else the first row that cannot be sampled
    raises, as a row-by-row loop would: a copy of its coded error, or
    :class:`NotACurveError` for a point/empty conic.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    one = isinstance(conic, Conic)  # then as a one-row section
    conics = conic.sections._make(f[conic.row:][:1] for f in conic.sections) if one else conic
    for k in conics.klass:
        if isinstance(k, QuadorError):
            raise type(k)(*k.args)
        if k not in CURVE_CLASSES:
            raise NotACurveError(f"cannot sample a {k.value} conic")
    out = np.empty((len(conics.klass), n, 3))
    step = max(1, _BATCH // (3 * n))  # rows at once: temporaries of about _BATCH values
    for k in set(conics.klass):
        at = np.flatnonzero([c is k for c in conics.klass])
        for i in (at[s:s + step] for s in range(0, len(at), step)):
            origin, u, v = (a[i, None] for a in conics[:3])
            pts2 = _plane_samples(k, *(a[i] for a in conics[6:]), n)
            out[i] = origin + pts2[..., :1] * u + pts2[..., 1:] * v
    return out[0] if one else out


def _plane_samples(klass: ConicClass, center, axes, radii, lines, n: int) -> np.ndarray:
    """:func:`sample_conic`'s frame coordinates ``(m, n, 2)`` of conic rows of
    one class, from their :class:`_Sections` fields.  Every point takes the
    float operations, in the order, that one ``center + r1 cos(th) d1 +
    r2 sin(th) d2`` (and so on) per point takes."""
    r, half = UNBOUNDED_PARAM_RANGE, n - n // 2  # the first branch's or line's share
    if klass in (ConicClass.PARABOLA, ConicClass.SINGLE_LINE):  # one piece
        half = n
    second = np.arange(n) >= half  # the points of a second branch or line
    t = np.concatenate([np.linspace(-r, r, half), np.linspace(-r, r, n - half)])
    if _FIELDS[klass][2]:  # line classes
        which = second.astype(int)
        return lines[:, which, 0] + t[:, None] * lines[:, which, 1]
    if klass is ConicClass.PARABOLA:
        c1, c2 = t[None], radii[:, :1] * t * t
    elif klass is ConicClass.HYPERBOLA:
        t = t.tolist()
        c1 = np.where(second, -1.0, 1.0) * radii[:, :1] * np.array([math.cosh(x) for x in t])
        c2 = radii[:, 1:] * np.array([math.sinh(x) for x in t])
    else:
        th = [math.tau * j / n for j in range(n)]
        c1 = radii[:, :1] * np.array([math.cos(x) for x in th])
        c2 = radii[:, 1:] * np.array([math.sin(x) for x in th])
    return center[:, None] + c1[..., None] * axes[:, None, 0] + c2[..., None] * axes[:, None, 1]


def conic_pieces(conic: Conic, pts: np.ndarray) -> list[np.ndarray]:
    """``sample_conic(conic, n)``'s points as the polylines that draw them: a
    hyperbola's two branches or a line pair's two lines, the first with the
    ``n - n // 2`` points sampled first; any other class in one piece."""
    if conic.klass is ConicClass.HYPERBOLA or len(conic.lines) == 2:
        half = len(pts) - len(pts) // 2
        return [pts[:half], pts[half:]]
    return [pts]

