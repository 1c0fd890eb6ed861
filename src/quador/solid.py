"""Point membership and polygonization of the filleted lattice solid.

The solid is the union (pointwise ``min``) of parts: each hub sphere, each
beam quador clipped to its slab (``max(H, -G_a, -G_b)``) and each fillet
clipped to its wedge and a hub locality ball
(``max(Q, -E1, -E2, S_loc)``).  The field is continuous, negative inside
and positive outside; the tangency planes separating the surfaces make the
piecewise evaluation sign-correct.

An :class:`Assembly` holds the hubs, beam stack and fillet stack its
lattice built, and builds one part table from their rows on first use:
every part's forms in one coefficient stack (each hub's sphere, each beam's
``H_a``, ``-G_a`` and ``-G_b``, each fillet's ``Q``, ``-E1``, ``-E2`` and
locality ball) straight from the arrays, read by ``field_value``,
``classify_point`` and ``field_grid`` alike.  It is frozen, so the table
never goes stale; threads racing on first use at most build it twice.
All of it is safe for concurrent use.

Points are evaluated in batches: ``field_value`` and ``classify_point``
take one point or an ``(n, 3)`` array, and evaluate every form at a chunk
of points in one ``stacked_values`` call, with the label rule applied to
the whole chunk; one budget, ``_BATCH``, sizes these chunks and every other
batched loop.  They keep the BLAS products and the ``np.fmin`` NaN rule of
one point at a time, so each value keeps its bits however the points are
batched, and ``sample.csv`` keeps its bytes.

This module owns the part table, the point path, ``auto_bounds`` and
``marching_cubes``; the grid's formula, bounds and fills are
:mod:`quador.cull`'s, and the extraction is :mod:`quador.mc_tables`'.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import _BATCH, _dots, _stack_rows, stacked_values
from .errors import DegenerateBoundsError, ValidationError
from .fillet import FilletStack
from .fillet import build_fillet_for_spec  # noqa: F401  (bench/tracing.py wraps it here)
from .lattice import BeamStack, Hub, Lattice, _rho_sq, fillet_key, validate_lattice

__all__ = [
    "Assembly",
    "Mesh",
    "RegionLabel",
    "PointClassification",
    "build_assembly",
    "field_value",
    "field_grid",
    "classify_point",
    "auto_bounds",
    "marching_cubes",
]


@dataclass(frozen=True)
class RegionLabel:
    """Which part of the assembly a point belongs to."""

    kind: str  # "HUB" | "BEAM" | "FILLET" | "OUTSIDE"
    key: str = ""

    def __str__(self):
        return self.kind if self.kind == "OUTSIDE" else f"{self.kind}({self.key})"


OUTSIDE = RegionLabel("OUTSIDE")

# Label preference when several parts contain a point: hubs win over beams
# win over fillets, then lexicographic id.
_KIND_RANK = {"HUB": 0, "BEAM": 1, "FILLET": 2}


class _PartTable(NamedTuple):
    stack: tuple  # _stack_rows of every part's forms, in part order
    bounds: np.ndarray  # part i is stack rows bounds[i]:bounds[i + 1]
    by_label: np.ndarray  # part indices, preferred label first
    labels: np.ndarray  # object: the parts' labels in by_label order, then OUTSIDE


@dataclass(frozen=True, eq=False)
class Assembly:
    lattice: Lattice
    hubs: tuple[Hub, ...]  # the lattice's, one sphere row each
    beams: BeamStack  # every row built
    fillets: FilletStack  # every row built; () for none

    @cached_property
    def _table(self) -> _PartTable:
        # Frozen, so never stale; threads racing here at most build it twice.
        resolved = self.lattice._resolved
        beams, fillets = self.beams, self.fillets
        labels = [RegionLabel("HUB", hub.id) for hub in self.hubs]
        labels += [RegionLabel("BEAM", beam.id) for beam in beams.beams]
        sizes = [1] * len(self.hubs) + [3] * len(beams)
        parts = [_stack_rows(resolved.spheres.Q),
                 _stack_rows(tuple(a[0] for a in beams.H), -beams.G[0], -beams.G[1])]
        if len(fillets):  # each fillet's Q, -E1, -E2 and ball |x - c|^2 - rho^2
            c = fillets.center
            rho = np.array([resolved.locality[s.hub.id] for s, _ in fillets.stubs])
            ball = (np.broadcast_to(np.eye(3), (len(c), 3, 3)), -c, _dots(c, c) - rho * rho)
            parts.append(_stack_rows(fillets.Q, -fillets.planes[2], -fillets.planes[3], ball))
            labels += [RegionLabel("FILLET", fillet_key(s1.hub.id, s1.beam.id, s2.beam.id))
                       for s1, s2 in fillets.stubs]
            sizes += [4] * len(fillets)
        stack = tuple(map(np.concatenate, zip(*parts)))
        # Stable, so a label tie keeps the first part in part order.
        order = sorted(range(len(labels)),
                       key=lambda i: (_KIND_RANK[labels[i].kind], labels[i].key))
        labels = np.array([labels[i] for i in order] + [OUTSIDE], dtype=object)
        return _PartTable(stack, np.cumsum([0] + sizes), np.array(order, dtype=int), labels)


def build_assembly(lattice: Lattice) -> Assembly:
    """Assemble the quadrics, planes and fillet stack the lattice built.

    The ids must hold and every part must build; otherwise
    :class:`ValidationError` carries :func:`validate_lattice`'s report.
    Warnings are not checked.
    Each hub's fillets are clipped to a ball of radius the minimum center
    distance to a connected hub (``2r`` for isolated hubs), and at least
    ``1.25 r``.
    """
    resolved = lattice._resolved
    if resolved.errors:
        raise ValidationError(validate_lattice(lattice))
    return Assembly(lattice, lattice.hubs, resolved.geometry, resolved.fillets)


def _points(x) -> tuple[np.ndarray, bool]:
    """``x`` as an ``(n, 3)`` float array, and whether it was one point ``(3,)``."""
    pts = np.asarray(x, dtype=float)
    if pts.shape == (3,):
        return pts[None], True
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected a point (3,) or points (n, 3), got shape {pts.shape}")
    return pts, False


def _part_values(assembly: Assembly, pts: np.ndarray):
    """Each part's value at the points ``(n, 3)``, as ``(rows, values)`` per
    chunk of points: ``values[k, i]`` is the max of part ``i``'s forms' own
    ``value`` at point ``rows.start + k``, bit for bit."""
    table = assembly._table
    # stacked_values' largest temporary holds 3 floats per point-form.
    step = max(1, _BATCH // (3 * max(1, len(table.stack[2]))))
    for start in range(0, len(pts), step):
        rows = slice(start, start + step)
        forms = stacked_values(table.stack, pts[rows])
        yield rows, np.maximum.reduceat(forms, table.bounds[:-1], axis=-1)


def field_value(assembly: Assembly, x):
    """Implicit value of the solid, the min over all part values: a float at
    one point ``(3,)``, an ``(n,)`` array at points ``(n, 3)``."""
    pts, one = _points(x)
    out = np.empty(len(pts))
    for rows, values in _part_values(assembly, pts):
        # fmin skips a NaN part (a form that overflowed) rather than returning NaN.
        np.fmin.reduce(values, axis=-1, initial=math.inf, out=out[rows])
    return float(out[0]) if one else out


def field_grid(assembly: Assembly, X, Y, Z) -> np.ndarray:
    """The solid's field over broadcastable coordinate arrays, by the grid
    formula of :mod:`quador.cull`: not the bits of :func:`field_value`, and
    the same bits however the work is split or broadcast.

    On three axis vectors broadcast against each other (shapes ``(nx, 1, 1)``,
    ``(1, ny, 1)``, ``(1, 1, nz)``, as :func:`marching_cubes` passes them), a
    part is evaluated only in the bricks of the grid where its bounds let it
    hold the minimum, so no bit changes.  Any other input is filled one part
    at a time, in slabs of ``_BATCH`` points along the first broadcast axis.
    Either way, besides the result, no array holds more than about
    ``_BATCH`` values, bounds or indices.
    """
    from .cull import fill_grid  # only meshing compiles grid code; see quador.cull

    return fill_grid(assembly._table, X, Y, Z)


@dataclass(frozen=True)
class PointClassification:
    state: str  # "inside" | "outside" | "boundary"; an array of them for points
    label: RegionLabel  # an object array of them for points
    value: float  # a float64 array for points


_STATES = np.array(["inside", "boundary", "outside"])


def classify_point(assembly: Assembly, x, tol: float = 1e-9) -> PointClassification:
    """Classify one point ``(3,)``, or each of the points ``(n, 3)``.

    The state comes from the sign of the field (``|f| <= tol`` means
    boundary).  The label is the preferred part containing the point —
    hubs before beams before fillets, then lexicographic id — and the
    reported value is that part's own value, so a point inside a beam that
    is also covered by a fillet reports the beam.  Outside every part the
    label is ``OUTSIDE`` and the value is the field's.

    For one point the fields are a ``str``, a :class:`RegionLabel` and a
    ``float``; for ``n`` points they are arrays of length ``n`` (``<U8``,
    object and float64).  Points are evaluated a chunk at a time with the
    same products and the same NaN rule as one by one, so each value keeps
    its bits however the points are batched.
    """
    if not tol >= 0.0:  # NaN too
        raise ValueError("tol must be >= 0")
    pts, one = _points(x)
    table = assembly._table
    order = table.by_label
    state = np.empty(len(pts), dtype=np.intp)
    choice = np.empty(len(pts), dtype=np.intp)
    value = np.empty(len(pts))
    for rows, values in _part_values(assembly, pts):
        # The parts' values in label preference order, then the field; the
        # first value <= tol names the label, and the last column, always
        # taken, is OUTSIDE: no part value is <= tol (NaN never is).
        ranked = np.empty((len(values), len(order) + 1))
        ranked[:, :-1] = values[:, order]
        best = np.fmin.reduce(values, axis=-1, initial=math.inf, out=ranked[:, -1])
        hit = ranked <= tol
        hit[:, -1] = True
        choice[rows] = hit.argmax(axis=1)
        value[rows] = ranked[np.arange(len(ranked)), choice[rows]]
        state[rows] = np.where(choice[rows] == len(order), 2, np.abs(best) <= tol)
    states, labels = _STATES[state], table.labels[choice]
    if one:
        return PointClassification(str(states[0]), labels[0], float(value[0]))
    return PointClassification(states, labels, value)


def _real_roots(a: float, b: float, c: float) -> list[float]:
    """Roots of ``a s^2 + b s + c``, a negative discriminant taken as 0:
    rounding can push a double root off the real line."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def auto_bounds(assembly: Assembly) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box covering all hub spheres and beam tubes.

    A beam's section radius has ``rho(s)^2 = r_a^2 + (lam s + g0)^2 - s^2 =
    a s^2 + b s + c``, so each coordinate ``c_i + s u_i +- spread_i rho`` of
    its swept circle is extreme only at an end, where ``rho`` vanishes, or
    where ``4 u_i^2 rho^2 = spread_i^2 ((rho^2)')^2``; the box takes the
    circle at the roots of those quadratics, inflated by a tenth of the
    largest hub radius.  An empty lattice yields the unit box at the origin.
    """
    lo = np.full(3, math.inf)
    hi = np.full(3, -math.inf)
    r_max = 0.0
    for hub in assembly.hubs:
        c = np.asarray(hub.center)
        lo = np.minimum(lo, c - hub.radius)
        hi = np.maximum(hi, c + hub.radius)
        r_max = max(r_max, hub.radius)
    beams = assembly.beams
    # Python floats, whose ** is libm's pow, as _rho_sq takes it.
    for ca, u, r_a, lam, g0, length in zip(beams.center[0], beams.axis[0], *(
            a.tolist() for a in (beams.radius[0], beams.lam, beams.g0, beams.length))):
        spread = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        a, b, c = lam**2 - 1.0, 2.0 * lam * g0, g0**2 + r_a**2
        stations = [0.0, length, *_real_roots(a, b, c)]
        for u2, w2 in zip((u * u).tolist(), (spread * spread).tolist()):
            k = u2 - w2 * a
            stations += _real_roots(4.0 * k * a, 4.0 * k * b, 4.0 * u2 * c - w2 * b * b)
        for s in stations:
            # Below 0 off the beam or where no section is real.
            rho_sq = _rho_sq(r_a, lam, g0, s) if 0.0 <= s <= length else -1.0
            if not rho_sq < 0.0:
                p = ca + s * u
                rho = math.sqrt(rho_sq)
                lo = np.minimum(lo, p - rho * spread)
                hi = np.maximum(hi, p + rho * spread)
    if not np.all(np.isfinite(lo)):
        return np.full(3, -0.5), np.full(3, 0.5)
    pad = 0.1 * r_max
    return lo - pad, hi + pad


@dataclass(frozen=True, eq=False)
class Mesh:
    vertices: np.ndarray  # (n, 3) float
    triangles: np.ndarray  # (m, 3) int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    def __len__(self):
        return len(self.triangles)


def marching_cubes(
    assembly: Assembly,
    bounds: tuple[np.ndarray, np.ndarray],
    resolution: int | tuple[int, int, int],
) -> Mesh:
    """Polygonize the zero level set of the assembly field.

    Standard 256-case tables with linear edge interpolation.  Vertices are
    welded by grid-edge identity (exact, not tolerance-based), so shared
    cell faces stitch perfectly and closed surfaces come out watertight.
    Triangles are wound so their normals point along ``+grad f`` (outward).
    ``resolution`` is cells per axis: one integer or three, numpy integers
    included, each >= 2; anything else raises :class:`ValueError`.
    Besides the field grid and the mesh, each array holds at most
    ``_BATCH`` values or a few bytes per triangle corner
    (:mod:`quador.mc_tables`).
    """
    # Only meshing compiles the tables and the extraction.
    from .mc_tables import polygonize

    try:
        res = tuple(map(operator.index, np.broadcast_to(resolution, 3)))
    except (TypeError, ValueError):  # not integers, or neither one value nor three
        res = ()
    if not res or min(res) < 2:
        raise ValueError(f"resolution must be one integer or three, each >= 2, got {resolution!r}")
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    # Each span must be positive and finite (Python floats overflow silently).
    if not all(h > l and math.isfinite(h - l) for l, h in zip(lo.tolist(), hi.tolist())):
        raise DegenerateBoundsError(f"bad bounds {lo} .. {hi}")

    xs = np.linspace(lo[0], hi[0], res[0] + 1)
    ys = np.linspace(lo[1], hi[1], res[1] + 1)
    zs = np.linspace(lo[2], hi[2], res[2] + 1)
    F = field_grid(assembly, xs[:, None, None], ys[None, :, None], zs[None, None, :])
    return Mesh(*polygonize(F, (xs, ys, zs)))
