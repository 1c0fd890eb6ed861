"""Point membership and polygonization of the filleted lattice solid.

The solid is the union (pointwise ``min``) of parts: each hub sphere, each
beam quador clipped to its slab (``max(H, -G_a, -G_b)``) and each fillet
clipped to its wedge and a hub locality ball
(``max(Q, -E1, -E2, S_loc)``).  The field is continuous, negative inside
and positive outside; the tangency planes separating the surfaces make the
piecewise evaluation sign-correct.

An :class:`Assembly` holds the hubs, beam geometries and fillet patches its
lattice built, and builds one part table from them on first use: every
part's forms, the hub spheres and fillet locality balls among them, in one
coefficient stack, read by ``field_value``, ``classify_point`` and
``field_grid`` alike.  It is frozen, so the table never goes stale; threads
racing on first use at most build it twice.  All of it is safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import Quadric, _vec, stack_forms, stacked_values
from .errors import DegenerateBoundsError, ValidationError
from .fillet import FilletPatch
from .fillet import build_fillet_for_spec  # noqa: F401  (bench/tracing.py wraps it here)
from .lattice import (
    BeamGeometry,
    Hub,
    Lattice,
    beam_radius,
    fillet_key,
    sphere_quadric,
    validate_lattice,
)

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
    parts: tuple  # (label, forms) per part
    stack: tuple  # stack_forms of every part's forms, in part order
    bounds: np.ndarray  # part i is stack rows bounds[i]:bounds[i + 1]
    by_label: np.ndarray  # part indices, preferred label first


@dataclass(frozen=True, eq=False)
class Assembly:
    lattice: Lattice
    hubs: tuple[Hub, ...]
    beams: tuple[BeamGeometry, ...]
    fillets: tuple[FilletPatch, ...]

    @cached_property
    def _table(self) -> _PartTable:
        # Frozen, so never stale; threads racing here at most build it twice.
        rho = self.lattice._resolved.locality
        parts = [(RegionLabel("HUB", hub.id), (sphere_quadric(hub),)) for hub in self.hubs]
        parts += [(RegionLabel("BEAM", bg.beam.id), (bg.H, -bg.G_a, -bg.G_b))
                  for bg in self.beams]
        for p in self.fillets:
            c, r = p.hub_center, rho[p.hub_id]
            ball = Quadric(np.eye(3), -c, float(c @ c) - r * r)  # |x - c|^2 - rho^2
            key = fillet_key(p.hub_id, *p.beam_ids)
            parts.append((RegionLabel("FILLET", key), (p.Q, -p.E1, -p.E2, ball)))
        # Stable, so a label tie keeps the first part in part order.
        order = sorted(range(len(parts)),
                       key=lambda i: (_KIND_RANK[parts[i][0].kind], parts[i][0].key))
        bounds = np.cumsum([0] + [len(fns) for _, fns in parts])
        stack = stack_forms(f for _, fns in parts for f in fns)
        return _PartTable(tuple(parts), stack, bounds, np.array(order, dtype=int))

    def parts(self) -> tuple:
        """(label, functions) in deterministic order."""
        return self._table.parts


def build_assembly(lattice: Lattice) -> Assembly:
    """Assemble the quadrics, planes and fillet patches the lattice built.

    The lattice must validate with no errors (warnings are allowed);
    otherwise :class:`ValidationError` carries the report.  Each hub's
    fillets are clipped to a ball of radius the minimum center distance to
    a connected hub (``2r`` for isolated hubs).
    """
    report = validate_lattice(lattice)
    if not report.ok:
        raise ValidationError(report)
    resolved = lattice._resolved
    return Assembly(lattice, lattice.hubs, resolved.geometry, resolved.patches)


def _part_values(assembly: Assembly, x) -> np.ndarray:
    """Each part's value at a point: the max of its forms' own ``value``, bit for bit."""
    table = assembly._table
    forms = stacked_values(table.stack, _vec(x))
    return np.maximum.reduceat(forms, table.bounds[:-1]) if len(forms) else forms


def field_value(assembly: Assembly, x) -> float:
    """Implicit value of the solid at a point: min over all part values."""
    # fmin skips a NaN part (a form that overflowed) rather than returning NaN.
    return float(np.fmin.reduce(_part_values(assembly, x), initial=math.inf))


def field_grid(assembly: Assembly, X, Y, Z) -> np.ndarray:
    """Vectorized :func:`field_value` over broadcastable coordinate arrays, one
    part at a time (one part value and the running min are live).  A plane row
    (``A = 0``) takes ``2 (b . X) + c``: the bits of ``g . X + c0``."""
    X, Y, Z = (np.asarray(a, dtype=float) for a in (X, Y, Z))
    table = assembly._table
    total = None
    for rows in map(slice, table.bounds[:-1], table.bounds[1:]):
        part = None
        for A, (b,), c in zip(*(s[rows] for s in table.stack)):
            # A fixed summation order keeps the grid's bits; hoisting the linear
            # term ahead of the quadratic ones would hold one more whole grid.
            v = 2.0 * (b[0] * X + b[1] * Y + b[2] * Z) + c if not A.any() else (
                A[0, 0] * X * X + A[1, 1] * Y * Y + A[2, 2] * Z * Z
                + 2.0 * (A[0, 1] * X * Y + A[0, 2] * X * Z + A[1, 2] * Y * Z)
                + 2.0 * (b[0] * X + b[1] * Y + b[2] * Z) + c)
            part = v if part is None else np.maximum(part, v)
        total = part if total is None else np.minimum(total, part)
    if total is None:
        return np.full(np.broadcast(X, Y, Z).shape, math.inf)
    return total


@dataclass(frozen=True)
class PointClassification:
    state: str  # "inside" | "outside" | "boundary"
    label: RegionLabel
    value: float


def classify_point(assembly: Assembly, x, tol: float = 1e-9) -> PointClassification:
    """Classify a point against the assembly.

    The state comes from the sign of the field (``|f| <= tol`` means
    boundary).  The label is the preferred part containing the point —
    hubs before beams before fillets, then lexicographic id — and the
    reported value is that part's own value, so a point inside a beam that
    is also covered by a fillet reports the beam.
    """
    if tol < 0.0:
        raise ValueError("tol must be >= 0")
    values = _part_values(assembly, x)
    best = float(np.fmin.reduce(values, initial=math.inf))
    if best > tol:
        return PointClassification("outside", OUTSIDE, best)
    state = "boundary" if abs(best) <= tol else "inside"
    order = assembly._table.by_label
    i = order[np.argmax(values[order] <= tol)]
    return PointClassification(state, assembly._table.parts[i][0], float(values[i]))


def auto_bounds(assembly: Assembly, margin: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box covering all hub spheres and beam tubes.

    Each beam contributes the swept circle of its section radius sampled at
    33 uniform stations.  The box is inflated by ``margin`` times the largest
    hub radius on every side.  An empty lattice yields the unit box
    centered at the origin.
    """
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    lo = np.full(3, math.inf)
    hi = np.full(3, -math.inf)
    r_max = 0.0
    for hub in assembly.hubs:
        c = np.asarray(hub.center)
        lo = np.minimum(lo, c - hub.radius)
        hi = np.maximum(hi, c + hub.radius)
        r_max = max(r_max, hub.radius)
    for bg in assembly.beams:
        ca = np.asarray(bg.hub_a.center)
        u = bg.axis
        spread = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        for s in np.linspace(0.0, bg.length, 33):
            rho = beam_radius(bg, float(s))
            if rho is None:
                continue
            p = ca + s * u
            lo = np.minimum(lo, p - rho * spread)
            hi = np.maximum(hi, p + rho * spread)
    if not np.all(np.isfinite(lo)):
        return np.full(3, -0.5), np.full(3, 0.5)
    pad = margin * r_max
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
    """
    # Only meshing needs the tables; compiling and importing them at module
    # level raises the peak RSS of every other command by about 1.5 MB.
    from .mc_tables import EDGE_AXIS, EDGE_LOW, TRI_EDGES, VERT_OFFSETS

    if isinstance(resolution, int):
        res = (resolution, resolution, resolution)
    else:
        res = tuple(int(r) for r in resolution)
    if any(r < 2 for r in res):
        raise ValueError(f"resolution must be >= 2 per axis, got {res}")
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    # Each span must be positive and finite (Python floats overflow silently).
    if not all(h > l and math.isfinite(h - l) for l, h in zip(lo.tolist(), hi.tolist())):
        raise DegenerateBoundsError(f"bad bounds {lo} .. {hi}")

    xs = np.linspace(lo[0], hi[0], res[0] + 1)
    ys = np.linspace(lo[1], hi[1], res[1] + 1)
    zs = np.linspace(lo[2], hi[2], res[2] + 1)
    F = field_grid(assembly, xs[:, None, None], ys[None, :, None], zs[None, None, :])

    inside = F < 0.0
    nx, ny, nz = res
    index = np.zeros(res, dtype=np.uint8)
    for bit, (dx, dy, dz) in enumerate(VERT_OFFSETS):
        index |= inside[dx : dx + nx, dy : dy + ny, dz : dz + nz].astype(np.uint8) << bit
    active = (index != 0) & (index != 255)

    # One row per triangle corner, in cell order then table order: the
    # corner's cell and the grid edge it lies on, keyed by (axis, low end).
    edges = TRI_EDGES[index[active]]
    rows, cols = np.nonzero(edges >= 0)
    edge = edges[rows, cols]
    axis = EDGE_AXIS[edge]
    low = np.argwhere(active)[rows] + EDGE_LOW[edge]
    key = ((axis * (nx + 1) + low[:, 0]) * (ny + 1) + low[:, 1]) * (nz + 1) + low[:, 2]
    # Weld corners on the same grid edge; number vertices by first use.
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    vertex_of_corner = np.argsort(order)[inverse]

    # Interpolate from the canonical (low) end so both adjacent cells
    # produce bit-identical coordinates.
    first = first[order]
    axis, low = axis[first], low[first]
    high = low + np.eye(3, dtype=np.int64)[axis]
    f0 = F[low[:, 0], low[:, 1], low[:, 2]]
    f1 = F[high[:, 0], high[:, 1], high[:, 2]]
    t = np.divide(f0, f0 - f1, out=np.full_like(f0, 0.5), where=f0 != f1)
    coords = (xs, ys, zs)
    vertices = np.stack([coords[i][low[:, i]] for i in range(3)], axis=1)
    for i in range(3):
        on = axis == i
        vertices[on, i] += t[on] * (coords[i][high[on, i]] - coords[i][low[on, i]])

    # Table winding faces the inside; swap for outward normals.
    triangles = vertex_of_corner.reshape(-1, 3)[:, [0, 2, 1]]
    return Mesh(vertices, triangles)
