"""Point membership and polygonization of the filleted lattice solid.

The solid is the union (pointwise ``min``) of parts: each hub sphere, each
beam quador clipped to its slab (``max(H, -G_a, -G_b)``) and each fillet
clipped to its wedge and a hub locality ball
(``max(Q, -E1, -E2, S_loc)``).  The field is continuous, negative inside
and positive outside; the tangency planes separating the surfaces make the
piecewise evaluation sign-correct.

An :class:`Assembly` is immutable after build; ``field_value`` /
``classify_point`` are pure and the grid evaluator is vectorized, so all of
it is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Quadric
from .errors import DegenerateBoundsError, ValidationError
from .fillet import FilletPatch
from .fillet import build_fillet_for_spec  # noqa: F401  (bench/tracing.py wraps it here)
from .lattice import (
    BeamGeometry,
    Hub,
    Lattice,
    beam_radius,
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


@dataclass(frozen=True, eq=False)
class _HubPart:
    hub: Hub
    S: Quadric
    rho: float  # locality-ball radius for fillets at this hub


@dataclass(frozen=True, eq=False)
class _FilletPart:
    patch: FilletPatch
    S_loc: Quadric  # |x - c|^2 - rho^2


@dataclass(frozen=True, eq=False)
class Assembly:
    lattice: Lattice
    hubs: tuple[_HubPart, ...]
    beams: tuple[BeamGeometry, ...]
    fillets: tuple[_FilletPart, ...]

    def parts(self):
        """(label, functions) in deterministic order."""
        for hp in self.hubs:
            yield RegionLabel("HUB", hp.hub.id), (hp.S,)
        for bg in self.beams:
            yield RegionLabel("BEAM", bg.beam.id), (bg.H, -bg.G_a, -bg.G_b)
        for fp in self.fillets:
            p = fp.patch
            key = f"{p.hub_id}:{p.beam_ids[0]}+{p.beam_ids[1]}"
            yield RegionLabel("FILLET", key), (p.Q, -p.E1, -p.E2, fp.S_loc)


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
    rho = resolved.locality
    hubs = tuple(_HubPart(hub, sphere_quadric(hub), rho[hub.id]) for hub in lattice.hubs)
    fillets = []
    for patch in resolved.patches:
        c, r = patch.hub_center, rho[patch.hub_id]
        fillets.append(_FilletPart(patch, Quadric(np.eye(3), -c, float(c @ c) - r * r)))
    return Assembly(lattice, hubs, resolved.geometry, tuple(fillets))


def _part_value(fns, x) -> float:
    return max(f.value(x) for f in fns)


def field_value(assembly: Assembly, x) -> float:
    """Implicit value of the solid at a point: min over all part values."""
    best = math.inf
    for _, fns in assembly.parts():
        v = _part_value(fns, x)
        if v < best:
            best = v
    return best


def _eval_on_grid(fn, X, Y, Z):
    if isinstance(fn, Quadric):
        A, b, c = fn.A, fn.b, fn.c
        return (
            A[0, 0] * X * X + A[1, 1] * Y * Y + A[2, 2] * Z * Z
            + 2.0 * (A[0, 1] * X * Y + A[0, 2] * X * Z + A[1, 2] * Y * Z)
            + 2.0 * (b[0] * X + b[1] * Y + b[2] * Z)
            + c
        )
    g, c0 = fn.g, fn.c0
    return g[0] * X + g[1] * Y + g[2] * Z + c0


def field_grid(assembly: Assembly, X, Y, Z) -> np.ndarray:
    """Vectorized :func:`field_value` over broadcastable coordinate arrays."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    total = None
    for _, fns in assembly.parts():
        part = None
        for fn in fns:
            v = _eval_on_grid(fn, X, Y, Z)
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
    best = math.inf
    containing = []
    for label, fns in assembly.parts():
        v = _part_value(fns, x)
        if v < best:
            best = v
        if v <= tol:
            containing.append((_KIND_RANK[label.kind], label.key, v, label))
    if best > tol:
        return PointClassification("outside", OUTSIDE, best)
    state = "boundary" if abs(best) <= tol else "inside"
    rank, _, value, label = min(containing, key=lambda item: (item[0], item[1]))
    return PointClassification(state, label, value)


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
    for hp in assembly.hubs:
        c = np.asarray(hp.hub.center)
        lo = np.minimum(lo, c - hp.hub.radius)
        hi = np.maximum(hi, c + hp.hub.radius)
        r_max = max(r_max, hp.hub.radius)
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
    from .mc_tables import EDGE_TABLE, EDGE_VERTS, TRI_TABLE, VERT_OFFSETS

    if isinstance(resolution, int):
        res = (resolution, resolution, resolution)
    else:
        res = tuple(int(r) for r in resolution)
    if any(r < 2 for r in res):
        raise ValueError(f"resolution must be >= 2 per axis, got {res}")
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(hi > lo)):
        raise DegenerateBoundsError(f"bad bounds {lo} .. {hi}")

    xs = np.linspace(lo[0], hi[0], res[0] + 1)
    ys = np.linspace(lo[1], hi[1], res[1] + 1)
    zs = np.linspace(lo[2], hi[2], res[2] + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    F = field_grid(assembly, X, Y, Z)

    inside = F < 0.0
    index = np.zeros(tuple(res), dtype=np.uint8)
    for bit, (dx, dy, dz) in enumerate(VERT_OFFSETS):
        nx, ny, nz = res
        index |= (
            inside[dx : dx + nx, dy : dy + ny, dz : dz + nz].astype(np.uint8) << bit
        )
    active = np.argwhere((index != 0) & (index != 255))

    coords = (xs, ys, zs)
    vert_index: dict[tuple[int, int, int, int], int] = {}
    vertices: list[np.ndarray] = []
    triangles: list[tuple[int, int, int]] = []

    def edge_vertex(ci, cj, ck, edge) -> int:
        a, b = EDGE_VERTS[edge]
        oa, ob = VERT_OFFSETS[a], VERT_OFFSETS[b]
        ga = (ci + oa[0], cj + oa[1], ck + oa[2])
        gb = (ci + ob[0], cj + ob[1], ck + ob[2])
        axis = next(i for i in range(3) if ga[i] != gb[i])
        low = ga if ga[axis] < gb[axis] else gb
        key = (axis, low[0], low[1], low[2])
        idx = vert_index.get(key)
        if idx is not None:
            return idx
        # Interpolate from the canonical (low) end so both adjacent cells
        # produce bit-identical coordinates.
        high = (low[0] + (axis == 0), low[1] + (axis == 1), low[2] + (axis == 2))
        f0 = F[low]
        f1 = F[high]
        t = 0.5 if f0 == f1 else f0 / (f0 - f1)
        p = np.array([coords[i][low[i]] for i in range(3)])
        p[axis] += t * (coords[axis][high[axis]] - coords[axis][low[axis]])
        idx = len(vertices)
        vertices.append(p)
        vert_index[key] = idx
        return idx

    for ci, cj, ck in active:
        case = index[ci, cj, ck]
        if not EDGE_TABLE[case]:
            continue
        row = TRI_TABLE[case]
        for m in range(0, len(row), 3):
            ia = edge_vertex(ci, cj, ck, row[m])
            ib = edge_vertex(ci, cj, ck, row[m + 1])
            ic = edge_vertex(ci, cj, ck, row[m + 2])
            if ia == ib or ib == ic or ic == ia:
                continue
            # Table winding faces the inside; swap for outward normals.
            triangles.append((ia, ic, ib))

    if not triangles:
        return Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    return Mesh(np.array(vertices), np.array(triangles, dtype=np.int64))
