"""Lattice data model and beam quador construction.

A lattice is hubs (spheres), beams (surface-of-revolution quadrics tangent
to both endpoint spheres) and fillet specifications.  Each beam is fixed by
one scalar ``k``: with ``L = S_a - S_b`` (always linear), the tangency
planes are ``G_a = (L/k + k)/2`` and ``G_b = G_a - k``, which makes
``S_a - G_a^2`` and ``S_b - G_b^2`` the *same* quadric identically.  ``G``
forms are sign-normalized positive toward the far hub, which leaves the
beam quadric unchanged.

A lattice builds its hub spheres, then its beams (:class:`BeamStack`), then
its fillets, each kind as rows of arrays in one stacked call whose rows keep
the bits of the one-part calls :func:`sphere_quadric`, :func:`beam_quador`
and :func:`~quador.fillet.build_fillet`.  A beam's stub views (``H = S -
G^2`` on each end's hub sphere) are views of its row; every layer reads rows.

Everything here is immutable after construction and safe for concurrent
reads.  Each lattice builds each hub sphere, beam (its two stubs) and fillet
once, on first use, and records the errors that building them raised
(``_resolve``, the build pass); it raises copies of those errors, never
the cached instances.  :func:`validate_lattice` reports those errors.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .algebra import LinearForm, Quadric, _coeffs, _dots, _freeze, _plane_values, _subtract_square
from .errors import (
    CenterOverflowError,
    CoincidentHubsError,
    DegenerateBeamError,
    MissingIdError,
    NonPositiveRadiusError,
    PlaneMissesSphereError,
    QuadorError,
    RadiusOverflowError,
    UnknownHubError,
)

if TYPE_CHECKING:
    from .fillet import FilletStack

__all__ = [
    "Hub",
    "Beam",
    "FilletSpec",
    "Lattice",
    "BeamGeometry",
    "BeamStack",
    "StubView",
    "ValidationIssue",
    "ValidationReport",
    "sphere_quadric",
    "beam_quador",
    "beam_radius",
    "fillet_key",
    "stub_views_at_hub",
    "validate_lattice",
]


@dataclass(frozen=True)
class Hub:
    id: str
    center: tuple[float, float, float]
    radius: float


@dataclass(frozen=True)
class Beam:
    id: str
    hub_a: str
    hub_b: str
    k: float


@dataclass(frozen=True)
class FilletSpec:
    hub: str
    beam_i: str
    beam_j: str
    beta: float


@dataclass(frozen=True)
class Lattice:
    hubs: tuple[Hub, ...] = ()
    beams: tuple[Beam, ...] = ()
    fillets: tuple[FilletSpec, ...] = ()

    @cached_property
    def _resolved(self) -> _Resolution:
        # Frozen, so never stale; threads racing here at most build it twice.
        return _resolve(self)


def fillet_key(hub_id: str, beam_i: str, beam_j: str) -> str:
    """The ``hub:beam_i+beam_j`` name of a fillet in reports, labels and outputs."""
    return f"{hub_id}:{beam_i}+{beam_j}"


def _first_errors(given, table) -> tuple:
    """Per row ``i``: ``given[i]`` if it is an error, else the error ``error(i)``
    of the first entry ``(bad, error)`` of the ordered ``table`` with
    ``bad[i]`` true, else None."""
    return tuple(e or next((error(i) for bad, error in table if bad[i]), None)
                 for i, e in enumerate(given))


def _view(stack, i, view):
    """``view(stack, i)`` for row ``i`` of a stack (a negative index counts
    from the end), or a copy of the row's error raised."""
    try:
        i = range(len(stack.errors))[operator.index(i)]
    except TypeError:
        raise TypeError(f"{type(stack).__name__} takes integer indices, "
                        f"not {type(i).__name__}") from None
    error = stack.errors[i]
    if error is not None:
        raise type(error)(*error.args)  # a copy: the cached error never holds a caller's frames
    return view(stack, i)


# The largest radius whose square is finite; above it ``radius**2`` raises.
_MAX_RADIUS = math.sqrt(sys.float_info.max)


class _Spheres(NamedTuple):
    """Hub spheres as rows, row ``i`` for hub ``i``, as :func:`_spheres` builds them."""

    hubs: tuple[Hub, ...]
    center: np.ndarray  # (n, 3)
    radius: np.ndarray  # (n,)
    r2: np.ndarray  # (n,) each radius ** 2 as Python's float power gives it (NaN if it fails)
    Q: tuple  # |x - c|^2 - r^2: A (n,3,3), b (n,3), c (n,)
    errors: tuple[QuadorError | None, ...]


def _spheres(hubs) -> _Spheres:
    """Every hub's sphere ``|x - c|^2 - r^2`` in one stacked call, each row
    with :func:`sphere_quadric`'s bits, and per hub its first error: a radius
    not positive, a radius whose square overflows, then such a center."""
    hubs = tuple(hubs)
    center = np.array([h.center for h in hubs], dtype=float).reshape(-1, 3)
    radius = np.array([h.radius for h in hubs], dtype=float)
    # libm's pow, which differs from r * r in the last bit of about 1 square in 1,000.
    r2 = np.array([h.radius**2 if 0.0 < h.radius <= _MAX_RADIUS else math.nan for h in hubs])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the coded error below
        cc = _dots(center, center)
        Q = (np.broadcast_to(np.eye(3), (len(hubs), 3, 3)), -center, cc - r2)
    errors = _first_errors([None] * len(hubs), [
        (~(radius > 0.0),
         lambda i: NonPositiveRadiusError(f"hub {hubs[i].id!r} has radius {hubs[i].radius}")),
        (radius > _MAX_RADIUS, lambda i: RadiusOverflowError(
            f"hub {hubs[i].id!r} radius is too large: its square overflows")),
        (~np.isfinite(cc), lambda i: CenterOverflowError(
            f"hub {hubs[i].id!r} center is too large: its square overflows")),
    ])
    return _Spheres(hubs, center, radius, r2, Q, errors)


def sphere_quadric(hub: Hub) -> Quadric:
    """Implicit sphere ``|x - c|^2 - r^2``: negative inside, increasing outward;
    rejects a radius that is not positive, and a radius or center whose square
    overflows.  One row of the stacked construction that lattice loading uses."""
    spheres = _spheres([hub])
    if spheres.errors[0]:
        raise spheres.errors[0]
    return Quadric(*(a[0] for a in spheres.Q))


@dataclass(frozen=True, eq=False)
class StubView:
    """A beam as seen from one of its hubs: end ``end`` (0 at ``hub_a``) of
    row ``row`` of a :class:`BeamStack`, each field read on each read.  ``G``
    is the beam's tangency plane at this hub, positive toward the far hub;
    ``H = S_hub - G^2`` on this hub's sphere, so the sphere-stub identity
    holds bitwise; ``axis`` is the unit direction toward the far hub."""

    stack: BeamStack = field(repr=False)  # its repr holds every row
    row: int
    end: int

    hub = property(lambda v: v.stack.hubs[v.row][v.end])
    beam = property(lambda v: v.stack.beams[v.row])
    G = property(lambda v: LinearForm(v.stack.G[v.end, v.row, :3], v.stack.G[v.end, v.row, 3]))
    H = property(lambda v: Quadric(*(a[v.end, v.row] for a in v.stack.H)))
    axis = property(lambda v: _freeze(v.stack.axis[v.end, v.row]))


@dataclass(frozen=True, eq=False)
class BeamGeometry:
    """A constructed beam as its two stub views; ``stub_a.H`` is the beam
    quadric.  A view of row ``row`` of a :class:`BeamStack`."""

    stack: BeamStack = field(repr=False)
    row: int

    beam = property(lambda g: g.stack.beams[g.row])
    stub_a = property(lambda g: g.stack.stubs[g.row][0])  # at hub_a; its axis points hub_a -> hub_b
    stub_b = property(lambda g: g.stack.stubs[g.row][1])  # at hub_b
    length = property(lambda g: float(g.stack.length[g.row]))  # center distance
    lam = property(lambda g: float(g.stack.lam[g.row]))  # |grad G_a| = |grad G_b|
    g0 = property(lambda g: float(g.stack.g0[g.row]))  # G_a at the hub_a center


@dataclass(frozen=True, eq=False)
class BeamStack:
    """Beams as rows of arrays, row ``i`` for beam ``i`` (:func:`_build_beams`);
    a per-end array holds ``hub_a``'s end, then ``hub_b``'s, on its first axis.
    ``errors[i]`` is row ``i``'s coded error (its arrays then hold no beam).
    ``stack[i]`` is row ``i``'s :class:`BeamGeometry` view, or raises a copy of
    its error; ``stubs[i]`` is its two :class:`StubView`, made once."""

    beams: tuple[Beam | None, ...]  # None where the row was given its error
    hubs: tuple[tuple[Hub, Hub] | None, ...]
    errors: tuple[QuadorError | None, ...]
    G: np.ndarray  # (2, m, 4): G_a and G_b as rows (g, c0), each positive toward the far hub
    H: tuple  # (2, m) quadric rows H = S - G^2: A (2,m,3,3), b (2,m,3), c (2,m)
    axis: np.ndarray  # (2, m, 3): unit, toward the far hub
    center: np.ndarray  # (2, m, 3): the hubs' centers
    radius: np.ndarray  # (2, m): the hubs' radii
    length: np.ndarray  # (m,) center distance
    lam: np.ndarray  # (m,) |grad G_a| = |grad G_b|
    g0: np.ndarray  # (m,) G_a at the hub_a center

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i: int) -> BeamGeometry:
        return _view(self, i, BeamGeometry)

    @cached_property
    def stubs(self) -> tuple[tuple[StubView, StubView], ...]:
        return tuple((StubView(self, i, 0), StubView(self, i, 1)) for i in range(len(self)))


def _build_beams(rows, spheres: _Spheres) -> BeamStack:
    """Build every beam row at once from ``rows``: per beam, the beam and its
    hubs' rows in ``spheres``, or the coded error it holds.  Row by row this is
    :func:`beam_quador`, each float operation in its order, and the error of
    the first entry that holds in one ordered table: a zero or non-finite
    ``k``, coincident hubs, a plane missing its sphere at ``hub_a`` then at
    ``hub_b``, then planes that overflow."""
    given = [r if isinstance(r, QuadorError) else None for r in rows]
    live = [(None, -1, -1) if e else r for r, e in zip(rows, given)]
    beams = tuple(r[0] for r in live)
    hubs = tuple(None if b is None else (spheres.hubs[ia], spheres.hubs[ib]) for b, ia, ib in live)
    ends = np.array([r[1:] for r in live], dtype=np.intp).reshape(-1, 2).T
    # Per end, each hub's row; a given row reads the NaN row appended at -1.
    c, r, r2, SA, Sb, Sc = (np.concatenate([a, np.full((1, *a.shape[1:]), np.nan)])[ends]
                            for a in (spheres.center, spheres.radius, spheres.r2, *spheres.Q))
    k = np.array([math.nan if b is None else b.k for b in beams], dtype=float)
    ca, cb = c
    # L = S_a - S_b is linear; divide out k to get the tangency planes.  A tiny k
    # overflows them, which is the coded error below, as are a zero k and coincident hubs.
    with np.errstate(all="ignore"):
        diff = cb - ca
        d = np.sqrt(_dots(diff, diff))
        cl = Sc[0] - _dots(cb, cb) + r2[1]  # |c_a|^2 - r_a^2 - |c_b|^2 + r_b^2
        g = 2.0 * diff / (2.0 * k)[:, None]
        c0 = cl / (2.0 * k) + k / 2.0
        G = np.stack([np.column_stack([g, c0]), np.column_stack([g, c0 - k])])  # G_a, G_b
        lam = np.sqrt(_dots(g, g))
        at_own, at_far = _plane_values(G, c), _plane_values(G, c[::-1])
        miss = np.abs(at_own) >= lam * r
        G = G * np.where(at_far < 0.0, -1.0, 1.0)[..., None]
        H = _subtract_square((SA, Sb, Sc), G)  # sign-invariant in G
        g0 = _plane_values(G[0], ca)
        axis = diff / d[:, None]
    a, b = (lambda i: hubs[i][0].id), (lambda i: hubs[i][1].id)
    errors = _first_errors(given, [
        (~np.isfinite(k) | (k == 0.0), lambda i: DegenerateBeamError(
            f"beam between {a(i)!r} and {b(i)!r} has k={beams[i].k}")),
        (d == 0.0, lambda i: CoincidentHubsError(f"hubs {a(i)!r} and {b(i)!r} are coincident")),
        (miss[0], lambda i: PlaneMissesSphereError(f"tangency plane misses hub sphere {a(i)!r}")),
        (miss[1], lambda i: PlaneMissesSphereError(f"tangency plane misses hub sphere {b(i)!r}")),
        # A finite |grad G| and H_a make both planes finite too.
        (~(np.isfinite(lam) & np.isfinite(_coeffs(*(h[0] for h in H))).all(axis=1)),
         lambda i: DegenerateBeamError(f"beam between {a(i)!r} and {b(i)!r} has "
                                       f"k={beams[i].k}: its tangency planes overflow")),
    ])
    return BeamStack(beams, hubs, errors, G, H, np.stack([axis, -axis]), c, r, d, lam, g0)


def beam_quador(hub_a: Hub, hub_b: Hub, k: float) -> BeamGeometry:
    """Construct the beam quador tangent to both hub spheres.

    The tangency planes must cut their spheres (``|G(c)| / |grad G| < r`` at
    each end), otherwise :class:`PlaneMissesSphereError` names the offending
    hub.  A zero or non-finite ``k``, or one so small that the tangency
    planes overflow, raises :class:`DegenerateBeamError`, and a bad hub the
    error :func:`sphere_quadric` raises for it.  This is one row of the
    stacked construction that lattice loading uses.
    """
    spheres = _spheres((hub_a, hub_b))
    failed = next((e for e in spheres.errors if e), None)
    return _build_beams([failed or (Beam("", hub_a.id, hub_b.id, k), 0, 1)], spheres)[0]


def _stub_rows(views):
    """Per stub view (None for none): its ``G`` row ``(m, 4)``, ``H`` rows
    ``(A, b, c)``, ``axis`` ``(m, 3)``, hub center ``(m, 3)`` and hub radius
    ``(m,)``, read from its beam stack at (row, end); NaN for None."""
    out = [np.full((len(views), *s), np.nan) for s in ((4,), (3, 3), (3,), (), (3,), (3,), ())]
    by_stack: dict[int, tuple[BeamStack, list]] = {}
    for i, v in enumerate(views):
        if v is not None:
            by_stack.setdefault(id(v.stack), (v.stack, []))[1].append((i, v.end, v.row))
    for stack, at in by_stack.values():
        i, end, row = np.array(at).T
        for o, a in zip(out, (stack.G, *stack.H, stack.axis, stack.center, stack.radius)):
            o[i] = a[end, row]
    G, A, b, c, axis, center, radius = out
    return G, (A, b, c), axis, center, radius


def _rho_sq(r_a: float, lam: float, g0: float, s: float) -> float:
    """``rho^2 = r_a^2 + (lam*s + g0)^2 - s^2`` on Python floats, whose ``**`` is libm's pow."""
    return r_a**2 + (lam * s + g0) ** 2 - s * s


def beam_radius(geom: BeamGeometry, s: float) -> float | None:
    """Cross-section radius at axial distance ``s`` from the hub_a center, from
    the surface-of-revolution property (:func:`_rho_sq`); returns ``None``
    where the quador has no real section.
    """
    rho_sq = _rho_sq(geom.stub_a.hub.radius, geom.lam, geom.g0, s)
    if rho_sq < 0.0:
        return None
    return math.sqrt(rho_sq)


def stub_views_at_hub(lattice: Lattice, hub_id: str) -> list[StubView]:
    """One :class:`StubView` per beam at the hub, or a copy of the error building one raised."""
    views = lattice._resolved.stubs.get(hub_id)
    if views is None:
        raise UnknownHubError(f"no hub with id {hub_id!r}")
    if isinstance(views, QuadorError):
        raise type(views)(*views.args)  # a copy: the cached error never holds a caller's frames
    return list(views)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # always "error"
    code: str
    subject: str
    message: str


@dataclass
class ValidationReport:
    entries: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> list[ValidationIssue]:
        return [e for e in self.entries if e.severity == "error"]

    def add_error(self, code: str, subject: str, message: str):
        self.entries.append(ValidationIssue("error", code, subject, message))

    def codes(self) -> set[str]:
        return {e.code for e in self.entries}


@dataclass(frozen=True, eq=False)
class _Resolution:
    """Everything built from one lattice, each part once."""

    hubs: dict[str, Hub]  # first match wins on duplicate ids
    spheres: _Spheres  # one row per lattice hub
    beams: dict[str, Beam]  # first match wins on duplicate ids
    geometry: BeamStack  # one row per lattice beam
    stubs: dict[str, tuple[StubView, ...] | QuadorError]  # per hub id
    locality: dict[str, float]  # fillet-clipping ball radius per hub id
    fillets: FilletStack  # one row per spec; errors[i] is its error, or None
    errors: tuple[ValidationIssue, ...]  # what the build pass recorded


def validate_lattice(lattice: Lattice) -> ValidationReport:
    """Check structural and geometric consistency; never raises.

    Errors: duplicate or missing ids and self-loops; otherwise the coded error
    that building a hub, beam or fillet raised, once, under that part.  A part
    at a failed hub or beam is not built, so it is not reported again.  These
    are the build pass's records, so the first call on a lattice builds it.
    """
    return ValidationReport(list(lattice._resolved.errors))


def _resolve(lattice: Lattice) -> _Resolution:
    from .fillet import _build, _fillet_rows  # fillet imports this module

    report = ValidationReport()

    # Hub spheres, then beams, then fillets, each in one stacked call.  A beam at a
    # missing hub holds the error validation reports for it; one at a failed hub is
    # not built, and that hub's error stands.
    spheres = _spheres(lattice.hubs)
    index: dict[str, int] = {}  # per hub id, its first hub's row
    for i, (h, error) in enumerate(zip(lattice.hubs, spheres.errors)):
        if h.id in index:
            report.add_error("DUPLICATE_ID", h.id, f"duplicate hub id {h.id!r}")
        if error:
            report.add_error(error.code, h.id, str(error))
        index.setdefault(h.id, i)
    hubs = {hub_id: lattice.hubs[i] for hub_id, i in index.items()}

    rows, unknowns = [], []
    for b in lattice.beams:
        ends = [index.get(hid) for hid in (b.hub_a, b.hub_b)]
        missing = [hid for hid, i in zip((b.hub_a, b.hub_b), ends) if i is None]
        unknown = MissingIdError(f"beam {b.id!r} references unknown hub(s) {missing}") \
            if missing else None
        failed = (unknown if i is None else spheres.errors[i] for i in ends)
        rows.append(next((e for e in failed if e), None) or (b, *ends))
        unknowns.append(unknown)
    geometry = _build_beams(rows, spheres)

    beams: dict[str, Beam] = {}
    incident: dict[str, list[tuple[Beam, int]]] = {}
    for i, (b, row, unknown, error) in enumerate(
            zip(lattice.beams, rows, unknowns, geometry.errors)):
        if b.id in beams:
            report.add_error("DUPLICATE_ID", b.id, f"duplicate beam id {b.id!r}")
        beams.setdefault(b.id, b)
        if b.hub_a == b.hub_b:
            report.add_error("SELF_LOOP", b.id, f"beam {b.id!r} joins a hub to itself")
        elif unknown:
            report.add_error(unknown.code, b.id, str(unknown))
        elif error and error is not row:
            report.add_error(error.code, b.id, f"beam {b.id!r}: {error}")
        for hub_id in dict.fromkeys((b.hub_a, b.hub_b)):
            incident.setdefault(hub_id, []).append((b, i))

    # Per hub: its end of each incident beam (or the first error of its sphere or beams),
    # and its fillet clipping radius: nearest connected hub (2r if none), clamped to hold
    # the sphere.
    stubs: dict[str, tuple[StubView, ...] | QuadorError] = {}
    locality = {}
    for hub_id, hub in hubs.items():
        pairs = incident.get(hub_id, ())
        others = (b.hub_b if b.hub_a == hub_id else b.hub_a for b, _ in pairs)
        dists = [math.dist(hub.center, hubs[o].center) for o in others if o in hubs]
        locality[hub_id] = max(min(dists) if dists else 2.0 * hub.radius, 1.25 * hub.radius)
        errors = (spheres.errors[index[hub_id]], *(geometry.errors[i] for _, i in pairs))
        failed = [e for e in errors if e]
        stubs[hub_id] = failed[0] if failed else tuple(
            geometry.stubs[i][0 if b.hub_a == hub_id else 1] for b, i in pairs)

    # Each fillet records its builder's error in spec order; one that holds its failed
    # hub's error records nothing, as that error stands.
    stack = _build(_fillet_rows(lattice.fillets, hubs, beams, stubs))
    for fs, error in zip(lattice.fillets, stack.errors):
        if error and error is not stubs.get(fs.hub):
            report.add_error(error.code, fillet_key(fs.hub, fs.beam_i, fs.beam_j), str(error))
    return _Resolution(hubs, spheres, beams, geometry, stubs, locality, stack,
                       tuple(report.entries))

