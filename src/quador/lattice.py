"""Lattice data model and beam quador construction.

A lattice is hubs (spheres), beams (surface-of-revolution quadrics tangent
to both endpoint spheres) and fillet specifications.  Each beam is fixed by
one scalar ``k``: with ``L = S_a - S_b`` (always linear), the tangency
planes are ``G_a = (L/k + k)/2`` and ``G_b = G_a - k``, which makes
``S_a - G_a^2`` and ``S_b - G_b^2`` the *same* quadric identically.  ``G``
forms are sign-normalized positive toward the far hub, which leaves the
beam quadric unchanged.

A beam is built as its two stub views, ``H = S - G^2`` on each end's hub
sphere, and fillets, assembly and verify all read those same objects.

Everything here is immutable after construction and safe for concurrent
reads.  Each lattice builds each hub sphere, beam (its two stubs) and fillet
once, on first use, and records the errors that building them raised
(``_resolve``, the build pass); it raises copies of those errors, never
the cached instances.  The warning checks read the built parts in
a separate pass (``_warning_pass``) that only :func:`validate_lattice` runs,
once per lattice, so loading and assembling a valid lattice never pay for it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .algebra import LinearForm, Quadric, _freeze, _stack_rows, stacked_values, subtract_square
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

    @cached_property
    def _warnings(self) -> tuple[ValidationIssue, ...]:
        return _warning_pass(self)


def fillet_key(hub_id: str, beam_i: str, beam_j: str) -> str:
    """The ``hub:beam_i+beam_j`` name of a fillet in reports, labels and outputs."""
    return f"{hub_id}:{beam_i}+{beam_j}"


# The largest radius whose square is finite; above it ``radius**2`` raises.
_MAX_RADIUS = math.sqrt(sys.float_info.max)


def sphere_quadric(hub: Hub) -> Quadric:
    """Implicit sphere ``|x - c|^2 - r^2``: negative inside, increasing outward;
    rejects a radius that is not positive, and a radius or center whose square overflows."""
    if not hub.radius > 0.0:
        raise NonPositiveRadiusError(f"hub {hub.id!r} has radius {hub.radius}")
    if hub.radius > _MAX_RADIUS:
        raise RadiusOverflowError(f"hub {hub.id!r} radius is too large: its square overflows")
    c = np.asarray(hub.center, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is the coded error below
        cc = float(c @ c)
    if not math.isfinite(cc):
        raise CenterOverflowError(f"hub {hub.id!r} center is too large: its square overflows")
    return Quadric(np.eye(3), -c, cc - hub.radius**2)


@dataclass(frozen=True, eq=False)
class StubView:
    """A beam as seen from one of its hubs.

    ``G`` is the beam's tangency plane at this hub, sign-normalized positive
    toward the far hub, and ``H = S_hub - G^2`` on this hub's sphere, so the
    sphere-stub identity holds bitwise.  ``axis`` is the unit direction
    toward the far hub.
    """

    hub: Hub
    beam: Beam
    G: LinearForm
    H: Quadric
    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", _freeze(self.axis))


@dataclass(frozen=True, eq=False)
class BeamGeometry:
    """A constructed beam as its two stub views; ``stub_a.H`` is the beam quadric."""

    beam: Beam
    stub_a: StubView  # at hub_a; its axis points hub_a -> hub_b
    stub_b: StubView  # at hub_b
    length: float  # center distance
    lam: float  # |grad G_a| = |grad G_b|
    g0: float  # G_a at the hub_a center


def beam_quador(hub_a: Hub, hub_b: Hub, k: float) -> BeamGeometry:
    """Construct the beam quador tangent to both hub spheres.

    The tangency planes must cut their spheres (``|G(c)| / |grad G| < r`` at
    each end), otherwise :class:`PlaneMissesSphereError` names the offending
    hub.  A zero or non-finite ``k``, or one so small that the tangency
    planes overflow, raises :class:`DegenerateBeamError`, and a bad hub the
    error :func:`sphere_quadric` raises for it.
    """
    return _build_beam(Beam("", hub_a.id, hub_b.id, k), hub_a, hub_b,
                       sphere_quadric(hub_a), sphere_quadric(hub_b))


def _build_beam(beam: Beam, hub_a: Hub, hub_b: Hub,
                sphere_a: Quadric, sphere_b: Quadric) -> BeamGeometry:
    """Both stubs of ``beam`` between two hubs, given the hubs' spheres."""
    k = beam.k
    if not math.isfinite(k) or k == 0.0:
        raise DegenerateBeamError(f"beam between {hub_a.id!r} and {hub_b.id!r} has k={k}")
    ca = np.asarray(hub_a.center, dtype=float)
    cb = np.asarray(hub_b.center, dtype=float)
    d = float(np.linalg.norm(cb - ca))
    if d == 0.0:
        raise CoincidentHubsError(f"hubs {hub_a.id!r} and {hub_b.id!r} are coincident")

    # L = S_a - S_b is linear; divide out k to get the tangency planes.  A tiny
    # k overflows them; that is the coded error below, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        gl = 2.0 * (cb - ca)
        cl = float(ca @ ca) - hub_a.radius**2 - float(cb @ cb) + hub_b.radius**2
        G_a = LinearForm(gl / (2.0 * k), cl / (2.0 * k) + k / 2.0)
        G_b_raw = LinearForm(G_a.g, G_a.c0 - k)
        H = subtract_square(sphere_a, G_a)
        lam = G_a.grad_norm()
        for G, c, hub in ((G_a, ca, hub_a), (G_b_raw, cb, hub_b)):
            if abs(G.value(c)) >= lam * hub.radius:
                raise PlaneMissesSphereError(f"tangency plane misses hub sphere {hub.id!r}")
    # A finite |grad G| and H make both planes finite too.
    if not (math.isfinite(lam) and np.isfinite(H.coeffs()).all()):
        raise DegenerateBeamError(
            f"beam between {hub_a.id!r} and {hub_b.id!r} has k={k}: its tangency planes overflow"
        )

    if G_a.value(cb) < 0.0:
        G_a = -G_a
    G_b = -G_b_raw if G_b_raw.value(ca) < 0.0 else G_b_raw

    axis = (cb - ca) / d
    return BeamGeometry(
        beam=beam,
        stub_a=StubView(hub_a, beam, G_a, H, axis),  # H is sign-invariant in G_a
        stub_b=StubView(hub_b, beam, G_b, subtract_square(sphere_b, G_b), -axis),
        length=d,
        lam=lam,
        g0=G_a.value(ca),
    )


def beam_radius(geom: BeamGeometry, s: float) -> float | None:
    """Cross-section radius at axial distance ``s`` from the hub_a center.

    From the surface-of-revolution property,
    ``rho^2 = r_a^2 + (lam*s + g0)^2 - s^2``; returns ``None`` where the
    quador has no real section.
    """
    rho_sq = geom.stub_a.hub.radius**2 + (geom.lam * s + geom.g0) ** 2 - s * s
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
    severity: str  # "error" | "warning"
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

    def add_warning(self, code: str, subject: str, message: str):
        self.entries.append(ValidationIssue("warning", code, subject, message))

    def codes(self) -> set[str]:
        return {e.code for e in self.entries}


_WEDGE_SAMPLES = 512  # points sampled by each fillet check in validation


@dataclass(frozen=True, eq=False)
class _Resolution:
    """Everything built from one lattice, each part once."""

    hubs: dict[str, Hub]  # first match wins on duplicate ids
    spheres: dict[str, Quadric | QuadorError]  # per hub id: its sphere, or the error
    beams: dict[str, Beam]  # first match wins on duplicate ids
    geometry: tuple[BeamGeometry | QuadorError, ...]  # one per lattice beam
    stubs: dict[str, tuple[StubView, ...] | QuadorError]  # per hub id
    locality: dict[str, float]  # fillet-clipping ball radius per hub id
    fillets: FilletStack  # one row per spec; errors[i] is its error, or None
    errors: tuple[ValidationIssue, ...]  # what the build pass recorded


def validate_lattice(lattice: Lattice) -> ValidationReport:
    """Check structural and geometric consistency; never raises.

    Errors: duplicate or missing ids and self-loops; otherwise the coded error
    that building a hub, beam or fillet raised, once, under that part.  A part
    at a failed hub or beam is not built, so it is not reported again.
    Warnings: overlapping hub spheres, built fillets still active on their
    locality sphere (sampled), and overlapping fillet wedges at hubs with
    more than two beams (sampled).  Every error comes before every warning.
    The warnings are computed on a lattice's first call and cached;
    :func:`~quador.latticefile.load_lattice` and
    :func:`~quador.solid.build_assembly` check the errors only.
    """
    return ValidationReport([*lattice._resolved.errors, *lattice._warnings])


def _resolve(lattice: Lattice) -> _Resolution:
    from .fillet import _build, _fillet_rows  # fillet imports this module

    report = ValidationReport()

    hubs: dict[str, Hub] = {}
    spheres: dict[str, Quadric | QuadorError] = {}
    for h in lattice.hubs:
        if h.id in hubs:
            report.add_error("DUPLICATE_ID", h.id, f"duplicate hub id {h.id!r}")
        try:
            sphere = sphere_quadric(h)
        except QuadorError as exc:
            report.add_error(exc.code, h.id, str(exc))
            sphere = type(exc)(*exc.args)  # cached: a copy that holds no frame of this pass
        hubs.setdefault(h.id, h)
        spheres.setdefault(h.id, sphere)

    beams: dict[str, Beam] = {}
    incident: dict[str, list] = {}
    geometry = []
    for b in lattice.beams:
        if b.id in beams:
            report.add_error("DUPLICATE_ID", b.id, f"duplicate beam id {b.id!r}")
        beams.setdefault(b.id, b)
        missing = [hid for hid in (b.hub_a, b.hub_b) if hid not in hubs]
        unknown = MissingIdError(f"beam {b.id!r} references unknown hub(s) {missing}") \
            if missing else None
        if b.hub_a == b.hub_b:
            report.add_error("SELF_LOOP", b.id, f"beam {b.id!r} joins a hub to itself")
        elif missing:
            report.add_error(unknown.code, b.id, str(unknown))
        # A beam at a missing hub holds the error validation reports for it; one
        # at a failed hub is not built, and that hub's error stands.
        ends = [spheres.get(hid, unknown) for hid in (b.hub_a, b.hub_b)]
        geom = next((e for e in ends if isinstance(e, QuadorError)), None)
        if geom is None:
            try:
                geom = _build_beam(b, hubs[b.hub_a], hubs[b.hub_b], *ends)
            except QuadorError as exc:
                if b.hub_a != b.hub_b:
                    report.add_error(exc.code, b.id, f"beam {b.id!r}: {exc}")
                geom = type(exc)(*exc.args)
        geometry.append(geom)
        for hub_id in dict.fromkeys((b.hub_a, b.hub_b)):
            incident.setdefault(hub_id, []).append((b, geom))

    # Per hub: its end of each incident beam (or the first error of its sphere or beams),
    # and its fillet clipping radius: nearest connected hub (2r if none), clamped to hold
    # the sphere.
    stubs: dict[str, tuple[StubView, ...] | QuadorError] = {}
    locality = {}
    for hub in hubs.values():
        pairs = incident.get(hub.id, ())
        others = (b.hub_b if b.hub_a == hub.id else b.hub_a for b, _ in pairs)
        dists = [math.dist(hub.center, hubs[o].center) for o in others if o in hubs]
        locality[hub.id] = max(min(dists) if dists else 2.0 * hub.radius, 1.25 * hub.radius)
        failed = [e for e in (spheres[hub.id], *(g for _, g in pairs))
                  if isinstance(e, QuadorError)]
        stubs[hub.id] = failed[0] if failed else tuple(
            g.stub_a if b.hub_a == hub.id else g.stub_b for b, g in pairs)

    # Every fillet is built in one stacked call, and each records its builder's error in
    # spec order; one that holds its failed hub's error records nothing, as that error stands.
    stack = _build(_fillet_rows(lattice.fillets, hubs, beams, stubs))
    for fs, error in zip(lattice.fillets, stack.errors):
        if error and error is not stubs.get(fs.hub):
            report.add_error(error.code, fillet_key(fs.hub, fs.beam_i, fs.beam_j), str(error))
    return _Resolution(hubs, spheres, beams, tuple(geometry), stubs, locality, stack,
                       tuple(report.entries))


def _warning_pass(lattice: Lattice) -> tuple[ValidationIssue, ...]:
    """The warnings on a lattice's built parts, in this order: overlapping hub
    spheres, each built fillet still active on its locality sphere, and
    overlapping fillet wedges at each hub with more than two beams."""
    resolved = lattice._resolved
    report = ValidationReport()
    for i, h1 in enumerate(lattice.hubs):
        for h2 in lattice.hubs[i + 1:]:
            gap = math.dist(h1.center, h2.center)
            if gap < h1.radius + h2.radius:
                report.add_warning(
                    "HUB_OVERLAP",
                    f"{h1.id}+{h2.id}",
                    f"hub spheres {h1.id!r} and {h2.id!r} overlap",
                )

    stack = resolved.fillets
    E1, E2 = stack.planes[2:]
    forms = _stack_rows(E1, E2, stack.Q)  # rows 3i to 3i + 2 are fillet i's E1, E2 and Q
    fillet_wedges: dict[str, list[int]] = {}
    dirs = np.random.default_rng(0).normal(size=(_WEDGE_SAMPLES, 3))  # same for every fillet
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for i, (stub1, stub2) in enumerate(stack.stubs):
        if stack.errors[i]:
            continue
        hub = stub1.hub
        fillet_wedges.setdefault(hub.id, []).append(i)
        boundary = np.asarray(hub.center) + resolved.locality[hub.id] * dirs
        e1, e2, q = stacked_values(tuple(f[3 * i:3 * i + 3] for f in forms), boundary).T
        active = int(np.count_nonzero((e1 >= 0) & (e2 >= 0) & (q <= 0)))
        if active:
            report.add_warning(
                "FILLET_ACTIVE_AT_LOCALITY",
                fillet_key(hub.id, stub1.beam.id, stub2.beam.id),
                f"fillet solid reaches the locality sphere "
                f"({active}/{_WEDGE_SAMPLES} sampled directions); it will be clipped",
            )

    for hub_id, wedges in fillet_wedges.items():
        if len(wedges) < 2 or len(resolved.stubs[hub_id]) <= 2:
            continue
        hub = resolved.hubs[hub_id]
        r = hub.radius
        box = np.random.default_rng(1).uniform(-2 * r, 2 * r, size=(_WEDGE_SAMPLES, 3))
        positive = stacked_values(_stack_rows(E1[wedges], E2[wedges]),
                                  np.asarray(hub.center) + box) > 0
        in_wedge = positive[:, 0::2] & positive[:, 1::2]  # (point, wedge)
        # Wedge pairs a < b with a sample point in both, in (a, b) order.
        for a, b in zip(*np.nonzero(np.triu(in_wedge.T @ in_wedge, 1))):
            report.add_warning(
                "FILLET_WEDGE_OVERLAP",
                hub_id,
                f"fillet wedges {a} and {b} at hub {hub_id!r} overlap "
                "(sampled); tangency between the patches is not guaranteed",
            )
    return tuple(report.entries)
