"""Quadric fillets between pairs of stubs at a hub.

Given hub-local stub quadrics ``H1 = S - G1^2`` and ``H2 = S - G2^2``, the
planes ``E1 = a*F+ + b*F-`` and ``E2 = a*F+ - b*F-`` (with ``F- = G2 - G1``,
``F+ = G2 + G1``) make ``H1 - E1^2`` and ``H2 - E2^2`` the same quadric
exactly when ``a*b = 1/4``.  That shared quadric is the fillet: tangent to
each stub along its intersection with the corresponding plane, and tangent
to the hub sphere where both vanish.

``beta`` is the one user-facing knob; ``alpha`` is always derived as
``1/(4*beta)``.  Degenerate (plane-pair) fillets are legitimate members of
the family and are flagged as chamfer-like rather than rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    LinearForm,
    Quadric,
    classify_quadric,
    principal_curvatures,
    rel_coeff_residual,
    subtract_square,
    QuadricClass,
    _freeze,
)
from .conics import COMPACT_CLASSES, Conic, ConicClass, intersect_quadric_plane
from .errors import (
    EmptyConicError,
    FilletPairMismatchError,
    IdentityViolationError,
    NoBisectorIntersectionError,
    NonPositiveBetaError,
    ParallelStubsError,
    WedgeOrientationError,
)
from .lattice import Lattice, FilletSpec, StubView, stub_views_at_hub
from .tolerances import COEFF_REL_TOL, PARALLEL_STUB_TOL

__all__ = [
    "FilletPatch",
    "fillet_planes",
    "build_fillet",
    "build_fillet_for_spec",
    "fillet_residual",
    "fillet_extent",
    "fillet_min_curvature_radius",
]

PLANE_PAIR_CLASSES = frozenset(
    {QuadricClass.PARALLEL_PLANES, QuadricClass.CROSSING_PLANES, QuadricClass.SINGLE_PLANE}
)


def fillet_planes(
    G1: LinearForm, G2: LinearForm, beta: float
) -> tuple[LinearForm, LinearForm, float]:
    """The pair of fillet planes for a given ``beta``; returns (E1, E2, alpha).

    Raises :class:`NonPositiveBetaError` for a ``beta`` not positive and finite,
    and :class:`ParallelStubsError` for parallel stub planes (no corner to fill).
    """
    if not (beta > 0.0) or not math.isfinite(beta):
        raise NonPositiveBetaError(f"fillet beta={beta}")
    cross = np.cross(G1.g, G2.g)
    if np.linalg.norm(cross) <= PARALLEL_STUB_TOL * G1.grad_norm() * G2.grad_norm():
        raise ParallelStubsError("stub planes are parallel; no corner to fill")
    alpha = 1.0 / (4.0 * beta)
    f_minus = G2 - G1
    f_plus = G2 + G1
    e1 = f_plus.scaled(alpha) + f_minus.scaled(beta)
    e2 = f_plus.scaled(alpha) - f_minus.scaled(beta)
    return e1, e2, alpha


def fillet_residual(
    H1: Quadric, H2: Quadric, E1: LinearForm, E2: LinearForm
) -> Quadric:
    """``(H1 - E1^2) - (H2 - E2^2)``.

    For the construction's planes this equals ``(1 - 4*alpha*beta) F+ F-``
    coefficientwise, hence the zero quadric exactly when ``alpha*beta = 1/4``.
    """
    return subtract_square(H1, E1) - subtract_square(H2, E2)


@dataclass(frozen=True, eq=False)
class FilletPatch:
    """A built fillet between two stubs at one hub."""

    hub_id: str
    beam_ids: tuple[str, str]
    alpha: float
    beta: float
    F_plus: LinearForm
    F_minus: LinearForm
    E1: LinearForm
    E2: LinearForm
    Q: Quadric
    conic1: Conic
    conic2: Conic
    hub_center: np.ndarray
    hub_radius: float
    bisector: np.ndarray  # unit outward corner bisector
    H1: Quadric
    H2: Quadric

    def __post_init__(self):
        for name in ("hub_center", "bisector"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def is_chamfer(self) -> bool:
        """True when the fillet quadric degenerates to a plane pair."""
        return classify_quadric(self.Q).label in PLANE_PAIR_CLASSES


def _tangency_conic(H: Quadric, E: LinearForm) -> Conic:
    conic = intersect_quadric_plane(H, E)
    if conic.klass in (ConicClass.EMPTY, ConicClass.POINT):
        raise EmptyConicError(
            "fillet plane misses the stub quador (invalid beta for this geometry)"
        )
    return conic


def build_fillet(stub1: StubView, stub2: StubView, beta: float) -> FilletPatch:
    """Build the fillet patch between two stubs sharing a hub.

    The cross-check ``H1 - E1^2 == H2 - E2^2`` is asserted coefficientwise
    (:class:`IdentityViolationError` on failure indicates corrupt inputs).
    Both planes must be positive at the outward-bisector probe
    ``c + r * (u1 + u2)/|u1 + u2|``; when both are negative the pair is
    flipped together (which leaves the fillet quadric unchanged), and a
    mixed-sign probe raises :class:`WedgeOrientationError`.
    """
    if stub1.hub.id != stub2.hub.id:
        raise ValueError("stubs must share a hub")
    hub = stub1.hub
    e1, e2, alpha = fillet_planes(stub1.G, stub2.G, beta)

    q1 = subtract_square(stub1.H, e1)
    q2 = subtract_square(stub2.H, e2)
    if not rel_coeff_residual(q1 - q2, q1) <= COEFF_REL_TOL:  # a NaN residual fails too
        raise IdentityViolationError(
            "H1 - E1^2 and H2 - E2^2 disagree; upstream data is corrupt"
        )

    w = stub1.axis + stub2.axis
    wn = np.linalg.norm(w)
    if wn <= PARALLEL_STUB_TOL:
        raise ParallelStubsError("stub axes are opposite; no outward bisector")
    w = w / wn
    probe = np.asarray(hub.center) + hub.radius * w
    p1, p2 = e1.value(probe), e2.value(probe)
    if p1 < 0.0 and p2 < 0.0:
        e1, e2 = -e1, -e2
        p1, p2 = -p1, -p2
    if p1 <= 0.0 or p2 <= 0.0:
        raise WedgeOrientationError(
            "fillet wedge does not face the outward corner bisector"
        )

    return FilletPatch(
        hub_id=hub.id,
        beam_ids=(stub1.beam.id, stub2.beam.id),
        alpha=alpha,
        beta=beta,
        F_plus=stub2.G + stub1.G,
        F_minus=stub2.G - stub1.G,
        E1=e1,
        E2=e2,
        Q=q1,
        conic1=_tangency_conic(stub1.H, e1),
        conic2=_tangency_conic(stub2.H, e2),
        hub_center=np.asarray(hub.center, dtype=float),
        hub_radius=hub.radius,
        bisector=w,
        H1=stub1.H,
        H2=stub2.H,
    )


def build_fillet_from_views(views: tuple[StubView, ...] | list[StubView],
                            spec: FilletSpec) -> FilletPatch:
    """Build a spec's patch from the stub views at its hub."""
    if spec.beam_i == spec.beam_j:
        raise FilletPairMismatchError("fillet names one beam twice")
    by_beam = {v.beam.id: v for v in views}
    for bid in (spec.beam_i, spec.beam_j):
        if bid not in by_beam:
            raise FilletPairMismatchError(f"beam {bid!r} is not incident to hub {spec.hub!r}")
    return build_fillet(by_beam[spec.beam_i], by_beam[spec.beam_j], spec.beta)


def build_fillet_for_spec(lattice: Lattice, spec: FilletSpec) -> FilletPatch:
    """Resolve a :class:`FilletSpec` against a lattice and build the patch."""
    return build_fillet_from_views(stub_views_at_hub(lattice, spec.hub), spec)


def _max_distance_on_conic(conic: Conic, origin: np.ndarray) -> float:
    """Maximum distance from ``origin`` over a compact conic, in closed form.

    With ``w`` the center's offset from ``origin`` and orthogonal semi-axes
    ``a1``, ``a2``, the stationary points of ``|w + cos(t) a1 + sin(t) a2|^2``
    solve ``q cos t - p sin t + r sin t cos t = 0`` (``p = w.a1``,
    ``q = w.a2``, ``r = |a2|^2 - |a1|^2``).  ``u = tan(t/2)`` makes that the
    quartic ``-q u^4 - 2(p+r) u^3 + 2(r-p) u + q = 0``; its roots' real parts
    and ``t = pi`` (the root at ``u = inf``) are polished by Newton steps.
    Every candidate lies on the conic, so a spurious root can only lower the
    maximum; an all-zero quartic (constant distance) leaves ``t = pi``.
    """
    if conic.klass is ConicClass.POINT:
        p = conic.point3d(conic.center[0], conic.center[1])
        return float(np.linalg.norm(p - origin))
    center3 = conic.point3d(conic.center[0], conic.center[1])
    d1, d2 = conic.axes
    a1 = conic.radii[0] * (d1[0] * conic.frame.u + d1[1] * conic.frame.v)
    a2 = conic.radii[1] * (d2[0] * conic.frame.u + d2[1] * conic.frame.v)
    w = center3 - origin
    p, q, r = float(w @ a1), float(w @ a2), float(a2 @ a2 - a1 @ a1)
    u = np.roots([-q, -2.0 * (p + r), 0.0, 2.0 * (r - p), q])
    theta = np.append(2.0 * np.arctan(u.real), math.pi)
    for _ in range(2):
        s, c = np.sin(theta), np.cos(theta)
        slope = r * (c * c - s * s) - p * c - q * s
        theta = theta - np.divide(
            q * c - p * s + r * s * c, slope, out=np.zeros_like(theta), where=slope != 0.0
        )
    pts = w + np.outer(np.cos(theta), a1) + np.outer(np.sin(theta), a2)
    return math.sqrt(float(np.max(np.einsum("ij,ij->i", pts, pts))))


def fillet_extent(patch: FilletPatch) -> float:
    """How far from the hub center the fillet reaches along the stubs.

    Maximum distance over both tangency conics, each found in closed form
    from the stationary points of the squared distance (a quartic in
    ``tan(t/2)``, see :func:`_max_distance_on_conic`); ``math.inf`` when
    either conic is non-compact (parabola, hyperbola, line pairs).
    """
    if (
        patch.conic1.klass not in COMPACT_CLASSES
        or patch.conic2.klass not in COMPACT_CLASSES
    ):
        return math.inf
    return max(
        _max_distance_on_conic(patch.conic1, patch.hub_center),
        _max_distance_on_conic(patch.conic2, patch.hub_center),
    )


def fillet_min_curvature_radius(patch: FilletPatch) -> float:
    """Smallest radius of curvature of the fillet at the bisector probe.

    Intersects the outward bisector ray with the fillet surface (smallest
    positive root), evaluates the principal curvatures there, and returns
    ``1/max(|k1|, |k2|)``.  Plane-pair fillets have zero curvature and
    report ``math.inf``.  Raises :class:`NoBisectorIntersectionError` when
    the ray misses the surface.
    """
    if patch.is_chamfer:
        return math.inf
    c = patch.hub_center
    w = patch.bisector
    qa = float(w @ patch.Q.A @ w)
    qb = float(w @ patch.Q.A @ c + patch.Q.b @ w)
    qc = patch.Q.value(c)
    roots = []
    if qa == 0.0:
        if qb != 0.0:
            roots.append(-qc / (2.0 * qb))
    else:
        disc = qb * qb - qa * qc
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots.extend([(-qb - sq) / qa, (-qb + sq) / qa])
    positive = sorted(s for s in roots if s > 0.0)
    if not positive:
        raise NoBisectorIntersectionError("bisector ray misses the fillet surface")
    probe = c + positive[0] * w
    k1, k2 = principal_curvatures(patch.Q, probe)
    k_max = max(abs(k1), abs(k2))
    return math.inf if k_max == 0.0 else 1.0 / k_max
