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

Fillets are built as rows of arrays (:class:`FilletStack`): a lattice's
fillets in one stacked call, and ``verify``'s every fillet at every beta of
its grid in another.  Each row takes the float operations, in the order,
that the one fillet takes alone, so a row keeps its bits however the rows
are stacked; :func:`build_fillet` is the one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    LinearForm,
    Quadric,
    QuadricClass,
    classify_quadric,
    subtract_square,
    _cross3,
    _curvatures,
    _dots,
    _freeze,
    _minus,
    _plane_values,
    _rel_residual,
    _subtract_square,
    stacked_values,
)
from .conics import COMPACT_CLASSES, ConicClass, _Sections, _sections
from .errors import (
    EmptyConicError,
    FilletPairMismatchError,
    IdentityViolationError,
    MissingIdError,
    NoBisectorIntersectionError,
    NonPositiveBetaError,
    ParallelStubsError,
    QuadorError,
    SingularPointError,
    WedgeOrientationError,
)
from .lattice import (FilletSpec, Lattice, StubView, _first_errors, _stub_rows, _view, fillet_key,
                      stub_views_at_hub)
from .tolerances import CLASSIFY_TOL, COEFF_REL_TOL, PARALLEL_STUB_TOL

__all__ = [
    "FilletPatch",
    "FilletStack",
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
    with np.errstate(all="ignore"):
        alpha, (_, _, e1, e2), errors = _planes(*(np.array([[*G.g, G.c0]]) for G in (G1, G2)),
                                                [beta])
    for bad, error in errors:
        if bad[0]:
            raise error(0)
    return LinearForm(e1[0, :3], e1[0, 3]), LinearForm(e2[0, :3], e2[0, 3]), float(alpha[0])


def _planes(G1: np.ndarray, G2: np.ndarray, betas):
    """:func:`fillet_planes` row by row, for stub plane rows ``(m, 4)`` of
    ``(g, c0)`` and ``betas``: alpha, the planes F+, F-, E1 and E2 as such
    rows, and the first entries of the row-error table (see :func:`_build`)."""
    beta = np.array(betas, dtype=float)
    alpha = 1.0 / (4.0 * beta)
    fp, fm = G2 + G1, G2 - G1
    e1 = fp * alpha[:, None] + fm * beta[:, None]
    e2 = fp * alpha[:, None] - fm * beta[:, None]
    g1, g2 = G1[:, :3], G2[:, :3]
    cross = _cross3(g1, g2)
    parallel = (np.sqrt(_dots(cross, cross))
                <= PARALLEL_STUB_TOL * np.sqrt(_dots(g1, g1)) * np.sqrt(_dots(g2, g2)))
    return alpha, (fp, fm, e1, e2), [
        (~(beta > 0.0) | ~np.isfinite(beta),
         lambda i: NonPositiveBetaError(f"fillet beta={betas[i]}")),
        (parallel, lambda i: ParallelStubsError("stub planes are parallel; no corner to fill")),
    ]


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
    """A built fillet between two stubs at one hub: ``Q = H1 - E1^2 = H2 - E2^2``
    with ``H1``, ``H2`` the quadrics of ``stub1`` and ``stub2``.  A view of row
    ``row`` of ``stack``: each field is read, and its object built, on each read."""

    stack: FilletStack = field(repr=False)  # its repr holds every row
    row: int

    stub1 = property(lambda p: p.stack.stubs[p.row][0])
    stub2 = property(lambda p: p.stack.stubs[p.row][1])
    alpha = property(lambda p: float(p.stack.alpha[p.row]))
    beta = property(lambda p: float(p.stack.beta[p.row]))
    F_plus, F_minus, E1, E2 = (property(lambda p, k=k: LinearForm(
        p.stack.planes[k, p.row, :3], p.stack.planes[k, p.row, 3])) for k in range(4))
    Q = property(lambda p: Quadric(*(a[p.row] for a in p.stack.Q)))
    conic1 = property(lambda p: p.stack.conic1.conic(p.row))
    conic2 = property(lambda p: p.stack.conic2.conic(p.row))
    bisector = property(lambda p: _freeze(p.stack.bisector[p.row]))  # unit, outward

    @property
    def key(self) -> str:
        """The fillet's ``hub:beam_i+beam_j`` name (:func:`fillet_key`)."""
        return fillet_key(self.stub1.hub.id, self.stub1.beam.id, self.stub2.beam.id)

    @property
    def is_chamfer(self) -> bool:
        """True when the fillet quadric degenerates to a plane pair."""
        Q = self.Q
        return _one(_plane_pairs((Q.A[None], Q.b[None], np.array([Q.c])), (None,))[0])


@dataclass(frozen=True, eq=False)
class FilletStack:
    """Fillets as rows of arrays, row ``i`` for fillet ``i``, each built by
    :func:`_build` from its two stubs and beta: what
    :func:`build_fillet_for_spec` builds for a sequence of specs, and what
    :func:`fillet_extent` and :func:`fillet_min_curvature_radius` read.

    ``errors[i]`` is the coded error building row ``i`` raised (its arrays
    then hold no fillet, and its stubs are None).  ``stack[i]``, ``i`` an
    integer, is row ``i``'s :class:`FilletPatch`, a view that reads the
    arrays, or raises a copy of its error.
    """

    stubs: tuple[tuple[StubView, StubView] | tuple[None, None], ...]
    errors: tuple[QuadorError | None, ...]
    alpha: np.ndarray  # (m,)
    beta: np.ndarray  # (m,)
    planes: np.ndarray  # (4, m, 4): F+, F-, E1 and E2 as rows (g, c0)
    Q: tuple[np.ndarray, np.ndarray, np.ndarray]  # A (m,3,3), b (m,3), c (m,)
    bisector: np.ndarray  # (m, 3)
    center: np.ndarray  # (m, 3) hub centers
    conic1: _Sections  # (m rows) the tangency conics on E1
    conic2: _Sections  # (m rows) the tangency conics on E2

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i: int) -> FilletPatch:
        return _view(self, i, FilletPatch)


def _build(rows) -> FilletStack:
    """Build every fillet row at once; ``rows`` holds per fillet its two stubs
    and beta, or the coded error its spec raised.  Each stub's ``G``, ``H``
    and axis rows are read from its beam stack.

    Row by row this is :func:`build_fillet`: the same float operations in
    the same order, each array op elementwise or a stacked BLAS product of
    one row's shape, and the error of the first entry (mask, error for row
    ``i``) of one ordered table that holds for the row: beta, parallel planes,
    the identity, opposite axes, the wedge, then each plane's tangency conic.
    """
    given = [r if isinstance(r, QuadorError) else None for r in rows]
    live = [(None, None, math.nan) if e else r for r, e in zip(rows, given)]
    s1, s2, betas = ([r[k] for r in live] for k in range(3))
    G1, H1, w1, center, radius = _stub_rows(s1)
    G2, H2, w2, _, _ = _stub_rows(s2)

    with np.errstate(all="ignore"):
        alpha, (fp, fm, e1, e2), errors = _planes(G1, G2, betas)
        q1, q2 = _subtract_square(H1, e1), _subtract_square(H2, e2)
        residual = _rel_residual(_minus(q1, q2), q1)
        w = w1 + w2
        wn = np.sqrt(_dots(w, w))
        w = w / wn[:, None]
        probe = center + radius[:, None] * w
        p1, p2 = (_plane_values(e, probe) for e in (e1, e2))
        sign = np.where((p1 < 0.0) & (p2 < 0.0), -1.0, 1.0)  # flip both: Q is unchanged
        e1, e2, p1, p2 = e1 * sign[:, None], e2 * sign[:, None], p1 * sign, p2 * sign
        planes = np.concatenate([e1, e2])  # both planes' conics in one call, then split
        both = _sections(tuple(np.concatenate(h) for h in zip(H1, H2)), planes[:, :3], planes[:, 3])
        m = len(rows)
        conic1, conic2 = (both._make(f[k] for f in both) for k in (slice(m), slice(m, None)))
    errors += [
        (~(residual <= COEFF_REL_TOL), lambda i: IdentityViolationError(  # NaN fails too
            "H1 - E1^2 and H2 - E2^2 disagree; upstream data is corrupt")),
        (wn <= PARALLEL_STUB_TOL,
         lambda i: ParallelStubsError("stub axes are opposite; no outward bisector")),
        ((p1 <= 0.0) | (p2 <= 0.0),
         lambda i: WedgeOrientationError("fillet wedge does not face the outward corner bisector")),
    ]
    for klass in (conic1.klass, conic2.klass):  # the section's own error, then EMPTY_CONIC
        errors += [([isinstance(k, QuadorError) for k in klass], klass.__getitem__),
                   ([k in (ConicClass.EMPTY, ConicClass.POINT) for k in klass],
                    lambda i: EmptyConicError("fillet plane misses the stub quador "
                                              "(invalid beta for this geometry)"))]
    return FilletStack(tuple(zip(s1, s2)), _first_errors(given, errors), alpha,
                       np.array(betas, dtype=float), np.stack([fp, fm, e1, e2]), q1, w, center,
                       conic1, conic2)


def _as_stack(items) -> tuple[FilletStack, bool]:
    """One patch, a sequence of patches or a stack, as a stack; and whether
    it was one patch.  Patches are rebuilt from their stubs and beta."""
    if isinstance(items, FilletStack):
        return items, False
    one = isinstance(items, FilletPatch)
    return _build([(p.stub1, p.stub2, p.beta) for p in ([items] if one else items)]), one


def _one(outcome):
    """A one-row outcome: its value, or its error raised."""
    if isinstance(outcome, QuadorError):
        raise outcome
    return outcome


def build_fillet(stub1: StubView, stub2: StubView, beta: float) -> FilletPatch:
    """Build the fillet patch between two stubs sharing a hub.

    The cross-check ``H1 - E1^2 == H2 - E2^2`` is asserted coefficientwise
    (:class:`IdentityViolationError` on failure indicates corrupt inputs).
    Both planes must be positive at the outward-bisector probe
    ``c + r * (u1 + u2)/|u1 + u2|``; when both are negative the pair is
    flipped together (which leaves the fillet quadric unchanged), and a
    mixed-sign probe raises :class:`WedgeOrientationError`.  This is one row
    of the stacked construction that :func:`build_fillet_for_spec` and
    lattice loading use.
    """
    if stub1.hub.id != stub2.hub.id:
        raise ValueError("stubs must share a hub")
    return _build([(stub1, stub2, beta)])[0]


def _fillet_rows(specs, hubs, beams, stubs) -> list:
    """Per :class:`FilletSpec`, its two stubs and beta, or the one coded error
    it raises, for lattice loading and :func:`build_fillet_for_spec` alike:
    :class:`MissingIdError` for ids not in ``hubs`` or ``beams``, then what
    ``stubs`` (per hub id, its stub views or error) holds for its hub, then
    :class:`FilletPairMismatchError`."""
    rows = []
    for spec in specs:
        unknown = ([] if spec.hub in hubs else [f"hub {spec.hub!r}"]) + [
            f"beam {bid!r}" for bid in dict.fromkeys((spec.beam_i, spec.beam_j))
            if bid not in beams]
        views = () if unknown else stubs[spec.hub]
        by_beam = {} if isinstance(views, QuadorError) else {v.beam.id: v for v in views}
        off = [bid for bid in (spec.beam_i, spec.beam_j) if bid not in by_beam]
        if unknown:
            rows.append(MissingIdError(f"fillet names unknown {', '.join(unknown)}"))
        elif isinstance(views, QuadorError):
            rows.append(views)
        elif spec.beam_i == spec.beam_j:
            rows.append(FilletPairMismatchError("fillet names one beam twice"))
        elif off:
            rows.append(FilletPairMismatchError(
                f"beam {off[0]!r} is not incident to hub {spec.hub!r}"))
        else:
            rows.append((by_beam[spec.beam_i], by_beam[spec.beam_j], spec.beta))
    return rows


def build_fillet_for_spec(lattice: Lattice, specs):
    """Resolve a :class:`FilletSpec` against a lattice and build the patch;
    given a sequence of specs, build them all at once as a :class:`FilletStack`.

    A spec raises the one coded error that validation records for it: a spec
    naming a hub or beam the lattice does not define raises
    :class:`MissingIdError`.  In a stack, each row holds the error its spec
    raises.
    """
    one = isinstance(specs, FilletSpec)
    specs = [specs] if one else list(specs)
    resolved = lattice._resolved
    stubs = {}
    for hub_id in dict.fromkeys(spec.hub for spec in specs if spec.hub in resolved.hubs):
        try:
            stubs[hub_id] = stub_views_at_hub(lattice, hub_id)
        except QuadorError as exc:
            stubs[hub_id] = exc
    stack = _build(_fillet_rows(specs, resolved.hubs, resolved.beams, stubs))
    return stack[0] if one else stack


def _max_distances(conics: _Sections, rows: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """Maximum distance from ``origins`` over each ellipse or circle in
    ``rows`` of ``conics``, in closed form.

    With ``w`` the center's offset from the origin and orthogonal semi-axes
    ``a1``, ``a2``, the stationary points of ``|w + cos(t) a1 + sin(t) a2|^2``
    solve ``q cos t - p sin t + r sin t cos t = 0`` (``p = w.a1``,
    ``q = w.a2``, ``r = |a2|^2 - |a1|^2``).  ``u = tan(t/2)`` makes that the
    quartic ``-q u^4 - 2(p+r) u^3 + 2(r-p) u + q = 0``; its roots' real parts
    and ``t = pi`` (the root at ``u = inf``) are polished by Newton steps.
    Every candidate lies on the conic, so a spurious root can only lower the
    maximum; an all-zero quartic (constant distance) leaves ``t = pi``.

    The roots are ``np.roots``' own: the eigenvalues of the companion matrix
    of the quartic with its zero ends stripped, stacked per degree (a zero
    ``q`` leaves a quadratic and a root at 0).  Each conic has five
    candidates; one with fewer roots repeats ``t = pi``.
    """
    s, t = conics.center[rows].T
    u, v = conics.u[rows], conics.v[rows]
    w = conics.origin[rows] + s[:, None] * u + t[:, None] * v - origins
    (d1, d2), (r1, r2) = np.swapaxes(conics.axes[rows], 0, 1), conics.radii[rows].T
    a1 = r1[:, None] * (d1[:, :1] * u + d1[:, 1:] * v)
    a2 = r2[:, None] * (d2[:, :1] * u + d2[:, 1:] * v)
    p, q, r = _dots(w, a1), _dots(w, a2), _dots(a2, a2) - _dots(a1, a1)
    poly = np.stack([-q, -2.0 * (p + r), np.zeros_like(q), 2.0 * (r - p), q], -1)
    nonzero = poly != 0.0
    first, last = np.argmax(nonzero, 1), 4 - np.argmax(nonzero[:, ::-1], 1)
    degree = np.where(nonzero.any(1), last - first, -1)
    theta = np.full((len(q), 5), math.pi)
    for n in (4, 2):  # a nonzero q, or a zero q with p + r and r - p nonzero
        at = np.flatnonzero(degree == n)
        if at.size:
            coef = poly[at, 2 - n // 2:3 + n // 2]
            companion = np.zeros((at.size, n, n))
            companion[:, 0] = -coef[:, 1:] / coef[:, :1]
            companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            theta[at, :n] = 2.0 * np.arctan(np.linalg.eigvals(companion).real)
    k, start = np.arange(5), np.maximum(degree, 0)[:, None]  # np.roots' roots at 0 follow
    theta[(degree[:, None] >= 0) & (k >= start) & (k < start + 4 - last[:, None])] = 0.0
    p, q, r = p[:, None], q[:, None], r[:, None]
    for _ in range(2):
        s, c = np.sin(theta), np.cos(theta)
        slope = r * (c * c - s * s) - p * c - q * s
        theta = theta - np.divide(
            q * c - p * s + r * s * c, slope, out=np.zeros_like(theta), where=slope != 0.0
        )
    pts = (w[:, None] + np.cos(theta)[..., None] * a1[:, None]
           + np.sin(theta)[..., None] * a2[:, None]).reshape(-1, 3)
    return np.sqrt(np.einsum("ij,ij->i", pts, pts).reshape(-1, 5).max(axis=1))


def fillet_extent(patches):
    """How far from the hub center the fillet reaches along the stubs.

    Maximum distance over both tangency conics, each found in closed form
    from the stationary points of the squared distance (a quartic in
    ``tan(t/2)``, see :func:`_max_distances`); ``math.inf`` when either
    conic is non-compact (parabola, hyperbola, line pairs).  Takes one patch
    and returns a float, or a sequence of patches or a :class:`FilletStack`
    and returns a list with, per row, the extent or the row's coded error.
    Patches are rebuilt from their ``stub1``, ``stub2`` and ``beta``.
    """
    stack, one = _as_stack(patches)
    rows = np.flatnonzero([e is None and {k1, k2} <= COMPACT_CLASSES for e, k1, k2
                           in zip(stack.errors, stack.conic1.klass, stack.conic2.klass)])
    extent = np.full(len(stack), math.inf)
    if rows.size:
        d1, d2 = (_max_distances(c, rows, stack.center[rows]) for c in (stack.conic1, stack.conic2))
        extent[rows] = np.where(d2 > d1, d2, d1)
    out = [e or x for e, x in zip(stack.errors, extent.tolist())]
    return _one(out[0]) if one else out


def _plane_pairs(Q, errors) -> list:
    """Per quadric row of ``Q = (A, b, c)`` whose ``errors`` entry is None:
    whether :func:`classify_quadric` labels it a plane pair, or the error it
    raises.  A row whose ``A`` is provably of rank 3 is none, with no Jacobi
    sweep: ``|det A| > 2 CLASSIFY_TOL ||A||_F^3`` bounds its smallest
    eigenvalue above ``2 CLASSIFY_TOL lambda_max``, and
    ``||A||_F > 2 sqrt(3) CLASSIFY_TOL max(|b|, |c|)`` bounds ``lambda_max``
    above ``CLASSIFY_TOL`` times the coefficient scale, each with a margin
    far above rounding.  Every other row is classified."""
    A, b, c = Q
    e = np.frexp(np.abs(A).max(axis=(1, 2)))[1]
    with np.errstate(all="ignore"):
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = np.moveaxis(
            np.ldexp(A, -e[:, None, None]), (1, 2), (0, 1))
        det = a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) \
            + a02 * (a10 * a21 - a11 * a20)
        fro = np.sqrt(np.sum(np.ldexp(A, -e[:, None, None]) ** 2, axis=(1, 2)))
        rest = np.maximum(np.sqrt(_dots(b, b)), np.abs(c)) * np.ldexp(1.0, -e)
        rank3 = (np.abs(det) > 2.0 * CLASSIFY_TOL * fro**3) & (
            fro > 2.0 * math.sqrt(3.0) * CLASSIFY_TOL * rest)
    out = []
    for i, error in enumerate(errors):
        if error is not None or rank3[i]:
            out.append(error or False)
            continue
        try:
            out.append(classify_quadric(Quadric(A[i], b[i], c[i])).label in PLANE_PAIR_CLASSES)
        except QuadorError as exc:
            out.append(exc)
    return out


def fillet_min_curvature_radius(patches):
    """Smallest radius of curvature of the fillet at the bisector probe.

    Intersects the outward bisector ray with the fillet surface (smallest
    positive root), evaluates the principal curvatures there, and returns
    ``1/max(|k1|, |k2|)``.  Plane-pair fillets have zero curvature and
    report ``math.inf``.  Raises :class:`NoBisectorIntersectionError` when
    the ray misses the surface.  Takes one patch and returns a float, or a
    sequence of patches or a :class:`FilletStack` and returns a list with,
    per row, the radius or the coded error the row raises.  Patches are
    rebuilt from their ``stub1``, ``stub2`` and ``beta``.
    """
    stack, one = _as_stack(patches)
    A, b, c = stack.Q
    o, w = stack.center, stack.bisector
    with np.errstate(all="ignore"):
        wA = w[:, None, :] @ A
        qa = (wA @ w[:, :, None])[:, 0, 0]
        qb = (wA @ o[:, :, None])[:, 0, 0] + _dots(b, w)
        qc = stacked_values((A[:, None], b[:, None, None], c[:, None]), o)[:, 0]
        disc = qb * qb - qa * qc
        sq = np.sqrt(disc)
        two = (qa != 0.0) & (disc >= 0.0)  # else one root where qa == 0 and qb != 0
        roots = np.stack([np.where(two, (-qb - sq) / qa, np.where(
            (qa == 0.0) & (qb != 0.0), -qc / (2.0 * qb), np.nan)),
            np.where(two, (-qb + sq) / qa, np.nan)], -1)
        hit = (roots > 0.0).any(axis=1)
        s = np.where(roots > 0.0, roots, np.inf).min(axis=1)
        probe = o + s[:, None] * w
        k1, k2, singular = _curvatures(A, b, probe)
        k_max = np.where(np.abs(k2) > np.abs(k1), np.abs(k2), np.abs(k1))
        radius = np.where(k_max == 0.0, np.inf, 1.0 / k_max)
    out = []
    for i, chamfer in enumerate(_plane_pairs(stack.Q, stack.errors)):
        if isinstance(chamfer, QuadorError) or chamfer:
            out.append(math.inf if chamfer is True else chamfer)
        elif not hit[i]:
            out.append(NoBisectorIntersectionError("bisector ray misses the fillet surface"))
        elif singular[i]:
            out.append(SingularPointError(f"gradient vanishes at {tuple(probe[i].tolist())}"))
        else:
            out.append(float(radius[i]))
    return _one(out[0]) if one else out
