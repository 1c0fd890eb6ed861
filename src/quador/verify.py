"""Invariant verification suite for a lattice.

Runs the tangency and identity checks that the construction promises:
two-sphere beam agreement, sphere-stub gradient equality along tangency
circles, the single-fillet-quadric identity, the scaled-plane residual law,
tangency-conic residuals, material monotonicity under fillet addition, and
extent/curvature behaviour across a beta grid.  Produces a machine-readable
report.  Material monotonicity is decided from the part table, not sampled:
the shipped field is a min over parts, so it holds wherever every bare part
is among the shipped parts, and the check evaluates no point.

Each check evaluates in batches: the beam and fillet checks read the rows
of the assembly's beam and fillet stacks, every part and point at once,
through ``quador.algebra``'s row functions, and sample each tangency
plane's conics in one ``sample_conic`` call.  The object methods are
one-row calls of those functions, so the report is the one a per-part,
point-by-point loop of ``Quadric``, ``LinearForm`` and ``Conic`` calls
gives; none of the checks builds such an object.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .algebra import (_axis_complement, _dots, _gradients, _minus, _plane_values,
                      _rel_residual, _stack_rows, _subtract_square, _symmetric, stacked_values)
from .conics import sample_conic
from .fillet import (FilletStack, build_fillet_for_spec, fillet_extent,
                     fillet_min_curvature_radius)
from .lattice import Lattice, _stub_rows, fillet_key, stub_views_at_hub
from .solid import auto_bounds, field_grid  # noqa: F401  (bench/tracing.py wraps it here)
from .solid import build_assembly
from .tolerances import (
    COEFF_REL_TOL,
    GRAD_REL_TOL,
    SURF_RESIDUAL_TOL,
    TANGENT_ANGLE_TOL,
)

__all__ = ["Check", "VerifyReport", "run_verify", "BETA_GRID"]

BETA_GRID = (0.6, 0.8, 1.0, 1.25, 1.5)


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail" | "warn"
    measured: float | None
    tolerance: float | None
    detail: str = ""


@dataclass
class VerifyReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "warn": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_json(self) -> str:
        doc = {"checks": [vars(c) for c in self.checks], "summary": self.summary()}
        return json.dumps(doc, indent=2, sort_keys=True)


def _strictly_monotone(values: list[float]) -> bool:
    """True when ``values`` strictly increase or strictly decrease."""
    steps = list(zip(values, values[1:]))
    return all(b > a for a, b in steps) or all(b < a for a, b in steps)


def _check(name: str, values, tol: float, detail: str = "") -> Check:
    """Pass when the largest value is within ``tol``; a NaN value makes the check fail."""
    worst = float(np.max(values, initial=0.0))
    return Check(name, "pass" if worst <= tol else "fail", worst, tol, detail)


def _identity_and_law(stack: FilletStack, H) -> tuple[list, list]:
    """Per row, the relative residual of ``Q - (H - E^2)`` for each plane,
    and of ``(H1 - E1^2) - (H2 - E2^2)`` minus ``(1 - 4 alpha beta) F+ F-``
    with alpha scaled by 0.5 and by 2.0; ``H`` holds the stubs' rows."""
    fp, fm, e1, e2 = stack.planes
    identity = [_rel_residual(_minus(stack.Q, q), q) for q in map(_subtract_square, H, (e1, e2))]
    gp, gm, beta = fp[:, :3], fm[:, :3], stack.beta
    A = _symmetric(0.5 * (gp[:, :, None] * gm[:, None, :])
                   + 0.5 * (gm[:, :, None] * gp[:, None, :]))
    b, c = 0.5 * fp[:, 3:] * gm + 0.5 * fm[:, 3:] * gp, fp[:, 3] * fm[:, 3]  # F+ F-
    law = []
    for t in (0.5, 2.0):
        alpha_t = stack.alpha * t
        plus, minus = fp * alpha_t[:, None], fm * beta[:, None]
        s = 1.0 - 4.0 * alpha_t * beta
        expect = (_symmetric(A * s[:, None, None]), b * s[:, None], c * s)
        residual = _minus(*map(_subtract_square, H, (plus + minus, plus - minus)))
        law.append(_rel_residual(_minus(residual, expect), expect))
    return identity, law


def _missing_parts(assembly) -> list:
    """The labels of the bare lattice's parts (its hubs and beams) that are
    not, bit for bit, among ``assembly``'s parts.  The field is a min over
    parts, so with none missing the value at any point is at most the bare
    value, or NaN: no point inside the bare solid lies outside by ``tol``."""
    def keys(table):  # each part's rows of the coefficient stack, as bytes
        rows = np.concatenate([a.reshape(len(a), -1) for a in table.stack], axis=1)
        blob, width = rows.tobytes(), rows.strides[0]
        return [blob[s * width:e * width] for s, e in zip(table.bounds[:-1], table.bounds[1:])]

    bare, shipped = dataclasses.replace(assembly, fillets=())._table, set(keys(assembly._table))
    labels = np.empty(len(bare.by_label), dtype=object)
    labels[bare.by_label] = bare.labels[:-1]
    return [label for key, label in zip(keys(bare), labels) if key not in shipped]


def run_verify(
    lattice: Lattice,
    tol: float = 1e-9,
    samples: int = 10000,
    seed: int = 0,
) -> VerifyReport:
    """Run every invariant check against a validated lattice.

    Identity/tangency checks use their own pinned relative tolerances;
    ``tol`` is the boundary band of the material check (a monotonicity
    violation must leave the solid by more than ``tol >= 0``).  That check
    is decided for every point, so ``samples >= 1`` and ``seed >= 0`` only
    name the sample its report covers.
    """
    if not tol >= 0.0:  # NaN too
        raise ValueError("tol must be >= 0")
    if operator.index(samples) < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    report = VerifyReport()
    assembly = build_assembly(lattice)

    # Two-sphere tangency: both ends construct the same beam quadric.
    H_a, H_b = zip(*assembly.beams.H)
    report.checks.append(_check("two_sphere_tangency", _rel_residual(_minus(H_a, H_b), H_a),
                                COEFF_REL_TOL, f"{len(assembly.beams)} beams"))

    # Sphere-stub gradient equality at 32 points of each stub's tangency circle
    # {|x - c| = r, G = 0}, every stub at once, each with its hub's sphere
    # |x - c|^2 - r^2 (A = I, b = -c) from the stub's own center row.
    views = [stub_views_at_hub(lattice, hub.id) for hub in lattice.hubs]
    G, H, _, center, radius = _stub_rows([v for at_hub in views for v in at_hub])
    gn = np.sqrt(_dots(G[:, :3], G[:, :3]))
    offset = -_plane_values(G, center) / gn
    normal = G[:, :3] / gn[:, None]
    rc = radius * radius - offset * offset
    rc = np.sqrt(np.where(rc > 0.0, rc, 0.0))
    w1, w2 = _axis_complement(normal)
    t = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False).tolist()
    cos, sin = (np.array([f(x) for x in t])[:, None] for f in (math.cos, math.sin))
    pts = (center + offset[:, None] * normal)[:, None] + rc[:, None, None] * (
        cos * w1[:, None] + sin * w2[:, None])
    gs = _gradients(np.eye(3), -center[:, None], pts)
    gap = _gradients(H[0][:, None], H[1][:, None], pts) - gs
    report.checks.append(_check("sphere_stub_gradient",
                                np.sqrt(_dots(gap, gap)) / np.sqrt(_dots(gs, gs)),
                                GRAD_REL_TOL, f"{len(G)} stubs x 32 circle points"))

    stack = assembly.fillets
    if len(stack):
        H = [_stub_rows(stubs)[1] for stubs in zip(*stack.stubs)]  # stub1's, stub2's
        identity, law = _identity_and_law(stack, H)

        # Tangency-conic residuals and gradient angles at 32 samples of each conic.
        residuals, cosines = [], []
        for sections, h in zip((stack.conic1, stack.conic2), H):
            pts = sample_conic(sections, 32)
            forms = (f.reshape(len(stack), 1, 2, *f.shape[1:]) for f in _stack_rows(h, stack.Q))
            scale = np.maximum(1.0, _dots(pts, pts))[..., None]
            residuals.append(np.abs(stacked_values(tuple(forms), pts)) / scale)
            gq, gh = (_gradients(q[0][:, None], q[1][:, None], pts) for q in (stack.Q, h))
            cosines.append(_dots(gq, gh) / (np.sqrt(_dots(gq, gq)) * np.sqrt(_dots(gh, gh))))
        # The largest angle is the acos of the smallest cosine, clamped; NaN reads as pi.
        angle = math.acos(min(1.0, max(-1.0, float(np.min(cosines)))))
        identity = _check("fillet_identity", identity, COEFF_REL_TOL)
        if identity.status == "fail":
            identity.detail = "IDENTITY_VIOLATION"
        report.checks += [
            identity,
            _check("residual_law", law, COEFF_REL_TOL, "alpha scaled by 0.5 and 2.0"),
            _check("conic_tangency_residual", residuals, SURF_RESIDUAL_TOL),
            _check("conic_tangency_angle", [angle], TANGENT_ANGLE_TOL),
        ]

        # Material monotonicity: adding fillets never removes material.
        missing = _missing_parts(assembly)
        report.checks.append(Check("material_monotonicity", "fail" if missing else "pass",
                                   float(len(missing)), tol,
                                   f"{missing[0]} is not a shipped part" if missing
                                   else f"{samples} points, seed {seed}"))

        # Extent / curvature-radius behaviour across the beta grid, every
        # fillet at every beta in one stacked build.
        grid = build_fillet_for_spec(lattice, [dataclasses.replace(spec, beta=beta)
                                               for spec in lattice.fillets for beta in BETA_GRID])
        n = len(BETA_GRID)
        all_extents, all_radii = fillet_extent(grid), fillet_min_curvature_radius(grid)
        for i, (stub1, stub2) in enumerate(stack.stubs):
            subject = fillet_key(stub1.hub.id, stub1.beam.id, stub2.beam.id)
            extents, radii = all_extents[n * i:n * i + n], all_radii[n * i:n * i + n]
            bounded = all(isinstance(v, float) and math.isfinite(v) for v in extents + radii)
            if not bounded:
                report.checks.append(
                    Check(
                        "extent_monotonicity",
                        "warn",
                        None,
                        None,
                        f"{subject}: unbounded or degenerate on the beta grid",
                    )
                )
                continue
            report.checks.append(
                Check(
                    "extent_monotonicity",
                    "pass" if _strictly_monotone(extents) else "fail",
                    None,
                    None,
                    f"{subject}: extents {[round(e, 6) for e in extents]}",
                )
            )
            monotone = _strictly_monotone(radii)
            report.checks.append(
                Check(
                    "curvature_radius_monotonicity",
                    "pass" if monotone else "warn",
                    None,
                    None,
                    f"{subject}: radii {[round(r, 6) for r in radii]}"
                    + ("" if monotone else " (not monotone on this grid)"),
                )
            )

    return report
