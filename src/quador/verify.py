"""Invariant verification suite for a lattice.

Runs the tangency and identity checks that the construction promises:
two-sphere beam agreement, sphere-stub gradient equality along tangency
circles, the single-fillet-quadric identity, the scaled-plane residual law,
tangency-conic residuals, material monotonicity under fillet addition, and
extent/curvature behaviour across a beta grid.  Produces a machine-readable
report; all randomness is seeded.  The material check draws and checks its
points from ``random.Random(seed)`` in blocks of the one batch budget,
``quador.solid._BATCH`` points, so its memory does not grow with ``samples``.

Each check evaluates in batches: the beam and fillet checks read the rows
of the assembly's beam and fillet stacks, every part and point at once,
with each row's object operations and each point's own ``value``,
``gradient`` and dot-product bits, so the report is the one a per-part,
point-by-point loop gives; none of them builds a ``Quadric`` or ``LinearForm``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from .algebra import (_axis_complement, _dots, _minus, _rel_residual, _stack_rows,
                      _subtract_square, _symmetric, stacked_values)
from .conics import sample_conic
from .fillet import (FilletStack, build_fillet_for_spec, fillet_extent,
                     fillet_min_curvature_radius)
from .lattice import Lattice, _stub_rows, fillet_key, stub_views_at_hub
from .solid import _BATCH, auto_bounds, build_assembly, field_grid
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
        doc = {"checks": [dataclasses.asdict(c) for c in self.checks], "summary": self.summary()}
        return json.dumps(doc, indent=2, sort_keys=True)


def _strictly_monotone(values: list[float]) -> bool:
    """True when ``values`` strictly increase or strictly decrease."""
    steps = list(zip(values, values[1:]))
    return all(b > a for a, b in steps) or all(b < a for a, b in steps)


def _check(name: str, values, tol: float, detail: str = "") -> Check:
    """Pass when the largest value is within ``tol``; a NaN value makes the check fail."""
    worst = float(np.max(values, initial=0.0))
    return Check(name, "pass" if worst <= tol else "fail", worst, tol, detail)


def _gradients(A: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """:meth:`Quadric.gradient` of ``A``, ``b`` at the points ``(..., 3)``,
    bit for bit: one stacked ``(3,3) @ (3,1)`` product per point, as ``A @ p`` takes."""
    return 2.0 * (A @ pts[..., None])[..., 0] + 2.0 * b


def _identity_and_law(stack: FilletStack, H) -> tuple[list, list]:
    """Per row, :func:`rel_coeff_residual` of ``Q - (H - E^2)`` for each
    plane, and of ``(H1 - E1^2) - (H2 - E2^2)`` minus ``(1 - 4 alpha beta)
    F+ F-`` (:func:`linear_product`) with alpha scaled by 0.5 and by 2.0,
    each operation the one its objects take; ``H`` holds the stubs' rows."""
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


def run_verify(
    lattice: Lattice,
    tol: float = 1e-9,
    samples: int = 10000,
    seed: int = 0,
) -> VerifyReport:
    """Run every invariant check against a validated lattice.

    Identity/tangency checks use their own pinned relative tolerances;
    ``tol`` is the boundary band for the sampled membership check (a
    monotonicity violation must leave the solid by more than ``tol >= 0``),
    and ``samples >= 1`` its point count and ``seed >= 0`` its seed.
    """
    if not tol >= 0.0:  # NaN too
        raise ValueError("tol must be >= 0")
    if operator.index(samples) < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if operator.index(seed) < 0:  # Random would draw abs(seed)'s points
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
    offset = -(_dots(G[:, :3], center) + G[:, 3]) / gn
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
            pts = np.stack([sample_conic(sections.conic(i), 32) for i in range(len(stack))])
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
        lo, hi = auto_bounds(assembly)
        rng, bare = random.Random(operator.index(seed)), dataclasses.replace(assembly, fillets=())
        violations = 0
        for start in range(0, samples, _BATCH):
            n = min(_BATCH, samples - start)
            # The top 53 bits of each <u8 are uniform in [0, 1); whole 4-byte
            # words concatenate exactly, so the block size moves no point.
            pts = (np.frombuffer(rng.randbytes(24 * n), "<u8").reshape(n, 3) >> 11) * 0.5**53
            pts *= hi - lo
            pts += lo
            violations += int(np.count_nonzero((field_grid(bare, *pts.T) <= 0.0)
                                               & (field_grid(assembly, *pts.T) > tol)))
        report.checks.append(
            Check(
                "material_monotonicity",
                "pass" if violations == 0 else "fail",
                float(violations),
                tol,
                f"{samples} points, seed {seed}",
            )
        )

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
