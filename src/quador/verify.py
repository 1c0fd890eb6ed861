"""Invariant verification suite for a lattice.

Runs the tangency and identity checks that the construction promises:
two-sphere beam agreement, sphere-stub gradient equality along tangency
circles, the single-fillet-quadric identity, the scaled-plane residual law,
tangency-conic residuals, material monotonicity under fillet addition, and
extent/curvature behaviour across a beta grid.  Produces a machine-readable
report; all randomness is seeded.

Each check evaluates its points in batches: a circle's or a conic's 32
points go through one stacked product per quantity, with each point's own
``value``, ``gradient`` and dot-product bits, so the report is the one a
point-by-point loop gives.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (Quadric, _axis_complement, _norm, linear_product, rel_coeff_residual,
                      stack_forms, stacked_values, subtract_square)
from .conics import sample_conic
from .errors import QuadorError
from .fillet import (
    build_fillet_for_spec,
    fillet_extent,
    fillet_min_curvature_radius,
    fillet_residual,
)
from .lattice import Lattice, stub_views_at_hub
from .solid import auto_bounds, build_assembly, field_grid
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


def _circle_points(center, radius, normal, offset, n=32) -> np.ndarray:
    """``n`` points, as rows, on the circle {|x-c|=r} cut by the plane at
    signed distance ``offset`` from the center along ``normal``."""
    normal = normal / _norm(normal)
    rc = math.sqrt(max(0.0, radius * radius - offset * offset))
    w1, w2 = _axis_complement(normal)
    p0 = np.asarray(center) + offset * normal
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False).tolist()
    cos, sin = (np.array([f(x) for x in t])[:, None] for f in (math.cos, math.sin))
    return p0 + rc * (cos * w1 + sin * w2)


def _gradients(q: Quadric, pts: np.ndarray) -> np.ndarray:
    """``q.gradient`` at each row of ``pts``, bit for bit: one stacked
    ``(3,3) @ (3,1)`` product per point, as ``A @ p`` takes."""
    return 2.0 * (q.A @ pts[:, :, None])[:, :, 0] + 2.0 * q.b


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``u @ v`` by one ``(1,3) @ (3,1)`` product per row, the bits
    of each row's own dot product (and so of ``np.linalg.norm`` squared)."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def run_verify(
    lattice: Lattice,
    tol: float = 1e-9,
    samples: int = 10000,
    seed: int = 0,
) -> VerifyReport:
    """Run every invariant check against a validated lattice.

    Identity/tangency checks use their own pinned relative tolerances;
    ``tol`` is the boundary band for the sampled membership check (a
    monotonicity violation must leave the solid by more than ``tol >= 0``).
    """
    if not tol >= 0.0:  # NaN too
        raise ValueError("tol must be >= 0")
    report = VerifyReport()
    assembly = build_assembly(lattice)
    spheres = lattice._resolved.spheres

    # Two-sphere tangency: both ends construct the same beam quadric.
    residuals = [rel_coeff_residual(bg.stub_a.H - bg.stub_b.H, bg.stub_a.H)
                 for bg in assembly.beams]
    report.checks.append(_check("two_sphere_tangency", residuals, COEFF_REL_TOL,
                                f"{len(assembly.beams)} beams"))

    # Sphere-stub gradient equality along each tangency circle.
    residuals = []
    for hub in lattice.hubs:
        sphere = spheres[hub.id]
        for view in stub_views_at_hub(lattice, hub.id):
            offset = -view.G.value(hub.center) / view.G.grad_norm()
            pts = _circle_points(hub.center, hub.radius, view.G.g, offset)
            gs = _gradients(sphere, pts)
            gap = _gradients(view.H, pts) - gs
            residuals.append(np.sqrt(_dots(gap, gap)) / np.sqrt(_dots(gs, gs)))
    report.checks.append(_check("sphere_stub_gradient", residuals, GRAD_REL_TOL,
                                f"{len(residuals)} stubs x 32 circle points"))

    # Fillet identity: the stored patch quadric matches both expressions.
    if assembly.fillets:
        residuals = []
        for p in assembly.fillets:
            for h, e in ((p.stub1.H, p.E1), (p.stub2.H, p.E2)):
                expect = subtract_square(h, e)
                residuals.append(rel_coeff_residual(p.Q - expect, expect))
        identity = _check("fillet_identity", residuals, COEFF_REL_TOL)
        if identity.status == "fail":
            identity.detail = "IDENTITY_VIOLATION"
        report.checks.append(identity)

        # Residual law with deliberately mis-scaled alpha.
        residuals = []
        for p in assembly.fillets:
            for t in (0.5, 2.0):
                alpha_t = p.alpha * t
                e1 = p.F_plus.scaled(alpha_t) + p.F_minus.scaled(p.beta)
                e2 = p.F_plus.scaled(alpha_t) - p.F_minus.scaled(p.beta)
                res = fillet_residual(p.stub1.H, p.stub2.H, e1, e2)
                expect = linear_product(p.F_plus, p.F_minus).scaled(
                    1.0 - 4.0 * alpha_t * p.beta
                )
                residuals.append(rel_coeff_residual(res - expect, expect))
        report.checks.append(_check("residual_law", residuals, COEFF_REL_TOL,
                                    "alpha scaled by 0.5 and 2.0"))

        # Tangency-conic residuals and gradient angles.
        residuals = []
        angles = []
        for p in assembly.fillets:
            for conic, h in ((p.conic1, p.stub1.H), (p.conic2, p.stub2.H)):
                pts = sample_conic(conic, 32)
                scale = np.maximum(1.0, _dots(pts, pts))[:, None]
                residuals.append(np.abs(stacked_values(stack_forms((h, p.Q)), pts)) / scale)
                gq = _gradients(p.Q, pts)
                gh = _gradients(h, pts)
                cosang = _dots(gq, gh) / (np.sqrt(_dots(gq, gq)) * np.sqrt(_dots(gh, gh)))
                angles += [math.acos(min(1.0, max(-1.0, c))) for c in cosang.tolist()]
        report.checks.append(_check("conic_tangency_residual", residuals, SURF_RESIDUAL_TOL))
        report.checks.append(_check("conic_tangency_angle", angles, TANGENT_ANGLE_TOL))

        # Material monotonicity: adding fillets never removes material.
        lo, hi = auto_bounds(assembly)
        rng = np.random.default_rng(seed)
        x, y, z = rng.uniform(lo, hi, size=(samples, 3)).T
        f_bare = field_grid(dataclasses.replace(assembly, fillets=()), x, y, z)
        f_full = field_grid(assembly, x, y, z)
        violations = int(np.count_nonzero((f_bare <= 0.0) & (f_full > tol)))
        report.checks.append(
            Check(
                "material_monotonicity",
                "pass" if violations == 0 else "fail",
                float(violations),
                tol,
                f"{samples} points, seed {seed}",
            )
        )

        # Extent / curvature-radius behaviour across the beta grid.
        for spec, built in zip(lattice.fillets, assembly.fillets):
            subject = built.key
            extents = []
            radii = []
            try:
                for beta in BETA_GRID:
                    patch = build_fillet_for_spec(
                        lattice, dataclasses.replace(spec, beta=beta)
                    )
                    extents.append(fillet_extent(patch))
                    radii.append(fillet_min_curvature_radius(patch))
                bounded = all(math.isfinite(v) for v in extents + radii)
            except QuadorError:
                bounded = False
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
