"""Invariant verification suite for a lattice.

Runs the tangency and identity checks that the construction promises:
two-sphere beam agreement, sphere-stub gradient equality along tangency
circles, the single-fillet-quadric identity, the scaled-plane residual law,
tangency-conic residuals, material monotonicity under fillet addition, and
extent/curvature behaviour across a beta grid.  Produces a machine-readable
report; all randomness is seeded.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import linear_product, rel_coeff_residual, subtract_square
from .conics import sample_conic
from .errors import QuadorError
from .fillet import (
    build_fillet_for_spec,
    fillet_extent,
    fillet_min_curvature_radius,
    fillet_residual,
)
from .lattice import Lattice, sphere_quadric, stub_views_at_hub
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

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


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
        doc = {"checks": [c.to_json() for c in self.checks], "summary": self.summary()}
        return json.dumps(doc, indent=2, sort_keys=True)


def _circle_points(center, radius, normal, offset, n=32):
    """Points on the circle {|x-c|=r} cut by the plane at signed distance
    ``offset`` from the center along ``normal``."""
    normal = normal / np.linalg.norm(normal)
    rc = math.sqrt(max(0.0, radius * radius - offset * offset))
    k = int(np.argmin(np.abs(normal)))
    e = np.zeros(3)
    e[k] = 1.0
    w1 = np.cross(normal, e)
    w1 /= np.linalg.norm(w1)
    w2 = np.cross(normal, w1)
    p0 = np.asarray(center) + offset * normal
    return [
        p0 + rc * (math.cos(t) * w1 + math.sin(t) * w2)
        for t in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ]


def run_verify(
    lattice: Lattice,
    tol: float = 1e-9,
    samples: int = 10000,
    seed: int = 0,
) -> VerifyReport:
    """Run every invariant check against a validated lattice.

    Identity/tangency checks use their own pinned relative tolerances;
    ``tol`` is the boundary band for the sampled membership check (a
    monotonicity violation must leave the solid by more than ``tol``).
    """
    report = VerifyReport()
    assembly = build_assembly(lattice)

    # Two-sphere tangency: both ends construct the same beam quadric.
    worst = 0.0
    for bg in assembly.beams:
        h1 = subtract_square(sphere_quadric(bg.hub_a), bg.G_a)
        h2 = subtract_square(sphere_quadric(bg.hub_b), bg.G_b)
        worst = max(worst, rel_coeff_residual(h1 - h2, h1))
    report.checks.append(
        Check(
            "two_sphere_tangency",
            "pass" if worst <= COEFF_REL_TOL else "fail",
            worst,
            COEFF_REL_TOL,
            f"{len(assembly.beams)} beams",
        )
    )

    # Sphere-stub gradient equality along each tangency circle.
    worst = 0.0
    n_stubs = 0
    for hub in lattice.hubs:
        sphere = sphere_quadric(hub)
        for view in stub_views_at_hub(lattice, hub.id):
            n_stubs += 1
            gn = view.G.grad_norm()
            offset = -view.G.value(hub.center) / gn
            for p in _circle_points(hub.center, hub.radius, view.G.g, offset):
                gs = sphere.gradient(p)
                gh = view.H.gradient(p)
                worst = max(
                    worst, float(np.linalg.norm(gh - gs) / np.linalg.norm(gs))
                )
    report.checks.append(
        Check(
            "sphere_stub_gradient",
            "pass" if worst <= GRAD_REL_TOL else "fail",
            worst,
            GRAD_REL_TOL,
            f"{n_stubs} stubs x 32 circle points",
        )
    )

    # Fillet identity: the stored patch quadric matches both expressions.
    if assembly.fillets:
        worst = 0.0
        for fp in assembly.fillets:
            p = fp.patch
            for h, e in ((p.H1, p.E1), (p.H2, p.E2)):
                expect = subtract_square(h, e)
                worst = max(worst, rel_coeff_residual(p.Q - expect, expect))
        report.checks.append(
            Check(
                "fillet_identity",
                "pass" if worst <= COEFF_REL_TOL else "fail",
                worst,
                COEFF_REL_TOL,
                "IDENTITY_VIOLATION" if worst > COEFF_REL_TOL else "",
            )
        )

        # Residual law with deliberately mis-scaled alpha.
        worst = 0.0
        for fp in assembly.fillets:
            p = fp.patch
            for t in (0.5, 2.0):
                alpha_t = p.alpha * t
                e1 = p.F_plus.scaled(alpha_t) + p.F_minus.scaled(p.beta)
                e2 = p.F_plus.scaled(alpha_t) - p.F_minus.scaled(p.beta)
                res = fillet_residual(p.H1, p.H2, e1, e2)
                expect = linear_product(p.F_plus, p.F_minus).scaled(
                    1.0 - 4.0 * alpha_t * p.beta
                )
                worst = max(worst, rel_coeff_residual(res - expect, expect))
        report.checks.append(
            Check(
                "residual_law",
                "pass" if worst <= COEFF_REL_TOL else "fail",
                worst,
                COEFF_REL_TOL,
                "alpha scaled by 0.5 and 2.0",
            )
        )

        # Tangency-conic residuals and gradient angles.
        worst_res = 0.0
        worst_ang = 0.0
        for fp in assembly.fillets:
            p = fp.patch
            for conic, h in ((p.conic1, p.H1), (p.conic2, p.H2)):
                for pt in sample_conic(conic, 32):
                    scale = max(1.0, float(pt @ pt))
                    worst_res = max(
                        worst_res,
                        abs(h.value(pt)) / scale,
                        abs(p.Q.value(pt)) / scale,
                    )
                    gq = p.Q.gradient(pt)
                    gh = h.gradient(pt)
                    cosang = float(
                        gq @ gh / (np.linalg.norm(gq) * np.linalg.norm(gh))
                    )
                    worst_ang = max(worst_ang, math.acos(min(1.0, max(-1.0, cosang))))
        report.checks.append(
            Check(
                "conic_tangency_residual",
                "pass" if worst_res <= SURF_RESIDUAL_TOL else "fail",
                worst_res,
                SURF_RESIDUAL_TOL,
            )
        )
        report.checks.append(
            Check(
                "conic_tangency_angle",
                "pass" if worst_ang <= TANGENT_ANGLE_TOL else "fail",
                worst_ang,
                TANGENT_ANGLE_TOL,
            )
        )

        # Material monotonicity: adding fillets never removes material.
        bare = dataclasses.replace(assembly, fillets=())
        lo, hi = auto_bounds(assembly)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(lo, hi, size=(samples, 3))
        f_bare = field_grid(bare, pts[:, 0], pts[:, 1], pts[:, 2])
        f_full = field_grid(assembly, pts[:, 0], pts[:, 1], pts[:, 2])
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
        for spec in lattice.fillets:
            subject = f"{spec.hub}:{spec.beam_i}+{spec.beam_j}"
            extents = []
            radii = []
            ok = True
            for beta in BETA_GRID:
                try:
                    patch = build_fillet_for_spec(
                        lattice, dataclasses.replace(spec, beta=beta)
                    )
                    extents.append(fillet_extent(patch))
                    radii.append(fillet_min_curvature_radius(patch))
                except QuadorError:
                    ok = False
                    break
            if not ok or any(not math.isfinite(v) for v in extents + radii):
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
            increasing = all(b > a for a, b in zip(extents, extents[1:]))
            decreasing = all(b < a for a, b in zip(extents, extents[1:]))
            report.checks.append(
                Check(
                    "extent_monotonicity",
                    "pass" if (increasing or decreasing) else "fail",
                    None,
                    None,
                    f"{subject}: extents {[round(e, 6) for e in extents]}",
                )
            )
            r_inc = all(b > a for a, b in zip(radii, radii[1:]))
            r_dec = all(b < a for a, b in zip(radii, radii[1:]))
            report.checks.append(
                Check(
                    "curvature_radius_monotonicity",
                    "pass" if (r_inc or r_dec) else "warn",
                    None,
                    None,
                    f"{subject}: radii {[round(r, 6) for r in radii]}"
                    + ("" if (r_inc or r_dec) else " (not monotone on this grid)"),
                )
            )

    return report
