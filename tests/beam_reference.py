"""Hub spheres and beams built one object at a time: the bodies of
``sphere_quadric`` and ``_build_beam`` before the lattice built them as rows.

The tests hold the stacked hub and beam rows to these bit for bit, and each
failed row to the error class and message they raise.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from quador.algebra import LinearForm, Quadric
from quador.errors import (
    CenterOverflowError,
    CoincidentHubsError,
    DegenerateBeamError,
    NonPositiveRadiusError,
    PlaneMissesSphereError,
    RadiusOverflowError,
)

from form_reference import linear_value, neg, quadric_coeffs, subtract_square

MAX_RADIUS = math.sqrt(sys.float_info.max)


def reference_sphere(hub) -> Quadric:
    """Implicit sphere ``|x - c|^2 - r^2``, or the coded error of a bad hub."""
    if not hub.radius > 0.0:
        raise NonPositiveRadiusError(f"hub {hub.id!r} has radius {hub.radius}")
    if hub.radius > MAX_RADIUS:
        raise RadiusOverflowError(f"hub {hub.id!r} radius is too large: its square overflows")
    c = np.asarray(hub.center, dtype=float)
    with np.errstate(over="ignore"):
        cc = float(c @ c)
    if not math.isfinite(cc):
        raise CenterOverflowError(f"hub {hub.id!r} center is too large: its square overflows")
    return Quadric(np.eye(3), -c, cc - hub.radius**2)


class ReferenceBeam(NamedTuple):
    G_a: LinearForm
    G_b: LinearForm
    H_a: Quadric
    H_b: Quadric
    axis: np.ndarray  # hub_a -> hub_b
    length: float
    lam: float
    g0: float


def reference_beam(beam, hub_a, hub_b, sphere_a: Quadric, sphere_b: Quadric) -> ReferenceBeam:
    """Both stubs of ``beam`` between two hubs, given the hubs' spheres."""
    k = beam.k
    if not math.isfinite(k) or k == 0.0:
        raise DegenerateBeamError(f"beam between {hub_a.id!r} and {hub_b.id!r} has k={k}")
    ca = np.asarray(hub_a.center, dtype=float)
    cb = np.asarray(hub_b.center, dtype=float)
    d = float(np.linalg.norm(cb - ca))
    if d == 0.0:
        raise CoincidentHubsError(f"hubs {hub_a.id!r} and {hub_b.id!r} are coincident")

    with np.errstate(over="ignore", invalid="ignore"):
        gl = 2.0 * (cb - ca)
        cl = float(ca @ ca) - hub_a.radius**2 - float(cb @ cb) + hub_b.radius**2
        G_a = LinearForm(gl / (2.0 * k), cl / (2.0 * k) + k / 2.0)
        G_b_raw = LinearForm(G_a.g, G_a.c0 - k)
        H = subtract_square(sphere_a, G_a)
        lam = G_a.grad_norm()
        for G, c, hub in ((G_a, ca, hub_a), (G_b_raw, cb, hub_b)):
            if abs(linear_value(G, c)) >= lam * hub.radius:
                raise PlaneMissesSphereError(f"tangency plane misses hub sphere {hub.id!r}")
    if not (math.isfinite(lam) and np.isfinite(quadric_coeffs(H)).all()):
        raise DegenerateBeamError(
            f"beam between {hub_a.id!r} and {hub_b.id!r} has k={k}: its tangency planes overflow"
        )

    if linear_value(G_a, cb) < 0.0:
        G_a = neg(G_a)
    G_b = neg(G_b_raw) if linear_value(G_b_raw, ca) < 0.0 else G_b_raw
    return ReferenceBeam(G_a, G_b, H, subtract_square(sphere_b, G_b), (cb - ca) / d, d, lam,
                         linear_value(G_a, ca))
