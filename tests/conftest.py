import os

import numpy as np
import pytest
from hypothesis import settings

from quador import Beam, FilletSpec, Hub, Lattice

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run and no
# example database; local runs keep hypothesis' random default.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def perp_lattice():
    """Two perpendicular unit-cylinder stubs on a unit hub, fillet beta=1."""
    return Lattice(
        hubs=(
            Hub("h0", (0.0, 0.0, 0.0), 1.0),
            Hub("h1", (4.0, 0.0, 0.0), 1.0),
            Hub("h2", (0.0, 4.0, 0.0), 1.0),
        ),
        beams=(
            Beam("b1", "h0", "h1", 4.0),
            Beam("b2", "h0", "h2", 4.0),
        ),
        fillets=(FilletSpec("h0", "b1", "b2", 1.0),),
    )


@pytest.fixture
def perp_lattice_beta(perp_lattice):
    """Same fixture with a selectable fillet beta."""

    def make(beta: float) -> Lattice:
        return Lattice(
            perp_lattice.hubs,
            perp_lattice.beams,
            (FilletSpec("h0", "b1", "b2", beta),),
        )

    return make


@pytest.fixture
def asym_hubs():
    """r=1 and r=2 hubs at distance 4 (k=4 beam is a circular paraboloid)."""
    return Hub("h0", (0.0, 0.0, 0.0), 1.0), Hub("h1", (4.0, 0.0, 0.0), 2.0)


def random_rotation(rng) -> np.ndarray:
    m = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def transformed_quadric(A, b, c, rotation, translation):
    """The quadric Q'(x) = Q(R^T (x - t)) as explicit coefficients."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    A2 = rotation @ A @ rotation.T
    b2 = -A2 @ translation + rotation @ b
    c2 = (
        float(translation @ A2 @ translation)
        - 2.0 * float((rotation @ b) @ translation)
        + c
    )
    return A2, b2, c2
