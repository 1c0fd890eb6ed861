"""Invariants over random valid lattices, not only the checked-in fixtures.

``random_lattice`` builds a lattice from a seed:

* 3-8 hubs, centers uniform in [-6, 6]^3, radii 0.8-1.2, with a gap of more
  than 1 between spheres;
* each hub joined to its 1-3 nearest hubs;
* ``k^2`` uniform in the middle 90% of the interval where both tangency
  planes cut their spheres, ``|k^2 - (d^2 +- (r_a^2 - r_b^2))| < 2 d r``;
* a fillet on every stub pair at a hub, beta uniform in [0.55, 3], keeping
  only the fillets that build.

Hypothesis draws the seeds.  Over seeds 0-99 every lattice loads, and 369 of
the 1,637 fillet specs drawn (22.5%) build; ``WEDGE_ORIENTATION`` rejects the
others.

Two invariants are not tested here yet, because they fail today: meshes at
res 32 with auto bounds are not always watertight (``auto_bounds`` leaves out
fillets), and ``extent_monotonicity`` fails on some lattices.
"""

import contextlib
import io
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from quador.cli import main
from quador.fillet import build_fillet_for_spec
from quador.lattice import Beam, FilletSpec, Hub, Lattice
from quador.latticefile import lattice_to_json, load_lattice
from quador.solid import auto_bounds, build_assembly, classify_point, field_grid, field_value
from quador.verify import run_verify

from test_solid import reference_parts

SEEDS = st.integers(0, 2**32 - 1)

# The checks that hold on every valid lattice today.
HOLDING_CHECKS = ("two_sphere_tangency", "sphere_stub_gradient", "fillet_identity",
                  "residual_law", "conic_tangency_residual", "conic_tangency_angle",
                  "material_monotonicity")


def _k(ca, ra, cb, rb, u: float) -> float:
    """``k`` for a beam between two hubs: ``k^2`` at fraction ``u`` of the
    middle 90% of the interval where both tangency planes cut their spheres."""
    d = math.dist(ca, cb)
    shift = ra * ra - rb * rb
    lo = max(d * d + shift - 2 * d * ra, d * d - shift - 2 * d * rb, 0.0)
    hi = min(d * d + shift + 2 * d * ra, d * d - shift + 2 * d * rb)
    return math.sqrt(lo + (0.05 + 0.9 * u) * (hi - lo))


def random_specs(seed: int) -> tuple[Lattice, list[FilletSpec]]:
    """A random valid lattice without fillets, and every fillet spec drawn for it."""
    rng = np.random.default_rng(seed)
    hubs: list[Hub] = []
    count = rng.integers(3, 9)
    while len(hubs) < count:
        center, radius = rng.uniform(-6, 6, 3), float(rng.uniform(0.8, 1.2))
        if all(math.dist(center, h.center) > radius + h.radius + 1 for h in hubs):
            hubs.append(Hub(f"h{len(hubs)}", tuple(center.tolist()), radius))
    pairs = set()
    for i, h in enumerate(hubs):
        nearest = sorted(range(len(hubs)), key=lambda j: math.dist(h.center, hubs[j].center))
        pairs.update((min(i, j), max(i, j)) for j in nearest[1 : 1 + rng.integers(1, 4)])
    beams = tuple(
        Beam(f"b{n}", hubs[i].id, hubs[j].id,
             _k(hubs[i].center, hubs[i].radius, hubs[j].center, hubs[j].radius, rng.uniform()))
        for n, (i, j) in enumerate(sorted(pairs)))
    specs = [
        FilletSpec(h.id, bi, bj, float(rng.uniform(0.55, 3.0)))
        for h in hubs
        for bi, bj in itertools.combinations(
            [b.id for b in beams if h.id in (b.hub_a, b.hub_b)], 2)
    ]
    return Lattice(tuple(hubs), beams, ()), specs


def random_lattice(seed: int) -> tuple[Lattice, int]:
    """A random valid lattice, and how many fillet specs were drawn for it."""
    bare, specs = random_specs(seed)
    built = build_fillet_for_spec(bare, specs)
    kept = tuple(spec for spec, error in zip(specs, built.errors) if error is None)
    return Lattice(bare.hubs, bare.beams, kept), len(specs)


def test_generator_acceptance():
    lattices = [random_lattice(seed) for seed in range(100)]
    assert all(not lat._resolved.errors for lat, _ in lattices)
    kept = sum(len(lat.fillets) for lat, _ in lattices)
    drawn = sum(n for _, n in lattices)
    assert 0.15 <= kept / drawn <= 0.35


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_kernel_invariants(seed):
    lattice, _ = random_lattice(seed)
    lattice = load_lattice(lattice_to_json(lattice).encode())
    report = run_verify(lattice, samples=200)
    status = {c.name: c.status for c in report.checks}
    assert {name: status.get(name, "pass") for name in HOLDING_CHECKS} == dict.fromkeys(
        HOLDING_CHECKS, "pass")

    assembly = build_assembly(lattice)
    lo, hi = auto_bounds(assembly)
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(300, 3))
    values = field_value(assembly, pts)
    np.testing.assert_array_equal(np.sign(values), np.sign(field_grid(assembly, *pts.T)))
    # Oracle: each part's defining inequalities tested on their own.
    parts = reference_parts(assembly)
    inside = [any(all(f.value(p) <= 0.0 for f in forms) for _, forms in parts) for p in pts]
    assert (classify_point(assembly, pts, tol=0.0).state == "inside").tolist() == inside


@settings(max_examples=10, deadline=None)
@given(SEEDS)
def test_commands_end_in_an_exit_code(seed):
    # A valid lattice runs every command; one that fails must fail with a
    # coded error (exit 1) or a failed check (exit 3), never a traceback.
    lattice, _ = random_lattice(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "lattice.json")
        path.write_text(lattice_to_json(lattice))
        points = Path(tmp, "points.csv")
        points.write_text("x,y,z\n0,0,0\n1,2,3\n")
        runs = {
            "classify": ["classify", str(path)],
            "mesh": ["mesh", str(path), "--resolution", "12", "-o", str(Path(tmp, "m.stl"))],
            "sample": ["sample", str(path), "--points", str(points),
                       "-o", str(Path(tmp, "s.csv"))],
            "conics": ["conics", str(path), "--samples-per-curve", "8",
                       "-o", str(Path(tmp, "c.obj"))],
            "verify": ["verify", str(path), "--samples", "100"],
        }
        codes = {}
        for name, argv in runs.items():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes[name] = main(argv)
    expected_conics = 0 if lattice.fillets else 1
    assert codes["conics"] == expected_conics
    assert codes["verify"] in (0, 3)
    assert {codes[n] for n in ("classify", "mesh", "sample")} == {0}
