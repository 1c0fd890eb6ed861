"""Fillet construction: planes, the single-quadric identity, residual law,
tangency conics, extent and curvature, fan behaviour."""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import sympy as sp

from quador.algebra import (
    LinearForm,
    Quadric,
    QuadricClass,
    classify_quadric,
    linear_product,
    principal_curvatures,
    subtract_square,
)
from quador.conics import COMPACT_CLASSES, ConicClass, _sections, sample_conic
from quador.errors import ParallelStubsError, QuadorError, SingularPointError
from quador.fillet import (
    build_fillet,
    build_fillet_for_spec,
    fillet_extent,
    fillet_min_curvature_radius,
    fillet_planes,
    fillet_residual,
)
from quador.lattice import (
    Beam,
    FilletSpec,
    Hub,
    Lattice,
    sphere_quadric,
    stub_views_at_hub,
    validate_lattice,
)
from quador.latticefile import load_lattice_path
from quador.verify import BETA_GRID as VERIFY_BETA_GRID

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

X_PLANE = LinearForm((1.0, 0.0, 0.0), 0.0)
Y_PLANE = LinearForm((0.0, 1.0, 0.0), 0.0)


def sympy_fillet_oracle(beta):
    """Exact expansion of H1 - E1^2 for the perpendicular unit-cylinder stubs."""
    x, y, z = sp.symbols("x y z")
    b = sp.nsimplify(beta)
    a = sp.Rational(1, 4) / b
    e1 = sp.expand(a * (y + x) + b * (y - x))
    h1 = y**2 + z**2 - 1
    q = sp.expand(h1 - e1**2)
    poly = sp.Poly(q, x, y, z)

    def coeff(*mono):
        return float(poly.coeff_monomial(sp.prod([v**e for v, e in zip((x, y, z), mono)])))

    return np.array(
        [
            coeff(2, 0, 0), coeff(0, 2, 0), coeff(0, 0, 2),
            coeff(1, 1, 0) / 2, coeff(1, 0, 1) / 2, coeff(0, 1, 1) / 2,
            coeff(1, 0, 0) / 2, coeff(0, 1, 0) / 2, coeff(0, 0, 1) / 2,
            coeff(0, 0, 0),
        ]
    )


class TestFilletPlanes:
    def test_beta_half(self):
        e1, e2, alpha = fillet_planes(X_PLANE, Y_PLANE, 0.5)
        assert alpha == 0.5
        npt.assert_allclose(e1.g, [0.0, 1.0, 0.0], atol=1e-15)  # E1 = y
        npt.assert_allclose(e2.g, [1.0, 0.0, 0.0], atol=1e-15)  # E2 = x

    def test_beta_one(self):
        e1, e2, alpha = fillet_planes(X_PLANE, Y_PLANE, 1.0)
        assert alpha == 0.25
        npt.assert_allclose(e1.g, [-0.75, 1.25, 0.0])  # (5y - 3x)/4
        npt.assert_allclose(e2.g, [1.25, -0.75, 0.0])  # (5x - 3y)/4

    @pytest.mark.parametrize("beta", [0.1, 0.37, 0.5, 1.0, 2.0, 7.5])
    def test_alpha_beta_product(self, beta):
        _, _, alpha = fillet_planes(X_PLANE, Y_PLANE, beta)
        assert alpha * beta == pytest.approx(0.25, rel=1e-15)

    def test_parallel_stubs(self):
        with pytest.raises(ParallelStubsError):
            fillet_planes(X_PLANE, LinearForm((2.0, 0.0, 0.0), 1.0), 1.0)


def perp_stubs(lattice):
    views = {v.beam.id: v for v in stub_views_at_hub(lattice, "h0")}
    return views["b1"], views["b2"]


def one_row(lattice, **fields):
    """The fillet between beams b1 and b2 at hub h0, beta 1, as a one-row
    stack with ``fields`` replaced; a patch given to the extent and radius
    functions is rebuilt from its stubs and beta, so an edit goes here."""
    stack = build_fillet_for_spec(lattice, [FilletSpec("h0", "b1", "b2", 1.0)])
    return dataclasses.replace(stack, **fields)


def quadric_row(q: Quadric):
    """``q`` as the one quadric row ``(A, b, c)`` of a stack."""
    return q.A[None], q.b[None], np.array([q.c])


class TestBuildFillet:
    def test_opposite_axes_with_crossing_planes(self, perp_lattice):
        # Hand-built stubs: the planes cross, but the axes leave no outward bisector.
        # s2 reads its row of a copy of its beam stack whose axis row is edited.
        s1, s2 = perp_stubs(perp_lattice)
        axis = s2.stack.axis.copy()
        axis[s2.end, s2.row] = -s1.axis
        s2 = dataclasses.replace(s2, stack=dataclasses.replace(s2.stack, axis=axis))
        with pytest.raises(ParallelStubsError, match="stub axes are opposite"):
            build_fillet(s1, s2, 1.0)

    def test_beta_half_chamfer(self, perp_lattice_beta):
        lat = perp_lattice_beta(0.5)
        patch = build_fillet(*perp_stubs(lat), 0.5)
        # Q = z^2 - 1, a pair of parallel planes
        npt.assert_allclose(patch.Q.coeffs(), [0, 0, 1, 0, 0, 0, 0, 0, 0, -1], atol=1e-15)
        assert classify_quadric(patch.Q).label is QuadricClass.PARALLEL_PLANES
        assert patch.is_chamfer

    def test_beta_one_matches_symbolic_oracle(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 1.0)
        npt.assert_allclose(patch.Q.coeffs(), sympy_fillet_oracle(1.0), atol=1e-15)
        # both expressions produce identical coefficients
        h2e2 = subtract_square(patch.stub2.H, patch.E2)
        denom = np.linalg.norm(patch.Q.coeffs())
        assert np.linalg.norm((patch.Q - h2e2).coeffs()) <= 1e-12 * denom

    def test_tangent_to_hub_sphere(self, perp_lattice):
        # Where G1 = E1 = 0, grad Q = grad S exactly.
        patch = build_fillet(*perp_stubs(perp_lattice), 1.0)
        sphere = sphere_quadric(perp_lattice.hubs[0])
        # {G1 = x = 0} and {E1 = (5y-3x)/4 = 0} meet the sphere at (0, 0, +-1).
        for p in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
            npt.assert_allclose(patch.Q.gradient(p), sphere.gradient(p), atol=1e-15)
            assert abs(patch.Q.value(p)) <= 1e-15

    def test_shared_hub_required(self, perp_lattice):
        s1, s2 = perp_stubs(perp_lattice)
        views_far = stub_views_at_hub(perp_lattice, "h1")
        with pytest.raises(ValueError):
            build_fillet(s1, views_far[0], 1.0)

    def test_orientation_flip_keeps_quadric(self, perp_lattice):
        # Flipping both planes together is a no-op on the fillet quadric.
        patch = build_fillet(*perp_stubs(perp_lattice), 1.0)
        q_flip = subtract_square(patch.stub1.H, -patch.E1)
        npt.assert_array_equal(patch.Q.coeffs(), q_flip.coeffs())
        hub = patch.stub1.hub
        assert patch.E1.value(np.asarray(hub.center) + hub.radius * patch.bisector) > 0
        assert patch.E2.value(np.asarray(hub.center) + hub.radius * patch.bisector) > 0


class TestResidual:
    def test_zero_at_quarter_product(self, perp_lattice):
        s1, s2 = perp_stubs(perp_lattice)
        e1, e2, _ = fillet_planes(s1.G, s2.G, 1.3)
        res = fillet_residual(s1.H, s2.H, e1, e2)
        scale = max(np.abs(s1.H.coeffs()).max(), 1.0)
        assert np.abs(res.coeffs()).max() <= 1e-12 * scale

    def test_alpha_beta_one_case(self):
        # alpha = beta = 1 gives residual (1-4) F+ F- = -3(y^2 - x^2).
        h1 = Quadric(np.diag([0.0, 1.0, 1.0]), np.zeros(3), -1.0)
        h2 = Quadric(np.diag([1.0, 0.0, 1.0]), np.zeros(3), -1.0)
        f_plus = Y_PLANE + X_PLANE
        f_minus = Y_PLANE - X_PLANE
        e1 = f_plus + f_minus  # 2y
        e2 = f_plus - f_minus  # 2x
        res = fillet_residual(h1, h2, e1, e2)
        npt.assert_allclose(res.coeffs(), [3, -3, 0, 0, 0, 0, 0, 0, 0, 0], atol=1e-15)
        expect = linear_product(f_plus, f_minus).scaled(1.0 - 4.0)
        npt.assert_allclose(res.coeffs(), expect.coeffs(), atol=1e-15)

    def test_equal_planes_reduce_to_difference(self):
        h1 = Quadric(np.diag([0.0, 1.0, 1.0]), np.zeros(3), -1.0)
        h2 = Quadric(np.diag([1.0, 0.0, 1.0]), np.zeros(3), -1.0)
        e = LinearForm((0.3, -0.2, 0.9), 0.4)
        res = fillet_residual(h1, h2, e, e)
        npt.assert_array_equal(res.coeffs(), (h1 - h2).coeffs())
        f_pf_m = linear_product(Y_PLANE + X_PLANE, Y_PLANE - X_PLANE)
        npt.assert_allclose(res.coeffs(), f_pf_m.coeffs(), atol=1e-15)

    def test_residual_law_random_scales(self, perp_lattice):
        s1, s2 = perp_stubs(perp_lattice)
        rng = np.random.default_rng(17)
        for _ in range(50):
            beta = rng.uniform(0.1, 2.0)
            alpha = 1.0 / (4.0 * beta) * rng.choice([0.5, 2.0])
            f_minus = s2.G - s1.G
            f_plus = s2.G + s1.G
            e1 = f_plus.scaled(alpha) + f_minus.scaled(beta)
            e2 = f_plus.scaled(alpha) - f_minus.scaled(beta)
            res = fillet_residual(s1.H, s2.H, e1, e2)
            expect = linear_product(f_plus, f_minus).scaled(1.0 - 4.0 * alpha * beta)
            denom = max(np.linalg.norm(expect.coeffs()), 1e-300)
            assert np.linalg.norm((res - expect).coeffs()) <= 1e-12 * denom


class TestSingleQuadricIdentityRandom:
    def test_200_configurations(self):
        """Random hubs, random non-parallel stub planes, random beta."""
        rng = np.random.default_rng(2024)
        done = 0
        while done < 200:
            center = rng.uniform(-2, 2, 3)
            r = rng.uniform(0.5, 2.0)
            u1, u2 = rng.normal(size=(2, 3))
            u1 /= np.linalg.norm(u1)
            u2 /= np.linalg.norm(u2)
            if np.linalg.norm(np.cross(u1, u2)) < 1e-3:
                continue
            lam1, lam2 = rng.uniform(0.5, 2.0, 2)
            beta = rng.uniform(0.1, 2.0)
            g1 = LinearForm(lam1 * u1, lam1 * (rng.uniform(-0.9, 0.9) * r - u1 @ center))
            g2 = LinearForm(lam2 * u2, lam2 * (rng.uniform(-0.9, 0.9) * r - u2 @ center))
            s = Quadric(np.eye(3), -center, float(center @ center) - r * r)
            h1 = subtract_square(s, g1)
            h2 = subtract_square(s, g2)
            e1, e2, _ = fillet_planes(g1, g2, beta)
            q1 = subtract_square(h1, e1)
            q2 = subtract_square(h2, e2)
            denom = np.linalg.norm(q1.coeffs())
            assert np.linalg.norm((q1 - q2).coeffs()) <= 1e-12 * denom
            done += 1


class TestTangencyConics:
    def test_beta_one_ellipse(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 1.0)
        c1, c2 = patch.conic1, patch.conic2
        assert c1.klass is ConicClass.ELLIPSE
        assert c2.klass is ConicClass.ELLIPSE
        # farthest point of conic1 from the hub: (5/3, 1, 0) (or its antipode,
        # since the tangency plane passes through the hub center)
        pts = sample_conic(c1, 4096)
        far = pts[np.argmax(np.linalg.norm(pts, axis=1))]
        assert np.linalg.norm(far) == pytest.approx(math.sqrt(34) / 3, abs=1e-5)
        npt.assert_allclose(np.abs(far), [5 / 3, 1.0, 0.0], atol=2e-3)

    def test_beta_half_parallel_lines(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 0.5)
        assert patch.conic1.klass is ConicClass.PARALLEL_LINES
        assert patch.conic2.klass is ConicClass.PARALLEL_LINES

    def test_sphere_cap_sanity(self):
        from quador.conics import intersect_quadric_plane

        sphere = Quadric(np.eye(3), np.zeros(3), -1.0)
        conic = intersect_quadric_plane(sphere, LinearForm((0.0, 0.0, 1.0), -0.5))
        assert conic.klass is ConicClass.CIRCLE
        npt.assert_allclose(conic.radii, [math.sqrt(3) / 2] * 2, atol=1e-12)

    def test_first_order_tangency(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 1.0)
        for conic, h in ((patch.conic1, patch.stub1.H), (patch.conic2, patch.stub2.H)):
            for p in sample_conic(conic, 32):
                scale = max(1.0, float(p @ p))
                assert abs(h.value(p)) <= 1e-10 * scale
                assert abs(patch.Q.value(p)) <= 1e-10 * scale
                gq = patch.Q.gradient(p)
                gh = h.gradient(p)
                cosang = gq @ gh / (np.linalg.norm(gq) * np.linalg.norm(gh))
                assert math.acos(min(1.0, max(-1.0, cosang))) <= 1e-7


def jittered_cubic(seed: int) -> Lattice:
    """A 2x2x2 grid of hubs at spacing 4 with seeded jitter on every center
    and radius, joined by k=4 axis beams, with a fillet on every stub pair."""
    rng = np.random.default_rng(seed)
    cells = list(itertools.product(range(2), repeat=3))

    def name(cell):
        return "".join(map(str, cell))

    hubs = tuple(
        Hub("h" + name(cell), tuple(4.0 * np.array(cell) + rng.uniform(-0.1, 0.1, 3)),
            float(rng.uniform(0.95, 1.05)))
        for cell in cells
    )
    beams = tuple(
        Beam(f"b{name(cell)}{axis}", "h" + name(cell),
             "h" + name(c + (a == axis) for a, c in enumerate(cell)), 4.0)
        for cell, axis in itertools.product(cells, range(3))
        if cell[axis] == 0
    )
    stubs = {h.id: [b.id for b in beams if h.id in (b.hub_a, b.hub_b)] for h in hubs}
    fillets = tuple(
        FilletSpec(hub, bi, bj, 1.0)
        for hub, ids in stubs.items()
        for bi, bj in itertools.combinations(ids, 2)
    )
    return Lattice(hubs, beams, fillets)


class TestExtent:
    def test_beta_one(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 1.0)
        assert fillet_extent(patch) == pytest.approx(math.sqrt(34) / 3, abs=1e-12)

    def test_beta_two(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 2.0)
        assert fillet_extent(patch) == pytest.approx(math.sqrt(514) / 15, abs=1e-12)

    def test_beta_half_unbounded(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 0.5)
        assert fillet_extent(patch) == math.inf

    def test_closed_form_bounds_dense_samples(self):
        # The closed form is the true maximum: never below a dense sample of
        # the conic, and no further above it than the sampling gap allows.
        lattices = [load_lattice_path(p) for p in sorted(FIXTURES.glob("*.json"))]
        lattices.append(jittered_cubic(5))
        assert validate_lattice(lattices[-1]).ok
        checked = 0
        for lattice in lattices:
            for spec, beta in itertools.product(lattice.fillets, VERIFY_BETA_GRID):
                try:
                    patch = build_fillet_for_spec(lattice, dataclasses.replace(spec, beta=beta))
                except QuadorError:
                    continue
                conics = (patch.conic1, patch.conic2)
                if any(c.klass not in COMPACT_CLASSES for c in conics):
                    continue
                center = patch.stub1.hub.center
                sampled = max(
                    float(np.max(np.linalg.norm(sample_conic(c, 4096) - center, axis=1)))
                    for c in conics
                )
                extent = fillet_extent(patch)
                assert extent >= sampled * (1.0 - 1e-12)
                assert extent - sampled <= 1e-6
                checked += 1
        assert checked >= 100  # 115 of the grid's patches have compact conics

    @pytest.mark.parametrize("h", [0.0, 1.5])
    def test_circle_around_axis_through_hub(self, perp_lattice, h):
        # Every point of the circle is equally far from the hub center, so
        # the stationary-point quartic vanishes identically.
        r = 0.75
        # The cylinder x^2 + y^2 = r^2 cut by z = h: coefficients
        # (1, 0, 1, 0, 0, -r^2), center 0, axes I and radii (r, r) in the frame.
        cylinder = Quadric(np.diag([1.0, 1.0, 0.0]), np.zeros(3), -r * r)
        circle = _sections(quadric_row(cylinder), np.array([[0.0, 0.0, 1.0]]), np.array([-h]))
        c = circle.conic(0)
        assert (c.klass, c.coeffs, c.center.tolist(), c.axes.tolist(), c.radii) == (
            ConicClass.CIRCLE, (1.0, 0.0, 1.0, 0.0, 0.0, -r * r), [0.0, 0.0], np.eye(2).tolist(),
            (r, r))
        stack = one_row(perp_lattice, conic1=circle, conic2=circle)  # at hub h0, the origin
        assert fillet_extent(stack)[0] == pytest.approx(math.hypot(r, h), abs=1e-15)


class TestMinCurvatureRadius:
    def test_beta_one(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 1.0)
        assert fillet_min_curvature_radius(patch) == pytest.approx(0.4082, abs=1e-3)

    def test_bisector_along_a_null_direction(self, perp_lattice):
        # The parabolic cylinder z^2 - 2x - 2y + 1 has w.A.w == 0 along the
        # bisector w = (1, 1, 0)/sqrt(2), so the ray meets it at the root of a
        # linear equation.
        Q = Quadric(np.diag([0.0, 0.0, 1.0]), (-1.0, -1.0, 0.0), 1.0)
        stack = one_row(perp_lattice, Q=quadric_row(Q))
        w = stack.bisector[0]
        assert w @ Q.A @ w == 0.0
        k1, k2 = principal_curvatures(Q, -Q.c / (2.0 * (Q.b @ w)) * w)
        assert fillet_min_curvature_radius(stack) == [1.0 / max(abs(k1), abs(k2))]

    def test_sphere_control(self):
        # Same machinery applied to a hub sphere returns its radius.
        lat = Lattice(
            (Hub("h0", (0, 0, 0), 2.0), Hub("h1", (8, 0, 0), 2.0), Hub("h2", (0, 8, 0), 2.0)),
            (Beam("b1", "h0", "h1", 8.0), Beam("b2", "h0", "h2", 8.0)),
            (),
        )
        sphere = one_row(lat, Q=quadric_row(sphere_quadric(lat.hubs[0])))
        assert fillet_min_curvature_radius(sphere) == [pytest.approx(2.0, abs=1e-12)]

    def test_beta_half_planar_infinite(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 0.5)
        assert fillet_min_curvature_radius(patch) == math.inf

    def test_gradient_vanishing_at_the_hit(self):
        # Stubs to (4, 4, 0) and (4, -4, 0) make the bisector exactly (1, 0, 0).
        # Q = |x - p|^2 with p = 0.5 * bisector: the ray meets Q = 0 at a double
        # root (discriminant exactly 0), at p, where the gradient of Q vanishes.
        k = math.sqrt(32.0)
        lat = Lattice(
            (Hub("h0", (0, 0, 0), 1.0), Hub("h1", (4, 4, 0), 1.0), Hub("h2", (4, -4, 0), 1.0)),
            (Beam("b1", "h0", "h1", k), Beam("b2", "h0", "h2", k)),
            (),
        )
        bisector = one_row(lat).bisector[0]
        assert bisector.tolist() == [1.0, 0.0, 0.0]
        p = 0.5 * bisector
        point = one_row(lat, Q=quadric_row(Quadric(np.eye(3), -p, float(p @ p))))
        (error,) = fillet_min_curvature_radius(point)
        assert isinstance(error, SingularPointError)
        assert error.code == "SINGULAR_POINT"
        assert str(error) == "gradient vanishes at (0.5, 0.0, 0.0)"


BETA_GRID = (0.6, 0.8, 1.0, 1.25, 1.5)


class TestFanProperty:
    def test_identity_and_tangency_across_grid(self, perp_lattice):
        s1, s2 = perp_stubs(perp_lattice)
        for beta in BETA_GRID:
            patch = build_fillet(s1, s2, beta)
            q2 = subtract_square(patch.stub2.H, patch.E2)
            denom = np.linalg.norm(patch.Q.coeffs())
            assert np.linalg.norm((patch.Q - q2).coeffs()) <= 1e-12 * denom
            for conic, h in ((patch.conic1, patch.stub1.H), (patch.conic2, patch.stub2.H)):
                for p in sample_conic(conic, 32):
                    scale = max(1.0, float(p @ p))
                    assert abs(h.value(p)) <= 1e-10 * scale
                    assert abs(patch.Q.value(p)) <= 1e-10 * scale

    def test_extent_strictly_monotone(self, perp_lattice):
        s1, s2 = perp_stubs(perp_lattice)
        extents = [fillet_extent(build_fillet(s1, s2, b)) for b in BETA_GRID]
        assert all(b < a for a, b in zip(extents, extents[1:]))  # decreasing

    def test_curvature_radius_observed_values(self, perp_lattice):
        # The probe radius is *not* monotone over this grid under the
        # literal plane formulas; freeze the observed values instead.
        s1, s2 = perp_stubs(perp_lattice)
        radii = [fillet_min_curvature_radius(build_fillet(s1, s2, b)) for b in BETA_GRID]
        npt.assert_allclose(
            radii, [0.390868, 0.551985, 0.408248, 0.246885, 0.166667], atol=1e-5
        )


class TestMaterialAddition:
    def test_fillet_value_below_stub_everywhere(self, perp_lattice):
        patch = build_fillet(*perp_stubs(perp_lattice), 1.0)
        rng = np.random.default_rng(31)
        for _ in range(10000):
            p = rng.uniform(-3, 5, 3)
            q = patch.Q.value(p)
            h1 = patch.stub1.H.value(p)
            scale = max(1.0, abs(h1))
            assert q <= h1 + 1e-12 * scale


class TestFilletForSpec:
    def test_resolves_beams(self, perp_lattice):
        patch = build_fillet_for_spec(perp_lattice, FilletSpec("h0", "b1", "b2", 1.0))
        assert patch.stub1.hub.id == "h0"
        assert (patch.stub1.beam.id, patch.stub2.beam.id) == ("b1", "b2")
        assert patch.alpha == 0.25
