"""Lattice model: spheres, beam quadors, stub views, validation."""

import math

import numpy as np
import numpy.testing as npt
import pytest
import sympy as sp

from quador.algebra import subtract_square
from quador.errors import DegenerateBeamError, PlaneMissesSphereError, UnknownHubError
from quador.lattice import (
    Beam,
    FilletSpec,
    Hub,
    Lattice,
    beam_quador,
    beam_radius,
    sphere_quadric,
    stub_views_at_hub,
    validate_lattice,
)


def symbolic_beam_oracle(ca, ra, cb, rb, k):
    """Independent exact-arithmetic expansion of the beam construction.

    Returns the 10 coefficients (Axx, Ayy, Azz, Axy, Axz, Ayz, bx, by, bz, c)
    of H = S_a - G_a^2 computed with rationals, plus a proof obligation that
    S_b - G_b^2 expands to the identical polynomial.
    """
    x, y, z = sp.symbols("x y z")
    ca = [sp.nsimplify(v) for v in ca]
    cb = [sp.nsimplify(v) for v in cb]
    ra, rb, k = sp.nsimplify(ra), sp.nsimplify(rb), sp.nsimplify(k)
    Sa = (x - ca[0]) ** 2 + (y - ca[1]) ** 2 + (z - ca[2]) ** 2 - ra**2
    Sb = (x - cb[0]) ** 2 + (y - cb[1]) ** 2 + (z - cb[2]) ** 2 - rb**2
    L = sp.expand(Sa - Sb)
    Ga = sp.expand((L / k + k) / 2)
    Gb = sp.expand(Ga - k)
    H1 = sp.expand(Sa - Ga**2)
    H2 = sp.expand(Sb - Gb**2)
    assert sp.simplify(H1 - H2) == 0, "two-sphere tangency fails symbolically"
    poly = sp.Poly(H1, x, y, z)

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


class TestSphereQuadric:
    def test_unit_sphere(self):
        q = sphere_quadric(Hub("h", (0, 0, 0), 1.0))
        npt.assert_array_equal(q.coeffs(), [1, 1, 1, 0, 0, 0, 0, 0, 0, -1])
        assert q.value((0, 0, 0)) == -1.0

    def test_offset_sphere(self):
        q = sphere_quadric(Hub("h", (4, 0, 0), 2.0))
        # (x-4)^2 + y^2 + z^2 - 4
        npt.assert_array_equal(q.coeffs(), [1, 1, 1, 0, 0, 0, -4, 0, 0, 12])

    @pytest.mark.parametrize("center,r", [((0, 0, 0), 1.0), ((4, 0, 0), 2.0), ((1, -2, 3), 0.5)])
    def test_on_surface_point(self, center, r):
        q = sphere_quadric(Hub("h", center, r))
        p = (center[0] + r, center[1], center[2])
        assert q.value(p) == pytest.approx(0.0, abs=1e-12)


class TestBeamQuador:
    def test_symmetric_cylinder(self):
        geom = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), 4.0)
        npt.assert_array_equal(geom.H.coeffs(), [0, 1, 1, 0, 0, 0, 0, 0, 0, -1])
        npt.assert_allclose(geom.G_a.g, [1, 0, 0])
        assert geom.G_a.c0 == 0.0
        npt.assert_allclose(geom.G_b.g, [-1, 0, 0])
        assert geom.G_b.c0 == 4.0

    def test_asymmetric_beam_exact(self, asym_hubs):
        ha, hb = asym_hubs
        geom = beam_quador(ha, hb, 4.0)
        npt.assert_allclose(geom.G_a.g, [1, 0, 0])
        assert geom.G_a.c0 == pytest.approx(0.375, abs=0)
        expect = symbolic_beam_oracle((0, 0, 0), 1, (4, 0, 0), 2, 4)
        npt.assert_allclose(geom.H.coeffs(), expect, atol=1e-15)
        # frozen closed form: y^2 + z^2 - 0.75 x - 73/64
        npt.assert_allclose(
            geom.H.coeffs(), [0, 1, 1, 0, 0, 0, -0.375, 0, 0, -73 / 64], atol=1e-15
        )
        # G_b sign-normalized toward hub a: 29/8 - x
        npt.assert_allclose(geom.G_b.g, [-1, 0, 0])
        assert geom.G_b.c0 == pytest.approx(29 / 8, abs=0)

    def test_degenerate_k(self):
        with pytest.raises(DegenerateBeamError):
            beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), 0.0)

    def test_plane_misses_sphere(self):
        # Tiny k swings the tangency plane far outside the spheres.
        with pytest.raises(PlaneMissesSphereError):
            beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), 0.1)

    def test_two_sphere_tangency_random(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            ca = rng.uniform(-3, 3, 3)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            d = rng.uniform(2.5, 6.0)
            cb = ca + d * u
            ra, rb = rng.uniform(0.4, 1.0, 2)
            k = d * rng.uniform(0.8, 1.25)
            ha, hb = Hub("a", tuple(ca), ra), Hub("b", tuple(cb), rb)
            try:
                geom = beam_quador(ha, hb, k)
            except PlaneMissesSphereError:
                continue
            checked += 1
            h_a = subtract_square(sphere_quadric(ha), geom.G_a)
            h_b = subtract_square(sphere_quadric(hb), geom.G_b)
            denom = np.linalg.norm(h_a.coeffs())
            assert np.linalg.norm((h_a - h_b).coeffs()) <= 1e-12 * denom

    def test_sign_normalization_invariance(self):
        geom = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 2.0), 4.0)
        s = sphere_quadric(Hub("a", (0, 0, 0), 1.0))
        h_pos = subtract_square(s, geom.G_a)
        h_neg = subtract_square(s, -geom.G_a)
        npt.assert_array_equal(h_pos.coeffs(), h_neg.coeffs())

    def test_negative_k_builds(self):
        # The quadric depends on G^2 only, so k and -k give the same beam.
        g1 = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), 4.0)
        g2 = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), -4.0)
        npt.assert_allclose(g1.H.coeffs(), g2.H.coeffs(), atol=1e-15)
        npt.assert_allclose(g1.G_a.g, g2.G_a.g)


class TestSphereStubTangency:
    def test_gradient_equality_on_circle(self, asym_hubs):
        ha, hb = asym_hubs
        geom = beam_quador(ha, hb, 4.0)
        for hub, G in ((ha, geom.G_a), (hb, geom.G_b)):
            sphere = sphere_quadric(hub)
            H = subtract_square(sphere, G)
            gn = G.grad_norm()
            n = G.g / gn
            offset = -G.value(hub.center) / gn
            rc = math.sqrt(hub.radius**2 - offset**2)
            w1 = np.cross(n, [0.0, 0.0, 1.0])
            w1 /= np.linalg.norm(w1)
            w2 = np.cross(n, w1)
            p0 = np.asarray(hub.center) + offset * n
            for t in np.linspace(0, 2 * math.pi, 32, endpoint=False):
                p = p0 + rc * (math.cos(t) * w1 + math.sin(t) * w2)
                gs = sphere.gradient(p)
                gh = H.gradient(p)
                assert np.linalg.norm(gh - gs) <= 1e-12 * np.linalg.norm(gs)


class TestBeamRadius:
    def test_symmetric_cylinder_constant(self):
        geom = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), 4.0)
        for s in np.linspace(0, 4, 9):
            assert beam_radius(geom, float(s)) == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_stations(self, asym_hubs):
        geom = beam_quador(*asym_hubs, 4.0)
        assert beam_radius(geom, 0.0) == pytest.approx(math.sqrt(73) / 8, abs=1e-12)
        assert beam_radius(geom, 4.0) == pytest.approx(math.sqrt(4.140625), abs=1e-12)

    def test_consistency_with_quadric(self, asym_hubs):
        geom = beam_quador(*asym_hubs, 4.0)
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = rng.uniform(0.0, geom.length)
            rho = beam_radius(geom, float(s))
            w = np.cross(geom.axis, rng.normal(size=3))
            w /= np.linalg.norm(w)
            p = np.asarray(geom.hub_a.center) + s * geom.axis + rho * w
            scale = max(1.0, float(np.abs(geom.H.coeffs()).max()) * float(p @ p))
            assert abs(geom.H.value(p)) <= 1e-10 * scale

    def test_no_real_section_returns_none(self):
        # Ellipsoid-like beam (k > distance) pinches off beyond the hubs.
        geom = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), 4.5)
        assert beam_radius(geom, -4.0) is None
        assert beam_radius(geom, 2.0) is not None


class TestStubViews:
    def test_two_beam_hub(self, perp_lattice):
        views = stub_views_at_hub(perp_lattice, "h0")
        assert [v.beam.id for v in views] == ["b1", "b2"]
        g1, g2 = views[0].G, views[1].G
        npt.assert_allclose(g1.g, [1, 0, 0])
        assert g1.c0 == 0.0
        npt.assert_allclose(g2.g, [0, 1, 0])
        assert g2.c0 == 0.0
        npt.assert_allclose(views[0].axis, [1, 0, 0])
        # H computed hub-locally is exactly S - G^2
        s = sphere_quadric(perp_lattice.hub("h0"))
        for v in views:
            npt.assert_array_equal(v.H.coeffs(), subtract_square(s, v.G).coeffs())

    def test_empty_hub(self, perp_lattice):
        assert stub_views_at_hub(perp_lattice, "h1") != []
        assert stub_views_at_hub(perp_lattice, "h2") != []
        lone = Lattice((Hub("solo", (9, 9, 9), 1.0),), (), ())
        assert stub_views_at_hub(lone, "solo") == []

    def test_unknown_hub(self, perp_lattice):
        with pytest.raises(UnknownHubError):
            stub_views_at_hub(perp_lattice, "nope")

    def test_beam_error_raised_at_both_ends(self, perp_lattice):
        bad = Lattice(perp_lattice.hubs, (Beam("b1", "h0", "h1", 0.0),), ())
        for hub_id in ("h0", "h1"):
            with pytest.raises(DegenerateBeamError):
                stub_views_at_hub(bad, hub_id)
        assert stub_views_at_hub(bad, "h2") == []

    def test_cached_views_are_not_shared(self, perp_lattice):
        views = stub_views_at_hub(perp_lattice, "h0")
        views.clear()
        assert len(stub_views_at_hub(perp_lattice, "h0")) == 2


class TestValidation:
    def test_clean_fixture(self, perp_lattice):
        report = validate_lattice(perp_lattice)
        assert report.ok
        assert report.entries == []

    def test_degenerate_k_entry(self, perp_lattice):
        bad = Lattice(
            perp_lattice.hubs,
            (Beam("b1", "h0", "h1", 0.0),),
            (),
        )
        report = validate_lattice(bad)
        assert not report.ok
        assert "DEGENERATE_K" in report.codes()

    def test_fillet_pair_mismatch(self, perp_lattice):
        bad = Lattice(
            perp_lattice.hubs,
            perp_lattice.beams,
            (FilletSpec("h1", "b1", "b2", 1.0),),  # b2 does not touch h1
        )
        report = validate_lattice(bad)
        assert "FILLET_PAIR_MISMATCH" in report.codes()

    def test_duplicate_and_missing_ids(self):
        lat = Lattice(
            (Hub("h", (0, 0, 0), 1.0), Hub("h", (3, 0, 0), 1.0)),
            (Beam("b", "h", "ghost", 3.0),),
            (),
        )
        codes = validate_lattice(lat).codes()
        assert "DUPLICATE_ID" in codes
        assert "MISSING_ID" in codes

    def test_nonpositive_radius(self):
        lat = Lattice((Hub("h", (0, 0, 0), -1.0),), (), ())
        assert "NONPOSITIVE_RADIUS" in validate_lattice(lat).codes()

    def test_coincident_hubs(self):
        lat = Lattice(
            (Hub("a", (0, 0, 0), 1.0), Hub("b", (0, 0, 0), 1.0)),
            (Beam("ab", "a", "b", 1.0),),
            (),
        )
        report = validate_lattice(lat)
        assert "COINCIDENT_HUBS" in report.codes()
        report.entries.clear()  # each call returns its own report
        assert "COINCIDENT_HUBS" in validate_lattice(lat).codes()

    def test_overlap_warning(self):
        lat = Lattice(
            (Hub("a", (0, 0, 0), 1.0), Hub("b", (1.5, 0, 0), 1.0)),
            (),
            (),
        )
        report = validate_lattice(lat)
        assert report.ok  # warning only
        assert "HUB_OVERLAP" in report.codes()

    def test_parallel_stub_fillet_rejected(self):
        lat = Lattice(
            (
                Hub("h0", (0, 0, 0), 1.0),
                Hub("h1", (4, 0, 0), 1.0),
                Hub("h2", (-4, 0, 0), 1.0),
            ),
            (Beam("b1", "h0", "h1", 4.0), Beam("b2", "h0", "h2", 4.0)),
            (FilletSpec("h0", "b1", "b2", 1.0),),
        )
        report = validate_lattice(lat)
        assert not report.ok
        assert "PARALLEL_STUBS" in report.codes()

    def test_chamfer_unbounded_warns_locality(self, perp_lattice_beta):
        report = validate_lattice(perp_lattice_beta(0.5))
        assert report.ok
        assert "FILLET_ACTIVE_AT_LOCALITY" in report.codes()

    def test_wedge_overlap_warning(self):
        # Three nearly coplanar beams with two fillets sharing the middle stub.
        lat = Lattice(
            (
                Hub("h0", (0, 0, 0), 1.0),
                Hub("h1", (4, 0, 0), 1.0),
                Hub("h2", (0, 4, 0), 1.0),
                Hub("h3", (2.83, 2.83, 0), 1.0),
            ),
            (
                Beam("b1", "h0", "h1", 4.0),
                Beam("b2", "h0", "h2", 4.0),
                Beam("b3", "h0", "h3", 4.0),
            ),
            (
                FilletSpec("h0", "b1", "b3", 1.0),
                FilletSpec("h0", "b3", "b2", 1.0),
            ),
        )
        report = validate_lattice(lat)
        assert report.ok
        assert "FILLET_WEDGE_OVERLAP" in report.codes()
