"""Lattice model: spheres, beam quadors, stub views, validation."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import sympy as sp

import quador
from quador.algebra import subtract_square
from quador.cli import main
from quador.errors import (
    DegenerateBeamError,
    MissingIdError,
    PlaneMissesSphereError,
    QuadorError,
    RadiusOverflowError,
    UnknownHubError,
    ValidationError,
)
from quador.fillet import build_fillet_for_spec
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
from quador.latticefile import load_lattice, load_lattice_path

from form_reference import neg
from test_fillet import jittered_cubic

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "bench"))

from inputs import cubic_lattice, lattice_json  # noqa: E402


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


def three_hub_lattice(theta, d1, d2, r1, r2, k1, k2, beta) -> Lattice:
    """Hub ``h0`` of radius 1 at the origin, ``h1`` of radius ``r1`` at
    ``(d1, 0, 0)`` and ``h2`` of radius ``r2`` at ``d2 (cos theta, sin
    theta, 0)``; beams ``b1`` = h0-h1 and ``b2`` = h0-h2 of ``k1`` and
    ``k2``; one fillet ``h0: b1+b2`` of ``beta``."""
    return Lattice(
        (Hub("h0", (0.0, 0.0, 0.0), 1.0), Hub("h1", (d1, 0.0, 0.0), r1),
         Hub("h2", (d2 * math.cos(theta), d2 * math.sin(theta), 0.0), r2)),
        (Beam("b1", "h0", "h1", k1), Beam("b2", "h0", "h2", k2)),
        (FilletSpec("h0", "b1", "b2", beta),),
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
        npt.assert_array_equal(geom.stub_a.H.coeffs(), [0, 1, 1, 0, 0, 0, 0, 0, 0, -1])
        npt.assert_allclose(geom.stub_a.G.g, [1, 0, 0])
        assert geom.stub_a.G.c0 == 0.0
        npt.assert_allclose(geom.stub_b.G.g, [-1, 0, 0])
        assert geom.stub_b.G.c0 == 4.0

    def test_asymmetric_beam_exact(self, asym_hubs):
        ha, hb = asym_hubs
        geom = beam_quador(ha, hb, 4.0)
        npt.assert_allclose(geom.stub_a.G.g, [1, 0, 0])
        assert geom.stub_a.G.c0 == pytest.approx(0.375, abs=0)
        expect = symbolic_beam_oracle((0, 0, 0), 1, (4, 0, 0), 2, 4)
        npt.assert_allclose(geom.stub_a.H.coeffs(), expect, atol=1e-15)
        # frozen closed form: y^2 + z^2 - 0.75 x - 73/64
        npt.assert_allclose(
            geom.stub_a.H.coeffs(), [0, 1, 1, 0, 0, 0, -0.375, 0, 0, -73 / 64], atol=1e-15
        )
        # G_b sign-normalized toward hub a: 29/8 - x
        npt.assert_allclose(geom.stub_b.G.g, [-1, 0, 0])
        assert geom.stub_b.G.c0 == pytest.approx(29 / 8, abs=0)

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
            h_a = subtract_square(sphere_quadric(ha), geom.stub_a.G)
            h_b = subtract_square(sphere_quadric(hb), geom.stub_b.G)
            denom = np.linalg.norm(h_a.coeffs())
            assert np.linalg.norm((h_a - h_b).coeffs()) <= 1e-12 * denom

    def test_sign_normalization_invariance(self):
        geom = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 2.0), 4.0)
        s = sphere_quadric(Hub("a", (0, 0, 0), 1.0))
        h_pos = subtract_square(s, geom.stub_a.G)
        h_neg = subtract_square(s, neg(geom.stub_a.G))
        npt.assert_array_equal(h_pos.coeffs(), h_neg.coeffs())

    @pytest.mark.parametrize("k", [1e-300, -1e-300, 5e-324, 1e-308])
    def test_overflowing_planes_are_degenerate(self, k):
        # d/|k| overflows: the planes' gradient norm or the beam quadric is not finite.
        with pytest.raises(DegenerateBeamError, match="tangency planes overflow"):
            beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), k)

    def test_negative_k_builds(self):
        # The quadric depends on G^2 only, so k and -k give the same beam.
        g1 = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), 4.0)
        g2 = beam_quador(Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0), -4.0)
        npt.assert_allclose(g1.stub_a.H.coeffs(), g2.stub_a.H.coeffs(), atol=1e-15)
        npt.assert_allclose(g1.stub_a.G.g, g2.stub_a.G.g)


class TestSphereStubTangency:
    def test_gradient_equality_on_circle(self, asym_hubs):
        ha, hb = asym_hubs
        geom = beam_quador(ha, hb, 4.0)
        for hub, G in ((ha, geom.stub_a.G), (hb, geom.stub_b.G)):
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
            w = np.cross(geom.stub_a.axis, rng.normal(size=3))
            w /= np.linalg.norm(w)
            p = np.asarray(geom.stub_a.hub.center) + s * geom.stub_a.axis + rho * w
            scale = max(1.0, float(np.abs(geom.stub_a.H.coeffs()).max()) * float(p @ p))
            assert abs(geom.stub_a.H.value(p)) <= 1e-10 * scale

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
        s = sphere_quadric(perp_lattice.hubs[0])
        for v in views:
            npt.assert_array_equal(v.H.coeffs(), subtract_square(s, v.G).coeffs())

    def test_empty_hub(self, perp_lattice):
        assert stub_views_at_hub(perp_lattice, "h1") != []
        assert stub_views_at_hub(perp_lattice, "h2") != []
        lone = Lattice((Hub("solo", (9, 9, 9), 1.0),), (), ())
        assert stub_views_at_hub(lone, "solo") == []

    def test_unknown_hub(self, perp_lattice):
        with pytest.raises(UnknownHubError, match="^no hub with id 'nope'$"):
            stub_views_at_hub(perp_lattice, "nope")

    def test_beam_at_missing_hub_raises_validation_code(self, perp_lattice):
        h0, _, h2 = perp_lattice.hubs
        lat = Lattice((h0, h2), (Beam("b1", "h0", "ghost", 4.0), Beam("b2", "h0", "h2", 4.0)),
                      (FilletSpec("h0", "b1", "b2", 1.0),))
        (issue,) = [i for i in validate_lattice(lat).errors if i.subject == "b1"]
        assert issue.code == "MISSING_ID"
        for build in (lambda: stub_views_at_hub(lat, "h0"),
                      lambda: build_fillet_for_spec(lat, lat.fillets[0])):
            with pytest.raises(MissingIdError) as exc:
                build()
            assert (exc.value.code, str(exc.value)) == (issue.code, issue.message)
        assert [v.beam.id for v in stub_views_at_hub(lat, "h2")] == ["b2"]
        with pytest.raises(UnknownHubError, match="^no hub with id 'ghost'$"):
            stub_views_at_hub(lat, "ghost")

    def test_beam_error_raised_at_both_ends(self, perp_lattice):
        bad = Lattice(perp_lattice.hubs, (Beam("b1", "h0", "h1", 0.0),), ())
        for hub_id in ("h0", "h1"):
            with pytest.raises(DegenerateBeamError):
                stub_views_at_hub(bad, hub_id)
        assert stub_views_at_hub(bad, "h2") == []

    @pytest.mark.parametrize("hub_id", ["h0", "h1"])
    def test_cached_error_holds_no_caller_frame(self, perp_lattice, hub_id):
        # h1's sphere fails; h0's views fail with the beam at h1.
        hubs = (perp_lattice.hubs[0], dataclasses.replace(perp_lattice.hubs[1], radius=-1.0))
        bad = dataclasses.replace(perp_lattice, hubs=hubs + perp_lattice.hubs[2:])
        cached = bad._resolved.stubs[hub_id]

        class Local:
            pass

        def catch():
            local = Local()
            try:
                stub_views_at_hub(bad, hub_id)
            except QuadorError as exc:
                return weakref.ref(local), exc is cached, type(exc), exc.code, str(exc)

        ref, same, kind, code, text = catch()
        gc.collect()
        assert cached.__traceback__ is None and cached.__context__ is None
        assert ref() is None
        assert (same, kind, code, text) == (False, type(cached), cached.code, str(cached))
        assert text == "hub 'h1' has radius -1.0"

    def test_cached_views_are_not_shared(self, perp_lattice):
        views = stub_views_at_hub(perp_lattice, "h0")
        views.clear()
        assert len(stub_views_at_hub(perp_lattice, "h0")) == 2


class TestValidation:
    def test_clean_fixture(self, perp_lattice):
        report = validate_lattice(perp_lattice)
        assert report.ok
        assert report.entries == []

    def test_radius_square_overflow(self, perp_lattice):
        top = math.sqrt(sys.float_info.max)
        big = math.nextafter(top, math.inf)
        assert math.isfinite(top**2)
        with pytest.raises(OverflowError):
            big**2
        sphere_quadric(Hub("h", (0, 0, 0), top))
        assert validate_lattice(Lattice((Hub("h", (0, 0, 0), top),))).ok
        with pytest.raises(RadiusOverflowError):
            sphere_quadric(Hub("h", (0, 0, 0), big))
        hub_a, hub_b = perp_lattice.hubs[:2]
        with pytest.raises(RadiusOverflowError):
            beam_quador(hub_a, dataclasses.replace(hub_b, radius=big), 4.0)
        # Beams and fillets at the hub are not reported again.
        hubs = (dataclasses.replace(hub_a, radius=big),) + perp_lattice.hubs[1:]
        report = validate_lattice(dataclasses.replace(perp_lattice, hubs=hubs))
        assert [(e.code, e.subject) for e in report.errors] == [("RADIUS_OVERFLOW", "h0")]

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

    def test_self_loop(self):
        lat = Lattice((Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0)),
                      (Beam("loop", "a", "a", 4.0),), ())
        assert [(e.code, e.subject, e.message) for e in validate_lattice(lat).errors] == [
            ("SELF_LOOP", "loop", "beam 'loop' joins a hub to itself")]

    def test_duplicate_beam_id(self):
        lat = Lattice((Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0)),
                      (Beam("ab", "a", "b", 4.0), Beam("ab", "b", "a", 4.0)), ())
        assert [(e.code, e.subject, e.message) for e in validate_lattice(lat).errors] == [
            ("DUPLICATE_ID", "ab", "duplicate beam id 'ab'")]

    def test_wedge_orientation(self):
        lat = three_hub_lattice(2.1277, 3.6779, 2.7134, 1.1658, 0.9304, 2.98, 2.6749, 2.0)
        assert [(e.code, e.subject) for e in validate_lattice(lat).errors] == [
            ("WEDGE_ORIENTATION", "h0:b1+b2")]

    def test_empty_conic(self):
        shape = (0.2838, 2.2495, 3.8226, 1.3711, 0.8038, 2.2393, 4.3766)
        report = validate_lattice(three_hub_lattice(*shape, 1.5))
        assert [(e.code, e.subject) for e in report.errors] == [("EMPTY_CONIC", "h0:b1+b2")]
        assert validate_lattice(three_hub_lattice(*shape, 0.7)).ok

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



# sha256 of json.dumps([[severity, code, subject, message], ...]) of each
# lattice's validation entries.  The fixtures and generated lattices build,
# so their digest is that of an empty list; each of _FAILING's fails, and
# its digest pins the codes, subjects and messages.
FROZEN_ENTRIES = {
    "asymmetric_beam": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "perpendicular_beta05": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "perpendicular_beta1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "single_hub": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "cubic-2x2x2-s0": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "cubic-2x2x2-s1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "cubic-2x2x2-s2": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "cubic-3x3x2-s1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "jittered-5": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "mixed": "bbe90c864fc0b3f6278c233dab3bf08ab4500fc247ba8d2cae248df899263d41",
    "DUPLICATE_ID": "ad99e483ac9c7be07cff4cb28fbbf67134f7885a4f7579ae83768b8c6d3d34d2",
    "SELF_LOOP": "cbac7be52924e073206eb0e41ecd49d8e80e8a86ac5fb154c36a3eb137c6b53a",
    "COINCIDENT_HUBS": "9fd147ac7297de6c05a325d2bbcd164f4d58fa3d7b1d2278242ab563d29b3744",
    "MISSING_ID": "85c4411e55ba6cf15d328465af1081b4097523851f1d9b62b883d6b824a32975",
    "NONPOSITIVE_RADIUS": "41f106905b3148c64c8c1a6a0434510c186cde178b865719e4456cc8a55a7032",
    "RADIUS_OVERFLOW": "b29ab57af6006eee97b173c3ad65fe990492df875fd6ae5f54456defff0aeced",
    "CENTER_OVERFLOW": "90739188688edf960578046bfbaa34caa2e2cc57131940ce5f94a216f92a6786",
    "DEGENERATE_K": "278faef6c66cd23346baffb3f13a94d23dfff2db9c602f4e4751443caca5eec8",
    "PLANE_MISSES_SPHERE": "5636043c60819c8376068558349fc35c8a7f8cc9560ff4d46fb29942613d0313",
    "NONPOSITIVE_BETA": "beeee7e9065c9e75c0dfd31bcabb6dfc35427325b1632d08c9f2be816983f448",
    "FILLET_PAIR_MISMATCH": "3ef2deaca222cc3ad5919a9503736c108b78870fd336a661fec5f320946562bc",
    "IDENTITY_VIOLATION": "114dbad7c6fc7426c6517a2b79048b228dd520f3616152a3365bdb415f3e7a43",
    "PARALLEL_STUBS": "5ce6347b5889f79219ae039fda40621b4649fbc8345904d60b3137ccc44df7d4",
    "WEDGE_ORIENTATION": "7dbc186501d7ec2d2a8ee84f2a692ddb501a2a0872da332beb5e1eb44ff9236a",
    "EMPTY_CONIC": "30c8317d7874f54f35d0c0411f595a3c19f98d0c919b21b8363867a7ac9a6393",
}


def _frozen_lattice(name: str) -> Lattice:
    if name in _FAILING:
        return _FAILING[name]()
    if name.startswith("cubic-"):
        _, shape, seed = name.split("-")
        doc = cubic_lattice(tuple(map(int, shape.split("x"))), int(seed[1:]))
        return load_lattice(lattice_json(doc))
    if name == "jittered-5":
        return jittered_cubic(5)
    return load_lattice_path(FIXTURES / f"{name}.json")


def _mixed_document() -> dict:
    """``perpendicular_beta05.json`` with two failing parts among parts that
    build: a beam at ``k = 0``, an overlapping hub pair and, after the fillet
    that builds, a fillet naming an unknown beam."""
    doc = json.loads((FIXTURES / "perpendicular_beta05.json").read_text())
    doc["hubs"] += [{"id": "h3", "center": [0, 0, 4], "radius": 1},
                    {"id": "h4", "center": [0, 0, 5], "radius": 1}]
    doc["beams"].append({"id": "b3", "hubs": ["h1", "h3"], "k": 0})
    doc["fillets"].append({"hub": "h0", "beams": ["b1", "ghost"], "beta": 1})
    return doc


def _unvalidated(doc: dict) -> Lattice:
    """The lattice of a document, built without ``load_lattice``'s validation."""
    return Lattice(
        tuple(Hub(h["id"], tuple(map(float, h["center"])), float(h["radius"]))
              for h in doc["hubs"]),
        tuple(Beam(b["id"], *b["hubs"], float(b["k"])) for b in doc["beams"]),
        tuple(FilletSpec(f["hub"], *f["beams"], float(f["beta"])) for f in doc["fillets"]))


def _beta1_with(make) -> Lattice:
    """``perpendicular_beta1.json`` as one of the ``_with_*`` helpers changes it."""
    return make(_frozen_lattice("perpendicular_beta1"))[0]


def _pair(a: Hub, b: Hub, *beams: Beam) -> Lattice:
    return Lattice((a, b), beams, ())


_A, _B = Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0)
# A lattice that fails to build, per build-time error code, and the mixed
# document with two failing parts among parts that build.
_FAILING = {
    "mixed": lambda: _unvalidated(_mixed_document()),
    "DUPLICATE_ID": lambda: _pair(_A, _B, Beam("ab", "a", "b", 4.0), Beam("ab", "b", "a", 4.0)),
    "SELF_LOOP": lambda: _pair(_A, _B, Beam("loop", "a", "a", 4.0)),
    "COINCIDENT_HUBS": lambda: _pair(_A, Hub("b", (0, 0, 0), 1.0), Beam("ab", "a", "b", 1.0)),
    "MISSING_ID": lambda: _beta1_with(_with_fillet(beam_j="ghost")),
    "NONPOSITIVE_RADIUS": lambda: _beta1_with(_with_hub0(radius=-1.0)),
    "RADIUS_OVERFLOW": lambda: _beta1_with(_with_hub0(radius=_BIG)),
    "CENTER_OVERFLOW": lambda: _beta1_with(_with_hub0(center=(1e200, 0.0, 0.0))),
    "DEGENERATE_K": lambda: _beta1_with(_with_k(0.0)),
    "PLANE_MISSES_SPHERE": lambda: _beta1_with(lambda lat: (dataclasses.replace(
        lat, hubs=lat.hubs + (Hub("h3", (0, 0, 4), 1.0),),
        beams=lat.beams + (Beam("b3", "h0", "h3", 0.5),)),)),
    "NONPOSITIVE_BETA": lambda: _beta1_with(_with_fillet(beta=0.0)),
    "FILLET_PAIR_MISMATCH": lambda: _beta1_with(_with_fillet(hub="h1")),
    "IDENTITY_VIOLATION": lambda: _beta1_with(_with_fillet(beta=1e-300)),
    "PARALLEL_STUBS": lambda: Lattice(
        (Hub("h0", (0, 0, 0), 1.0), Hub("h1", (4, 0, 0), 1.0), Hub("h2", (-4, 0, 0), 1.0)),
        (Beam("b1", "h0", "h1", 4.0), Beam("b2", "h0", "h2", 4.0)),
        (FilletSpec("h0", "b1", "b2", 1.0),)),
    "WEDGE_ORIENTATION": lambda: three_hub_lattice(
        2.1277, 3.6779, 2.7134, 1.1658, 0.9304, 2.98, 2.6749, 2.0),
    "EMPTY_CONIC": lambda: three_hub_lattice(
        0.2838, 2.2495, 3.8226, 1.3711, 0.8038, 2.2393, 4.3766, 1.5),
}


class TestValidationOnDemand:
    @pytest.mark.parametrize("name", sorted(FROZEN_ENTRIES))
    def test_entries_frozen(self, name):
        entries = [[e.severity, e.code, e.subject, e.message]
                   for e in validate_lattice(_frozen_lattice(name)).entries]
        digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
        assert digest == FROZEN_ENTRIES[name]

    def test_errors_in_build_order_in_report_and_stderr(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(_mixed_document()))
        with pytest.raises(ValidationError) as raised:
            load_lattice_path(path)
        got = [(e.severity, e.code, e.subject) for e in raised.value.report.entries]
        assert got == [
            ("error", "DEGENERATE_K", "b3"),
            ("error", "MISSING_ID", "h0:b1+ghost"),
        ]
        assert str(raised.value) == (
            "lattice validation failed: DEGENERATE_K (b3); MISSING_ID (h0:b1+ghost)")
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr().err == (
            "quador: lattice validation failed: DEGENERATE_K (b3); MISSING_ID (h0:b1+ghost)\n"
            "  [DEGENERATE_K] b3: beam 'b3': beam between 'h1' and 'h3' has k=0.0\n"
            "  [MISSING_ID] h0:b1+ghost: fillet names unknown beam 'ghost'\n"
        )

    def test_no_command_imports_numpy_random(self, tmp_path):
        # A fresh interpreter, so no other test has imported numpy.random.
        (tmp_path / "cubic.json").write_text(lattice_json(cubic_lattice((2, 2, 2), 1)))
        (tmp_path / "mixed.json").write_text(json.dumps(_mixed_document()))
        script = textwrap.dedent("""
            import json
            import sys
            from quador.cli import main
            from quador.lattice import Beam, FilletSpec, Hub, Lattice, validate_lattice

            for argv in (["verify", "cubic.json"],
                         ["classify", "cubic.json"],
                         ["conics", "cubic.json", "-o", "conics.obj"],
                         ["sample", "cubic.json", "--grid", "3,3,3", "-o", "sample.csv"],
                         ["mesh", "cubic.json", "--resolution", "8", "-o", "mesh.stl"]):
                assert main(argv) == 0, argv
            assert main(["classify", "mixed.json"]) == 1
            with open("mixed.json") as f:
                doc = json.load(f)
            lattice = Lattice(
                tuple(Hub(h["id"], tuple(h["center"]), h["radius"]) for h in doc["hubs"]),
                tuple(Beam(b["id"], *b["hubs"], b["k"]) for b in doc["beams"]),
                tuple(FilletSpec(f["hub"], *f["beams"], f["beta"]) for f in doc["fillets"]))
            assert [e.code for e in validate_lattice(lattice).entries] == [
                "DEGENERATE_K", "MISSING_ID"]
            assert "numpy.random" not in sys.modules
        """)
        src = str(Path(quador.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr


def _with_hub0(**changes):
    """The lattice with hub ``h0`` changed, and its sphere build."""
    def make(lat):
        hub = dataclasses.replace(lat.hubs[0], **changes)
        return dataclasses.replace(lat, hubs=(hub,) + lat.hubs[1:]), lambda: sphere_quadric(hub)
    return make


def _with_k(k):
    """The lattice with beam ``b1`` (``h0``-``h1``) at ``k``, and its beam build."""
    def make(lat):
        beams = (dataclasses.replace(lat.beams[0], k=k),) + lat.beams[1:]
        return (dataclasses.replace(lat, beams=beams),
                lambda: beam_quador(lat.hubs[0], lat.hubs[1], k))
    return make


def _with_fillet(**changes):
    """The lattice with its fillet changed, and that fillet's build."""
    def make(lat):
        spec = dataclasses.replace(lat.fillets[0], **changes)
        lat = dataclasses.replace(lat, fillets=(spec,))
        return lat, lambda: build_fillet_for_spec(lat, spec)
    return make


_BIG = math.nextafter(math.sqrt(sys.float_info.max), math.inf)


class TestBuildersOwnTheirRules:
    """Validation reports the coded error of the builder that rejects the part."""

    @pytest.mark.parametrize("make,code", [
        (_with_hub0(radius=-1.0), "NONPOSITIVE_RADIUS"),
        (_with_hub0(radius=0.0), "NONPOSITIVE_RADIUS"),
        (_with_hub0(radius=math.nan), "NONPOSITIVE_RADIUS"),
        (_with_hub0(radius=_BIG), "RADIUS_OVERFLOW"),
        (_with_hub0(center=(1e200, 0.0, 0.0)), "CENTER_OVERFLOW"),
        (_with_k(0.0), "DEGENERATE_K"),
        (_with_k(math.inf), "DEGENERATE_K"),
        (_with_k(math.nan), "DEGENERATE_K"),
        (_with_fillet(beta=0.0), "NONPOSITIVE_BETA"),
        (_with_fillet(beta=-1.0), "NONPOSITIVE_BETA"),
        (_with_fillet(beta=math.nan), "NONPOSITIVE_BETA"),
        (_with_fillet(hub="h1"), "FILLET_PAIR_MISMATCH"),
        (_with_fillet(beam_j="b1"), "FILLET_PAIR_MISMATCH"),
        (_with_fillet(beam_j="ghost"), "MISSING_ID"),
        (_with_fillet(hub="hx"), "MISSING_ID"),
    ], ids=["radius-1", "radius0", "radius-nan", "radius-big", "center-1e200",
            "k0", "k-inf", "k-nan", "beta0", "beta-1", "beta-nan",
            "beam-off-hub", "beam-twice", "beam-unknown", "hub-unknown"])
    def test_validation_code_is_the_builders(self, perp_lattice, make, code):
        lattice, build = make(perp_lattice)
        with pytest.raises(QuadorError) as raised:
            build()
        assert raised.value.code == code
        assert [e.code for e in validate_lattice(lattice).errors] == [code]

    @pytest.mark.parametrize("changes", [dict(hub="hx", beam_j="ghost"),
                                         dict(beam_i="ghost", beam_j="phantom")],
                             ids=["hub-and-beam-unknown", "two-beams-unknown"])
    def test_one_entry_per_spec_as_the_builder_raises(self, perp_lattice, changes):
        lattice, build = _with_fillet(**changes)(perp_lattice)
        with pytest.raises(QuadorError) as raised:
            build()
        assert raised.value.code == "MISSING_ID"
        assert [(e.code, e.message) for e in validate_lattice(lattice).entries] == [
            (raised.value.code, str(raised.value))]

    @pytest.mark.parametrize("far_hub,k", [("h3", 0.5), ("ghost", 4.0)],
                             ids=["plane-misses-sphere", "unknown-hub"])
    def test_failed_beam_is_reported_once(self, perp_lattice, far_hub, k):
        # The fillet h0:b1+b2 is good; only b3, at the same hub, fails.
        lattice = Lattice(perp_lattice.hubs + (Hub("h3", (0, 0, 4), 1.0),),
                          perp_lattice.beams + (Beam("b3", "h0", far_hub, k),),
                          perp_lattice.fillets)
        assert [e.subject for e in validate_lattice(lattice).errors] == ["b3"]

