"""Plane frames, conic sections and sampling."""

import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

import quador.conics
from quador.algebra import LinearForm, Quadric, classify_quadric
from quador.conics import (
    CLOSED_CLASSES,
    COMPACT_CLASSES,
    CURVE_CLASSES,
    Conic,
    ConicClass,
    _sections,
    classify_conic,
    conic_pieces,
    intersect_quadric_plane,
    plane_frame,
    sample_conic,
)
from quador.errors import (
    AllZeroError,
    NotACurveError,
    QuadorError,
    ZeroGradientError,
)
from quador.tolerances import UNBOUNDED_PARAM_RANGE

from conftest import random_rotation, transformed_quadric

UNIT_SPHERE = Quadric(np.eye(3), np.zeros(3), -1.0)
CYLINDER_X = Quadric(np.diag([0.0, 1.0, 1.0]), np.zeros(3), -1.0)


def project(frame, p) -> tuple[float, float]:
    """Frame coordinates ``(s, t)`` of the point ``p``'s foot in the plane."""
    d = np.asarray(p, dtype=float) - frame.origin
    return float(d @ frame.u), float(d @ frame.v)


def evaluate2d(conic, s: float, t: float) -> float:
    """The conic's polynomial at frame coordinates ``(s, t)``."""
    a, b, c, d, e, f = conic.coeffs
    return a * s * s + 2 * b * s * t + c * t * t + 2 * d * s + 2 * e * t + f


class TestPlaneFrame:
    def test_axis_plane(self):
        fr = plane_frame(LinearForm((0.0, 0.0, 1.0), 0.0))
        npt.assert_allclose(fr.origin, [0.0, 0.0, 0.0])
        # tie rule: least-aligned global axis is x, u = normalize(n cross x)
        npt.assert_allclose(fr.u, [0.0, 1.0, 0.0], atol=1e-15)

    def test_offset_plane_origin(self):
        fr = plane_frame(LinearForm((0.0, 0.0, 1.0), -0.5))
        npt.assert_allclose(fr.origin, [0.0, 0.0, 0.5])

    def test_tilted_plane_orthonormal(self):
        lin = LinearForm((-0.75, 1.25, 0.0), 0.0)
        fr = plane_frame(lin)
        assert abs(np.linalg.norm(fr.u) - 1) <= 1e-12
        assert abs(np.linalg.norm(fr.v) - 1) <= 1e-12
        assert abs(fr.u @ fr.v) <= 1e-12
        for s, t in [(0.3, -1.2), (2.0, 5.0)]:
            assert abs(lin.value(fr.point(s, t))) <= 1e-12 * max(1, abs(s), abs(t))

    def test_zero_gradient(self):
        with pytest.raises(ZeroGradientError):
            plane_frame(LinearForm((0.0, 0.0, 0.0), 1.0))

    def test_zero_gradient_section(self):
        # The stacked section holds the row's error, and the one-row call raises it.
        sphere = Quadric(np.eye(3), (0.0, 0.0, 0.0), -1.0)
        with pytest.raises(ZeroGradientError) as raised:
            intersect_quadric_plane(sphere, LinearForm((0.0, 0.0, 0.0), 1.0))
        assert raised.value.code == "ZERO_GRADIENT"

    def test_determinism(self):
        lin = LinearForm((0.3, -0.4, 0.8), 0.7)
        f1, f2 = plane_frame(lin), plane_frame(lin)
        npt.assert_array_equal(f1.u, f2.u)
        npt.assert_array_equal(f1.origin, f2.origin)


class TestIntersections:
    def test_sphere_cap_circle(self):
        conic = intersect_quadric_plane(UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), -0.5))
        assert conic.klass is ConicClass.CIRCLE
        npt.assert_allclose(sorted(conic.radii), [math.sqrt(3) / 2] * 2, atol=1e-12)

    def test_cylinder_axial_plane_parallel_lines(self):
        conic = intersect_quadric_plane(CYLINDER_X, LinearForm((0.0, 1.0, 0.0), 0.0))
        assert conic.klass is ConicClass.PARALLEL_LINES
        for p in sample_conic(conic, 16):
            assert abs(CYLINDER_X.value(p)) <= 1e-12
            assert abs(abs(p[2]) - 1.0) <= 1e-12  # the two lines are z = +-1

    def test_hyperboloid_section_hyperbola(self):
        hyp = Quadric(np.diag([1.0, 1.0, -1.0]), np.zeros(3), -1.0)
        conic = intersect_quadric_plane(hyp, LinearForm((1.0, 0.0, 0.0), -math.sqrt(2)))
        assert conic.klass is ConicClass.HYPERBOLA
        for p in sample_conic(conic, 32):
            assert abs(hyp.value(p)) <= 1e-10 * max(1.0, float(p @ p))

    def test_substitution_exactness_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.normal(size=(3, 3))
            q = Quadric(0.5 * (m + m.T), rng.normal(size=3), rng.normal())
            lin = LinearForm(rng.normal(size=3), rng.normal())
            if lin.grad_norm() < 1e-6:
                continue
            conic = intersect_quadric_plane(q, lin)
            for _ in range(5):
                s, t = rng.uniform(-2, 2, 2)
                p = conic.frame.point(s, t)
                v2d = evaluate2d(conic, s, t)
                v3d = q.value(p)
                assert abs(v2d - v3d) <= 1e-12 * max(1.0, abs(v3d), float(p @ p))


class TestClassifyConic:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ((1, 0, 1, 0, 0, -1), ConicClass.CIRCLE),
            ((1, 0, 2, 0, 0, -1), ConicClass.ELLIPSE),
            ((1, 0, 0, 0, 0, -1), ConicClass.PARALLEL_LINES),
            ((0, 0.5, 0, 0, 0, 0), ConicClass.CROSSING_LINES),  # s*t = 0
            ((1, 0, -1, 0, 0, -1), ConicClass.HYPERBOLA),
            ((1, 0, 0, 0, 0.5, 0), ConicClass.PARABOLA),  # s^2 + t = 0
            ((1, 0, 0, 0, 0, 0), ConicClass.SINGLE_LINE),
            ((1, 0, 1, 0, 0, 0), ConicClass.POINT),
            ((1, 0, 1, 0, 0, 1), ConicClass.EMPTY),
            ((0, 0, 0, 0.5, 0, 1), ConicClass.SINGLE_LINE),
            ((0, 0, 0, 0, 0, 1), ConicClass.EMPTY),
            ((1, 0, 0, 0, 0, 1), ConicClass.EMPTY),
        ],
    )
    def test_cases(self, coeffs, expected):
        assert classify_conic(coeffs) is expected

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            classify_conic((0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("coeffs", [(math.nan,) * 6, (1, 0, 1, 0, 0, math.nan),
                                        (math.inf, 0, 1, 0, 0, -1)])
    def test_non_finite_is_not_a_curve(self, coeffs):
        with pytest.raises(NotACurveError, match="not finite"):
            classify_conic(coeffs)

    def test_non_finite_plane_is_not_a_curve(self):
        # Once a CIRCLE whose samples were all NaN.
        with pytest.raises(NotACurveError, match="not finite"):
            intersect_quadric_plane(UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), math.nan))

    def test_agrees_with_quadric_classifier_on_cylinder_section(self):
        # Plane section of a circular cylinder perpendicular to its axis.
        conic = intersect_quadric_plane(CYLINDER_X, LinearForm((1.0, 0.0, 0.0), -2.0))
        assert conic.klass is ConicClass.CIRCLE
        assert classify_quadric(CYLINDER_X).label.value == "ELLIPTIC_CYLINDER"


class TestSampling:
    def test_circle_samples_on_sphere(self):
        conic = intersect_quadric_plane(UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), -0.5))
        pts = sample_conic(conic, 4)
        assert pts.shape == (4, 3)
        for p in pts:
            assert abs(UNIT_SPHERE.value(p)) <= 1e-12

    def test_tangency_ellipse_max_distance(self):
        # beta=1 fillet tangency curve: cylinder cut by (5y-3x)/4 = 0.
        conic = intersect_quadric_plane(CYLINDER_X, LinearForm((-0.75, 1.25, 0.0), 0.0))
        assert conic.klass is ConicClass.ELLIPSE
        pts = sample_conic(conic, 256)
        dmax = max(np.linalg.norm(p) for p in pts)
        assert dmax == pytest.approx(math.sqrt(34) / 3, abs=1e-6)

    def test_parallel_lines_split(self):
        conic = intersect_quadric_plane(CYLINDER_X, LinearForm((0.0, 1.0, 0.0), 0.0))
        pts = sample_conic(conic, 16)
        assert len(pts) == 16
        upper = [p for p in pts if p[2] > 0]
        lower = [p for p in pts if p[2] < 0]
        assert len(upper) == len(lower) == 8

    def test_fewer_than_two_samples_rejected(self):
        conic = intersect_quadric_plane(UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), -0.5))
        with pytest.raises(ValueError, match="n >= 2"):
            sample_conic(conic, 1)

    def test_point_not_a_curve(self):
        conic = intersect_quadric_plane(UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), -1.0))
        assert conic.klass is ConicClass.POINT
        with pytest.raises(NotACurveError):
            sample_conic(conic, 8)

    def test_residual_invariant_all_classes(self):
        cases = [
            (UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), -0.5)),
            (CYLINDER_X, LinearForm((0.0, 1.0, 0.0), 0.0)),
            (CYLINDER_X, LinearForm((-0.75, 1.25, 0.0), 0.0)),
            (Quadric(np.diag([1.0, 1.0, -1.0]), np.zeros(3), -1.0),
             LinearForm((1.0, 0.0, 0.0), -math.sqrt(2))),
            (Quadric(np.diag([0.0, 1.0, 1.0]), (-0.375, 0, 0), -73 / 64),
             LinearForm((0.0, 1.0, 0.0), 0.0)),
        ]
        for q, lin in cases:
            conic = intersect_quadric_plane(q, lin)
            for p in sample_conic(conic, 64):
                scale = max(1.0, float(p @ p))
                s, t = project(conic.frame, p)
                assert abs(evaluate2d(conic, s, t)) <= 1e-12 * scale
                assert abs(q.value(p)) <= 1e-10 * scale
                assert abs(lin.value(p)) <= 1e-12 * scale


def per_point_sample_conic(conic, n):
    """``sample_conic`` as one 2-D point and one ``point3d`` call per sample."""
    r = UNBOUNDED_PARAM_RANGE
    pts2 = []
    if conic.klass in (ConicClass.ELLIPSE, ConicClass.CIRCLE):
        (r1, r2), (d1, d2) = conic.radii, conic.axes
        for j in range(n):
            th = 2.0 * math.pi * j / n
            pts2.append(conic.center + r1 * math.cos(th) * d1 + r2 * math.sin(th) * d2)
    elif conic.klass is ConicClass.PARABOLA:
        (kappa,), (d1, d2) = conic.radii, conic.axes
        for t in np.linspace(-r, r, n):
            pts2.append(conic.center + t * d1 + kappa * t * t * d2)
    elif conic.klass is ConicClass.HYPERBOLA:
        (ra, rb), (d1, d2) = conic.radii, conic.axes
        for sgn, m in ((1.0, n - n // 2), (-1.0, n // 2)):
            for t in np.linspace(-r, r, m):
                pts2.append(conic.center + sgn * ra * math.cosh(t) * d1 + rb * math.sinh(t) * d2)
    else:
        k = len(conic.lines)
        counts = [n // k + (i < n % k) for i in range(k)]
        for (base, direction), m in zip(conic.lines, counts):
            for t in np.linspace(-r, r, m):
                pts2.append(base + t * direction)
    return np.array([conic.point3d(p[0], p[1]) for p in pts2])


def section(cases) -> quador.conics._Sections:
    """The conics of (quadric, plane) pairs as the rows of one section."""
    qs, lins = zip(*cases)
    return _sections((np.stack([q.A for q in qs]), np.stack([q.b for q in qs]),
                      np.array([q.c for q in qs])),
                     np.stack([lin.g for lin in lins]), np.array([lin.c0 for lin in lins]))


class TestBatchedSampling:
    """``sample_conic`` lifts all samples at once; every bit stays the
    per-point loop's."""

    CASES = [
        (UNIT_SPHERE, LinearForm((0.3, -0.2, 1.0), -0.5)),
        (CYLINDER_X, LinearForm((-0.75, 1.25, 0.4), 0.1)),
        (Quadric(np.diag([0.0, 1.0, 1.0]), (-0.375, 0, 0), -73 / 64),
         LinearForm((0.0, 1.0, 0.3), 0.3)),
        (Quadric(np.diag([1.0, 1.0, -1.0]), np.zeros(3), -1.0),
         LinearForm((1.0, 0.1, -0.2), -math.sqrt(2))),
        (CYLINDER_X, LinearForm((0.0, 1.0, 0.0), 0.0)),
        (Quadric(np.diag([1.0, 1.0, -1.0]), np.zeros(3), 0.0), LinearForm((1.0, 0.0, 0.0), 0.0)),
        (CYLINDER_X, LinearForm((0.0, 1.0, 0.0), -1.0)),
    ]

    def test_every_curve_class_matches_per_point_loop(self):
        rng = np.random.default_rng(37)
        seen = set()
        for q, lin in self.CASES:
            for _ in range(5):
                R, t = random_rotation(rng), rng.uniform(-3, 3, 3)
                moved = Quadric(*transformed_quadric(q.A, q.b, q.c, R, t))
                g = R @ lin.g
                conic = intersect_quadric_plane(moved, LinearForm(g, lin.c0 - g @ t))
                seen.add(conic.klass)
                for n in (2, 3, 7, 32, 129):
                    got = sample_conic(conic, n)
                    assert got.shape == (n, 3)
                    assert got.tobytes() == per_point_sample_conic(conic, n).tobytes()
        assert seen == {ConicClass.CIRCLE, ConicClass.ELLIPSE, ConicClass.PARABOLA,
                        ConicClass.HYPERBOLA, ConicClass.PARALLEL_LINES,
                        ConicClass.CROSSING_LINES, ConicClass.SINGLE_LINE}

    def moved_cases(self, seed: int) -> list:
        """Three rigid motions of each case, shuffled: (quadric, plane) pairs."""
        rng = np.random.default_rng(seed)
        cases = []
        for q, lin in self.CASES * 3:
            R, t = random_rotation(rng), rng.uniform(-3, 3, 3)
            g = R @ lin.g
            cases.append((Quadric(*transformed_quadric(q.A, q.b, q.c, R, t)),
                          LinearForm(g, lin.c0 - g @ t)))
        return [cases[i] for i in rng.permutation(len(cases))]

    def test_one_call_samples_a_mixed_section(self, monkeypatch):
        cases = self.moved_cases(43)
        rows = section(cases)
        assert set(rows.klass) == CURVE_CLASSES
        assert [f.name for f in dataclasses.fields(Conic)] == ["sections", "row"]
        expect = {n: [per_point_sample_conic(intersect_quadric_plane(q, lin), n).tobytes()
                      for q, lin in cases] for n in (2, 3, 7, 32, 129)}
        for budget in (quador.conics._BATCH, 97):  # 97: one row, or a few, at a time
            monkeypatch.setattr(quador.conics, "_BATCH", budget)
            for n, want in expect.items():
                got = sample_conic(rows, n)
                assert got.shape == (len(cases), n, 3)
                assert [pts.tobytes() for pts in got] == want
                assert [per_point_sample_conic(rows.conic(i), n).tobytes()
                        for i in range(len(cases))] == want

    def test_a_section_raises_its_first_rows_error(self):
        good = self.moved_cases(47)[:4]
        bad = [(UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), -1.0)),  # POINT
               (UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), -2.0)),  # EMPTY
               (UNIT_SPHERE, LinearForm((0.0, 0.0, 0.0), 1.0)),  # ZERO_GRADIENT
               (UNIT_SPHERE, LinearForm((0.0, 0.0, 1.0), math.nan)),  # NOT_A_CURVE
               (Quadric(np.zeros((3, 3)), np.zeros(3), 0.0), LinearForm((0.0, 0.0, 1.0), 0.0))]
        for first, later in itertools.permutations(bad, 2):
            with pytest.raises(QuadorError) as want:  # the first bad row alone
                sample_conic(intersect_quadric_plane(*first), 7)
            with pytest.raises(QuadorError) as got:
                sample_conic(section(good[:2] + [first] + good[2:] + [later]), 7)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        with pytest.raises(ValueError, match="n >= 2"):
            sample_conic(section(good), 1)


class TestClassFacts:
    # class: (a curve, compact, closed)
    TABLE = {
        ConicClass.ELLIPSE: (True, True, True),
        ConicClass.CIRCLE: (True, True, True),
        ConicClass.PARABOLA: (True, False, False),
        ConicClass.HYPERBOLA: (True, False, False),
        ConicClass.PARALLEL_LINES: (True, False, False),
        ConicClass.CROSSING_LINES: (True, False, False),
        ConicClass.SINGLE_LINE: (True, False, False),
        ConicClass.POINT: (False, True, False),
        ConicClass.EMPTY: (False, False, False),
    }

    def test_membership_of_every_class(self):
        assert set(self.TABLE) == set(ConicClass)
        for klass, facts in self.TABLE.items():
            got = (klass in CURVE_CLASSES, klass in COMPACT_CLASSES, klass in CLOSED_CLASSES)
            assert got == facts, klass


class TestConicPieces:
    TWO_PIECES = {ConicClass.HYPERBOLA, ConicClass.PARALLEL_LINES, ConicClass.CROSSING_LINES}

    def test_pieces_concatenate_to_the_samples(self):
        seen = set()
        for q, lin in TestBatchedSampling.CASES:
            conic = intersect_quadric_plane(q, lin)
            seen.add(conic.klass)
            for n in (4, 5, 7, 128):
                pts = sample_conic(conic, n)
                pieces = conic_pieces(conic, pts)
                assert np.concatenate(pieces).tobytes() == pts.tobytes()
                if conic.klass in self.TWO_PIECES:
                    assert [len(piece) for piece in pieces] == [n - n // 2, n // 2]
                else:
                    assert len(pieces) == 1
        assert seen == CURVE_CLASSES
