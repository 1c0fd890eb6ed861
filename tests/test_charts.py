"""Surface charts: known anchor points, residuals, round trips."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from quador.algebra import Quadric, QuadricClass, classify_quadric
from quador.charts import parametrize
from quador.errors import UnsupportedClassError

from conftest import random_rotation, transformed_quadric

UNIT_SPHERE = Quadric(np.eye(3), np.zeros(3), -1.0)
CYLINDER_X = Quadric(np.diag([0.0, 1.0, 1.0]), np.zeros(3), -1.0)
BEAM_PARABOLOID = Quadric(np.diag([0.0, 1.0, 1.0]), (-0.375, 0.0, 0.0), -73.0 / 64.0)


def chart_for(q):
    return parametrize(classify_quadric(q))


class TestAnchorPoints:
    def test_unit_sphere_inverse(self):
        chart = chart_for(UNIT_SPHERE)
        u, v = chart.inverse((0.0, 0.866025, 0.5))
        assert u == pytest.approx(math.pi / 2, abs=1e-6)
        assert v == pytest.approx(math.pi / 6, abs=1e-6)

    def test_cylinder_forward(self):
        chart = chart_for(CYLINDER_X)
        p = chart.forward(0.0, 3.0)
        npt.assert_allclose(p, [3.0, 1.0, 0.0], atol=1e-12)

    def test_beam_paraboloid_residuals(self):
        chart = chart_for(BEAM_PARABOLOID)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.uniform(-math.pi, math.pi)
            v = rng.uniform(0.0, 3.0)
            p = chart.forward(u, v)
            scale = max(1.0, float(p @ p))
            assert abs(BEAM_PARABOLOID.value(p)) <= 1e-9 * scale


SUPPORTED = [
    (np.diag([0.25, 1 / 9, 1.0]), (0, 0, 0), -1.0),
    (np.diag([1.0, 1.0, -1.0]), (0, 0, 0), -1.0),
    (np.diag([-1.0, -1.0, 1.0]), (0, 0, 0), -1.0),
    (np.diag([1.0, 2.0, 0.0]), (0, 0, -0.5), 0.0),
    (np.diag([1.0, -2.0, 0.0]), (0, 0, -0.5), 0.0),
    (np.diag([1.0, 2.0, 0.0]), (0, 0, 0), -1.0),
    (np.diag([1.0, -1.0, 0.0]), (0, 0, 0), -1.0),
    (np.diag([1.0, 0.0, 0.0]), (0, -0.5, 0), 0.0),
    (np.diag([1.0, 2.0, -1.0]), (0, 0, 0), 0.0),
]


def sample_params(label, rng):
    u = rng.uniform(-math.pi, math.pi)
    if label is QuadricClass.ELLIPSOID:
        v = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
    elif label is QuadricClass.ELLIPTIC_PARABOLOID:
        v = rng.uniform(0.0, 2.5)
    elif label is QuadricClass.HYPERBOLOID_TWO_SHEETS:
        v = rng.uniform(0.05, 1.3) + (math.pi if rng.random() < 0.5 else 0.0)
    elif label is QuadricClass.HYPERBOLIC_CYLINDER:
        v = rng.uniform(-2.0, 2.0)
        u = rng.uniform(-1.3, 1.3) + (math.pi if rng.random() < 0.5 else 0.0)
    elif label is QuadricClass.CONE:
        v = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
    else:
        v = rng.uniform(-2.0, 2.0)
    return u, v


class TestRoundTrips:
    @pytest.mark.parametrize("A,b,c", SUPPORTED)
    def test_forward_inverse_roundtrip(self, A, b, c):
        rng = np.random.default_rng(42)
        R = random_rotation(rng)
        t = rng.uniform(-1.5, 1.5, 3)
        q = Quadric(*transformed_quadric(A, b, c, R, t))
        cls = classify_quadric(q)
        chart = parametrize(cls)
        for _ in range(100):
            p = chart.forward(*sample_params(cls.label, rng))
            scale = max(1.0, float(np.linalg.norm(p)))
            assert abs(q.value(p)) <= 1e-9 * scale * scale
            p2 = chart.forward(*chart.inverse(p))
            assert np.linalg.norm(p2 - p) <= 1e-9 * scale


def framed(k):
    """``SUPPORTED[k]`` in a fixed random frame."""
    A, b, c = SUPPORTED[k]
    rng = np.random.default_rng(100 + k)
    return Quadric(*transformed_quadric(A, b, c, random_rotation(rng), rng.uniform(-1.5, 1.5, 3)))


# Per SUPPORTED class in ``framed(k)``: rows of ((u, v), forward(u, v),
# inverse of that point), recorded from the earlier one-closure-pair-per-class
# charts.  The pairs cover both sheets, branches and nappes where a class has
# two, so a changed parameter convention shows here even when round trips and
# residuals still hold.
FROZEN = [
    [  # ELLIPSOID
        ((0.3, 0.7),
         (-0.2779092224028511, 3.0979875903622616, -1.7920388221557046),
         (0.3000000000000001, 0.6999999999999996)),
        ((-2.5, -1.1),
         (-1.3758898469575596, -0.49721350895167826, 1.2532415319406414),
         (-2.4999999999999996, -1.0999999999999999)),
        ((3.0, 0.2),
         (-1.3418244845046998, 1.2077358793780717, -1.717011279028153),
         (3.0, 0.19999999999999998)),
    ],
    [  # HYPERBOLOID_ONE_SHEET
        ((0.3, 0.7),
         (0.45270864137030575, 1.0389799268234268, 1.2495876167622764),
         (0.30000000000000004, 0.6999999999999998)),
        ((-2.5, -1.1),
         (-2.3066630203862246, 0.8886795614461866, -0.9987510191227242),
         (-2.5, -1.1000000000000003)),
        ((1.9, 0.4),
         (-1.2153602202974403, 0.9130435688680884, 1.6317956863554657),
         (1.8999999999999997, 0.4000000000000001)),
    ],
    [  # HYPERBOLOID_TWO_SHEETS
        ((0.3, 0.7),
         (-1.0602302752667698, -1.0607907994140136, 1.0610123382627679),
         (0.29999999999999993, 0.7000000000000001)),
        ((-2.5, 4.0),
         (-0.20991218320569016, -1.6347602187650336, -2.2383499174946384),
         (-2.5, -2.2831853071795867)),
        ((1.9, 2.2),
         (1.1110569232151484, -1.510049031505584, -1.518354780537905),
         (-1.2415926535897934, -2.2)),
    ],
    [  # ELLIPTIC_PARABOLOID
        ((0.3, 0.7),
         (0.2064042350926522, 0.35466839211656787, 1.1508138210699221),
         (0.29999999999999993, 0.7000000000000005)),
        ((-2.5, 1.6),
         (1.786078458955402, 1.291349239831389, -0.8913379438891158),
         (-2.5, 1.6000000000000016)),
        ((3.0, 0.2),
         (-0.2297025273607473, 0.015944258706405465, 0.5984524326429511),
         (3.0, 0.20000000000000023)),
    ],
    [  # HYPERBOLIC_PARABOLOID
        ((0.3, 0.7),
         (0.3685129765202313, -2.192392107478697, 0.5762492351031836),
         (0.3, 0.7)),
        ((-2.5, -1.1),
         (1.418852140446026, 2.539607140850481, -2.5643511461195168),
         (-2.5, -1.0999999999999999)),
        ((1.2, 2.0),
         (-0.6725716364798832, -7.866150014940348, 1.7482193866392146),
         (1.1999999999999993, 1.9999999999999998)),
    ],
    [  # ELLIPTIC_CYLINDER
        ((0.3, 0.7),
         (0.03992610013065967, 0.22062392992649177, 0.9782696847227204),
         (0.29999999999999993, 0.7000000000000001)),
        ((-2.5, -1.1),
         (-1.109466844273221, -1.4461016597993346, -0.2394146627950437),
         (-2.5, -1.1000000000000003)),
        ((1.9, 0.4),
         (-0.1783726529785204, 0.5205857843512363, -0.11412460735157004),
         (1.9, 0.4000000000000001)),
    ],
    [  # HYPERBOLIC_CYLINDER
        ((0.3, 0.7),
         (0.5324809145615013, 0.9448371496138557, -1.2075830863794192),
         (0.30000000000000004, 0.7000000000000001)),
        ((2.5, -1.1),
         (-2.522079685684594, 0.9988261515885565, -1.7456470221374831),
         (2.5, -1.1000000000000008)),
        ((-1.0, 1.5),
         (0.8423325099617185, -1.1656717801327279, -0.7374807415550706),
         (-1.0, 1.5000000000000004)),
    ],
    [  # PARABOLIC_CYLINDER
        ((0.3, 0.7),
         (1.6261439642736881, -0.4181847645080264, -0.18935676118337808),
         (0.3, 0.7000000000000003)),
        ((-2.5, -1.1),
         (4.9952148629399655, -5.359537949824939, -3.8305090482648216),
         (-2.5, -1.1000000000000005)),
        ((1.2, 2.0),
         (3.6199497629919906, 0.1607167745958702, -0.07930475065920584),
         (1.2, 2.000000000000001)),
    ],
    [  # CONE
        ((0.3, 0.7),
         (0.16353373158663784, 0.30691392490281305, -0.6580239047109067),
         (0.3000000000000002, 0.7000000000000001)),
        ((-2.5, -1.1),
         (1.61269271166437, 0.7092559585512916, 0.4394522185654135),
         (-2.5, -1.1)),
        ((1.9, 1.6),
         (0.5548818376210765, -1.0892776483248623, -1.7161382866910637),
         (1.9, 1.6000000000000005)),
    ],
]


class TestFrozenValues:
    @pytest.mark.parametrize("k", range(len(SUPPORTED)))
    def test_matches_recorded_values(self, k):
        chart = chart_for(framed(k))
        for uv, point, params in FROZEN[k]:
            for got, want in ((chart.forward(*uv), point), (chart.inverse(point), params)):
                err = np.linalg.norm(np.subtract(got, want))
                assert err <= 1e-12 * max(1.0, float(np.linalg.norm(want))), (uv, got, want)


class TestUnsupported:
    @pytest.mark.parametrize(
        "A,b,c",
        [
            (np.diag([0.0, 0.0, 1.0]), (0, 0, 0), -1.0),  # parallel planes
            (np.diag([1.0, -1.0, 0.0]), (0, 0, 0), 0.0),  # crossing planes
            (np.diag([1.0, 1.0, 0.0]), (0, 0, 0), 0.0),  # line
            (np.eye(3), (0, 0, 0), 0.0),  # point
            (np.eye(3), (0, 0, 0), 1.0),  # empty
        ],
    )
    def test_rejects_degenerate_classes(self, A, b, c):
        q = Quadric(A, b, c)
        with pytest.raises(UnsupportedClassError):
            parametrize(classify_quadric(q))
