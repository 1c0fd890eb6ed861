"""Forms, eigen-decomposition, classification and curvature."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from quador.algebra import (
    LinearForm,
    Quadric,
    QuadricClass,
    _cross3,
    _norm,
    _stack_rows,
    classify_quadric,
    jacobi_eigen3,
    principal_curvatures,
    stacked_values,
    subtract_square,
)
from quador.errors import AllZeroError, SingularPointError

from conftest import random_rotation, transformed_quadric
from form_reference import linear_product, neg, scaled, stack_forms

UNIT_SPHERE = Quadric(np.eye(3), np.zeros(3), -1.0)
CYLINDER_X = Quadric(np.diag([0.0, 1.0, 1.0]), np.zeros(3), -1.0)  # y^2 + z^2 - 1


def finite_floats(lo=-10.0, hi=10.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class TestLinearForm:
    def test_identity_like(self):
        L = LinearForm((1.0, 0.0, 0.0), 0.0)
        assert L.value((2.0, 3.0, 4.0)) == 2.0

    def test_fillet_plane_value(self):
        # (5y - 3x)/4 at (0.9, 0.9, 0.9)
        L = LinearForm((-0.75, 1.25, 0.0), 0.0)
        assert L.value((0.9, 0.9, 0.9)) == pytest.approx(0.45, abs=1e-15)

    def test_constant_form(self):
        L = LinearForm((0.0, 0.0, 0.0), 7.0)
        assert L.value((123.0, -5.0, 0.25)) == 7.0


@pytest.mark.parametrize("build,message", [
    (lambda: LinearForm((1.0, 2.0), 0.0), "expected a 3-vector, got shape (2,)"),
    (lambda: Quadric(np.eye(2), np.zeros(3), 0.0), "A must be 3x3, got (2, 2)"),
    (lambda: jacobi_eigen3(np.eye(2)), "jacobi_eigen3 expects a 3x3 matrix"),
], ids=["vector", "quadric", "jacobi"])
def test_wrong_shape_rejected(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


class TestQuadric:
    def test_unit_sphere_center(self):
        assert UNIT_SPHERE.value((0.0, 0.0, 0.0)) == -1.0

    def test_cylinder_value(self):
        assert CYLINDER_X.value((3.0, 0.5, 0.0)) == -0.75

    def test_beam_paraboloid_constant(self):
        parab = Quadric(np.diag([0.0, 1.0, 1.0]), (-0.375, 0.0, 0.0), -73.0 / 64.0)
        assert parab.value((0.0, 0.0, 0.0)) == -1.140625

    def test_symmetric_storage(self):
        q = Quadric([[1.0, 2.0, 0.0], [0.0, 3.0, 5.0], [4.0, 0.0, 6.0]], np.zeros(3), 0.0)
        npt.assert_array_equal(q.A, q.A.T)

    def test_symmetrizing_near_the_float_maximum_stays_finite(self):
        # A[i,j] + A[j,i] overflows; each half does not.
        big = 1.7e308
        q = Quadric(np.diag([big, big, big]), np.zeros(3), -big)
        npt.assert_array_equal(q.A, np.diag([big, big, big]))
        assert classify_quadric(q).label is QuadricClass.ELLIPSOID
        off = Quadric([[0.0, big, 0.0], [big, 0.0, 0.0], [0.0, 0.0, 1.0]], np.zeros(3), 0.0)
        assert off.A[0, 1] == off.A[1, 0] == big

    def test_linear_product_near_the_float_maximum_stays_finite(self):
        got = linear_product(LinearForm((1e308, 0.0, 0.0), 1e308),
                             LinearForm((1.5, 0.0, 0.0), 1.5))
        assert got.A[0, 0] == 1.5e308
        npt.assert_array_equal(got.b, [1.5e308, 0.0, 0.0])
        assert got.c == 1.5e308

    def test_sphere_gradient(self):
        npt.assert_allclose(UNIT_SPHERE.gradient((0.0, 0.6, 0.8)), [0.0, 1.2, 1.6])

    def test_cylinder_gradient_matches_sphere_on_tangency_plane(self):
        p = (0.0, 0.6, 0.8)  # on G = x = 0
        npt.assert_allclose(CYLINDER_X.gradient(p), UNIT_SPHERE.gradient(p))

    def test_fillet_gradient_at_probe(self):
        fillet = subtract_square(CYLINDER_X, LinearForm((-0.75, 1.25, 0.0), 0.0))
        t = math.sqrt(4.0 / 3.0)
        g = fillet.gradient((t, t, 0.0))
        npt.assert_allclose(g, [math.sqrt(3) / 2, math.sqrt(3) / 2, 0.0], atol=1e-15)
        assert np.linalg.norm(g) == pytest.approx(1.224744871391589, abs=1e-12)


# ---------------------------------------------------------------------------
# subtract_square
# ---------------------------------------------------------------------------

class TestSubtractSquare:
    def test_sphere_minus_x_squared_is_cylinder(self):
        got = subtract_square(UNIT_SPHERE, LinearForm((1.0, 0.0, 0.0), 0.0))
        npt.assert_array_equal(got.coeffs(), CYLINDER_X.coeffs())

    def test_cylinder_minus_fillet_plane(self):
        got = subtract_square(CYLINDER_X, LinearForm((-0.75, 1.25, 0.0), 0.0))
        expect = Quadric(
            [[-9 / 16, 15 / 16, 0.0], [15 / 16, -9 / 16, 0.0], [0.0, 0.0, 1.0]],
            np.zeros(3),
            -1.0,
        )
        npt.assert_allclose(got.coeffs(), expect.coeffs(), atol=1e-15)

    def test_chamfer_case_parallel_planes(self):
        got = subtract_square(CYLINDER_X, LinearForm((0.0, 1.0, 0.0), 0.0))
        expect = Quadric(np.diag([0.0, 0.0, 1.0]), np.zeros(3), -1.0)  # z^2 - 1
        npt.assert_array_equal(got.coeffs(), expect.coeffs())

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(finite_floats(-3, 3), min_size=20, max_size=20),
    )
    def test_pointwise_identity(self, data):
        A = np.array(data[0:9]).reshape(3, 3)
        q = Quadric(A, data[9:12], data[12])
        lin = LinearForm(data[13:16], data[16])
        x = np.array(data[17:20])
        lhs = subtract_square(q, lin).value(x)
        rhs = q.value(x) - lin.value(x) ** 2
        scale = max(1.0, abs(q.value(x)), lin.value(x) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestStackedValues:
    def test_equals_each_form_value(self):
        # Bit for bit, not approx: the point evaluator relies on it.
        rng = np.random.default_rng(17)
        forms = []
        for _ in range(40):
            forms.append(Quadric(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal()))
            forms.append(LinearForm(rng.normal(size=3), rng.normal()))
            forms.append(neg(LinearForm(rng.normal(size=3), 0.0)))
        stack = stack_forms(forms)
        pts = np.vstack([rng.uniform(-5, 5, size=(300, 3)), np.zeros((1, 3)), np.eye(3)])
        got = stacked_values(stack, pts)
        assert got.shape == (len(pts), len(forms))
        expect = np.array([[f.value(p) for f in forms] for p in pts])
        npt.assert_array_equal(got, expect)
        npt.assert_array_equal(stacked_values(stack, pts[7]), expect[7])

    def test_plane_rows(self):
        A, b, c = _stack_rows(np.array([[2.0, -4.0, 6.0, 0.5]]))
        npt.assert_array_equal(A, np.zeros((1, 3, 3)))
        npt.assert_array_equal(b, [[[1.0, -2.0, 3.0]]])
        npt.assert_array_equal(c, [0.5])

    def test_empty_stack(self):
        empty = (np.zeros((0, 3, 3)), np.zeros((0, 1, 3)), np.zeros(0))
        assert stacked_values(empty, np.ones((4, 3))).shape == (4, 0)


class TestThreeVectorKernels:
    """``_cross3`` and ``_norm`` stand in for ``np.cross`` and ``np.linalg.norm``
    in the construction path, so they must give the same bits."""

    @staticmethod
    def assert_same_bits(got, expect):
        nan = np.isnan(expect)
        npt.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expect[~nan].tobytes()

    def test_cross_random(self):
        rng = np.random.default_rng(23)
        for a, b in zip(rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-8, 9, (2000, 1)),
                        rng.normal(size=(2000, 3))):
            assert _cross3(a, b).tobytes() == np.cross(a, b).tobytes()

    @pytest.mark.parametrize("special", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_cross_special_values(self, special):
        rng = np.random.default_rng(29)
        values = [special, 0.0, -0.0, 1.0, -2.5]
        for _ in range(200):
            a = rng.choice(values, 3)
            b = rng.choice(values + [rng.normal()], 3)
            a[rng.integers(3)] = special
            with np.errstate(invalid="ignore"):
                expect = np.cross(a, b)
            self.assert_same_bits(_cross3(a, b), expect)
            with np.errstate(invalid="ignore"):
                expect = np.cross(b, a)
            self.assert_same_bits(_cross3(b, a), expect)

    def test_norm(self):
        rng = np.random.default_rng(31)
        vectors = list(rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-150, 150, (2000, 1)))
        vectors += [np.zeros(3), -np.zeros(3), np.array([math.inf, 1.0, 0.0]),
                    np.array([math.nan, 1.0, 0.0]), rng.normal(size=10)]
        for v in vectors:
            self.assert_same_bits(np.array([_norm(v)]), np.array([np.linalg.norm(v)]))


@settings(max_examples=100, deadline=None)
@given(data=st.lists(finite_floats(-3, 3), min_size=16, max_size=16))
def test_gradient_matches_finite_differences(data):
    A = np.array(data[0:9]).reshape(3, 3)
    q = Quadric(A, data[9:12], data[12])
    x = np.array(data[13:16])
    g = q.gradient(x)
    h = 1e-5
    fd = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd[i] = (q.value(x + e) - q.value(x - e)) / (2 * h)
    npt.assert_allclose(fd, g, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# jacobi_eigen3
# ---------------------------------------------------------------------------

class TestJacobi:
    def test_identity(self):
        evals, v = jacobi_eigen3(np.eye(3))
        npt.assert_allclose(evals, [1.0, 1.0, 1.0])
        npt.assert_allclose(v.T @ v, np.eye(3), atol=1e-15)

    def test_cylinder_form(self):
        evals, v = jacobi_eigen3(np.diag([1.0, 1.0, 0.0]))
        npt.assert_allclose(evals, [1.0, 1.0, 0.0])
        # null axis eigenvector is +-z
        npt.assert_allclose(np.abs(v[:, 2]), [0.0, 0.0, 1.0], atol=1e-15)

    def test_fillet_matrix_against_charpoly_roots(self):
        A = np.array([[-9 / 16, 15 / 16, 0.0], [15 / 16, -9 / 16, 0.0], [0.0, 0.0, 1.0]])
        evals, v = jacobi_eigen3(A)
        # Oracle: roots of the characteristic polynomial.
        roots = sorted(np.roots(np.poly(A)).real, reverse=True)
        npt.assert_allclose(evals, roots, atol=1e-12)
        npt.assert_allclose(evals, [1.0, 3.0 / 8.0, -1.5], atol=1e-12)

    def test_properties_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.normal(size=(3, 3))
            A = 0.5 * (m + m.T) * rng.uniform(0.1, 10)
            evals, v = jacobi_eigen3(A)
            norm = np.linalg.norm(A)
            npt.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)
            npt.assert_allclose(v @ np.diag(evals) @ v.T, A, atol=1e-12 * max(norm, 1))
            assert evals[0] >= evals[1] >= evals[2]
            assert np.linalg.det(v) > 0.0
            # Oracle: numpy's symmetric eigensolver.
            npt.assert_allclose(evals, np.linalg.eigvalsh(A)[::-1], atol=1e-11 * max(norm, 1))

    @pytest.mark.filterwarnings("error")
    def test_near_the_float_maximum_raises_no_warning(self):
        # A[i,i] + A[i,i] and ||A||_F overflow; the eigenvalues do not.
        big = 1.7e308
        evals, v = jacobi_eigen3(np.diag([big, big, big]))
        npt.assert_array_equal(evals, [big, big, big])
        npt.assert_array_equal(v, np.eye(3))
        evals, v = jacobi_eigen3(np.diag([big, 1.0, -big]))
        npt.assert_array_equal(evals, [big, 1.0, -big])
        npt.assert_array_equal(v, np.eye(3))

    def test_subnormal_entries_keep_their_bits(self):
        # Halving 5e-324 first would round it to 0.
        evals, _ = jacobi_eigen3(np.diag([5e-324, -1e-310, 0.0]))
        assert evals.tolist() == [5e-324, 0.0, -1e-310]

    def test_any_scale_against_eigvalsh(self):
        # Off-diagonal squares underflow below about 1e-154 and overflow
        # above about 1e154; neither may stop or derail the sweep.
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-300, 300)
            A = 0.5 * m + 0.5 * m.T
            evals, v = jacobi_eigen3(A)
            scale = np.abs(A).max()
            npt.assert_allclose(evals, np.linalg.eigvalsh(A)[::-1], rtol=0, atol=1e-10 * scale)
            npt.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_tiny_matrix_is_rotated(self):
        A = np.array([[1e-200, 3e-200, 0.0], [3e-200, 2e-200, 0.0], [0.0, 0.0, 1e-200]])
        evals, _ = jacobi_eigen3(A)
        npt.assert_allclose(evals, np.linalg.eigvalsh(A)[::-1], rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_large_off_diagonal_raises_no_warning(self):
        A = np.array([[1e300, 1e200, 0.0], [1e200, 1e300, 0.0], [0.0, 0.0, 1.0]])
        evals, v = jacobi_eigen3(A)
        npt.assert_array_equal(evals, [1e300 + 1e200, 1e300 - 1e200, 1.0])
        npt.assert_allclose(v.T @ v, np.eye(3), atol=1e-15)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

CLASS_FIXTURES = [
    (QuadricClass.ELLIPSOID, np.diag([0.25, 1 / 9, 1.0]), (0, 0, 0), -1.0),
    (QuadricClass.HYPERBOLOID_ONE_SHEET, np.diag([1.0, 1.0, -1.0]), (0, 0, 0), -1.0),
    (QuadricClass.HYPERBOLOID_TWO_SHEETS, np.diag([-1.0, -1.0, 1.0]), (0, 0, 0), -1.0),
    (QuadricClass.ELLIPTIC_PARABOLOID, np.diag([1.0, 1.0, 0.0]), (0, 0, -0.5), 0.0),
    (QuadricClass.HYPERBOLIC_PARABOLOID, np.diag([1.0, -1.0, 0.0]), (0, 0, -0.5), 0.0),
    (QuadricClass.ELLIPTIC_CYLINDER, np.diag([1.0, 2.0, 0.0]), (0, 0, 0), -1.0),
    (QuadricClass.HYPERBOLIC_CYLINDER, np.diag([1.0, -1.0, 0.0]), (0, 0, 0), -1.0),
    (QuadricClass.PARABOLIC_CYLINDER, np.diag([1.0, 0.0, 0.0]), (0, -0.5, 0), 0.0),
    (QuadricClass.CONE, np.diag([1.0, 2.0, -1.0]), (0, 0, 0), 0.0),
    (QuadricClass.PARALLEL_PLANES, np.diag([0.0, 0.0, 1.0]), (0, 0, 0), -1.0),
    (QuadricClass.CROSSING_PLANES, np.diag([1.0, -1.0, 0.0]), (0, 0, 0), 0.0),
    (QuadricClass.SINGLE_PLANE, np.diag([0.0, 0.0, 1.0]), (0, 0, 0), 0.0),
    (QuadricClass.LINE, np.diag([1.0, 1.0, 0.0]), (0, 0, 0), 0.0),
    (QuadricClass.POINT, np.eye(3), (0, 0, 0), 0.0),
    (QuadricClass.EMPTY, np.eye(3), (0, 0, 0), 1.0),
    (QuadricClass.EMPTY, np.diag([1.0, 1.0, 0.0]), (0, 0, 0), 1.0),
    (QuadricClass.EMPTY, np.diag([1.0, 0.0, 0.0]), (0, 0, 0), 1.0),
    (QuadricClass.EMPTY, np.zeros((3, 3)), (0, 0, 0), 1.0),
]
# Each row's id is its class; the lower-rank EMPTY rows add their rank.
CLASS_IDS = [f[0].value for f in CLASS_FIXTURES[:-3]] + ["EMPTY-rank2", "EMPTY-rank1",
                                                         "EMPTY-rank0"]


class TestClassify:
    @pytest.mark.parametrize(
        "label,A,b,c", CLASS_FIXTURES, ids=CLASS_IDS
    )
    def test_axis_aligned_labels(self, label, A, b, c):
        assert classify_quadric(Quadric(A, b, c)).label is label

    @pytest.mark.parametrize(
        "label,A,b,c", CLASS_FIXTURES, ids=CLASS_IDS
    )
    def test_roundtrip_all_fixtures(self, label, A, b, c):
        rng = np.random.default_rng(hash(label.value) % 2**32)
        R = random_rotation(rng)
        t = rng.uniform(-2, 2, 3)
        q = Quadric(*transformed_quadric(A, b, c, R, t))
        cls = classify_quadric(q)
        assert cls.label is label
        recon = cls.reconstruct()
        denom = np.linalg.norm(q.coeffs())
        assert np.linalg.norm((q.coeffs() - recon.coeffs())) <= 1e-10 * denom

    def test_sphere_is_ellipsoid_with_equal_axes(self):
        cls = classify_quadric(UNIT_SPHERE)
        assert cls.label is QuadricClass.ELLIPSOID
        npt.assert_allclose(cls.diag, [1.0, 1.0, 1.0])
        assert cls.scalar == -1.0

    def test_chamfer_parallel_planes(self):
        q = Quadric(np.diag([0.0, 0.0, 1.0]), np.zeros(3), -1.0)
        assert classify_quadric(q).label is QuadricClass.PARALLEL_PLANES

    def test_beam_paraboloid(self):
        q = Quadric(np.diag([0.0, 1.0, 1.0]), (-0.375, 0.0, 0.0), -73.0 / 64.0)
        cls = classify_quadric(q)
        assert cls.label is QuadricClass.ELLIPTIC_PARABOLOID
        npt.assert_allclose(cls.diag, [1.0, 1.0, 0.0])
        assert cls.parabolic_axis == 2
        # vertex at x = -73/48 on the axis
        npt.assert_allclose(cls.translation, [-73.0 / 48.0, 0.0, 0.0], atol=1e-12)

    def test_negated_sphere_same_label(self):
        q = Quadric(-np.eye(3), np.zeros(3), 1.0)
        assert classify_quadric(q).label is QuadricClass.ELLIPSOID

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            classify_quadric(Quadric(np.zeros((3, 3)), np.zeros(3), 0.0))
        # The rule reads the coefficient scale as given, not as classified.
        with pytest.raises(AllZeroError):
            classify_quadric(scaled(UNIT_SPHERE, 1e-301))
        assert classify_quadric(scaled(UNIT_SPHERE, 1e-299)).label is QuadricClass.ELLIPSOID

    def test_definite_below_product_underflow(self):
        # The eigenvalues' product underflows to 0; their signs still agree.
        A = np.diag([1e-162, 1e-163, 0.0])
        assert classify_quadric(Quadric(A, np.zeros(3), 0.0)).label is QuadricClass.LINE
        assert (classify_quadric(Quadric(A, np.zeros(3), -1e-162)).label
                is QuadricClass.ELLIPTIC_CYLINDER)

    @pytest.mark.parametrize("label,A,b,c,step", [
        (QuadricClass.ELLIPTIC_PARABOLOID, np.diag([1.0, 0.1, 0.0]), (0, 0, -1.0), 0.0, 1),
        (QuadricClass.SINGLE_PLANE, np.zeros((3, 3)), (1.0, 0, 0), 0.0, 1),
    ] + [(*row, 37) for row in CLASS_FIXTURES], ids=["paraboloid", "plane"] + CLASS_IDS)
    def test_scale_equivariant(self, label, A, b, c, step):
        # Scaling by 2**k is exact, so every field but diag and scalar keeps its
        # bits and those two scale by 2**k, also where |k| > 511 takes squares
        # of the coefficients out of the normal float range.
        rng = np.random.default_rng(5)
        q = Quadric(*transformed_quadric(A, b, c, random_rotation(rng), rng.uniform(-2, 2, 3)))
        ref = classify_quadric(q)
        assert ref.label is label
        for k in range(-560, 561, step):
            cls = classify_quadric(scaled(q, 2.0**k))
            assert (cls.label, cls.parabolic_axis) == (label, ref.parabolic_axis), k
            npt.assert_array_equal(cls.rotation, ref.rotation)
            npt.assert_array_equal(cls.translation, ref.translation)
            assert cls.diag == tuple(d * 2.0**k for d in ref.diag), k
            assert cls.scalar == ref.scalar * 2.0**k, k

    @pytest.mark.parametrize("label,A,b,c", [
        (QuadricClass.SINGLE_PLANE, np.zeros((3, 3)), (0, 0, 0.5), 0.0),
        (QuadricClass.SINGLE_PLANE, np.diag([1.0, 0.0, 0.0]), (0, 0, 0), 0.0),
        (QuadricClass.SINGLE_PLANE, np.diag([0.0, 0.0, -1.0]), (0, 0, 0), 0.0),
        (QuadricClass.PARABOLIC_CYLINDER, np.diag([1.0, 0.0, 0.0]), (0, -0.5, 0.25), 0.0),
        (QuadricClass.PARABOLIC_CYLINDER, np.diag([-1.0, 0.0, 0.0]), (0, 0.3, -0.5), 1.0),
    ], ids=["linear", "rank1-positive", "rank1-negative", "parabolic-positive",
            "parabolic-negative"])
    def test_rotation_is_right_handed(self, label, A, b, c):
        rng = np.random.default_rng(17)
        for _ in range(200):
            R, t = random_rotation(rng), rng.uniform(-2, 2, 3)
            cls = classify_quadric(Quadric(*transformed_quadric(A, b, c, R, t)))
            assert cls.label is label
            assert np.linalg.det(cls.rotation) > 0.0

    def test_linear_plane(self):
        cls = classify_quadric(Quadric(np.zeros((3, 3)), (0.0, 0.0, 0.5), -0.5))
        assert cls.label is QuadricClass.SINGLE_PLANE
        recon = cls.reconstruct()
        npt.assert_allclose(recon.coeffs(), [0, 0, 0, 0, 0, 0, 0, 0, 0.5, -0.5], atol=1e-14)


# ---------------------------------------------------------------------------
# Principal curvatures
# ---------------------------------------------------------------------------

def fd_principal_curvatures(q, p, h=1e-4, directions=64):
    """Independent finite-difference oracle via normal sections.

    Offsets the surface point along tangent directions, projects back onto
    the surface along the normal by 1D root finding, and fits the normal
    offset as a quadratic; curvature is -y''(0) for each direction.
    """
    p = np.asarray(p, dtype=float)
    g = q.gradient(p)
    n = g / np.linalg.norm(g)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(n)))] = 1.0
    t1 = np.cross(n, ref)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)

    def surface_offset(d):
        # Solve q(p + d + y n) = 0 for small y by bisection/Newton.
        y = 0.0
        for _ in range(60):
            val = q.value(p + d + y * n)
            grad = float(q.gradient(p + d + y * n) @ n)
            y -= val / grad
        return y

    kmin, kmax = math.inf, -math.inf
    for ang in np.linspace(0, math.pi, directions, endpoint=False):
        t = math.cos(ang) * t1 + math.sin(ang) * t2
        ypp = (surface_offset(h * t) + surface_offset(-h * t)) / (h * h)
        k = -ypp
        kmin, kmax = min(kmin, k), max(kmax, k)
    return kmin, kmax


class TestCurvature:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0])
    def test_sphere_curvature(self, r):
        q = Quadric(np.eye(3), np.zeros(3), -r * r)
        k1, k2 = principal_curvatures(q, (r, 0.0, 0.0))
        assert k1 == pytest.approx(1.0 / r, abs=1e-9)
        assert k2 == pytest.approx(1.0 / r, abs=1e-9)

    def test_cylinder_curvature(self):
        k1, k2 = principal_curvatures(CYLINDER_X, (0.0, 1.0, 0.0))
        assert (k1, k2) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_fillet_probe_curvatures(self):
        fillet = subtract_square(CYLINDER_X, LinearForm((-0.75, 1.25, 0.0), 0.0))
        t = math.sqrt(4.0 / 3.0)
        k1, k2 = principal_curvatures(fillet, (t, t, 0.0))
        assert k1 == pytest.approx(-math.sqrt(6.0), abs=1e-12)
        assert k2 == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
        # Independent finite-difference oracle.
        kmin, kmax = fd_principal_curvatures(fillet, (t, t, 0.0))
        assert kmin == pytest.approx(k1, abs=1e-5)
        assert kmax == pytest.approx(k2, abs=1e-5)

    def test_singular_point(self):
        cone = Quadric(np.diag([1.0, 1.0, -1.0]), np.zeros(3), 0.0)
        with pytest.raises(SingularPointError, match=r"gradient vanishes at \(0\.0, 0\.0, 0\.0\)"):
            principal_curvatures(cone, (0.0, 0.0, 0.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1e-20, 1e200])
    def test_scaled_unit_sphere(self, s):
        # The same surface: too small a scale once read as a vanishing
        # gradient, too large a one overflowed the gradient's norm.
        k1, k2 = principal_curvatures(scaled(UNIT_SPHERE, s), (1.0, 0.0, 0.0))
        assert (k1, k2) == pytest.approx((1.0, 1.0), abs=1e-15)
