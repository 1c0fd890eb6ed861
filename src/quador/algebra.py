"""Linear and quadratic forms on R^3.

A :class:`LinearForm` is the affine function ``L(x) = g . x + c0``; its zero
set is a plane whenever ``|g| > 0``.  A :class:`Quadric` is the quadratic
function ``Q(x) = x^T A x + 2 b^T x + c`` with ``A`` stored exactly
symmetric.  Both are immutable values; every operation here is pure, so the
whole module is safe for concurrent use.

Each form operation (value, gradient, coefficient vector, difference,
``Q - L^2``, relative residual, stacking) is one row function below, which
the kernel calls on all its forms at once; the object methods and
:func:`subtract_square` are one-row calls of it, and keep its bits.

The sign convention throughout the kernel: implicit functions are negative
inside the solid and increase outward, so ``+grad`` is the outward normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AllZeroError, SingularPointError
from .tolerances import (
    CLASSIFY_TOL,
    JACOBI_OFFDIAG_TOL,
    JACOBI_SWEEP_CAP,
    SINGULAR_GRAD_TOL,
)

__all__ = [
    "LinearForm",
    "Quadric",
    "QuadricClass",
    "QuadricClassification",
    "subtract_square",
    "stacked_values",
    "jacobi_eigen3",
    "classify_quadric",
    "principal_curvatures",
]

# The one batch budget: every batched loop takes at most _BATCH units at once, a
# unit being one value of its largest temporary: a float of a point or conic chunk's,
# a grid point of a slab, a (brick, form) row or a leaf of quador.cull, a corner or
# vertex of the mesh weld, a coordinate of STL records, or a number in CSV and OBJ rows.
# Dense slabs 4x larger or smaller ran slower, and sample's RSS peaked lowest here.
# quador.cull needs _BATCH >= (_BRICK // _LEAF) ** 3.
_BATCH = 1 << 14


def _vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float array, bit for bit: numpy takes the
    square root of ``v.dot(v)`` too, after a few microseconds of dispatch."""
    return math.sqrt(v.dot(v))


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, or of two stacks of rows ``(m, 3)``, in
    numpy's term order and into one output: its bits, without its overhead or copies."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    with np.errstate(invalid="ignore", over="ignore"):  # float arithmetic: no warning
        for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # a[i] b[j] - a[j] b[i]
            np.multiply(a[..., i], b[..., j], out=out[..., k])
            out[..., k] -= a[..., j] * b[..., i]
    return out


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``u @ v`` of rows ``(..., 3)`` by one ``(1,3) @ (3,1)``
    product per row, the bits of each row's own dot product (and so of
    ``np.linalg.norm`` squared)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _exponent(x) -> int:
    """The ``e`` with ``max|x| * 2**-e`` in [0.5, 1); 0 if ``x`` is all zero or not finite."""
    return math.frexp(float(np.abs(x).max()))[1]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# Row functions: each form operation on quadric rows ``(A (...,3,3), b (...,3),
# c (...))`` and plane rows ``(..., 4)`` of ``(g, c0)``, row by row.

def _symmetric(A: np.ndarray) -> np.ndarray:
    """``A`` rows ``(...,3,3)`` made exactly symmetric, as :class:`Quadric`
    stores them; halving first keeps a sum near the float maximum from
    overflowing."""
    return 0.5 * A + 0.5 * np.swapaxes(A, -1, -2)


def _plane_values(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``g . x + c0`` of plane rows ``e`` at the points ``x (..., 3)``, row by row."""
    return _dots(e[..., :3], x) + e[..., 3]


def _gradients(A: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``2 (A x + b)`` of quadric rows ``A``, ``b`` at the points ``(..., 3)``:
    one stacked ``(3,3) @ (3,1)`` product per point."""
    return 2.0 * (A @ pts[..., None])[..., 0] + 2.0 * b


def _coeffs(A, b, c) -> np.ndarray:
    """The canonical coefficient vectors ``(..., 10)`` of quadric rows: ``A``'s
    diagonal, its off-diagonals ``01``, ``02``, ``12``, then ``b`` and ``c``."""
    i, j = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    return np.concatenate([A[..., i, j], b, c[..., None]], axis=-1)


def _minus(q, p):
    """``q - p`` of quadric rows."""
    return _symmetric(q[0] - p[0]), q[1] - p[1], q[2] - p[2]


def _subtract_square(q, e):
    """``Q - L^2`` of quadric rows and plane rows: ``(g . x + c0)^2`` expands
    to ``x^T g g^T x + 2 c0 g . x + c0^2``, so the rows are ``(A - g g^T,
    b - c0 g, c - c0^2)``, invariant under flipping the sign of ``L``."""
    g, c0 = e[..., :3], e[..., 3]
    A, b, c = q
    return _symmetric(A - g[..., :, None] * g[..., None, :]), b - c0[..., None] * g, c - c0 * c0


def _rel_residual(q, ref) -> np.ndarray:
    """``|q| / |ref|`` of quadric rows over their coefficient vectors, ``|ref|``
    floored at 1e-300."""
    norm_q, norm_ref = (np.sqrt(_dots(v, v)) for v in (_coeffs(*q), _coeffs(*ref)))
    return norm_q / np.where(1e-300 > norm_ref, 1e-300, norm_ref)


def _stack_rows(*forms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stack ``A (n,3,3)``, ``b (n,1,3)``, ``c (n,)`` for :func:`stacked_values`
    of row 0 of each form, then of row 1, and so on; a form is plane rows
    ``(m, 4)``, which enter as ``A = 0, b = g/2, c = c0``, or quadric rows."""
    rows = [f if isinstance(f, tuple) else (np.zeros((len(f), 3, 3)), 0.5 * f[:, :3], f[:, 3])
            for f in forms]
    A, b, c = (np.stack([r[i] for r in rows], axis=1) for i in range(3))
    return A.reshape(-1, 3, 3), b.reshape(-1, 1, 3), c.reshape(-1)


def stacked_values(stack, points) -> np.ndarray:
    """Every stacked form at every point: ``(..., m)`` for points ``(..., 3)``
    and a stack ``A (m,3,3)``, ``b (m,1,3)``, ``c (m,)``, by ``(1,3) @ (3,3)``
    and ``(1,3) @ (3,1)`` BLAS products.  Leading stack axes broadcast against
    the points': ``A (k,1,3,3)``, ``b (k,1,1,3)``, ``c (k,1)`` give form ``i``
    at point ``i`` of ``(k, 3)`` points.

    A plane row of :func:`_stack_rows` gives ``g . x + c0``, up to the sign
    of a zero, where ``x`` is finite and each ``g_i`` and ``g_i x_i`` is zero
    or of magnitude in [2**-1021, 2**1022], so that halving ``g`` and doubling
    are exact.  Elsewhere it need not: a subnormal ``g_i`` loses bits when
    halved (``g = (5e-324, 0, 0)``, ``c0 = 0`` at ``(1e300, 0, 0)`` gives 0.0,
    not 4.94e-24), and an infinite ``x_i`` meets the zero ``A`` (``0 * inf``).
    """
    A, b, c = stack
    row = np.asarray(points, dtype=float)[..., None, None, :]
    col = np.swapaxes(row, -1, -2)
    return ((row @ A) @ col + 2.0 * (b @ col))[..., 0, 0] + c


@dataclass(frozen=True, eq=False)
class LinearForm:
    """Affine function ``L(x) = g . x + c0``."""

    g: np.ndarray
    c0: float

    def __post_init__(self):
        object.__setattr__(self, "g", _freeze(_vec(self.g)))
        object.__setattr__(self, "c0", float(self.c0))

    def value(self, x) -> float:
        return float(_plane_values(np.append(self.g, self.c0), _vec(x)))

    def grad_norm(self) -> float:
        return _norm(self.g)

    def __repr__(self):
        gx, gy, gz = self.g
        return f"LinearForm(g=({gx:g}, {gy:g}, {gz:g}), c0={self.c0:g})"


@dataclass(frozen=True, eq=False)
class Quadric:
    """Quadratic function ``Q(x) = x^T A x + 2 b^T x + c``."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.shape != (3, 3):
            raise ValueError(f"A must be 3x3, got {A.shape}")
        object.__setattr__(self, "A", _freeze(_symmetric(A)))
        object.__setattr__(self, "b", _freeze(_vec(self.b)))
        object.__setattr__(self, "c", float(self.c))

    def _row(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This quadric as a one-row :func:`stacked_values` stack."""
        return self.A[None], self.b[None, None], np.array([self.c])

    def value(self, x) -> float:
        return float(stacked_values(self._row(), _vec(x))[0])

    def gradient(self, x) -> np.ndarray:
        return _gradients(self.A, self.b, _vec(x))

    def coeffs(self) -> np.ndarray:
        """Canonical 10-vector (A diagonal, off-diagonals, b, c) for comparisons."""
        return _coeffs(self.A, self.b, np.array(self.c))

    def __sub__(self, other: "Quadric") -> "Quadric":
        return Quadric(*_minus((self.A, self.b, self.c), (other.A, other.b, other.c)))

    def __repr__(self):
        return f"Quadric(c={self.c:g}, b={tuple(self.b.tolist())}, A={self.A.tolist()})"


def subtract_square(q: Quadric, lin: LinearForm) -> Quadric:
    """The quadric ``Q - L^2``: one row of :func:`_subtract_square`."""
    return Quadric(*_subtract_square((q.A, q.b, q.c), np.append(lin.g, lin.c0)))


# ---------------------------------------------------------------------------
# Symmetric 3x3 eigen-decomposition (cyclic Jacobi)
# ---------------------------------------------------------------------------

def jacobi_eigen3(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a symmetric 3x3 matrix by cyclic Jacobi rotations.

    Returns ``(eigenvalues, V)`` with eigenvalues sorted descending and the
    columns of ``V`` the matching eigenvectors.  ``V`` is right-handed;
    column signs are fixed so each column's largest-magnitude component is
    positive (the last column yields to right-handedness when the two rules
    conflict).  Off-diagonal mass is reduced below
    ``JACOBI_OFFDIAG_TOL * ||A||_F`` within ``JACOBI_SWEEP_CAP`` sweeps,
    which always suffices for 3x3 symmetric input.  It works at any finite
    scale: ``A`` is decomposed scaled by ``2**-_exponent(A)``, which is exact.
    """
    m = np.array(A, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("jacobi_eigen3 expects a 3x3 matrix")
    e = _exponent(m)
    m = np.ldexp(m, -e)
    a = 0.5 * (m + m.T)
    thresh = JACOBI_OFFDIAG_TOL * np.linalg.norm(a)
    v = np.eye(3)

    for _ in range(JACOBI_SWEEP_CAP):
        off = math.sqrt(a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)
        if off <= thresh:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p, q]
            if abs(apq) <= thresh / 10.0:
                continue
            theta = 0.5 * (a[q, q] - a[p, p]) / apq
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
            cs = 1.0 / math.sqrt(1.0 + t * t)
            sn = t * cs
            rot = np.eye(3)
            rot[p, p] = rot[q, q] = cs
            rot[p, q] = sn
            rot[q, p] = -sn
            a = rot.T @ a @ rot
            a = 0.5 * (a + a.T)
            v = v @ rot

    evals = np.diag(a).copy()
    order = np.argsort(-evals, kind="stable")
    evals = np.ldexp(evals[order], e)
    v = v[:, order]
    # Deterministic signs: largest-magnitude component of each column positive.
    for j in range(3):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0.0:
            v[:, j] = -v[:, j]
    if np.linalg.det(v) < 0.0:
        v[:, 2] = -v[:, 2]
    return evals, v


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class QuadricClass(Enum):
    ELLIPSOID = "ELLIPSOID"
    HYPERBOLOID_ONE_SHEET = "HYPERBOLOID_ONE_SHEET"
    HYPERBOLOID_TWO_SHEETS = "HYPERBOLOID_TWO_SHEETS"
    ELLIPTIC_PARABOLOID = "ELLIPTIC_PARABOLOID"
    HYPERBOLIC_PARABOLOID = "HYPERBOLIC_PARABOLOID"
    ELLIPTIC_CYLINDER = "ELLIPTIC_CYLINDER"
    HYPERBOLIC_CYLINDER = "HYPERBOLIC_CYLINDER"
    PARABOLIC_CYLINDER = "PARABOLIC_CYLINDER"
    CONE = "CONE"
    PARALLEL_PLANES = "PARALLEL_PLANES"
    CROSSING_PLANES = "CROSSING_PLANES"
    SINGLE_PLANE = "SINGLE_PLANE"
    LINE = "LINE"
    POINT = "POINT"
    EMPTY = "EMPTY"


@dataclass(frozen=True, eq=False)
class QuadricClassification:
    """The class of a quadric ``x^T A x + 2 b^T x + c`` and the eigenvalues
    of its ``A``.

    ``diag`` is sorted descending with entries ``|lam| <= CLASSIFY_TOL *
    max|lam|`` snapped to 0, and all zero where ``A`` is negligible beside
    ``b`` and ``c``: a plane ``2 b^T x + c = 0``, or none.
    """

    label: QuadricClass
    diag: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(float(d) for d in self.diag))


#: The definite classes of ranks 3, 2 and 1: the degenerate one, where the
#: completed constant is zero, and the solid one, where it has the opposite
#: sign to the eigenvalues (EMPTY otherwise).
_DEFINITE = {3: (QuadricClass.POINT, QuadricClass.ELLIPSOID),
             2: (QuadricClass.LINE, QuadricClass.ELLIPTIC_CYLINDER),
             1: (QuadricClass.SINGLE_PLANE, QuadricClass.PARALLEL_PLANES)}


def _axis_complement(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing ``n`` (or each row of ``n``) to a
    right-handed orthonormal basis.

    The first is built from the global axis least aligned with ``n``
    (ties broken x before y before z) for reproducible output.
    """
    u = _cross3(n, np.eye(3)[np.argmin(np.abs(n), axis=-1)])
    u = u / np.sqrt(_dots(u, u))[..., None]
    return u, _cross3(n, u)


def classify_quadric(q: Quadric) -> QuadricClassification:
    """Classify a quadric into one of 15 classes, with the eigenvalues of its ``A``.

    ``CLASSIFY_TOL`` is the relative rank threshold: eigenvalues with
    ``|lam| <= CLASSIFY_TOL * max|lam|`` are treated as zero, and the linear
    term along the null axes and the constant left after completing the
    square are zeroed relative to the overall coefficient scale.  Raises
    :class:`AllZeroError` when every coefficient is negligible.

    It works at any finite scale: ``q`` is classified scaled by the power of
    two that brings its largest coefficient into [0.5, 1), which is exact,
    so no square of a coefficient underflows or overflows; ``diag`` is
    scaled back.
    """
    e = _exponent(q.coeffs())
    label, diag = _classify_unit(
        np.ldexp(q.A, -e), np.ldexp(q.b, -e), math.ldexp(q.c, -e), math.ldexp(1e-300, -e))
    return QuadricClassification(label, np.ldexp(diag, e))


def _classify_unit(A: np.ndarray, b: np.ndarray, c: float, all_zero: float) -> tuple:
    """:func:`classify_quadric`'s label and eigenvalues for ``x^T A x + 2 b^T x
    + c``, whose coefficient scale is negligible at ``all_zero`` and below."""
    evals, V = jacobi_eigen3(A)
    lam_max = float(np.max(np.abs(evals)))
    b_norm = _norm(b)
    coeff_scale = max(lam_max, b_norm, abs(c))
    if coeff_scale <= all_zero:
        raise AllZeroError("all quadric coefficients are zero")
    thr = CLASSIFY_TOL * coeff_scale

    if lam_max <= thr:
        # No quadratic part: a plane, or empty, depending on the linear part.
        return QuadricClass.SINGLE_PLANE if b_norm > thr else QuadricClass.EMPTY, np.zeros(3)

    zero = np.abs(evals) <= CLASSIFY_TOL * lam_max
    lam = np.where(zero, 0.0, evals)
    nz = [i for i in range(3) if not zero[i]]
    rank = len(nz)

    b2 = V.T @ b
    # The constant left by completing the square along the non-null axes.
    c_t = c + sum(b2[i] * (-b2[i] / lam[i]) for i in nz)
    has_linear = _norm(np.where(zero, b2, 0.0)) > thr  # the linear term along the null axes
    c_zero = abs(c_t) <= thr

    pos = sum(1 for i in nz if lam[i] > 0)
    definite = pos in (0, rank)

    if has_linear and rank == 1:
        label = QuadricClass.PARABOLIC_CYLINDER
    elif has_linear:
        label = (QuadricClass.ELLIPTIC_PARABOLOID if definite
                 else QuadricClass.HYPERBOLIC_PARABOLOID)
    elif definite:
        degenerate, solid = _DEFINITE[rank]
        if c_zero:
            label = degenerate
        elif c_t * math.copysign(1.0, lam[nz[0]]) < 0:
            label = solid
        else:
            label = QuadricClass.EMPTY
    elif rank == 3:
        # Mixed signature: normalize so two coefficients are positive.
        flip = -1.0 if pos == 1 else 1.0
        if c_zero:
            label = QuadricClass.CONE
        elif -c_t * flip > 0:
            label = QuadricClass.HYPERBOLOID_ONE_SHEET
        else:
            label = QuadricClass.HYPERBOLOID_TWO_SHEETS
    else:
        label = QuadricClass.CROSSING_PLANES if c_zero else QuadricClass.HYPERBOLIC_CYLINDER
    return label, lam


# ---------------------------------------------------------------------------
# Principal curvatures
# ---------------------------------------------------------------------------

def principal_curvatures(q: Quadric, x) -> tuple[float, float]:
    """Principal curvatures of the level set of ``q`` through ``x``.

    Eigenvalues of the tangent-plane-projected Hessian divided by the
    gradient norm, sorted so ``|k1| >= |k2|``; the normal is ``+grad``, so a
    sphere reported with this convention has curvature ``+1/r``.  Raises
    :class:`SingularPointError` when the gradient vanishes at ``x``: its
    norm, with ``A`` and ``b`` scaled by ``2**-_exponent`` of their entries
    (exact), is at most ``SINGULAR_GRAD_TOL``.
    """
    p = _vec(x)
    k1, k2, singular = _curvatures(q.A[None], q.b[None], p[None])
    if singular[0]:
        raise SingularPointError(f"gradient vanishes at {tuple(p.tolist())}")
    return float(k1[0]), float(k2[0])


def _curvatures(A: np.ndarray, b: np.ndarray, p: np.ndarray):
    """:func:`principal_curvatures` row by row: ``k1``, ``k2`` and whether the
    gradient vanishes, for quadric rows ``A (m,3,3)``, ``b (m,3)`` at points
    ``p (m,3)``; a row where it vanishes holds no meaningful curvature."""
    e = np.frexp(np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(b).max(axis=1)))[1]
    A, b = np.ldexp(A, -e[:, None, None]), np.ldexp(b, -e[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = _gradients(A, b, p)
        gn = np.sqrt(_dots(grad, grad))
        u, v = _axis_complement(grad / gn[:, None])
        H = 2.0 * A
        uH, vH = u[:, None, :] @ H, v[:, None, :] @ H
        m11, m12, m22 = ((m @ w[:, :, None])[:, 0, 0] for m, w in ((uH, u), (uH, v), (vH, v)))
        half_tr = 0.5 * (m11 + m22)
        # Python's ``x ** 2`` is libm pow, which numpy's square need not match.
        sq = np.array([t ** 2 for t in (0.5 * (m11 - m22)).tolist()]) + m12 * m12
        disc = np.sqrt(np.where(sq > 0.0, sq, 0.0))
        k1, k2 = (half_tr + disc) / gn, (half_tr - disc) / gn
    swap = np.abs(k2) > np.abs(k1)
    return np.where(swap, k2, k1), np.where(swap, k1, k2), gn <= SINGULAR_GRAD_TOL
