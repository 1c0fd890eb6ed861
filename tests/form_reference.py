"""Form arithmetic one object at a time: the bodies of the ``Quadric`` and
``LinearForm`` methods and of ``subtract_square`` before they became one-row
calls of ``quador.algebra``'s row functions, and the object operations that
only tests use: scaling, sums and differences of linear forms, the product
of two linear forms, the relative coefficient residual and the stacking of
objects for ``stacked_values``.

The tests hold each one-row call to these bit for bit, and build expected
forms with the rest.
"""

import math

import numpy as np

from quador.algebra import LinearForm, Quadric


def _vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    assert v.shape == (3,)
    return v


def quadric_value(q: Quadric, x) -> float:
    v = _vec(x)
    return float(v @ q.A @ v + 2.0 * (q.b @ v) + q.c)


def quadric_gradient(q: Quadric, x) -> np.ndarray:
    return 2.0 * (q.A @ _vec(x)) + 2.0 * q.b


def quadric_coeffs(q: Quadric) -> np.ndarray:
    A, b = q.A, q.b
    return np.array([A[0, 0], A[1, 1], A[2, 2], A[0, 1], A[0, 2], A[1, 2], b[0], b[1], b[2], q.c])


def quadric_minus(q: Quadric, p: Quadric) -> Quadric:
    return Quadric(q.A - p.A, q.b - p.b, q.c - p.c)


def linear_value(f: LinearForm, x) -> float:
    return float(f.g @ _vec(x) + f.c0)


def subtract_square(q: Quadric, lin: LinearForm) -> Quadric:
    """``Q - L^2`` as ``(A - g g^T, b - c0 g, c - c0^2)``."""
    g, c0 = lin.g, lin.c0
    return Quadric(q.A - np.outer(g, g), q.b - c0 * g, q.c - c0 * c0)


def scaled(f, s: float):
    """``s`` times a quadric or a linear form."""
    if isinstance(f, Quadric):
        return Quadric(f.A * s, f.b * s, f.c * s)
    return LinearForm(f.g * s, f.c0 * s)


def add(p: LinearForm, q: LinearForm) -> LinearForm:
    return LinearForm(p.g + q.g, p.c0 + q.c0)


def sub(p: LinearForm, q: LinearForm) -> LinearForm:
    return LinearForm(p.g - q.g, p.c0 - q.c0)


def neg(p: LinearForm) -> LinearForm:
    return scaled(p, -1.0)


def linear_product(p: LinearForm, q: LinearForm) -> Quadric:
    """The quadric ``P(x) * Q(x)`` of two linear forms."""
    A = 0.5 * np.outer(p.g, q.g) + 0.5 * np.outer(q.g, p.g)  # halved first: no overflow
    b = 0.5 * p.c0 * q.g + 0.5 * q.c0 * p.g
    return Quadric(A, b, p.c0 * q.c0)


def rel_coeff_residual(q: Quadric, ref: Quadric) -> float:
    """``|q| / |ref|`` over the canonical coefficient vectors (``ref`` floored)."""
    norm_q, norm_ref = (math.sqrt(v.dot(v)) for v in (quadric_coeffs(q), quadric_coeffs(ref)))
    return norm_q / max(norm_ref, 1e-300)


def stack_forms(forms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forms as one stack ``A (m,3,3)``, ``b (m,1,3)``, ``c (m,)``; a linear
    form ``g . x + c0`` enters as ``A = 0, b = g/2, c = c0``."""
    rows = [(f.A, f.b, f.c) if isinstance(f, Quadric) else (np.zeros((3, 3)), 0.5 * f.g, f.c0)
            for f in forms]
    A, b, c = (np.array([r[i] for r in rows], dtype=float) for i in range(3))
    return A.reshape(-1, 3, 3), b.reshape(-1, 1, 3), c
