"""The object API as one-row calls of ``quador.algebra``'s row functions.

Each ``Quadric`` and ``LinearForm`` method, and ``subtract_square``, must
give the bits of its former object body (``form_reference``) over the whole
float range: every exponent from -1074 to 1023, signed zeros, subnormals,
infinities and NaN (any NaN for a NaN; see :func:`same_bits`).
``stacked_values``' plane-row claim is checked as its docstring states it,
and each module's ``__all__`` against its code.
"""

import importlib
import pkgutil
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quador
from quador.algebra import (LinearForm, Quadric, _rel_residual, _stack_rows, stacked_values,
                            subtract_square)

import form_reference as ref

ANY = st.floats()  # every float: subnormals, +-0.0, +-inf and NaN included
VEC = st.tuples(ANY, ANY, ANY)
MATRIX = st.tuples(VEC, VEC, VEC)


def same_bits(got, expect) -> bool:
    """Equal bits, where any NaN matches any NaN: which NaN a sum of a NaN and
    an invalid product returns (its sign and payload) depends on the order in
    which a BLAS kernel adds the terms, and a 1-D dot and a ``(1,3) @ (3,1)``
    product need not take the same order."""
    got, expect = np.asarray(got, dtype=float), np.asarray(expect, dtype=float)
    nan = np.isnan(got)
    return (got.shape == expect.shape and np.array_equal(nan, np.isnan(expect))
            and got[~nan].tobytes() == expect[~nan].tobytes())


def same_quadric(got: Quadric, expect: Quadric) -> bool:
    return all(same_bits(g, e) for g, e in ((got.A, expect.A), (got.b, expect.b),
                                            (got.c, expect.c)))


@settings(max_examples=300, deadline=None)
@given(A=MATRIX, b=VEC, c=ANY, A2=MATRIX, b2=VEC, c2=ANY, g=VEC, c0=ANY, x=VEC)
def test_one_row_calls_keep_the_object_bits(A, b, c, A2, b2, c2, g, c0, x):
    with np.errstate(all="ignore"):
        q, p, lin = Quadric(A, b, c), Quadric(A2, b2, c2), LinearForm(g, c0)
        assert same_bits(q.value(x), ref.quadric_value(q, x))
        assert same_bits(q.gradient(x), ref.quadric_gradient(q, x))
        assert same_bits(q.coeffs(), ref.quadric_coeffs(q))
        assert same_quadric(q - p, ref.quadric_minus(q, p))
        assert same_quadric(subtract_square(q, lin), ref.subtract_square(q, lin))
        assert same_bits(lin.value(x), ref.linear_value(lin, x))
        rows = [(f.A[None], f.b[None], np.array([f.c])) for f in (q, p)]
        assert same_bits(_rel_residual(*rows)[0], ref.rel_coeff_residual(q, p))
        plane = np.array([[*lin.g, lin.c0]])
        for got, expect in zip(_stack_rows(rows[0], plane), ref.stack_forms([q, lin])):
            assert same_bits(got, expect)


def plane_claim_holds(g, x) -> bool:
    """The condition of ``stacked_values``' plane-row claim."""
    def in_range(v):
        return (v == 0.0) | ((2.0**-1021 <= np.abs(v)) & (np.abs(v) <= 2.0**1022))
    with np.errstate(all="ignore"):
        return bool(np.isfinite(x).all() and in_range(g).all() and in_range(g * x).all())


def check_plane_row(g, c0, x):
    g, x = np.array(g), np.array(x)
    if not plane_claim_holds(g, x):
        return False
    with np.errstate(all="ignore"):
        got = stacked_values(_stack_rows(np.array([[*g, c0]])), x)[0]
        expect = LinearForm(g, c0).value(x)
    assert got == expect or (np.isnan(got) and np.isnan(expect))  # up to a zero's sign
    return True


@settings(max_examples=300, deadline=None)
@given(g=VEC, c0=ANY, x=VEC)
def test_plane_row_value_where_the_docstring_says(g, c0, x):
    check_plane_row(g, c0, x)


# Magnitudes 2**-500 to 2**500 and zeros: the claim's condition always holds.
MID = st.one_of(st.just(0.0), st.just(-0.0),
                st.builds(lambda m, e: m * 2.0**e, st.floats(0.5, 1.0, exclude_max=True)
                          | st.floats(-1.0, -0.5, exclude_min=True), st.integers(-500, 500)))


@settings(max_examples=300, deadline=None)
@given(g=st.tuples(MID, MID, MID), c0=ANY, x=st.tuples(MID, MID, MID))
def test_plane_row_value_in_the_claims_range(g, c0, x):
    assert check_plane_row(g, c0, x)


@pytest.mark.parametrize("g,x,plane,row", [
    ((5e-324, 0.0, 0.0), (1e300, 0.0, 0.0), 5e-324 * 1e300, 0.0),  # subnormal g
    ((1.0, 2.0, 0.0), (np.inf, 0.0, 0.0), np.inf, np.nan),  # 0 * inf in the zero A
], ids=["subnormal-g", "infinite-point"])
def test_plane_row_outside_the_claim(g, x, plane, row):
    with np.errstate(all="ignore"):
        got = stacked_values(_stack_rows(np.array([[*g, 0.0]])), np.array(x))[0]
    assert not plane_claim_holds(np.array(g), np.array(x))
    assert same_bits(LinearForm(g, 0.0).value(x), plane)  # off the plane-row path
    assert got == row or (np.isnan(got) and np.isnan(row))


def modules():
    return [importlib.import_module(f"quador.{m.name}")
            for m in pkgutil.iter_modules(quador.__path__)]


def test_every_name_in_all_exists():
    for module in modules():
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_every_public_name_is_in_a_modules_all():
    declared = {name for module in modules() for name in getattr(module, "__all__", ())}
    public = [name for name, value in vars(quador).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(set(public) - declared) == []


@pytest.mark.parametrize("name", ["linear_product", "rel_coeff_residual", "stack_forms"])
def test_removed_names_are_gone(name):
    with pytest.raises(ImportError):
        exec(f"from quador.algebra import {name}", {})
