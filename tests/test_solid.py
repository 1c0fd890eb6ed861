"""Assembly field, point classification, bounds and polygonization."""

import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import quador
from quador import cull
from quador.algebra import LinearForm, Quadric, stack_forms, stacked_values
from quador.errors import DegenerateBoundsError, ValidationError
from quador.lattice import Beam, FilletSpec, Hub, Lattice, beam_radius, sphere_quadric
from quador.latticefile import load_lattice, load_lattice_path
from quador.mc_tables import EDGE_VERTS, TRI_TABLE, VERT_OFFSETS
from quador.cull import _box, _form_bounds, _form_table
from quador.solid import (
    _BATCH,
    OUTSIDE,
    _form_grid,
    Mesh,
    PointClassification,
    RegionLabel,
    auto_bounds,
    build_assembly,
    classify_point,
    field_grid,
    field_value,
    marching_cubes,
)

from beam_reference import reference_sphere
from test_fillet import jittered_cubic

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
sys.path.insert(0, str(FIXTURES.parent / "bench"))

from checks import edge_problems  # noqa: E402
from inputs import cubic_lattice, lattice_json  # noqa: E402


def reference_parts(asm) -> list:
    """(label, forms) per part, in part order, built as objects: each hub's
    sphere; each beam's stub quadric and negated planes; each fillet's
    ``Q``, ``-E1`` and ``-E2`` and its locality ball ``|x - c|^2 - rho^2``."""
    resolved = asm.lattice._resolved
    parts = [(RegionLabel("HUB", hub.id), (reference_sphere(hub),)) for hub in asm.hubs]
    parts += [(RegionLabel("BEAM", bg.beam.id), (bg.stub_a.H, -bg.stub_a.G, -bg.stub_b.G))
              for bg in asm.beams]
    for p in asm.fillets:
        hub = p.stub1.hub
        c, r = np.asarray(hub.center, dtype=float), resolved.locality[hub.id]
        ball = Quadric(np.eye(3), -c, float(c @ c) - r * r)
        parts.append((RegionLabel("FILLET", p.key), (p.Q, -p.E1, -p.E2, ball)))
    return parts


def reference_table(asm) -> tuple:
    """The part table of :func:`reference_parts`: its form stack, part
    bounds, part indices in label preference order, and labels in that
    order followed by ``OUTSIDE``."""
    parts = reference_parts(asm)
    rank = {"HUB": 0, "BEAM": 1, "FILLET": 2}
    order = sorted(range(len(parts)), key=lambda i: (rank[parts[i][0].kind], parts[i][0].key))
    return (stack_forms(f for _, fns in parts for f in fns),
            np.cumsum([0] + [len(fns) for _, fns in parts]), np.array(order, dtype=int),
            np.array([parts[i][0] for i in order] + [OUTSIDE], dtype=object))


def mesh_digest(mesh) -> str:
    return hashlib.sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes()).hexdigest()


@pytest.fixture
def asm(perp_lattice):
    return build_assembly(perp_lattice)


@pytest.fixture
def asm_bare(perp_lattice):
    return build_assembly(dataclasses.replace(perp_lattice, fillets=()))


class TestBuildAssembly:
    def test_fixture_parts(self, asm):
        assert len(asm.hubs) == 3
        assert len(asm.beams) == 2
        assert len(asm.fillets) == 1
        patch = asm.fillets[0]
        npt.assert_allclose(patch.E1.g, [-0.75, 1.25, 0.0])
        # locality radius at h0 is the distance to the nearest far hub
        assert asm.lattice._resolved.locality[asm.hubs[0].id] == 4.0

    def test_single_hub(self):
        asm = build_assembly(Lattice((Hub("solo", (0, 0, 0), 1.0),), (), ()))
        assert len(asm.hubs) == 1
        assert asm.lattice._resolved.locality["solo"] == 2.0  # isolated hubs get 2r

    def test_invalid_lattice_raises(self):
        bad = Lattice((Hub("h", (0, 0, 0), -1.0),), (), ())
        with pytest.raises(ValidationError):
            build_assembly(bad)


class TestFieldValue:
    def test_hub_center(self, asm):
        assert field_value(asm, (0.0, 0.0, 0.0)) == -1.0

    def test_fillet_point(self, asm):
        # fillet part: max(Q, -E1, -E2, S_loc) = max(-0.173125, -0.525, -0.525, -13.795)
        assert field_value(asm, (1.05, 1.05, 0.0)) == pytest.approx(-0.173125, abs=1e-12)

    def test_outside_point(self, asm):
        assert field_value(asm, (3.0, 3.0, 0.0)) > 0.0

    def test_grid_matches_scalar(self, asm):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-2, 5, size=(200, 3))
        grid = field_grid(asm, pts[:, 0], pts[:, 1], pts[:, 2])
        for p, v in zip(pts, grid):
            assert v == pytest.approx(field_value(asm, p), abs=1e-13)

    def test_continuity(self, asm):
        # |f(x + h d) - f(x)| <= L h: parts are smooth, min/max preserves it.
        rng = np.random.default_rng(29)
        h = 1e-6
        pts = rng.uniform(-1.5, 5.0, size=(1000, 3))
        # Lipschitz bound from part coefficients over the sampled box.
        box_r = float(np.max(np.abs(pts))) + 1.0
        lip = 0.0
        for _, fns in reference_parts(asm):
            for fn in fns:
                if hasattr(fn, "A"):
                    lip = max(
                        lip,
                        2.0 * float(np.abs(fn.A).sum()) * box_r
                        + 2.0 * float(np.linalg.norm(fn.b)),
                    )
                else:
                    lip = max(lip, float(np.linalg.norm(fn.g)))
        for p in pts:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            df = abs(field_value(asm, p + h * d) - field_value(asm, p))
            assert df <= lip * h * (1 + 1e-6) + 1e-12


class TestClassifyPoint:
    def test_hub_label(self, asm):
        res = classify_point(asm, (0.0, 0.0, 0.0))
        assert (res.state, str(res.label), res.value) == ("inside", "HUB(h0)", -1.0)

    def test_beam_label_preferred_inside_stub(self, asm):
        # Inside the stub solid the beam label wins even though the fillet
        # part value is lower there.
        res = classify_point(asm, (0.9, 0.9, 0.3))
        assert res.state == "inside"
        assert str(res.label) == "BEAM(b1)"
        assert res.value == pytest.approx(-0.10, abs=1e-12)

    def test_fillet_label_in_corner(self, asm, asm_bare):
        res = classify_point(asm, (1.05, 1.05, 0.0))
        assert res.state == "inside"
        assert str(res.label) == "FILLET(h0:b1+b2)"
        assert res.value == pytest.approx(-0.173125, abs=1e-12)
        # Without the fillet the same point is outside: material was added.
        bare = classify_point(asm_bare, (1.05, 1.05, 0.0))
        assert bare.state == "outside"
        assert bare.value == pytest.approx(0.1025, abs=1e-12)

    def test_label_prefers_smaller_id_not_declaration_order(self):
        lat = Lattice((Hub("b", (0, 0, 0), 1.0), Hub("a", (0.5, 0, 0), 1.0)), (), ())
        res = classify_point(build_assembly(lat), (0.0, 0.0, 0.0))
        assert (str(res.label), res.value) == ("HUB(a)", -0.75)

    def test_outside(self, asm):
        res = classify_point(asm, (9.0, 9.0, 9.0))
        assert res.state == "outside"
        assert str(res.label) == "OUTSIDE"

    def test_boundary(self, asm):
        res = classify_point(asm, (0.0, 0.0, 1.0), tol=1e-9)
        assert res.state == "boundary"

    @pytest.mark.parametrize("tol", [-1e-9, math.nan])
    def test_tol_must_be_nonnegative(self, asm, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            classify_point(asm, (9.0, 9.0, 9.0), tol=tol)

    def test_agrees_with_bruteforce_oracle(self, asm):
        # Oracle: test each part's defining inequalities independently.
        rng = np.random.default_rng(41)
        lo, hi = auto_bounds(asm)
        parts = reference_parts(asm)
        for _ in range(10000):
            p = rng.uniform(lo, hi)
            inside_any = False
            for _, fns in parts:
                if all(f.value(p) <= 0.0 for f in fns):
                    inside_any = True
                    break
            res = classify_point(asm, p, tol=0.0)
            assert (res.state == "inside") == inside_any

    def test_monotone_material_addition(self, asm, asm_bare):
        rng = np.random.default_rng(0)
        lo, hi = auto_bounds(asm)
        pts = rng.uniform(lo, hi, size=(10000, 3))
        f_bare = field_grid(asm_bare, pts[:, 0], pts[:, 1], pts[:, 2])
        f_full = field_grid(asm, pts[:, 0], pts[:, 1], pts[:, 2])
        assert not np.any((f_bare <= 0.0) & (f_full > 0.0))


def part_values_oracle(parts, p):
    """(label, value) per part of ``parts`` from each form's own ``value``."""
    return [(label, max(f.value(p) for f in fns)) for label, fns in parts]


class TestOnePartTable:
    @pytest.mark.parametrize(
        "name", [*(path.stem for path in sorted(FIXTURES.glob("*.json"))), "jittered_cubic"]
    )
    def test_point_values_equal_per_form_oracle(self, name):
        if name == "jittered_cubic":
            asm = build_assembly(jittered_cubic(5))
        else:
            asm = build_assembly(load_lattice_path(FIXTURES / f"{name}.json"))
        lo, hi = auto_bounds(asm)
        rng = np.random.default_rng(43)
        reference = reference_parts(asm)
        for p in rng.uniform(lo, hi, size=(400, 3)):
            parts = part_values_oracle(reference, p)
            best = min(v for _, v in parts)
            assert field_value(asm, p) == best
            res = classify_point(asm, p, tol=1e-3)
            if best > 1e-3:
                assert (res.state, str(res.label), res.value) == ("outside", "OUTSIDE", best)
                continue
            rank = {"HUB": 0, "BEAM": 1, "FILLET": 2}
            label, value = min(
                ((label, v) for label, v in parts if v <= 1e-3),
                key=lambda item: (rank[item[0].kind], item[0].key),
            )
            assert (res.label, res.value) == (label, value)

    def test_points_build_no_forms(self, asm, monkeypatch):
        classify_point(asm, (1.05, 1.05, 0.0))  # builds the table
        built = []
        for cls in (LinearForm, Quadric):
            post_init = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__", lambda self, f=post_init: built.append(self) or f(self)
            )
        for p in np.random.default_rng(47).uniform(-2, 5, size=(50, 3)):
            classify_point(asm, p)
            field_value(asm, p)
        assert built == []
        assert asm._table is asm._table

    def test_replace_gets_its_own_table(self, perp_lattice, asm):
        rng = np.random.default_rng(53)
        pts = rng.uniform(-2, 5, size=(2000, 3))
        full = field_grid(asm, pts[:, 0], pts[:, 1], pts[:, 2])  # caches the full table
        bare = dataclasses.replace(asm, fillets=())
        expect = build_assembly(dataclasses.replace(perp_lattice, fillets=()))
        got = field_grid(bare, pts[:, 0], pts[:, 1], pts[:, 2])
        assert got.tobytes() == field_grid(expect, pts[:, 0], pts[:, 1], pts[:, 2]).tobytes()
        assert np.any(got != full)
        assert len(bare._table.bounds) == len(asm._table.bounds) - 1

    @pytest.mark.parametrize("name", [
        *(path.stem for path in sorted(FIXTURES.glob("*.json"))), "jittered_cubic-5",
        *(f"cubic-{seed}" for seed in range(5)), *(f"random-{seed}" for seed in range(10))])
    def test_table_equals_object_reference(self, name):
        asm = build_assembly(lattice_named(name))
        for got in (asm, dataclasses.replace(asm, fillets=())):
            table = got._table
            stack, bounds, order, labels = reference_table(got)
            for a, b in zip(table.stack, stack):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert table.bounds.tolist() == bounds.tolist()
            assert table.by_label.tolist() == order.tolist()
            assert table.labels.tolist() == labels.tolist()
        assert len(asm.fillets) == len(asm.lattice.fillets)


def classify_point_reference(assembly, x, tol=1e-9):
    """``classify_point``'s former body: one point, one ``stacked_values`` call."""
    table = assembly._table
    forms = stacked_values(table.stack, np.asarray(x, dtype=float))
    values = np.maximum.reduceat(forms, table.bounds[:-1]) if len(forms) else forms
    best = float(np.fmin.reduce(values, initial=math.inf))
    if best > tol:
        return PointClassification("outside", OUTSIDE, best)
    state = "boundary" if abs(best) <= tol else "inside"
    k = np.argmax(values[table.by_label] <= tol)
    return PointClassification(state, table.labels[k], float(values[table.by_label[k]]))


def point_chunk(asm) -> int:
    """Points per stacked evaluation in ``classify_point``: ``_BATCH`` floats
    in the largest temporary, 3 per point-form."""
    return max(1, _BATCH // (3 * max(1, len(asm._table.stack[2]))))


def assert_batch_matches_points(asm, pts, tol=1e-9):
    """``classify_point`` on ``pts`` (n, 3) gives, row by row, the reference's
    state, label and value bits, and ``field_value`` the field's bits."""
    got = classify_point(asm, pts, tol=tol)
    assert got.state.shape == got.label.shape == got.value.shape == (len(pts),)
    assert got.value.dtype == np.float64
    expect = [classify_point_reference(asm, p, tol) for p in pts]
    assert got.state.tolist() == [e.state for e in expect]
    assert got.label.tolist() == [e.label for e in expect]
    assert got.value.tobytes() == np.array([e.value for e in expect]).tobytes()
    field = np.array([np.fmin.reduce(np.maximum.reduceat(
        stacked_values(asm._table.stack, p), asm._table.bounds[:-1]), initial=math.inf)
        if len(asm._table.bounds) > 1 else math.inf for p in pts])
    assert field_value(asm, pts).tobytes() == field.tobytes()


def lattice_named(name):
    """A fixture by its stem, or ``jittered_cubic-<seed>``, ``cubic-<seed>`` (a
    2x2x2 cubic) or ``random-<seed>`` (a random valid lattice)."""
    kind, _, seed = name.rpartition("-")
    if kind == "jittered_cubic":
        return jittered_cubic(int(seed))
    if kind == "cubic":
        return load_lattice(lattice_json(cubic_lattice((2, 2, 2), int(seed))).encode())
    if kind == "random":
        from test_random_lattices import random_lattice  # it imports this module

        return random_lattice(int(seed))[0]
    return load_lattice_path(FIXTURES / f"{name}.json")


class TestClassifyPointBatched:
    NAMES = [*(path.stem for path in sorted(FIXTURES.glob("*.json"))),
             "jittered_cubic-3", "jittered_cubic-5"]

    @pytest.mark.parametrize("name", NAMES)
    def test_random_points_match_point_by_point(self, name):
        asm = build_assembly(lattice_named(name))
        lo, hi = auto_bounds(asm)
        pts = np.random.default_rng(61).uniform(lo, hi, size=(1500, 3))
        # Points on every hub sphere, where the state is boundary or inside.
        on_hubs = [np.add(h.center, (0.0, 0.0, h.radius)) for h in asm.hubs]
        for tol in (1e-9, 0.0, 1e-3):
            assert_batch_matches_points(asm, np.vstack([pts, on_hubs]), tol)

    @pytest.mark.parametrize("name", ["perpendicular_beta1", "jittered_cubic-5"])
    def test_counts_around_one_chunk(self, name):
        asm = build_assembly(lattice_named(name))
        chunk = point_chunk(asm)
        lo, hi = auto_bounds(asm)
        pts = np.random.default_rng(67).uniform(lo, hi, size=(chunk + 1, 3))
        for n in (0, 1, chunk - 1, chunk, chunk + 1):
            assert_batch_matches_points(asm, pts[:n])

    def test_one_point_keeps_scalar_fields(self, asm):
        for p in [(0.0, 0.0, 0.0), (1.05, 1.05, 0.0), (0.0, 0.0, 1.0), (9.0, 9.0, 9.0)]:
            got = classify_point(asm, p)
            assert got == classify_point_reference(asm, p)
            assert (type(got.state), type(got.label), type(got.value)) == (
                str, type(OUTSIDE), float)
            assert type(field_value(asm, p)) is float

    def test_lattice_with_no_parts(self):
        asm = build_assembly(Lattice((), (), ()))
        got = classify_point(asm, np.zeros((3, 3)))
        assert got.state.tolist() == ["outside"] * 3
        assert got.label.tolist() == [OUTSIDE] * 3
        assert got.value.tolist() == [math.inf] * 3
        assert classify_point(asm, (0.0, 0.0, 0.0)) == PointClassification(
            "outside", OUTSIDE, math.inf)

    def test_overflowing_forms_give_inf(self, asm):
        pts = np.array([(1e160, 1e160, 0.0), (-1e200, 0.0, 1e200), (1e308, 1e308, 1e308)])
        with np.errstate(all="ignore"):
            assert_batch_matches_points(asm, pts)
            got = classify_point(asm, pts)
        assert got.value[0] == math.inf
        assert got.state.tolist() == ["outside"] * 3

    @pytest.mark.parametrize("tol", [math.nan, -0.5])
    def test_bad_tol_raises_for_points(self, asm, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            classify_point(asm, np.zeros((4, 3)), tol=tol)

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 2), (2, 3, 3), ()])
    def test_other_shapes_raise(self, asm, shape):
        with pytest.raises(ValueError, match="expected a point"):
            classify_point(asm, np.zeros(shape))


def dense_field_grid(assembly, X, Y, Z):
    """Reference field: each form over the whole broadcast grid at once, in
    the operation order ``field_grid`` keeps slab by slab."""
    X, Y, Z = (np.asarray(a, dtype=float) for a in (X, Y, Z))
    table = assembly._table
    total = None
    for rows in map(slice, table.bounds[:-1], table.bounds[1:]):
        part = None
        for A, (b,), c in zip(*(s[rows] for s in table.stack)):
            v = 2.0 * (b[0] * X + b[1] * Y + b[2] * Z) + c if not A.any() else (
                A[0, 0] * X * X + A[1, 1] * Y * Y + A[2, 2] * Z * Z
                + 2.0 * (A[0, 1] * X * Y + A[0, 2] * X * Z + A[1, 2] * Y * Z)
                + 2.0 * (b[0] * X + b[1] * Y + b[2] * Z) + c)
            part = v if part is None else np.maximum(part, v)
        total = part if total is None else np.minimum(total, part)
    if total is None:
        return np.full(np.broadcast(X, Y, Z).shape, math.inf)
    return total


@pytest.fixture(scope="module")
def beta1_asm():
    return build_assembly(load_lattice_path(FIXTURES / "perpendicular_beta1.json"))


class TestFieldGridSlabs:
    """``field_grid`` fills its result slab by slab; every value keeps the
    bits of the dense whole-grid formula."""

    def test_res64_axes_and_meshgrid(self, beta1_asm):
        lo, hi = auto_bounds(beta1_asm)
        axes = [np.linspace(lo[i], hi[i], 65) for i in range(3)]
        assert 65 ** 3 > 2 * _BATCH
        broadcast = (axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :])
        expect = dense_field_grid(beta1_asm, *broadcast).tobytes()
        assert field_grid(beta1_asm, *broadcast).tobytes() == expect
        full = np.meshgrid(*axes, indexing="ij")
        assert field_grid(beta1_asm, *full).tobytes() == expect

    def test_scattered_points_over_several_slabs(self, beta1_asm):
        lo, hi = auto_bounds(beta1_asm)
        pts = np.random.default_rng(59).uniform(lo, hi, size=(2 * _BATCH + 123, 3))
        got = field_grid(beta1_asm, pts[:, 0], pts[:, 1], pts[:, 2])
        assert got.shape == (len(pts),)
        assert got.tobytes() == dense_field_grid(beta1_asm, *pts.T).tobytes()

    def test_scalars(self, beta1_asm):
        for p in [(0.0, 0.0, 0.0), (1.05, 1.05, 0.0), (-0.0, 3.5, -1.25), (9.0, 9.0, 9.0)]:
            got = field_grid(beta1_asm, *p)
            assert got.shape == ()
            assert got.tobytes() == dense_field_grid(beta1_asm, *p).tobytes()

    def test_empty_assembly_is_inf(self):
        asm = build_assembly(Lattice())
        axes = (np.arange(3.0)[:, None, None], np.arange(4.0)[None, :, None],
                np.arange(5.0)[None, None, :])
        got = field_grid(asm, *axes)
        assert got.shape == (3, 4, 5) and np.all(got == math.inf)
        assert got.tobytes() == dense_field_grid(asm, *axes).tobytes()
        assert field_grid(asm, 0.0, 0.0, 0.0).tobytes() == np.float64(math.inf).tobytes()


def filleted_cubic(shape, origin=(0.0, 0.0, 0.0)) -> Lattice:
    """Unit hubs at spacing 4 from ``origin``, joined by k=4 axis beams, with
    a beta=1 fillet on every orthogonal stub pair."""
    cells = list(itertools.product(*map(range, shape)))

    def name(cell):
        return "h" + "_".join(map(str, cell))

    hubs = tuple(Hub(name(c), tuple(o + 4.0 * i for o, i in zip(origin, c)), 1.0) for c in cells)
    beams, stubs = [], {name(c): [] for c in cells}
    for cell, axis in itertools.product(cells, range(3)):
        other = tuple(i + (a == axis) for a, i in enumerate(cell))
        if other[axis] < shape[axis]:
            beam = Beam(f"b{name(cell)}{'xyz'[axis]}", name(cell), name(other), 4.0)
            beams.append(beam)
            stubs[beam.hub_a].append((beam.id, axis))
            stubs[beam.hub_b].append((beam.id, axis))
    fillets = tuple(
        FilletSpec(hub, bi, bj, 1.0)
        for hub, ids in stubs.items()
        for (bi, ai), (bj, aj) in itertools.combinations(ids, 2)
        if ai != aj
    )
    return Lattice(hubs, tuple(beams), fillets)


def grid_axes(lo, hi, counts):
    """Three axis vectors, broadcast the way marching_cubes passes them."""
    return tuple(
        np.linspace(l, h, n).reshape([-1 if a == i else 1 for a in range(3)])
        for i, (l, h, n) in enumerate(zip(lo, hi, counts))
    )


def with_negative_zero(axes):
    """The axes with a -0.0 coordinate put in the middle of each."""
    out = []
    for a in axes:
        v = a.ravel().copy()
        v[len(v) // 2] = -0.0
        out.append(v.reshape(a.shape))
    return tuple(out)


def with_huge_ends(axes):
    """The first two axes extended by coordinates whose squares overflow, so
    some values are NaN."""
    x = np.concatenate([axes[0].ravel(), [1e160, -1e200, 1e300]])
    y = np.concatenate([axes[1].ravel(), [-1e170, 1e250]])
    return x[:, None, None], y[None, :, None], axes[2]


# Many-part grids large enough that field_grid culls parts brick by brick.
CULLED_GRIDS = {
    "cubic-2x2x2": lambda: (filleted_cubic((2, 2, 2)),
                            grid_axes((-1.2, -1.2, -1.2), (5.2, 5.2, 5.2), (49, 49, 49))),
    "cubic-3x3x2": lambda: (filleted_cubic((3, 3, 2)),
                            grid_axes((-1.3, -1.3, -1.3), (9.3, 9.3, 5.3), (67, 71, 45))),
    "jittered": lambda: (jittered_cubic(5),
                         grid_axes((-1.4, -1.3, -1.2), (5.3, 5.4, 5.2), (53, 47, 50))),
    "offset-anisotropic": lambda: (filleted_cubic((2, 2, 2), (1e4, -2e3, 5e2)),
                                   grid_axes((1e4 - 3.3, -2e3 + 0.7, 5e2 - 1.2),
                                             (1e4 + 7.1, -2e3 + 5.9, 5e2 + 2.3), (81, 57, 41))),
    "negative-zero": lambda: (filleted_cubic((2, 2, 2)), with_negative_zero(
        grid_axes((-1.2, -1.2, -1.2), (5.2, 5.2, 5.2), (49, 51, 53)))),
    "overflow": lambda: (filleted_cubic((2, 2, 2)), with_huge_ends(
        grid_axes((-1.2, -1.2, -1.2), (5.2, 5.2, 5.2), (70, 41, 41)))),
    # Few parts on a fine grid whose 72 top bricks are culled in three groups.
    "fixture-fine-grid": lambda: (load_lattice_path(FIXTURES / "perpendicular_beta1.json"),
                                  grid_axes((-1.1, -1.1, -1.1), (5.1, 5.1, 1.1), (161, 161, 45))),
}


class TestFieldGridCulled:
    """On a grid of axis vectors ``field_grid`` evaluates each part only in
    the bricks where it can hold the minimum; every value keeps the bits of
    the dense whole-grid formula, NaN and signed zeros included."""

    @pytest.mark.parametrize("case", CULLED_GRIDS)
    def test_matches_dense(self, case, monkeypatch):
        lattice, axes = CULLED_GRIDS[case]()
        asm = build_assembly(lattice)
        calls = []
        monkeypatch.setattr(cull, "culled_grid",
                            lambda *args, f=cull.culled_grid: calls.append(f(*args)))
        with np.errstate(over="ignore", invalid="ignore"):
            expect = dense_field_grid(asm, *axes)
            got = field_grid(asm, *axes)
        assert len(calls) == 1
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


    def test_imports_no_numpy_ma(self):
        # A plain np.unique imports numpy.ma.  The mesh command imports it
        # nowhere else (marching cubes asks np.unique for indices, which skips
        # it), and doing so inside the culled grid raised its peak RSS by
        # about 1 MB.
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from quador.solid import build_assembly, field_grid
            from test_solid import CULLED_GRIDS
            lattice, axes = CULLED_GRIDS["cubic-2x2x2"]()
            asm = build_assembly(lattice)
            print("numpy.ma" in sys.modules)
            field_grid(asm, *axes)
            print("quador.cull" in sys.modules, "numpy.ma" in sys.modules)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(quador.__file__).resolve().parents[1]), str(Path(__file__).parent)]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        if out[0] == "True":
            pytest.skip("numpy.ma is already imported before the grid (by numpy or another package)")
        assert out[1:] == ["True", "False"]

    def test_cases_exercise_their_edges(self):
        _, axes = CULLED_GRIDS["fixture-fine-grid"]()
        top = math.prod(-(-a.size // cull._BRICK) for a in axes)
        assert top > cull._BATCH // (cull._BRICK // cull._LEAF) ** 3  # more than one group
        _, axes = CULLED_GRIDS["negative-zero"]()
        assert all(np.any(np.signbit(a) & (a == 0.0)) for a in axes)
        lattice, axes = CULLED_GRIDS["overflow"]()
        asm = build_assembly(lattice)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = dense_field_grid(asm, *axes)
        assert np.isnan(grid).any() and np.isfinite(grid).any()
        # Some leaves' bounds are not finite, so they keep every part, and
        # others' are, so they cull.
        A, b, c = asm._table.stack
        forms = _form_table(A, b[:, 0], c)
        leaves = [a.ravel()[cull._brick_points(a.size, cull._LEAF)] for a in axes]
        lo, hi = (np.array([m.ravel() for m in np.meshgrid(*(end(q, axis=1) for q in leaves),
                                                            indexing="ij")])
                  for end in (np.min, np.max))
        lower, upper = _form_bounds(forms[:, :, None], _box(lo, hi)[:, None, :])
        finite = np.isfinite(lower).all(axis=0) & np.isfinite(upper).all(axis=0)
        assert finite.any() and not finite.all()


class TestBatchBudget:
    """One budget, ``quador.solid._BATCH``, sizes every batched evaluation:
    no temporary holds more than ``_BATCH`` values, and its size moves no bit."""

    def test_temporaries_hold_at_most_the_budget(self, beta1_asm, monkeypatch):
        sizes = {"grid": [], "points": [], "verify": []}

        def form_grid(A, b, c, *xyz, f=quador.solid._form_grid):
            sizes["grid"].append(np.broadcast(*xyz).size)
            return f(A, b, c, *xyz)

        def values(stack, pts, f=quador.solid.stacked_values):
            sizes["points"].append(3 * len(stack[2]) * len(pts))  # (row @ A) is the largest
            return f(stack, pts)

        def grid(assembly, *xyz, f=quador.verify.field_grid):
            sizes["verify"].append(np.broadcast(*xyz).size)
            return f(assembly, *xyz)

        monkeypatch.setattr(quador.solid, "_form_grid", form_grid)
        monkeypatch.setattr(quador.solid, "stacked_values", values)
        monkeypatch.setattr(quador.verify, "field_grid", grid)
        cubic, axes = CULLED_GRIDS["cubic-2x2x2"]()
        cubic = build_assembly(cubic)
        for asm in (beta1_asm, cubic):
            lo, hi = auto_bounds(asm)
            pts = np.random.default_rng(71).uniform(lo, hi, size=(2 * _BATCH + 123, 3))
            field_grid(asm, *pts.T)  # dense slabs of scattered points
            classify_point(asm, pts)
        field_grid(beta1_asm, *np.meshgrid(*(a.ravel() for a in axes), indexing="ij"))
        field_grid(cubic, *axes)  # culled leaves
        assert quador.verify.run_verify(beta1_asm.lattice, samples=_BATCH + 5).passed
        assert max(sizes["grid"]) == max(sizes["verify"]) == _BATCH
        assert 0 < max(sizes["points"]) <= _BATCH
        assert sorted(sizes["verify"]) == [5, 5, _BATCH, _BATCH]

    def test_small_budget_keeps_every_bit(self, beta1_asm, monkeypatch):
        cubic, axes = CULLED_GRIDS["cubic-2x2x2"]()
        cubic = build_assembly(cubic)
        lo, hi = auto_bounds(cubic)
        pts = np.random.default_rng(73).uniform(lo, hi, size=(2500, 3))

        def outputs():
            """Each output's bytes, by name."""
            out = {"culled": field_grid(cubic, *axes), "scattered": field_grid(cubic, *pts.T),
                   "meshgrid": field_grid(beta1_asm, *np.meshgrid(*(a.ravel()[::3] for a in axes),
                                                                  indexing="ij"))}
            for name, asm in (("fixture", beta1_asm), ("cubic", cubic)):
                got = classify_point(asm, pts)
                out.update({f"{name} field_value": field_value(asm, pts),
                            f"{name} value": got.value, f"{name} state": got.state,
                            f"{name} label": got.label.astype(str),
                            f"{name} verify": quador.verify.run_verify(asm.lattice).to_json()})
            return {k: np.asarray(v).tobytes() for k, v in out.items()}

        expect = outputs()
        for module in (quador.solid, cull, quador.verify):  # not a power of two, >= 512
            monkeypatch.setattr(module, "_BATCH", 700)
        assert outputs() == expect


_row = st.floats(-10.0, 10.0, allow_nan=False)
_unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    quadric=st.booleans(),
    upper=st.lists(_row, min_size=6, max_size=6),
    g=st.lists(_row, min_size=3, max_size=3),
    d=_row,
    origin=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    scale=st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e9]),
    corner=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    size=st.sampled_from([1e-9, 1e-3, 0.1, 1.0, 10.0]),
    extent=st.lists(_unit, min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_form_bounds_hold(quadric, upper, g, d, origin, scale, corner, size, extent, seed):
    """Every value the grid formula gives at points of a box lies within the
    box's bounds, for forms centred far from the origin, whose coefficients
    cancel at the box."""
    o = scale * np.array(origin)
    A = np.array([[upper[0], upper[3], upper[4]],
                  [upper[3], upper[1], upper[5]],
                  [upper[4], upper[5], upper[2]]]) if quadric else None
    # f(x) = (x - o)^T A (x - o) + 2 g . (x - o) + d, expanded into a stack row.
    g = np.array(g)
    b = g - A @ o if quadric else g
    c = (float(o @ A @ o) if quadric else 0.0) - 2.0 * float(g @ o) + d
    lo = o + np.array(corner)
    hi = lo + size * np.array(extent)
    u = np.random.default_rng(seed).uniform(size=(3, 61))
    pts = lo[:, None] + u * (hi - lo)[:, None]
    pts = np.concatenate([pts, np.array(list(itertools.product(*zip(lo, hi)))).T], axis=1)
    values = _form_grid(A, b, c, *pts)
    form = _form_table((A if quadric else np.zeros((3, 3)))[None], b[None], np.array([c]))
    lower, upper_bound = _form_bounds(form[:, 0], _box(lo[:, None], hi[:, None])[:, 0])
    assert math.isfinite(lower) and math.isfinite(upper_bound)
    assert np.all(lower <= values) and np.all(values <= upper_bound)


class TestAutoBounds:
    def test_single_hub(self):
        asm = build_assembly(Lattice((Hub("h", (0, 0, 0), 1.0),), (), ()))
        lo, hi = auto_bounds(asm)
        npt.assert_allclose(lo, [-1.1, -1.1, -1.1])
        npt.assert_allclose(hi, [1.1, 1.1, 1.1])

    def test_cylinder_beam_fixture(self):
        lat = Lattice(
            (Hub("a", (0, 0, 0), 1.0), Hub("b", (4, 0, 0), 1.0)),
            (Beam("b1", "a", "b", 4.0),),
            (),
        )
        lo, hi = auto_bounds(build_assembly(lat))
        npt.assert_allclose(lo, [-1.1, -1.1, -1.1])
        npt.assert_allclose(hi, [5.1, 1.1, 1.1])

    def test_station_without_a_section_is_skipped(self):
        # The beam pinches off: 17 of its 33 stations have no real section.
        lat = Lattice((Hub("a", (0, 0, 0), 1.6266), Hub("b", (6.8792, 0, 0), 1.6305)),
                      (Beam("ab", "a", "b", 5.0606),), ())
        asm = build_assembly(lat)
        beam = asm.beams[0]
        rho = [beam_radius(beam, float(s)) for s in np.linspace(0.0, beam.length, 33)]
        assert rho.count(None) == 17
        pad = 0.1 * 1.6305
        side = max(1.6305, *(r for r in rho if r is not None)) + pad
        lo, hi = auto_bounds(asm)
        npt.assert_allclose(lo, [-1.6266 - pad, -side, -side])
        npt.assert_allclose(hi, [6.8792 + 1.6305 + pad, side, side])

    def test_widest_section_between_uniform_stations(self):
        # The beam bulges: rho^2 = a s^2 + b s + c with a < 0 peaks at
        # s = -b / 2a, midway between two of 33 uniform stations.
        lat = Lattice((Hub("a", (0, 0, 0), 1.55), Hub("b", (5.0, 0, 0), 1.67)),
                      (Beam("ab", "a", "b", -6.11),), ())
        asm = build_assembly(lat)
        beam = asm.beams[0]
        peak = -beam.lam * beam.g0 / (beam.lam**2 - 1.0)
        assert np.abs(peak - np.linspace(0.0, beam.length, 33)).min() > 0.07
        side = beam_radius(beam, peak) + 0.1 * 1.67
        lo, hi = auto_bounds(asm)
        npt.assert_allclose(lo, [-1.55 - 0.167, -side, -side], rtol=1e-12)
        npt.assert_allclose(hi, [5.0 + 1.67 + 0.167, side, side], rtol=1e-12)

    def test_empty_lattice_unit_box(self):
        lo, hi = auto_bounds(build_assembly(Lattice()))
        npt.assert_allclose(hi - lo, [1.0, 1.0, 1.0])


class TestMarchingCubes:
    def test_unit_sphere(self):
        lat = Lattice((Hub("h", (0, 0, 0), 1.0),), (), ())
        asm = build_assembly(lat)
        mesh = marching_cubes(asm, auto_bounds(asm), 64)
        assert len(mesh) > 0
        sphere = sphere_quadric(lat.hubs[0])
        assert max(abs(sphere.value(v)) for v in mesh.vertices) <= 0.01
        assert edge_problems(mesh.triangles) == []

    def test_orientation_outward(self):
        lat = Lattice((Hub("h", (0, 0, 0), 1.0),), (), ())
        asm = build_assembly(lat)
        mesh = marching_cubes(asm, auto_bounds(asm), 24)
        sphere = sphere_quadric(lat.hubs[0])
        for t in mesh.triangles:
            a, b, c = mesh.vertices[t[0]], mesh.vertices[t[1]], mesh.vertices[t[2]]
            n = np.cross(b - a, c - a)
            assert n @ sphere.gradient((a + b + c) / 3.0) > 0.0

    def test_empty_field(self):
        lat = Lattice((Hub("h", (0, 0, 0), 1.0),), (), ())
        asm = build_assembly(lat)
        mesh = marching_cubes(asm, (np.array([5.0, 5.0, 5.0]), np.array([6.0, 6.0, 6.0])), 8)
        assert len(mesh) == 0

    def test_fixture_mesh_fills_corner(self, asm):
        mesh = marching_cubes(asm, auto_bounds(asm), 96)
        assert edge_problems(mesh.triangles) == []
        # No vertex sits in the region the fillet replaced: outside both
        # stubs, clearly inside the fillet, within the wedge.
        patch = asm.fillets[0]
        offenders = 0
        for v in mesh.vertices:
            h = min(patch.stub1.H.value(v), patch.stub2.H.value(v))
            if (
                h > 0.05
                and patch.Q.value(v) < -0.05
                and patch.E1.value(v) > 0
                and patch.E2.value(v) > 0
                and float(np.linalg.norm(v - patch.stub1.hub.center)) < 4.0
            ):
                offenders += 1
        assert offenders == 0

    def test_no_degenerate_triangles(self, asm):
        lo, hi = auto_bounds(asm)
        mesh = marching_cubes(asm, (lo, hi), 48)
        scale = float(np.max(hi - lo))
        for t in mesh.triangles:
            a, b, c = mesh.vertices[t[0]], mesh.vertices[t[1]], mesh.vertices[t[2]]
            area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
            assert area >= 1e-14 * scale * scale

    def test_vertex_residual_bound(self, asm):
        lo, hi = auto_bounds(asm)
        res = 48
        mesh = marching_cubes(asm, (lo, hi), res)
        cell = (hi - lo) / res
        diag = float(np.linalg.norm(cell))
        h = 1e-5
        for v in mesh.vertices[::7]:
            f = field_value(asm, v)
            grad = np.array(
                [
                    (field_value(asm, v + h * e) - field_value(asm, v - h * e)) / (2 * h)
                    for e in np.eye(3)
                ]
            )
            assert abs(f) <= 0.5 * diag * np.linalg.norm(grad) + 1e-9

    def test_degenerate_bounds(self, asm):
        with pytest.raises(DegenerateBoundsError):
            marching_cubes(asm, (np.zeros(3), np.zeros(3)), 8)

    def test_overflowing_span(self, asm):
        # Both corners are finite, but x1 - x0 is not.
        with pytest.raises(DegenerateBoundsError):
            marching_cubes(asm, (np.array([-1e308, -1.0, -1.0]), np.array([1e308, 1.0, 1.0])), 8)

    def test_resolution_validation(self, asm):
        with pytest.raises(ValueError):
            marching_cubes(asm, (np.zeros(3), np.ones(3)), 1)

    @pytest.mark.parametrize("resolution", [(8, 8), "8", (8.7, 8, 8), 8.0, (8, 8, 1), True, None],
                             ids=["two", "string", "float-axis", "float", "axis-1", "bool", "none"])
    def test_resolution_is_one_or_three_integers(self, asm, resolution):
        with pytest.raises(ValueError, match=re.escape(f"got {resolution!r}")):
            marching_cubes(asm, (np.zeros(3), np.ones(3)), resolution)

    def test_numpy_integer_resolution(self, asm):
        bounds = (np.full(3, -0.3), np.full(3, 0.3))
        expect = marching_cubes(asm, bounds, (8, 9, 10))
        for resolution in ((np.int64(8), np.uint8(9), 10), np.array([8, 9, 10])):
            mesh = marching_cubes(asm, bounds, resolution)
            assert mesh.triangles.tolist() == expect.triangles.tolist()
            assert mesh.vertices.tobytes() == expect.vertices.tobytes()
        assert marching_cubes(asm, bounds, np.int64(8)).vertices.tobytes() == \
            marching_cubes(asm, bounds, 8).vertices.tobytes()

    def test_determinism(self, asm):
        lo, hi = auto_bounds(asm)
        m1 = marching_cubes(asm, (lo, hi), 20)
        m2 = marching_cubes(asm, (lo, hi), 20)
        npt.assert_array_equal(m1.vertices, m2.vertices)
        npt.assert_array_equal(m1.triangles, m2.triangles)

    def test_peak_memory_res64(self, beta1_asm):
        # The field grid, one float per grid point, dominates; a return to
        # whole-grid float temporaries or (corners, 3) index arrays fails here.
        bounds = auto_bounds(beta1_asm)
        marching_cubes(beta1_asm, bounds, 64)  # the part table and tables are built once
        tracemalloc.start()
        try:
            marching_cubes(beta1_asm, bounds, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    def test_box_inside_hub_is_empty(self):
        asm = build_assembly(Lattice((Hub("h", (0, 0, 0), 1.0),), (), ()))
        mesh = marching_cubes(asm, (np.full(3, -0.3), np.full(3, 0.3)), 8)
        assert len(mesh) == 0
        assert mesh.vertices.shape == (0, 3)


def loop_marching_cubes(assembly, bounds, res):
    """Reference polygonizer: one Python loop over active cells, welding
    vertices through a dict keyed by grid edge (axis, low end)."""
    lo, hi = bounds
    coords = [np.linspace(lo[i], hi[i], res[i] + 1) for i in range(3)]
    X, Y, Z = np.meshgrid(*coords, indexing="ij")
    F = field_grid(assembly, X, Y, Z)
    inside = F < 0.0
    index = np.zeros(res, dtype=np.uint8)
    for bit, (dx, dy, dz) in enumerate(VERT_OFFSETS):
        corner = inside[dx : dx + res[0], dy : dy + res[1], dz : dz + res[2]]
        index |= corner.astype(np.uint8) << bit
    vert_index, vertices, triangles = {}, [], []

    def edge_vertex(cell, edge):
        ga, gb = (tuple(c + o for c, o in zip(cell, VERT_OFFSETS[v])) for v in EDGE_VERTS[edge])
        axis = next(i for i in range(3) if ga[i] != gb[i])
        low, high = min(ga, gb), max(ga, gb)
        if (axis, *low) not in vert_index:
            f0, f1 = F[low], F[high]
            t = 0.5 if f0 == f1 else f0 / (f0 - f1)
            p = np.array([coords[i][low[i]] for i in range(3)])
            p[axis] += t * (coords[axis][high[axis]] - coords[axis][low[axis]])
            vert_index[(axis, *low)] = len(vertices)
            vertices.append(p)
        return vert_index[(axis, *low)]

    for cell in np.argwhere((index != 0) & (index != 255)):
        row = TRI_TABLE[index[tuple(cell)]]
        for m in range(0, len(row), 3):
            ia, ib, ic = (edge_vertex(tuple(cell), e) for e in row[m : m + 3])
            triangles.append((ia, ic, ib))
    return Mesh(np.array(vertices).reshape(-1, 3), np.array(triangles, dtype=np.int64))


class TestMarchingCubesMatchesLoop:
    @pytest.mark.parametrize(
        "lattice, bounds, res",
        [
            (lambda: load_lattice_path(FIXTURES / "single_hub.json"), None, (16, 16, 16)),
            (lambda: load_lattice_path(FIXTURES / "perpendicular_beta1.json"), None, (9, 13, 11)),
            (
                lambda: load_lattice_path(FIXTURES / "perpendicular_beta05.json"),
                ([-0.7, -1.3, -0.2], [3.1, 4.6, 1.3]),
                (12, 7, 10),
            ),
            (lambda: jittered_cubic(5), None, (20, 20, 20)),
        ],
        ids=["single_hub", "beta1", "beta05_offset_bounds", "jittered_cubic"],
    )
    def test_array_equal(self, lattice, bounds, res):
        asm = build_assembly(lattice())
        bounds = auto_bounds(asm) if bounds is None else tuple(map(np.array, bounds))
        mesh = marching_cubes(asm, bounds, res)
        expect = loop_marching_cubes(asm, bounds, res)
        assert len(mesh) > 0
        npt.assert_array_equal(mesh.vertices, expect.vertices)
        npt.assert_array_equal(mesh.triangles, expect.triangles)


class TestMarchingCubesFrozen:
    """sha256 of ``vertices.tobytes() + triangles.tobytes()``, recorded with
    the per-edge loop polygonizer the vectorized one replaced."""

    def test_anisotropic_resolution_offset_bounds(self):
        asm = build_assembly(load_lattice_path(FIXTURES / "perpendicular_beta05.json"))
        bounds = (np.array([-1.3, -1.2, -1.1]), np.array([4.7, 4.9, 1.25]))
        mesh = marching_cubes(asm, bounds, (23, 17, 29))
        assert (len(mesh.vertices), len(mesh)) == (2211, 4352)
        assert mesh_digest(mesh) == (
            "7969471469b6f198234d37391f1c2e6467b4a0825428c42e692c138f4b503edf"
        )

    def test_jittered_cubic(self):
        asm = build_assembly(jittered_cubic(5))
        # The box the digest was recorded on, from 33 sampled stations per
        # beam; the exact box is 2.8e-5 wider in -y.
        lo = np.array([-1.1680989235997536, -1.1230916515664782, -1.207972234481048])
        hi = np.array([5.186569012879452, 5.238349004329489, 5.227278206015943])
        exact_lo, exact_hi = auto_bounds(asm)
        assert np.all(exact_lo <= lo) and np.all(exact_hi >= hi)
        mesh = marching_cubes(asm, (lo, hi), 40)
        assert (len(mesh.vertices), len(mesh)) == (11752, 23520)
        assert mesh_digest(mesh) == (
            "265c33f40b9cc69d73ecdb26595ceb74dc8c68e42675cf6360e4a5d83e79651b"
        )


class TestTables:
    def test_triangles_use_exactly_the_sign_change_edges(self):
        # Every case's triangles touch exactly the edges whose two corners
        # differ in the case bits, and no triangle repeats an edge.
        for case, row in enumerate(TRI_TABLE):
            assert len(row) % 3 == 0
            triangles = [row[m : m + 3] for m in range(0, len(row), 3)]
            assert all(len(set(tri)) == 3 for tri in triangles), case
            crossing = {
                edge
                for edge, (a, b) in enumerate(EDGE_VERTS)
                if (case >> a & 1) != (case >> b & 1)
            }
            assert set(row) == crossing, case
