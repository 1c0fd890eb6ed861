"""Lattice files, writers, the verify suite and the CLI end to end."""

import ast
import csv
import dataclasses
import errno
import itertools
import json
import math
import os
import random
import re
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import quador
import quador.conics
import quador.latticefile
import quador.solid
import quador.verify
import quador.writers
from quador.algebra import (LinearForm, Quadric, _axis_complement, _cross3, stacked_values,
                            subtract_square)
from quador.cli import _csv_field, build_parser, main
from quador.conics import ConicClass, sample_conic
from quador.errors import NoBisectorIntersectionError, ParseError, ValidationError
from quador.fillet import build_fillet_for_spec, fillet_min_curvature_radius, fillet_residual
from quador.lattice import Beam, FilletSpec, Hub, Lattice, sphere_quadric, stub_views_at_hub
from quador.latticefile import lattice_to_json, load_lattice
from quador.solid import (Mesh, auto_bounds, build_assembly, classify_point, field_grid,
                          marching_cubes)
from quador.verify import run_verify
from quador.writers import format_values, write_obj_mesh, write_stl

from form_reference import (add, linear_product, quadric_gradient, quadric_value,
                            rel_coeff_residual, scaled, stack_forms, sub)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BETA1 = FIXTURES / "perpendicular_beta1.json"
sys.path.insert(0, str(FIXTURES.parent / "bench"))

from inputs import cubic_lattice  # noqa: E402
from test_lattice import three_hub_lattice  # noqa: E402
from test_solid import lattice_named  # noqa: E402
BETA05 = FIXTURES / "perpendicular_beta05.json"


def format_value(x: float) -> str:
    """Reference number format: the shortest exact decimal for a float;
    integral values print as integers, and non-finite ones as ``inf``,
    ``-inf`` or ``nan``."""
    if abs(x) < 1e16 and x == int(x):
        return str(int(x))
    return repr(float(x))


def obj_polylines(path: Path) -> list[tuple[str, np.ndarray]]:
    """(comment, points) for each ``l`` record of an OBJ polyline file."""
    verts, comment, found = [], "", []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            comment = line[2:]
        elif line.startswith("v "):
            verts.append([float(v) for v in line.split()[1:]])
        elif line.startswith("l "):
            found.append((comment, np.array([verts[int(i) - 1] for i in line.split()[1:]])))
    return found


def corrupt_first_fillet(monkeypatch, delta=1e-6):
    """Make verify's assemblies carry a first fillet whose ``Q`` has
    ``A[0, 0]`` raised by ``delta`` after construction: the row is edited in
    a copy of the assembly's fillet stack."""

    def build(lattice):
        assembly = build_assembly(lattice)
        if not assembly.fillets:
            return assembly
        A, b, c = assembly.fillets.Q
        A = A.copy()
        A[0, 0, 0] += delta
        stack = dataclasses.replace(assembly.fillets, Q=(A, b, c))
        return dataclasses.replace(assembly, fillets=stack)

    monkeypatch.setattr(quador.verify, "build_assembly", build)


class TestLoadLattice:
    def test_fixture_document(self):
        lat = load_lattice(BETA1.read_bytes())
        assert len(lat.hubs) == 3
        assert len(lat.beams) == 2
        assert len(lat.fillets) == 1
        assert lat.fillets[0].beta == 1.0

    def test_negative_radius_is_validation_error(self):
        doc = {"hubs": [{"id": "h", "center": [0, 0, 0], "radius": -1}]}
        with pytest.raises(ValidationError) as exc:
            load_lattice(json.dumps(doc))
        assert "NONPOSITIVE_RADIUS" in exc.value.report.codes()
        assert any("h" == e.subject for e in exc.value.report.errors)

    def test_unknown_key_rejected(self):
        doc = {"hubs": [{"id": "h", "center": [0, 0, 0], "radius": 1, "color": "red"}]}
        with pytest.raises(ParseError) as exc:
            load_lattice(json.dumps(doc))
        assert "color" in str(exc.value)
        assert exc.value.location == "/hubs/0/color"

    @pytest.mark.parametrize(
        "doc,loc",
        [
            ({"hubs": [{"id": "h", "center": [0, 0], "radius": 1}]}, "/hubs/0/center"),
            ({"hubs": [{"id": "h", "center": [0, 0, "x"], "radius": 1}]}, "/hubs/0/center/2"),
            ({"hubs": [{"id": 5, "center": [0, 0, 0], "radius": 1}]}, "/hubs/0/id"),
            ({"hubs": [{"id": "h", "center": [0, 0, 0], "radius": True}]}, "/hubs/0/radius"),
            ({"beams": [{"id": "b", "hubs": ["a"], "k": 1}]}, "/beams/0/hubs"),
            ({"beams": [{"id": "b", "hubs": ["a", "b"]}]}, "/beams/0"),
            ({"nonsense": []}, "/nonsense"),
        ],
    )
    def test_strict_schema(self, doc, loc):
        with pytest.raises(ParseError) as exc:
            load_lattice(json.dumps(doc))
        assert exc.value.location == loc

    @pytest.mark.parametrize("doc,loc", [
        ({"hubs": [{"id": 5, "center": [0, 0], "radius": 1}]}, "/hubs/0/id"),
        ({"hubs": [{"radius": "1", "center": [0, "y", 0], "id": "h"}]}, "/hubs/0/center/1"),
        ({"beams": [{"id": 5, "hubs": ["a"], "k": 1}]}, "/beams/0/id"),
        ({"fillets": [{"hub": "h", "beams": ["a", 3], "beta": None}]}, "/fillets/0/beams/1"),
    ])
    def test_two_faults_report_the_first_in_schema_order(self, doc, loc):
        with pytest.raises(ParseError) as exc:
            load_lattice(json.dumps(doc))
        assert exc.value.location == loc

    def test_missing_key_is_the_same_on_every_run(self, tmp_path):
        # Keys are checked in schema order, not in the order of a hashed set.
        path = tmp_path / "no_id.json"
        path.write_text('{"hubs": [{"center": [0, 0, 0]}]}')
        runs = [subprocess.Popen([sys.executable, "-m", "quador.cli", "classify", str(path)],
                                 stderr=subprocess.PIPE, text=True,
                                 env=child_env(PYTHONHASHSEED=str(seed)))
                for seed in range(8)]
        errors = [(run.communicate(timeout=60)[1], run.returncode) for run in runs]
        assert errors == [("quador: parse error at /hubs/0: missing required key 'id'\n", 1)] * 8

    def test_schema_docs_name_the_schema_keys(self):
        # The README's example and the module docstring list _SCHEMA's sections
        # and keys, in order.
        schema = [(name, list(keys)) for name, (_, keys) in quador.latticefile._SCHEMA.items()]
        readme = (FIXTURES.parent / "README.md").read_text()
        block = readme.split("## Lattice files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        example = json.loads(block)
        assert [(name, list(items[0])) for name, items in example.items()] == schema
        docstring = quador.latticefile.__doc__.split("::\n", 1)[1].split("\n\n", 1)[0]
        declared = re.findall(r'"(\w+)":\s*\[\{(.*?)\}\]', docstring)
        assert [(name, re.findall(r'"(\w+)":', keys)) for name, keys in declared] == schema

    @pytest.mark.parametrize("text,loc", [
        ('{"hubs": [], "beams": [], "hubs": []}', "/hubs"),
        ('{"hubs": [{"id": "h0", "center": [0, 0, 0], "radius": -1, "radius": 2}]}',
         "/hubs/0/radius"),
        ('{"hubs": [{"id": "h0", "center": [0, 0, 0], "radius": 2, "radius": -1}]}',
         "/hubs/0/radius"),
        ('{"beams": [{"id": "b", "hubs": ["a", "c"], "k": 1, "k": 1}]}', "/beams/0/k"),
        ('{"fillets": [{"hub": "h", "beams": ["a", "b"], "hub": "g", "beta": 1}]}',
         "/fillets/0/hub"),
    ])
    def test_duplicate_key_rejected(self, text, loc, tmp_path, capsys):
        with pytest.raises(ParseError) as exc:
            load_lattice(text)
        assert exc.value.location == loc
        path = tmp_path / "dup.json"
        path.write_text(text)
        assert main(["classify", str(path)]) == 1
        key = loc.rsplit("/", 1)[1]
        assert capsys.readouterr().err == (
            f"quador: parse error at {loc}: duplicate key {key!r}\n")

    @pytest.mark.parametrize("key,loc", [
        ("a/b", "/hubs/0/a~1b"),
        ("~0", "/hubs/0/~00"),
        ("~/", "/hubs/0/~0~1"),
    ])
    @pytest.mark.parametrize("twice", [False, True])
    def test_key_location_is_escaped(self, key, loc, twice, tmp_path, capsys):
        # RFC 6901: "~" is written "~0" and "/" is written "~1", in that order.
        hub = f'"id": "h0", "center": [0, 0, 0], "radius": 1, {json.dumps(key)}: 1'
        if twice:
            hub += f", {json.dumps(key)}: 2"
        text = f'{{"hubs": [{{{hub}}}]}}'
        message = f"{'duplicate' if twice else 'unknown'} key {key!r}"
        with pytest.raises(ParseError) as exc:
            load_lattice(text)
        assert (exc.value.location, str(exc.value)) == (loc, f"{loc}: {message}")
        path = tmp_path / "keys.json"
        path.write_text(text)
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr().err == f"quador: parse error at {loc}: {message}\n"

    @pytest.mark.parametrize("text,loc,message", [
        (b'{"hubs": [{"id": "h", "center": [0, 0, 0], "radius": 1e400}]}', "/hubs/0/radius",
         "number must be finite, got inf"),
        (b'{"hubs": [5]}', "/hubs/0", "expected an object, got int"),
        (b'{"hubs": {}}', "/hubs", "expected an array, got dict"),
        (b'{"hubs": [{"id": "h\xff"}]}', "/",
         "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 19: "
         "invalid start byte"),
        (b'{"hubs": [', "/ (line 1, col 11)", "Expecting value"),
        # A document that is not an object is reported at "/", as the others are.
        (b"[]", "/", "expected an object, got list"),
        (b'"hubs"', "/", "expected an object, got str"),
        # Integer literals past the float range, and past int's digit limit.
        (b'{"hubs": [{"id": "h", "center": [0, 0, 0], "radius": 1' + b"0" * 400 + b"}]}",
         "/hubs/0/radius", "number out of the float range"),
        (b'{"hubs": [{"id": "h", "center": [0, -1' + b"0" * 400 + b', 0], "radius": 1}]}',
         "/hubs/0/center/1", "number out of the float range"),
        (b'{"beams": [{"id": "b", "hubs": ["a", "c"], "k": 4' + b"0" * 400 + b"}]}",
         "/beams/0/k", "number out of the float range"),
        (b'{"fillets": [{"hub": "h", "beams": ["a", "c"], "beta": -1' + b"0" * 5000 + b"}]}",
         "/fillets/0/beta", "number out of the float range"),
        (b'{"hubs": [{"id": "h", "center": [0, 0, 0], "radius": 1' + b"0" * 5000 + b"}]}",
         "/hubs/0/radius", "number out of the float range"),
        (b'{"hubs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "/",
         "arrays or objects nested too deeply"),
        (b'{"hubs": [' + b'{"a": ' * 100_000 + b"1" + b"}" * 100_000 + b"]}", "/",
         "arrays or objects nested too deeply"),
    ], ids=["huge-number", "hub-not-object", "hubs-not-array", "bad-utf8", "truncated",
            "array-document", "string-document", "int-past-float", "center-past-float",
            "k-past-float", "beta-past-int-digits", "radius-past-int-digits",
            "deep-arrays", "deep-objects"])
    def test_parse_error_location(self, text, loc, message, tmp_path, capsys):
        with pytest.raises(ParseError) as exc:
            load_lattice(text)
        assert (exc.value.location, str(exc.value)) == (loc, f"{loc}: {message}")
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr().err == f"quador: parse error at {loc}: {message}\n"

    def test_integers_read_as_floats_bit_for_bit(self):
        # "-0" is the integer 0; 2**53 + 1 and -(10**22 + 1) round to the nearest float.
        text = ('{"hubs": [{"id": "h", "center": [-0, 9007199254740993, '
                '-10000000000000000000001], "radius": 3}]}')
        center = load_lattice(text).hubs[0].center
        assert [struct.pack("<d", c) for c in center] == [
            struct.pack("<d", c) for c in (0.0, 2.0**53, -1e22)]

    def test_nan_rejected(self):
        text = '{"hubs": [{"id": "h", "center": [0, 0, NaN], "radius": 1}]}'
        with pytest.raises(ParseError):
            load_lattice(text)

    def test_round_trip_identical_assembly(self):
        lat = load_lattice(BETA1.read_bytes())
        lat2 = load_lattice(lattice_to_json(lat))
        a1, a2 = build_assembly(lat), build_assembly(lat2)
        for b1, b2 in zip(a1.beams, a2.beams):
            npt.assert_array_equal(b1.stub_a.H.coeffs(), b2.stub_a.H.coeffs())
        for f1, f2 in zip(a1.fillets, a2.fillets):
            npt.assert_array_equal(f1.Q.coeffs(), f2.Q.coeffs())


def stl_records(path: Path) -> np.ndarray:
    """The triangle records of a binary STL file, as ``writers._STL_RECORD``."""
    data = path.read_bytes()
    count = struct.unpack_from("<I", data, 80)[0]
    return np.frombuffer(data, dtype=quador.writers._STL_RECORD, count=count, offset=84)


class TestStl:
    def test_byte_exact_layout(self, tmp_path, perp_lattice):
        asm = build_assembly(perp_lattice)
        mesh = marching_cubes(asm, auto_bounds(asm), 24)
        out = tmp_path / "m.stl"
        n = write_stl(mesh, out)
        data = out.read_bytes()
        assert len(data) == 84 + 50 * n
        assert struct.unpack_from("<I", data, 80)[0] == n

    def test_reparse_exact_floats(self, tmp_path, perp_lattice):
        asm = build_assembly(perp_lattice)
        mesh = marching_cubes(asm, auto_bounds(asm), 16)
        out = tmp_path / "m.stl"
        write_stl(mesh, out)
        tris = stl_records(out)["vertices"]
        expect = mesh.vertices[mesh.triangles].astype(np.float32)
        npt.assert_array_equal(tris, expect)

    def test_bytes_match_per_triangle_pack(self, tmp_path, perp_lattice):
        # Oracle: one struct.pack per triangle, normal from np.linalg.norm.
        # Extra triangles: a degenerate one (zero normal, not normalized)
        # and one with normal (x, y, 0) whose x / |n| lies so close to a
        # float32 rounding midpoint that the last bit of |n| decides it.
        asm = build_assembly(perp_lattice)
        mesh = marching_cubes(asm, auto_bounds(asm), 20)
        x, y = 3.7227608734289523, 1.8967671674113538
        extra = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 0], [0, 0, 1], [y, -x, 0]]
        n0 = len(mesh.vertices)
        full = Mesh(
            np.vstack([mesh.vertices, extra]),
            np.vstack([mesh.triangles, [[n0, n0 + 1, n0 + 2], [n0 + 3, n0 + 4, n0 + 5]]]),
        )
        expect = bytearray(b"quador binary STL" + b"\x00" * 63)
        expect += struct.pack("<I", len(full))
        for ia, ib, ic in full.triangles:
            a, b, c = (full.vertices[i] for i in (ia, ib, ic))
            n = np.cross(b - a, c - a)
            nn = np.linalg.norm(n)
            if nn > 0.0:
                n = n / nn
            expect += struct.pack("<12fH", *n, *a, *b, *c, 0)
        out = tmp_path / "m.stl"
        write_stl(full, out)
        assert out.read_bytes() == bytes(expect)

    def test_cross_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(3)
        u, v = (rng.standard_normal((500, 3)) * 10.0 ** rng.integers(-8, 9, (500, 3))
                for _ in range(2))
        assert _cross3(u, v).tobytes() == np.cross(u, v).tobytes()

    def test_round_trip_normals_and_empty_mesh(self, tmp_path, perp_lattice):
        asm = build_assembly(perp_lattice)
        mesh = marching_cubes(asm, auto_bounds(asm), 12)
        out = tmp_path / "m.stl"
        write_stl(mesh, out)
        records = stl_records(out)
        normals, tris = records["normal"], records["vertices"]
        assert normals.dtype == tris.dtype == np.float32
        assert normals.shape == (len(mesh), 3)
        npt.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-6)
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        assert np.all(np.einsum("ij,ij->i", cross, normals) > 0.0)

        empty = tmp_path / "empty.stl"
        assert write_stl(Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)), empty) == 0
        assert len(empty.read_bytes()) == 84
        records = stl_records(empty)
        normals, tris = records["normal"], records["vertices"]
        assert normals.shape == (0, 3) and tris.shape == (0, 3, 3)


def row_obj_mesh(mesh) -> bytes:
    """Reference OBJ mesh writer: one ``format_value`` per coordinate, one line per row."""
    lines = [f"v {format_value(x)} {format_value(y)} {format_value(z)}"
             for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.triangles.tolist()]
    return "\n".join(lines).encode("ascii") + b"\n"


class TestObjMesh:
    SPECIAL = [[-0.0, 0.0, 3.0], [1e16, -1e16, 9999999999999998.0],
               [math.nan, math.inf, -math.inf], [1e15, -7.0, 0.1],
               [1e-5, -2.5e-300, 1.5e16], [2.0**53, -(2.0**60), 10.0]]
    BIT_PATTERNS = [0.0, -0.0, *np.array([0x7FF8000000000000, 0xFFF8000000000001],
                                          dtype=np.uint64).view(np.float64).tolist(),
                    5e-324, -5e-324, 2.225073858507201e-308, 0.1, math.nextafter(0.1, 1.0),
                    1.0, math.nextafter(1.0, 2.0), math.nextafter(1e16, 0.0)]

    @pytest.mark.parametrize("mesh", [
        lambda: Mesh(np.array(TestObjMesh.SPECIAL), [[0, 1, 2], [3, 4, 5]]),
        lambda: Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)),
        lambda: Mesh(np.array(TestObjMesh.SPECIAL), np.zeros((0, 3), dtype=np.int64)),
        # Over two chunks of rows; rounding makes many values integral, some -0.0.
        lambda: Mesh(np.round(np.random.default_rng(61).uniform(-3, 3, (9000, 3)), 1) * -1,
                     np.random.default_rng(67).integers(0, 9000, (9001, 3))),
        # Values that one chunk makes unique by their bits: both zeros, two NaN
        # payloads, subnormals and neighbours one ulp apart stay apart.
        lambda: Mesh(np.array(TestObjMesh.BIT_PATTERNS).reshape(-1, 3), [[0, 1, 2], [3, 2, 1]]),
        # One-based vertex numbers from 1 to 100,001: 9 -> 10 and 99,999 -> 100,000.
        lambda: Mesh(np.arange(300_003.0).reshape(-1, 3) / 8,
                     [[7, 8, 9], [99_997, 99_998, 99_999], [99_999, 100_000, 8], [0, 9, 99_999]]),
        # Triangles that join vertices of different vertex chunks.
        lambda: Mesh(np.random.default_rng(79).normal(size=(3 * 4096 + 5, 3)),
                     [[0, 4096, 8192], [12_292, 1, 4095], [4095, 4096, 12_291]] * 2000),
    ], ids=["special-values", "empty", "no-triangles", "several-chunks", "bit-patterns",
            "digit-widths", "cross-chunk"])
    def test_bytes_match_per_value_format(self, mesh, tmp_path):
        mesh = mesh()
        out = tmp_path / "m.obj"
        assert write_obj_mesh(mesh, out) == len(mesh)
        assert out.read_bytes() == row_obj_mesh(mesh)

    def test_fixture_mesh(self, tmp_path, perp_lattice):
        asm = build_assembly(perp_lattice)
        mesh = marching_cubes(asm, auto_bounds(asm), 20)
        write_obj_mesh(mesh, tmp_path / "m.obj")
        assert (tmp_path / "m.obj").read_bytes() == row_obj_mesh(mesh)

    def test_jittered_cubic_mesh(self, tmp_path):
        from test_fillet import jittered_cubic

        asm = build_assembly(jittered_cubic(5))
        mesh = marching_cubes(asm, auto_bounds(asm), 40)
        assert len(mesh.vertices) > 4096
        write_obj_mesh(mesh, tmp_path / "m.obj")
        assert (tmp_path / "m.obj").read_bytes() == row_obj_mesh(mesh)


def row_obj_polylines(curves) -> bytes:
    """Reference OBJ polyline writer: one ``format_value`` per coordinate."""
    lines, base = [], 1
    for points, closed, comment in curves:
        if comment:
            lines.append(f"# {comment}")
        lines += [f"v {format_value(x)} {format_value(y)} {format_value(z)}"
                  for x, y, z in points]
        idx = list(range(base, base + len(points))) + ([base] if closed else [])
        lines.append("l " + " ".join(map(str, idx)))
        base += len(points)
    return "\n".join(lines).encode("utf-8") + b"\n"


class TestObjPolylines:
    ANGLES = np.linspace(0, 2 * np.pi, 129)[:-1]

    @pytest.mark.parametrize("curves", [
        lambda: [(np.array(TestObjMesh.SPECIAL), True, "special values"),
                 (np.array(TestObjMesh.SPECIAL[::-1]), False, "")],
        lambda: [],
        lambda: [(np.zeros((0, 3)), True, "no points"), (np.zeros((0, 3)), False, "")],
        # Over two chunks of rows; rounding makes many values integral, some -0.0.
        lambda: [(np.round(np.random.default_rng(71).uniform(-3, 3, (9000, 3)), 1) * -1,
                  True, "h\u00e9:b1+b2 stub1"),
                 (np.random.default_rng(73).normal(size=(5, 3)), False, "second")],
        # A conic in an axis plane: every point shares its z.
        lambda: [(np.column_stack([np.cos(TestObjPolylines.ANGLES), np.sin(TestObjPolylines.ANGLES),
                                   np.full(128, 1.25)]), True, "circle at z=1.25")],
    ], ids=["special-values", "none", "empty-curves", "several-chunks", "constant-coordinate"])
    def test_bytes_match_per_value_format(self, curves, tmp_path):
        curves = curves()
        out = tmp_path / "c.obj"
        assert quador.writers.write_obj_polylines(curves, out) == len(curves)
        assert out.read_bytes() == row_obj_polylines(curves)


def fillet_checks_reference(stack) -> tuple[list, list]:
    """``fillet_identity``'s values per plane (E1, E2) and ``residual_law``'s
    per scale of alpha (0.5, 2.0), each a list over the stack's rows, from
    each row's objects."""
    identity, law = [[], []], [[], []]
    for p in stack:
        H = (p.stub1.H, p.stub2.H)
        for k, (h, e) in enumerate(zip(H, (p.E1, p.E2))):
            expect = subtract_square(h, e)
            identity[k].append(rel_coeff_residual(p.Q - expect, expect))
        for k, t in enumerate((0.5, 2.0)):
            alpha_t = p.alpha * t
            e1 = add(scaled(p.F_plus, alpha_t), scaled(p.F_minus, p.beta))
            e2 = sub(scaled(p.F_plus, alpha_t), scaled(p.F_minus, p.beta))
            expect = scaled(linear_product(p.F_plus, p.F_minus), 1.0 - 4.0 * alpha_t * p.beta)
            law[k].append(rel_coeff_residual(fillet_residual(*H, e1, e2) - expect, expect))
    return identity, law


def material_violations(shipped, samples: int, seed: int = 0, tol: float = 1e-9) -> int:
    """The sampled ``material_monotonicity`` count that ``run_verify`` once
    made: ``samples`` points in ``shipped``'s auto bounds, each coordinate
    the top 53 bits of a little-endian u8 of ``random.Random(seed)`` bytes,
    that are inside the bare lattice and outside ``shipped`` by more than ``tol``."""
    lo, hi = auto_bounds(shipped)
    raw = random.Random(seed).randbytes(24 * samples)
    pts = lo + (hi - lo) * ((np.frombuffer(raw, "<u8").reshape(samples, 3) >> 11) * 0.5**53)
    bare = dataclasses.replace(shipped, fillets=())
    return int(np.count_nonzero((field_grid(bare, *pts.T) <= 0.0)
                                & (field_grid(shipped, *pts.T) > tol)))


def tampered(lattice, edit):
    """``lattice``'s assembly with its part table replaced by ``edit(table)``."""
    asm = build_assembly(lattice)
    asm.__dict__["_table"] = edit(asm._table)
    return asm


def drop_part(table, p: int):
    """``table`` without part ``p``'s rows."""
    lo, hi = table.bounds[p], table.bounds[p + 1]
    bounds = np.delete(table.bounds, p + 1)
    bounds[p + 1:] -= hi - lo
    return table._replace(stack=tuple(np.delete(a, np.s_[lo:hi], axis=0) for a in table.stack),
                          bounds=bounds)


def thin_part(table, p: int):
    """``table`` with part ``p``'s first constant raised by 1: it holds less."""
    c = table.stack[2].copy()
    c[table.bounds[p]] += 1.0
    return table._replace(stack=(*table.stack[:2], c))


class TestVerify:
    @pytest.mark.parametrize("name", [
        *(path.stem for path in sorted(FIXTURES.glob("*.json"))), "jittered_cubic-5",
        *(f"cubic-{seed}" for seed in range(5)), *(f"random-{seed}" for seed in range(10))])
    def test_stacked_fillet_checks_equal_per_fillet_references(self, name):
        stack = build_assembly(lattice_named(name)).fillets
        if not len(stack):
            assert fillet_checks_reference(stack) == ([[], []], [[], []])
            return
        A, b, c = stack.Q
        A = A.copy()
        A[0, 0, 0] += 1e-6
        for rows in (stack, dataclasses.replace(stack, Q=(A, b, c))):
            H = [tuple(np.array([getattr(s.H, f) for s in stubs]) for f in "Abc")
                 for stubs in zip(*rows.stubs)]  # each stub's own H object, as rows
            identity, law = fillet_checks_reference(rows)
            got = quador.verify._identity_and_law(rows, H)
            assert np.array(got[0]).tobytes() == np.array(identity).tobytes()
            assert np.array(got[1]).tobytes() == np.array(law).tobytes()

    def test_fixture_passes(self):
        report = run_verify(load_lattice(BETA1.read_bytes()), samples=2000)
        assert report.passed
        names = [c.name for c in report.checks]
        for expected in (
            "two_sphere_tangency",
            "sphere_stub_gradient",
            "fillet_identity",
            "residual_law",
            "conic_tangency_residual",
            "material_monotonicity",
            "extent_monotonicity",
        ):
            assert expected in names
        summary = report.summary()
        assert summary["fail"] == 0

    @pytest.mark.parametrize("tol", [-0.5, math.nan])
    def test_tol_must_be_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            run_verify(load_lattice(BETA1.read_bytes()), tol=tol, samples=500)

    @pytest.mark.parametrize("samples", [-1, 0])
    def test_samples_checked_before_anything_is_built(self, monkeypatch, samples):
        monkeypatch.setattr(quador.verify, "build_assembly", None)
        with pytest.raises(ValueError, match=f"^samples must be >= 1, got {samples}$"):
            run_verify(load_lattice(BETA1.read_bytes()), samples=samples)

    def test_seed_checked_before_anything_is_built(self, monkeypatch):
        monkeypatch.setattr(quador.verify, "build_assembly", None)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            run_verify(load_lattice(BETA1.read_bytes()), seed=-1)

    def test_fillet_degenerate_on_beta_grid_warns(self):
        # Valid at beta 1, but at beta 0.6 the corner bisector misses the fillet.
        lat = three_hub_lattice(0.7122, 5.8595, 5.2435, 0.8775, 1.2762, 6.4621, 6.0569, 1.0)
        with pytest.raises(NoBisectorIntersectionError):
            fillet_min_curvature_radius(
                build_fillet_for_spec(lat, dataclasses.replace(lat.fillets[0], beta=0.6)))
        report = run_verify(lat, samples=200)
        assert [(c.status, c.detail) for c in report.checks
                if c.name == "extent_monotonicity"] == [
            ("warn", "h0:b1+b2: unbounded or degenerate on the beta grid")]

    def test_corrupted_fillet_detected(self, monkeypatch):
        corrupt_first_fillet(monkeypatch)
        report = run_verify(load_lattice(BETA1.read_bytes()), samples=500)
        assert not report.passed
        failing = {c.name for c in report.checks if c.status == "fail"}
        assert "fillet_identity" in failing
        check = next(c for c in report.checks if c.name == "fillet_identity")
        assert check.detail == "IDENTITY_VIOLATION"

    @pytest.mark.parametrize("name", [
        *(path.stem for path in sorted(FIXTURES.glob("*.json"))), "jittered_cubic-5",
        *(f"random-{seed}" for seed in range(3))])
    def test_sampled_oracle_finds_no_violation_where_the_check_passes(self, name):
        lattice = lattice_named(name)
        checks = [c for c in run_verify(lattice, samples=1).checks
                  if c.name == "material_monotonicity"]
        assert all(c.status == "pass" and c.measured == 0.0 for c in checks)
        assert material_violations(build_assembly(lattice), 2000, seed=7) == 0

    @pytest.mark.parametrize("edit", [drop_part, thin_part])
    @pytest.mark.parametrize("kind", ["HUB", "BEAM"])
    def test_shipped_table_without_a_bare_part_fails(self, monkeypatch, edit, kind):
        lattice = load_lattice(BETA1.read_bytes())
        asm = build_assembly(lattice)
        p, label = (0, f"HUB({asm.hubs[0].id})") if kind == "HUB" else (
            len(asm.hubs), f"BEAM({asm.beams.beams[0].id})")
        monkeypatch.setattr(quador.verify, "build_assembly",
                            lambda lat: tampered(lat, lambda t: edit(t, p)))
        report = run_verify(lattice, samples=500)
        check = next(c for c in report.checks if c.name == "material_monotonicity")
        assert (check.status, check.detail) == ("fail", f"{label} is not a shipped part")
        assert check.measured >= 1.0 and not report.passed
        # The material it lost is really gone: the sampled oracle finds it.
        assert material_violations(tampered(lattice, lambda t: edit(t, p)), 2000) > 0

    def test_material_check_evaluates_no_point(self, monkeypatch):
        lattice = load_lattice(BETA1.read_bytes())
        expect = run_verify(lattice, samples=10**4).checks

        def refuse(*args):
            raise AssertionError("no field pass")

        for module, name in ((quador.solid, "field_grid"), (quador.verify, "field_grid"),
                             (quador.verify, "auto_bounds")):
            monkeypatch.setattr(module, name, refuse)
        got = run_verify(lattice, samples=10**7).checks
        material = [c.name for c in got].index("material_monotonicity")
        assert got[material].detail == "10000000 points, seed 0"
        assert expect[material].detail == "10000 points, seed 0"
        got[material].detail = expect[material].detail
        assert got == expect

    def test_nan_measurement_fails(self, monkeypatch, tmp_path, capsys):
        corrupt_first_fillet(monkeypatch, delta=math.nan)
        out = tmp_path / "report.json"
        assert main(["verify", str(BETA1), "--samples", "50", "--report", str(out)]) == 3
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["fillet_identity"]["status"] == "fail"
        assert math.isnan(checks["fillet_identity"]["measured"])
        assert checks["fillet_identity"]["detail"] == "IDENTITY_VIOLATION"
        assert checks["conic_tangency_residual"]["status"] == "fail"
        assert "[FAIL] fillet_identity measured=nan" in capsys.readouterr().out

    def test_batched_kernels_match_per_point_calls(self):
        rng = np.random.default_rng(79)
        pts = np.vstack([rng.uniform(-6, 6, (400, 3)), np.zeros((1, 3)), np.eye(3)])
        for _ in range(60):
            q = Quadric(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal())
            h = Quadric(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal())
            grads = quador.verify._gradients(q.A, q.b, pts)
            assert grads.tobytes() == np.array([quadric_gradient(q, p) for p in pts]).tobytes()
            other = quador.verify._gradients(h.A, h.b, pts)
            npt.assert_array_equal(quador.verify._dots(grads, other),
                                   [g @ o for g, o in zip(grads, other)])
            npt.assert_array_equal(np.sqrt(quador.verify._dots(grads, grads)),
                                   [np.linalg.norm(g) for g in grads])
            npt.assert_array_equal(stacked_values(stack_forms((h, q)), pts),
                                   [[quadric_value(h, p), quadric_value(q, p)] for p in pts])

    @pytest.mark.parametrize("name", [
        *(path.name for path in sorted(FIXTURES.glob("*.json"))), "jittered_cubic"])
    def test_batched_checks_equal_per_point_loops(self, name):
        from test_fillet import jittered_cubic

        lattice = jittered_cubic(5) if name == "jittered_cubic" else load_lattice(
            (FIXTURES / name).read_bytes())
        measured = {c.name: c.measured for c in run_verify(lattice, samples=50).checks}
        gradient = [0.0]
        for hub in lattice.hubs:
            for view in stub_views_at_hub(lattice, hub.id):
                offset = -view.G.value(hub.center) / view.G.grad_norm()
                normal = view.G.g / np.linalg.norm(view.G.g)
                rc = math.sqrt(max(0.0, hub.radius * hub.radius - offset * offset))
                w1, w2 = _axis_complement(normal)
                p0 = np.asarray(hub.center) + offset * normal
                for t in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
                    p = p0 + rc * (math.cos(t) * w1 + math.sin(t) * w2)
                    gs = sphere_quadric(hub).gradient(p)
                    gradient.append(float(np.linalg.norm(view.H.gradient(p) - gs)
                                          / np.linalg.norm(gs)))
        assert measured["sphere_stub_gradient"] == max(gradient)
        residuals, angles = [0.0], [0.0]
        for patch in build_assembly(lattice).fillets:
            for conic, h in ((patch.conic1, patch.stub1.H), (patch.conic2, patch.stub2.H)):
                for p in sample_conic(conic, 32):
                    scale = max(1.0, float(p @ p))
                    residuals += [abs(h.value(p)) / scale, abs(patch.Q.value(p)) / scale]
                    gq, gh = patch.Q.gradient(p), h.gradient(p)
                    cosang = float(gq @ gh / (np.linalg.norm(gq) * np.linalg.norm(gh)))
                    angles.append(math.acos(min(1.0, max(-1.0, cosang))))
        if lattice.fillets:
            assert measured["conic_tangency_residual"] == max(residuals)
            assert measured["conic_tangency_angle"] == max(angles)
        else:
            assert "conic_tangency_residual" not in measured

    def test_report_json_shape(self):
        report = run_verify(load_lattice(BETA1.read_bytes()), samples=500)
        doc = json.loads(report.to_json())
        assert set(doc) == {"checks", "summary"}
        for check in doc["checks"]:
            assert {"name", "status", "measured", "tolerance", "detail"} <= set(check)


class TestCli:
    def test_verify_exit_zero(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", str(BETA1), "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["summary"]["fail"] == 0
        ident = next(c for c in doc["checks"] if c["name"] == "fillet_identity")
        assert ident["measured"] <= 1e-12

    def test_verify_missing_file_exit_two(self):
        assert main(["verify", "no_such_file.json"]) == 2

    def test_verify_invalid_lattice_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hubs": [{"id": "h", "center": [0,0,0], "radius": -1}]}')
        assert main(["verify", str(bad)]) == 1

    def test_mesh_stl_size(self, tmp_path, capsys):
        out = tmp_path / "hub.stl"
        code = main(
            ["mesh", str(FIXTURES / "single_hub.json"), "--resolution", "64", "-o", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        n = int(printed.split()[0])
        assert out.stat().st_size == 84 + 50 * n

    def test_mesh_resolution_one_exit_one(self, tmp_path):
        code = main(
            ["mesh", str(BETA1), "--resolution", "1", "-o", str(tmp_path / "x.stl")]
        )
        assert code == 1

    def test_mesh_outside_float32_range_exit_one(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text('{"hubs": [{"id": "h", "center": [0, 0, 0], "radius": 1e39}]}')
        out = tmp_path / "huge.stl"
        assert main(["mesh", str(huge), "--resolution", "4", "-o", str(out)]) == 1
        assert "STL_RANGE" in capsys.readouterr().err
        assert not out.exists()

    def test_mesh_obj(self, tmp_path):
        out = tmp_path / "m.obj"
        assert main(["mesh", str(BETA1), "--resolution", "24", "--format", "obj",
                     "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert any(l.startswith("v ") for l in lines)
        assert any(l.startswith("f ") for l in lines)

    def test_conics_beta1(self, tmp_path):
        out = tmp_path / "c.obj"
        assert main(["conics", str(BETA1), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        polylines = [l for l in lines if l.startswith("l ")]
        verts = [l for l in lines if l.startswith("v ")]
        assert len(polylines) == 2
        assert len(verts) == 256  # 128 per curve
        # closed curves repeat the first index
        for l in polylines:
            idx = l.split()[1:]
            assert idx[0] == idx[-1]
        # every vertex lies on its stub quador
        lat = load_lattice(BETA1.read_bytes())
        asm = build_assembly(lat)
        h1, h2 = asm.beams[0].stub_a.H, asm.beams[1].stub_a.H
        for l in verts:
            p = np.array([float(v) for v in l.split()[1:]])
            assert min(abs(h1.value(p)), abs(h2.value(p))) <= 1e-9

    def test_conics_beta_half_line_pairs(self, tmp_path):
        out = tmp_path / "c.obj"
        assert main(["conics", str(BETA05), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len([l for l in lines if l.startswith("l ")]) == 4
        assert any("PARALLEL_LINES" in l for l in lines if l.startswith("#"))

    def test_conics_no_fillets_exit_one(self, tmp_path):
        code = main(
            ["conics", str(FIXTURES / "single_hub.json"), "-o", str(tmp_path / "c.obj")]
        )
        assert code == 1

    @pytest.mark.parametrize("samples", [128, 7])
    def test_conics_hyperbola_one_polyline_per_branch(self, tmp_path, samples):
        # k = 3 stubs 60 degrees apart at beta = 0.55: both tangency conics are hyperbolas.
        far = (4 * math.cos(math.pi / 3), 4 * math.sin(math.pi / 3), 0.0)
        lattice = Lattice(
            (Hub("h0", (0.0, 0.0, 0.0), 1.0), Hub("h1", (4.0, 0.0, 0.0), 1.0),
             Hub("h2", far, 1.0)),
            (Beam("b1", "h0", "h1", 3.0), Beam("b2", "h0", "h2", 3.0)),
            (FilletSpec("h0", "b1", "b2", 0.55),),
        )
        path = tmp_path / "hyperbolas.json"
        path.write_text(lattice_to_json(lattice))
        out = tmp_path / "c.obj"
        assert main(["conics", str(path), "--samples-per-curve", str(samples),
                     "-o", str(out)]) == 0
        patch = build_assembly(lattice).fillets[0]
        polylines = obj_polylines(out)
        assert [comment.endswith(f"per branch (branch {i} of 2)")
                for i, (comment, _) in zip((1, 2, 1, 2), polylines)] == [True] * 4
        assert [len(pts) for _, pts in polylines] == [samples - samples // 2, samples // 2] * 2
        for (_, pts), conic in zip(polylines, (patch.conic1,) * 2 + (patch.conic2,) * 2):
            assert conic.klass is ConicClass.HYPERBOLA
            center = conic.point3d(*conic.center)
            transverse = conic.point3d(*(conic.center + conic.axes[0])) - center
            assert len(set(np.sign((pts - center) @ transverse))) == 1  # one branch

    def test_conics_odd_samples_split_line_pairs(self, tmp_path):
        out = tmp_path / "c.obj"
        assert main(["conics", str(BETA05), "--samples-per-curve", "5", "-o", str(out)]) == 0
        polylines = obj_polylines(out)
        assert [len(pts) for _, pts in polylines] == [3, 2, 3, 2]
        for _, pts in polylines:  # each polyline stays on one line
            d1, d2 = pts[1] - pts[0], pts[-1] - pts[0]
            assert np.linalg.norm(np.cross(d1, d2)) <= 1e-9 * np.linalg.norm(d1) ** 2

    def test_conics_too_few_samples_for_two_pieces_exit_one(self, tmp_path, capsys):
        # At 3, a line pair's second line would get one vertex: no OBJ line element.
        out = tmp_path / "c.obj"
        assert main(["conics", str(BETA05), "--samples-per-curve", "3", "-o", str(out)]) == 1
        assert "argument --samples-per-curve:" in capsys.readouterr().err
        assert not out.exists()

    def test_conics_fewest_samples_two_vertices_per_line(self, tmp_path):
        out = tmp_path / "c.obj"
        assert main(["conics", str(BETA05), "--samples-per-curve", "4", "-o", str(out)]) == 0
        polylines = obj_polylines(out)
        assert [len(pts) for _, pts in polylines] == [2, 2, 2, 2]
        assert [comment.endswith(f"(line {i} of 2)")
                for i, (comment, _) in zip((1, 2, 1, 2), polylines)] == [True] * 4

    def test_mesh_overflowing_bounds_exit_one(self, tmp_path, capsys):
        out = tmp_path / "m.stl"
        assert main(["mesh", str(BETA1), "--bounds=-1e308,-1,-1,1e308,1,1",
                     "-o", str(out)]) == 1
        assert "DEGENERATE_BOUNDS" in capsys.readouterr().err
        assert not out.exists()

    def test_mesh_bounds_with_a_negative_corner(self, tmp_path):
        # "-2,-2,..." after a space is the value of --bounds, as after "=".
        spaced, joined = tmp_path / "spaced.stl", tmp_path / "joined.stl"
        assert main(["mesh", str(BETA1), "--bounds", "-2,-2,-2,2,2,2", "--resolution", "8",
                     "-o", str(spaced)]) == 0
        assert main(["mesh", str(BETA1), "--bounds=-2,-2,-2,2,2,2", "--resolution", "8",
                     "-o", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("tol", ["-1", "-1e-3", "-inf", "-nan", "-Infinity"])
    def test_negative_tol_fails_on_its_range(self, capsys, tol):
        assert main(["verify", str(BETA1), "--tol", tol]) == 1
        assert capsys.readouterr().err.endswith(
            f"argument --tol: expected 1 float value(s), finite and in [0, inf], got {tol!r}\n")

    def test_sample_points(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z\n0,0,0\n0.9,0.9,0.3\n1.05,1.05,0\n")
        out = tmp_path / "out.csv"
        assert main(["sample", str(BETA1), "--points", str(pts), "-o", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x,y,z,value,state,label"
        assert rows[1] == "0,0,0,-1,inside,HUB(h0)"
        x, y, z, value, state, label = rows[2].split(",")
        assert float(value) == pytest.approx(-0.10, abs=1e-12)
        assert (state, label) == ("inside", "BEAM(b1)")
        x, y, z, value, state, label = rows[3].split(",")
        assert float(value) == pytest.approx(-0.173125, abs=1e-12)
        assert (state, label) == ("inside", "FILLET(h0:b1+b2)")

    def test_sample_missing_points_file_exit_two(self, tmp_path, capsys):
        pts = tmp_path / "no_such_points.csv"
        assert main(["sample", str(BETA1), "--points", str(pts), "-o",
                     str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"quador: cannot read {pts}: ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("data,offset", [
        (b"x,y,z\n\xff\xfe1,2,3\n", 6),
        (b"\xef\xbb\xbf0,0,0\n0,0,\xe9\n", 13),  # the offset counts the byte-order mark
    ], ids=["plain", "byte-order-mark"])
    def test_sample_points_not_utf8(self, data, offset, tmp_path, capsys):
        pts = tmp_path / "bad.csv"
        pts.write_bytes(data)
        out = tmp_path / "o.csv"
        assert main(["sample", str(BETA1), "--points", str(pts), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"quador: malformed point file {pts}: not UTF-8 at byte {offset}\n")
        assert not out.exists()

    def test_sample_malformed_row(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0\na,b\n")
        code = main(["sample", str(BETA1), "--points", str(pts), "-o", str(tmp_path / "o.csv")])
        assert code == 1
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["x,y,z\n", ""])
    def test_sample_points_with_byte_order_mark(self, tmp_path, header):
        # Spreadsheet exports start a UTF-8 CSV with a byte-order mark.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(header + "0,0,0\n1.05,1.05,0\n", encoding="utf-8")
        marked.write_text(header + "0,0,0\n1.05,1.05,0\n", encoding="utf-8-sig")
        outs = []
        for pts in (plain, marked):
            outs.append(tmp_path / f"{pts.stem}.out.csv")
            assert main(["sample", str(BETA1), "--points", str(pts), "-o", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_parse_error_names_its_location_once(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hubs": [{"id": "h", "center": [0, 0, 0], "radius": "1"}]}')
        assert main(["classify", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "quador: parse error at /hubs/0/radius: expected a number, got str\n")

    @pytest.mark.parametrize("old,loc", [('"h0"', "/hubs/0/id"), ('"b1"', "/beams/0/id")])
    def test_non_printable_id_rejected(self, old, loc, tmp_path, capsys):
        # A newline in an id would start a new OBJ row inside the comment that names it.
        lat = tmp_path / "lattice.json"
        lat.write_text(BETA1.read_text().replace(old, old[:-1] + '\\nv 9 9 9"'))
        out = tmp_path / "c.obj"
        assert main(["conics", str(lat), "-o", str(out)]) == 1
        assert not out.exists()
        value = old[1:-1] + "\\nv 9 9 9"
        assert capsys.readouterr().err == (
            f"quador: parse error at {loc}: string '{value}' has a non-printable character\n")

    @pytest.mark.parametrize("hub_id,hub,fillet", [
        ("h,0", '"HUB(h,0)"', '"FILLET(h,0:b1+b2)"'),
        ('h"0', '"HUB(h""0)"', '"FILLET(h""0:b1+b2)"'),
    ])
    def test_sample_label_quoted_when_needed(self, hub_id, hub, fillet, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0\n0.9,0.9,0.3\n1.05,1.05,0\n9,9,9\n")
        renamed = tmp_path / "lattice.json"
        renamed.write_text(BETA1.read_text().replace('"h0"', json.dumps(hub_id)))
        outs = []
        for lat in (BETA1, renamed):
            outs.append(tmp_path / f"{len(outs)}.csv")
            assert main(["sample", str(lat), "--points", str(pts), "-o", str(outs[-1])]) == 0
        plain, quoted = (o.read_text().splitlines() for o in outs)
        assert quoted == [plain[0], plain[1].replace("HUB(h0)", hub), plain[2],
                          plain[3].replace("FILLET(h0:b1+b2)", fillet), plain[4]]
        rows = list(csv.reader(quoted))
        assert [len(r) for r in rows] == [6] * 5
        assert [r[5] for r in rows[1:]] == [
            f"HUB({hub_id})", "BEAM(b1)", f"FILLET({hub_id}:b1+b2)", "OUTSIDE"]

    def test_beam_with_overflowing_planes_exit_one(self, tmp_path, capsys):
        # k = 1e-308 overflows the tangency planes; the beam, not its fillet, is at fault.
        doc = json.loads(BETA1.read_text())
        doc["beams"][0]["k"] = 1e-308
        path = tmp_path / "tiny_k.json"
        path.write_text(json.dumps(doc))
        assert main(["mesh", str(path), "-o", str(tmp_path / "m.stl")]) == 1
        entries = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  [")]
        assert len(entries) == 1 and entries[0].startswith("  [DEGENERATE_K] b1: "), entries
        assert not (tmp_path / "m.stl").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_sample_non_finite_row(self, tmp_path, capsys, value):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0,0,0\n{value},0,0\n")
        out = tmp_path / "o.csv"
        assert main(["sample", str(BETA1), "--points", str(pts), "-o", str(out)]) == 1
        assert "malformed point row 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("first,second", itertools.permutations(
        ["1,2", "0,zero,0", "0,0,infinity"], 2), ids=lambda row: row.split(",", 1)[-1])
    def test_sample_first_bad_row_reported(self, first, second, tmp_path, capsys):
        # Each kind of bad row (field count, unparsable, not finite) after a
        # bad row of another kind: the earlier one is reported.
        pts = tmp_path / "pts.csv"
        pts.write_text(f"x,y,z\n 1_0 ,0,0\n\n{first}\n0,0,0\n{second}\n")
        out = tmp_path / "o.csv"
        assert main(["sample", str(BETA1), "--points", str(pts), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"quador: malformed point row 4: {first.split(',')}\n")
        assert not out.exists()

    def test_sample_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["sample", str(BETA1), "--grid", "3,3,3", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 27

    @pytest.mark.parametrize("case", ["edge-values", "quoted-label", "byte-order-mark",
                                      "header-only", "grid"])
    def test_sample_bytes_match_row_by_row_writer(self, case, tmp_path):
        lattice = BETA1
        rows = [(-0.0, 3.0, 1e16), (5e-324, -12.5, 0.0), (0.0, 0.0, 1.0), (1.05, 1.05, 0.0),
                (0.9, 0.9, 0.3), (1e160, 1e160, 0.0), (-12.5, -0.0, 5e-324)]
        # More rows than one formatting chunk, so chunk seams are covered too.
        rows += [tuple(p) for p in np.random.default_rng(71).uniform(-2, 5, size=(4100, 3)).tolist()]
        text = "x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in rows)
        if case == "quoted-label":
            lattice = tmp_path / "lattice.json"
            lattice.write_text(BETA1.read_text().replace('"h0"', json.dumps('h,"0')))
        elif case == "header-only":
            text, rows = "x,y,z\n", []
        pts = tmp_path / "pts.csv"
        pts.write_text(text, encoding="utf-8-sig" if case == "byte-order-mark" else "utf-8")
        source = ["--points", str(pts)]
        asm = build_assembly(load_lattice(lattice.read_bytes()))
        if case == "grid":
            source = ["--grid", "3,4,5"]
            lo, hi = auto_bounds(asm)
            rows = [(x, y, z) for z in np.linspace(lo[2], hi[2], 5)
                    for y in np.linspace(lo[1], hi[1], 4) for x in np.linspace(lo[0], hi[0], 3)]
        out = tmp_path / "out.csv"
        assert main(["sample", str(lattice), *source, "-o", str(out)]) == 0
        assert out.read_bytes() == sample_csv_reference(asm, rows)

    def test_sample_requires_exactly_one_source(self, tmp_path):
        assert main(["sample", str(BETA1), "-o", str(tmp_path / "o.csv")]) == 1

    def test_classify_output(self, capsys):
        assert main(["classify", str(BETA1)]) == 0
        out = capsys.readouterr().out
        assert "ELLIPTIC_CYLINDER" in out
        assert "HYPERBOLOID_ONE_SHEET" in out
        assert main(["classify", str(BETA05)]) == 0
        out = capsys.readouterr().out
        assert "PARALLEL_PLANES" in out
        assert "degenerate (chamfer)" in out
        assert main(["classify", str(FIXTURES / "asymmetric_beam.json")]) == 0
        out = capsys.readouterr().out
        assert "ELLIPTIC_PARABOLOID" in out

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for i in range(2):
            rep = tmp_path / f"r{i}.json"
            stl = tmp_path / f"m{i}.stl"
            csv_out = tmp_path / f"s{i}.csv"
            assert main(["verify", str(BETA1), "--seed", "7", "--report", str(rep)]) == 0
            assert main(["mesh", str(BETA1), "--resolution", "16", "-o", str(stl)]) == 0
            assert main(["sample", str(BETA1), "--grid", "4,4,4", "-o", str(csv_out)]) == 0
            outs.append((rep.read_bytes(), stl.read_bytes(), csv_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_console_entry_point(self):
        proc = run_cli("verify", str(BETA1))
        assert proc.returncode == 0
        assert "fillet_identity" in proc.stdout

    @pytest.mark.parametrize("samples", [10**7 + 1, 10**15])
    def test_huge_samples_rejected_when_parsed(self, samples):
        # Above the range, the flag is refused before any point is drawn.
        proc = run_cli("verify", str(BETA1), "--samples", str(samples))
        assert proc.returncode == 1
        assert "argument --samples:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,flag,bound,over", [
        ("sample", "--grid", "5000000,1,1", "5000001,1,1"),
        ("sample", "--grid", "170,170,170", "171,171,171"),  # the product is bounded
        ("conics", "--samples-per-curve", "100000", "100001"),
    ])
    def test_bound_parses_and_bound_plus_one_exits_one(self, command, flag, bound, over, capsys):
        # Parsed only: a run at the bound would take gigabytes.
        build_parser().parse_args([command, "x.json", flag, bound, "-o", "o"])
        assert main([command, "x.json", flag, over, "-o", "o"]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err

    def test_int_too_large_for_a_float_parses(self, capsys):
        huge = "1" + "0" * 400
        assert build_parser().parse_args(["verify", "x.json", "--seed", huge]).seed == 10**400
        assert main(["verify", "x.json", "--samples", huge]) == 1
        assert "argument --samples:" in capsys.readouterr().err

    def test_verify_invariant_failure_exit_three(self, monkeypatch, capsys):
        corrupt_first_fillet(monkeypatch)
        assert main(["verify", str(BETA1)]) == 3
        assert "IDENTITY_VIOLATION" in capsys.readouterr().out

    def test_bad_flags_exit_one(self, capsys, tmp_path):
        assert main(["mesh", str(BETA1)]) == 1  # missing required -o
        assert main(["frobnicate"]) == 1  # unknown subcommand
        capsys.readouterr()
        out = str(tmp_path / "out")
        lattice = str(BETA1)
        # Each argv, with the count and kind of values its flag takes and their range.
        for argv, expected, bounds in (
            (["conics", lattice, "--samples-per-curve", "1", "-o", out], "1 int", "[4, 100000]"),
            (["verify", lattice, "--samples", "-5"], "1 int", "[1, 10000000]"),
            (["verify", lattice, "--samples", "1.5"], "1 int", "[1, 10000000]"),
            (["verify", lattice, "--tol", "-1"], "1 float", "[0, inf]"),
            (["verify", lattice, "--tol", "nan"], "1 float", "[0, inf]"),
            (["verify", lattice, "--tol", "-inf"], "1 float", "[0, inf]"),
            (["verify", lattice, "--seed", "-1"], "1 int", "[0, inf]"),
            (["verify", lattice, "--seed", "-inf"], "1 int", "[0, inf]"),
            (["mesh", lattice, "--bounds", "1,2,3", "-o", out], "6 float", "[-inf, inf]"),
            (["mesh", lattice, "--bounds", "0,0,0,1,1,inf", "-o", out], "6 float", "[-inf, inf]"),
            (["mesh", lattice, "--bounds", "-inf,0,0,1,1,1", "-o", out], "6 float", "[-inf, inf]"),
            (["mesh", lattice, "--resolution", "1025", "-o", out], "1 int", "[2, 512]"),
            (["sample", lattice, "--grid", "0,2,2", "-o", out], "3 int", "[1, inf]"),
            (["sample", lattice, "--grid", "2,2", "-o", out], "3 int", "[1, inf]"),
        ):
            assert main(argv) == 1, argv
            flag = next(a for a in argv if a.startswith("--"))
            value = argv[argv.index(flag) + 1]
            assert capsys.readouterr().err.endswith(
                f"argument {flag}: expected {expected} value(s), finite and in {bounds}, "
                f"got {value!r}\n"), argv
        assert not Path(out).exists()


def test_mesh_resolution_range(tmp_path, capsys):
    # The dense grid needs about 1.7 GB at 512 cells per axis; 513 is refused
    # before anything is built.  512 is only parsed here, not meshed.
    out = tmp_path / "m.stl"
    assert main(["mesh", str(BETA1), "--resolution", "513", "-o", str(out)]) == 1
    assert capsys.readouterr().err.endswith(
        "argument --resolution: expected 1 int value(s), finite and in [2, 512], got '513'\n")
    assert not out.exists()
    args = build_parser().parse_args(["mesh", str(BETA1), "--resolution", "512", "-o", str(out)])
    assert args.resolution == 512


def child_env(**extra: str) -> dict:
    """The environment, plus ``extra``, for a child that imports the same
    quador as this test, installed or not."""
    src = str(Path(quador.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def sample_csv_reference(assembly, points) -> bytes:
    """``sample``'s former writer: one ``classify_point`` call and four
    ``format_value`` calls per row, the lines joined at the end."""
    lines = ["x,y,z,value,state,label"]
    for p in points:
        with np.errstate(all="ignore"):  # as main() runs it
            res = classify_point(assembly, p)
        lines.append(",".join([format_value(p[0]), format_value(p[1]), format_value(p[2]),
                               format_value(res.value), res.state, _csv_field(str(res.label))]))
    return "\n".join(lines).encode("utf-8") + b"\n"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m quador.cli *args`` in a child, as :func:`child_env` says."""
    return subprocess.run(
        [sys.executable, "-m", "quador.cli", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_no_command_imports_numpy_random(tmp_path):
    # A fresh interpreter: this process has long imported numpy.random.
    script = (
        "import sys\n"
        "from quador.cli import main\n"
        "for argv in (['verify', sys.argv[1], '--report', 'report.json'],\n"
        "             ['mesh', sys.argv[1], '--resolution', '8', '-o', 'mesh.stl'],\n"
        "             ['sample', sys.argv[1], '--grid', '3,3,3', '-o', 'grid.csv'],\n"
        "             ['conics', sys.argv[1], '-o', 'conics.obj'],\n"
        "             ['classify', sys.argv[1]]):\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    run = subprocess.run([sys.executable, "-c", script, str(BETA1)], cwd=tmp_path,
                         capture_output=True, text=True, env=child_env())
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "conics.obj", "grid.csv", "mesh.stl", "report.json"]


def cubic_filleted(n: int) -> Lattice:
    """An n x n x n grid of unit hubs at spacing 4 joined by k=4 axis beams,
    with a beta=1 fillet on every orthogonal pair of stubs at each hub."""
    cells = list(itertools.product(range(n), repeat=3))
    hubs = tuple(Hub(f"h{i}{j}{k}", (4.0 * i, 4.0 * j, 4.0 * k), 1.0) for i, j, k in cells)
    beams, stubs = [], {h.id: [] for h in hubs}
    for (i, j, k), axis in itertools.product(cells, range(3)):
        far = [i, j, k]
        far[axis] += 1
        if max(far) < n:
            beam = Beam(f"b{i}{j}{k}{axis}", f"h{i}{j}{k}", "h{}{}{}".format(*far), 4.0)
            beams.append(beam)
            stubs[beam.hub_a].append((axis, beam.id))
            stubs[beam.hub_b].append((axis, beam.id))
    fillets = tuple(
        FilletSpec(hub, bi, bj, 1.0)
        for hub, ends in stubs.items()
        for (ai, bi), (aj, bj) in itertools.combinations(ends, 2)
        if ai != aj
    )
    return Lattice(hubs, tuple(beams), fillets)


def fixture_variant(tmp_path, edit) -> str:
    """The beta = 1 fixture document after ``edit``, written to a file."""
    doc = json.loads(BETA1.read_text())
    edit(doc)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(doc))
    return str(path)


# Each CLI command on a lattice file, writing any output to ``out``.
COMMANDS = {
    "verify": lambda lat, out: ["verify", lat, "--samples", "50"],
    "mesh": lambda lat, out: ["mesh", lat, "--resolution", "8", "-o", out],
    "conics": lambda lat, out: ["conics", lat, "-o", out],
    "sample": lambda lat, out: ["sample", lat, "--grid", "2,2,2", "-o", out],
    "classify": lambda lat, out: ["classify", lat],
}


class TestNumbersThatParse:
    """Finite numbers whose squares or products overflow end in a coded
    error, and non-finite field values print as text."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("beta", [1e-300, 1e300])
    def test_extreme_beta_is_identity_violation(self, beta, command, tmp_path, capsys):
        lat = fixture_variant(tmp_path, lambda doc: doc["fillets"][0].update(beta=beta))
        out = tmp_path / "out"
        assert main(COMMANDS[command](lat, str(out))) == 1
        assert "[IDENTITY_VIOLATION] h0:b1+b2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("edit,hub_id", [
        (lambda doc: doc["hubs"][0].update(radius=1e300), "h0"),
        (lambda doc: doc.update(hubs=[{"id": "h", "center": [0, 0, 0], "radius": 1e200}],
                                beams=[], fillets=[]), "h"),
    ], ids=["fixture-1e300", "single-1e200"])
    def test_radius_overflow_exit_one(self, edit, hub_id, command, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(COMMANDS[command](fixture_variant(tmp_path, edit), str(out))) == 1
        err = capsys.readouterr().err
        assert f"[RADIUS_OVERFLOW] {hub_id}: hub {hub_id!r} radius is too large" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_center_overflow_exit_one(self, command, tmp_path, capsys):
        lat = fixture_variant(tmp_path, lambda doc: doc.update(
            hubs=[{"id": "h", "center": [1e200, 0, 0], "radius": 1}], beams=[], fillets=[]))
        out = tmp_path / "out"
        assert main(COMMANDS[command](lat, str(out))) == 1
        err = capsys.readouterr().err
        assert "[CENTER_OVERFLOW] h: hub 'h' center is too large" in err
        assert "Traceback" not in err and not out.exists()

    def test_numpy_warnings_stay_off_stderr(self, tmp_path):
        lat = fixture_variant(tmp_path, lambda doc: doc["fillets"][0].update(beta=1e-300))
        proc = run_cli("classify", lat)
        assert proc.returncode == 1
        first, *rest = proc.stderr.splitlines()
        assert first.startswith("quador: ") and "IDENTITY_VIOLATION" in first
        assert [line[:26] for line in rest] == ["  [IDENTITY_VIOLATION] h0:"]

    def test_sample_empty_lattice_prints_inf(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        lat = fixture_variant(tmp_path, dict.clear)
        assert main(["sample", lat, "--grid", "2,2,2", "-o", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x,y,z,value,state,label"
        assert len(rows) == 9
        assert all(row.endswith(",inf,outside,OUTSIDE") for row in rows[1:])

    @pytest.mark.parametrize("value,text", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        (3.0, "3"), (-0.5, "-0.5"), (1e16, "1e+16"), (9007199254740993.0, "9007199254740992"),
    ])
    def test_format_value(self, value, text):
        assert format_value(value) == text
        assert format_values(np.array([value])) == [text]

    def test_format_no_values(self):
        assert format_values(np.array([])) == []

    def test_conics_non_ascii_id(self, tmp_path, capsys):
        lat = tmp_path / "lattice.json"
        lat.write_text(BETA1.read_text().replace('"h0"', '"hé"'), encoding="utf-8")
        out = tmp_path / "c.obj"
        assert main(["conics", str(lat), "-o", str(out)]) == 0
        comments = [l for l in out.read_text(encoding="utf-8").splitlines() if l[0] == "#"]
        assert comments == ["# fillet hé:b1+b2 stub1 class=ELLIPSE",
                            "# fillet hé:b1+b2 stub2 class=ELLIPSE"]


class TestConstructionCounts:
    """Every beam and fillet is built once per command."""

    def test_each_command_builds_parts_once(self, tmp_path, monkeypatch, capsys):
        import quador.fillet
        import quador.lattice

        lattice = cubic_filleted(2)
        assert (len(lattice.beams), len(lattice.fillets)) == (12, 24)
        path = tmp_path / "cubic.json"
        path.write_text(lattice_to_json(lattice))
        points = tmp_path / "points.csv"
        points.write_text("0,0,0\n2,0,0\n1,1,0\n")

        # Beams and fillets are built as rows of one stacked call each; count the rows.
        calls = {"_build_beams": 0, "_build": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += len(args[0])
                return original(*args)

            return wrapper

        for module, name in ((quador.lattice, "_build_beams"), (quador.fillet, "_build")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

        lat = str(path)
        for argv in (
            ["classify", lat],
            ["conics", lat, "-o", str(tmp_path / "c.obj")],
            ["mesh", lat, "--resolution", "12", "-o", str(tmp_path / "m.stl")],
            ["sample", lat, "--points", str(points), "-o", str(tmp_path / "s.csv")],
        ):
            calls.update(_build_beams=0, _build=0)
            assert main(argv) == 0, argv
            assert calls == {"_build_beams": 12, "_build": 24}, argv[0]

        # verify samples the bare field from the same assembly and builds
        # five beta-grid variants of each fillet.
        calls.update(_build_beams=0, _build=0)
        assert main(["verify", lat, "--samples", "200"]) == 0
        assert calls["_build_beams"] == 12
        assert calls["_build"] <= 24 * (1 + 5)
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["perpendicular_beta1", "jittered_cubic"])
    def test_verify_and_conics_sample_once_per_plane(self, name, tmp_path, monkeypatch, capsys):
        from test_fillet import jittered_cubic

        lattice = (jittered_cubic(5) if name == "jittered_cubic"
                   else load_lattice(BETA1.read_bytes()))
        path = tmp_path / "lattice.json"
        path.write_text(lattice_to_json(lattice))
        calls = []
        for module in (quador.verify, quador.cli):
            def counted(conics, n, sample=module.sample_conic, module=module.__name__):
                calls.append(module)
                return sample(conics, n)

            monkeypatch.setattr(module, "sample_conic", counted)
        monkeypatch.setattr(quador.conics, "PlaneFrame", None)  # building one raises TypeError
        run_verify(lattice)
        assert calls == ["quador.verify"] * 2
        assert main(["conics", str(path), "-o", str(tmp_path / "conics.obj")]) == 0
        assert calls == ["quador.verify"] * 2 + ["quador.cli"] * 2
        capsys.readouterr()

    def test_hub_spheres_built_by_the_lattice_only(self, monkeypatch):
        import quador.lattice

        # Hub rows built by the stacked sphere call, and rows of stub planes
        # squared (H = S - G^2) by the beam call.
        rows = {"spheres": 0, "squares": 0}
        spheres, squares = quador.lattice._spheres, quador.lattice._subtract_square
        monkeypatch.setattr(quador.lattice, "_spheres", lambda hubs: rows.__setitem__(
            "spheres", rows["spheres"] + len(hubs)) or spheres(hubs))
        monkeypatch.setattr(quador.lattice, "_subtract_square", lambda q, e: rows.__setitem__(
            "squares", rows["squares"] + e[..., 0].size) or squares(q, e))
        lattice = load_lattice(json.dumps(cubic_lattice((2, 2, 2), 1)))
        asm = build_assembly(lattice)
        asm._table
        # One sphere row per hub; two stub quadric rows per beam, one on each hub's sphere.
        assert (len(lattice.hubs), len(lattice.beams), len(lattice.fillets)) == (8, 12, 24)
        assert rows == {"spheres": 8, "squares": 24}
        run_verify(lattice, samples=50)
        # verify builds no sphere or stub: it reads the lattice's rows.
        assert rows == {"spheres": 8, "squares": 24}

    def test_verify_builds_forms_per_beam_not_per_fillet(self, monkeypatch):
        # Load, assembly and its part table build no Quadric or LinearForm, and
        # neither does verify, per beam or per fillet.
        for shape in ((2, 2, 2), (3, 3, 3)):
            text = json.dumps(cubic_lattice(shape, 1))
            built = {LinearForm: 0, Quadric: 0}
            with monkeypatch.context() as patch:
                for cls in built:
                    patch.setattr(cls, "__post_init__", lambda self, cls=cls, f=cls.__post_init__:
                                  built.__setitem__(cls, built[cls] + 1) or f(self))
                lattice = load_lattice(text)
                build_assembly(lattice)._table
                assert built == {LinearForm: 0, Quadric: 0}, shape
                run_verify(lattice, samples=50)
            parts = {2: (12, 24), 3: (54, 144)}[shape[0]]  # beams, fillets
            assert (len(lattice.beams), len(lattice.fillets)) == parts
            assert built == {LinearForm: 0, Quadric: 0}, shape

    @pytest.mark.parametrize("source", sorted(p.name for p in FIXTURES.glob("*.json")) + [
        ((2, 2, 2), 0), ((2, 2, 2), 1), ((2, 2, 2), 2), ((3, 3, 2), 0), ((3, 3, 3), 0)])
    def test_every_layer_reads_the_stubs_its_beam_built(self, source):
        text = ((FIXTURES / source).read_text() if isinstance(source, str)
                else json.dumps(cubic_lattice(*source)))
        lattice = load_lattice(text)
        asm = build_assembly(lattice)
        stubs = {}
        for bg in asm.beams:
            stubs[bg.stub_a.hub.id, bg.beam.id] = bg.stub_a
            stubs[bg.stub_b.hub.id, bg.beam.id] = bg.stub_b
        views = [v for hub in lattice.hubs for v in stub_views_at_hub(lattice, hub.id)]
        assert len(views) == len(stubs) == 2 * len(asm.beams)
        assert all(v is stubs[v.hub.id, v.beam.id] for v in views)
        # Each beam part's first row in the part table holds its stub_a.H.
        rows = asm._table.bounds[len(asm.hubs):][:len(asm.beams)]
        for got, expect in zip(asm._table.stack, stack_forms(bg.stub_a.H for bg in asm.beams)):
            assert got[rows].tobytes() == expect.tobytes()
        for stub in itertools.chain.from_iterable(asm.fillets.stubs):
            assert stub is stubs[stub.hub.id, stub.beam.id]


# The argv that writes each of the CLI's five outputs to a given path.
OUTPUTS = {
    "stl": lambda out: ["mesh", str(BETA1), "--resolution", "16", "-o", out],
    "obj": lambda out: ["mesh", str(BETA1), "--resolution", "16", "--format", "obj",
                        "-o", out],
    "conics": lambda out: ["conics", str(BETA1), "-o", out],
    "sample": lambda out: ["sample", str(BETA1), "--grid", "3,3,3", "-o", out],
    "report": lambda out: ["verify", str(BETA1), "--samples", "50", "--report", out],
}
AS_ROOT = pytest.mark.skipif(
    os.geteuid() == 0, reason="root writes and unlinks regardless of permission bits"
)


def temp_files(directory: Path) -> list[Path]:
    return sorted(directory.rglob("*.tmp"))


class _FullDisk:
    """A file object that writes the first chunk and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, chunks):
        self.fh.write(next(iter(chunks)))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestWriteContract:
    """Outputs are written to a fresh file and renamed into place; paths
    that cannot be replaced are written in place, as before."""

    @pytest.mark.parametrize("kind", OUTPUTS)
    def test_rewrite_is_a_fresh_file(self, kind, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(OUTPUTS[kind](str(out))) == 0
        default = tmp_path / "default"
        default.write_bytes(b"")
        assert out.stat().st_mode == default.stat().st_mode
        out.chmod(0o640)
        before, data = out.stat(), out.read_bytes()
        assert main(OUTPUTS[kind](str(out))) == 0
        after = out.stat()
        assert after.st_ino != before.st_ino
        assert out.read_bytes() == data
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert sorted(tmp_path.iterdir()) == [default, out]

    def test_symlink_written_through(self, tmp_path, capsys):
        ref, target, link = tmp_path / "ref.stl", tmp_path / "target.stl", tmp_path / "link.stl"
        assert main(OUTPUTS["stl"](str(ref))) == 0
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert main(OUTPUTS["stl"](str(link))) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == ref.read_bytes()
        assert temp_files(tmp_path) == []

    def test_device_written_in_place(self, capsys):
        assert main(OUTPUTS["stl"](os.devnull)) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.parametrize("kind", OUTPUTS)
    def test_failed_write_keeps_old_output(self, kind, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main(OUTPUTS[kind](str(out))) == 0
        data = out.read_bytes()
        capsys.readouterr()
        monkeypatch.setattr(quador.writers, "open", lambda *a: _FullDisk(open(*a)),
                            raising=False)
        assert main(OUTPUTS[kind](str(out))) == 2
        assert "cannot write" in capsys.readouterr().err
        assert out.read_bytes() == data
        assert temp_files(tmp_path) == []

    def test_stl_range_leaves_no_file(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text('{"hubs": [{"id": "h", "center": [0, 0, 0], "radius": 1e39}]}')
        out = tmp_path / "huge.stl"
        argv = ["mesh", str(huge), "--resolution", "4", "-o", str(out)]
        assert main(argv) == 1
        assert sorted(tmp_path.iterdir()) == [huge]
        out.write_bytes(b"old")
        assert main(argv) == 1
        assert out.read_bytes() == b"old"
        assert sorted(tmp_path.iterdir()) == [huge, out]

    @pytest.mark.parametrize("kind", OUTPUTS)
    def test_missing_directory_exit_two(self, kind, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert main(OUTPUTS[kind](str(out))) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unlink_refused_writes_in_place(self, tmp_path, monkeypatch, capsys):
        # A sticky directory lets a writable file of another user be
        # written but not unlinked.
        ref, out = tmp_path / "ref.stl", tmp_path / "out.stl"
        assert main(OUTPUTS["stl"](str(ref))) == 0
        out.write_bytes(b"old")
        inode = out.stat().st_ino
        unlink = os.unlink

        def refuse(path, *args, **kwargs):
            if os.fspath(path) == str(out):
                raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), str(path))
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", refuse)
        assert main(OUTPUTS["stl"](str(out))) == 0
        assert out.stat().st_ino == inode
        assert out.read_bytes() == ref.read_bytes()
        assert temp_files(tmp_path) == []

    def test_temp_file_refused_writes_in_place(self, tmp_path, monkeypatch, capsys):
        # What a read-only directory does, for any user, root included: the
        # temp file cannot be created, so the output is written in place.
        ref, out = tmp_path / "ref.stl", tmp_path / "out.stl"
        assert main(OUTPUTS["stl"](str(ref))) == 0
        out.write_bytes(b"old")
        inode = out.stat().st_ino

        def refuse_new(file, mode="r", *args):
            if "x" in mode:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
            return open(file, mode, *args)

        monkeypatch.setattr(quador.writers, "open", refuse_new, raising=False)
        assert main(OUTPUTS["stl"](str(out))) == 0
        assert out.stat().st_ino == inode
        assert out.read_bytes() == ref.read_bytes()
        assert temp_files(tmp_path) == []

    def test_path_below_a_file_exit_two(self, tmp_path, capsys):
        # Its lstat fails with NotADirectoryError, so it is written in place,
        # which fails too.
        (tmp_path / "file").write_bytes(b"")
        out = tmp_path / "file" / "out.stl"
        assert main(OUTPUTS["stl"](str(out))) == 2
        assert f"cannot write {out}: " in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]

    @AS_ROOT
    def test_read_only_output_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out.stl"
        out.write_bytes(b"old")
        out.chmod(0o444)
        assert main(OUTPUTS["stl"](str(out))) == 2
        assert "cannot write" in capsys.readouterr().err
        assert out.read_bytes() == b"old"
        assert temp_files(tmp_path) == []

    @AS_ROOT
    def test_read_only_directory_written_in_place(self, tmp_path, capsys):
        ref, folder = tmp_path / "ref.stl", tmp_path / "locked"
        assert main(OUTPUTS["stl"](str(ref))) == 0
        folder.mkdir()
        out = folder / "out.stl"
        out.write_bytes(b"old")
        inode = out.stat().st_ino
        folder.chmod(0o555)
        try:
            assert main(OUTPUTS["stl"](str(out))) == 0
            assert out.stat().st_ino == inode
            assert out.read_bytes() == ref.read_bytes()
        finally:
            folder.chmod(0o755)


SRC = Path(quador.__file__).resolve().parent
# A string constant that is an open() mode.
OPEN_MODE = re.compile(r"[rwxabt+]+")


def opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "tofile"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    modes = [*call.args[:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(
        isinstance(m, ast.Constant) and isinstance(m.value, str)
        and OPEN_MODE.fullmatch(m.value) and set(m.value) & set("wxa+")
        for m in modes
    )


def test_only_write_output_opens_files_for_writing():
    """Writing anywhere but writers.write_output would bring back in-place
    truncation and partial outputs."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and opens_for_writing(node):
            found.append((source.name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for source in sorted(SRC.glob("*.py")):
        visit(ast.parse(source.read_text(encoding="utf-8")), "<module>")
    assert sorted(found) == [("writers.py", "_write_fresh"), ("writers.py", "write_output")]


def test_every_import_is_used():
    """Each name a module imports is read there, or its import line says why
    not with ``# noqa: F401`` and a reason; ``__init__.py`` only re-exports."""
    unused = []
    for source in sorted(SRC.glob("*.py")):
        if source.name == "__init__.py":
            continue
        text = source.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            excused = any(re.search(r"# noqa: F401\s+\S", line)
                          for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and not excused:
                    unused.append((source.name, name))
    assert unused == []


def test_every_private_name_is_read():
    """Each module-level ``_name`` a module in ``src/`` defines is read
    somewhere in ``src/``: no dead constants or helpers."""
    defined, read = [], set()
    for source in sorted(SRC.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(source.name, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert len(defined) > 50
    assert [d for d in defined if d[1] not in read] == []
