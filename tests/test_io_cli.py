"""Lattice files, writers, the verify suite and the CLI end to end."""

import dataclasses
import itertools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import quador
import quador.verify
from quador.algebra import Quadric
from quador.cli import main
from quador.errors import ParseError, ValidationError
from quador.lattice import Beam, FilletSpec, Hub, Lattice
from quador.latticefile import lattice_to_json, load_lattice
from quador.solid import auto_bounds, build_assembly, marching_cubes
from quador.verify import run_verify
from quador.writers import read_stl, write_stl

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BETA1 = FIXTURES / "perpendicular_beta1.json"
BETA05 = FIXTURES / "perpendicular_beta05.json"


def corrupt_first_fillet(monkeypatch):
    """Make verify's assemblies carry a first fillet whose ``Q`` has
    ``A[0, 0]`` raised by 1e-6 after construction."""

    def build(lattice):
        assembly = build_assembly(lattice)
        if not assembly.fillets:
            return assembly
        fp = assembly.fillets[0]
        A = fp.patch.Q.A.copy()
        A[0, 0] += 1e-6
        patch = dataclasses.replace(fp.patch, Q=Quadric(A, fp.patch.Q.b, fp.patch.Q.c))
        fillets = (dataclasses.replace(fp, patch=patch),) + assembly.fillets[1:]
        return dataclasses.replace(assembly, fillets=fillets)

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

    def test_nan_rejected(self):
        text = '{"hubs": [{"id": "h", "center": [0, 0, NaN], "radius": 1}]}'
        with pytest.raises(ParseError):
            load_lattice(text)

    def test_round_trip_identical_assembly(self):
        lat = load_lattice(BETA1.read_bytes())
        lat2 = load_lattice(lattice_to_json(lat))
        a1, a2 = build_assembly(lat), build_assembly(lat2)
        for b1, b2 in zip(a1.beams, a2.beams):
            npt.assert_array_equal(b1.H.coeffs(), b2.H.coeffs())
        for f1, f2 in zip(a1.fillets, a2.fillets):
            npt.assert_array_equal(f1.patch.Q.coeffs(), f2.patch.Q.coeffs())


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
        _, tris = read_stl(out)
        expect = mesh.vertices[mesh.triangles].astype(np.float32)
        npt.assert_array_equal(tris, expect)


class TestVerify:
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

    def test_corrupted_fillet_detected(self, monkeypatch):
        corrupt_first_fillet(monkeypatch)
        report = run_verify(load_lattice(BETA1.read_bytes()), samples=500)
        assert not report.passed
        failing = {c.name for c in report.checks if c.status == "fail"}
        assert "fillet_identity" in failing
        check = next(c for c in report.checks if c.name == "fillet_identity")
        assert check.detail == "IDENTITY_VIOLATION"

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
        h1, h2 = asm.beams[0].H, asm.beams[1].H
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

    def test_sample_malformed_row(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0\na,b\n")
        code = main(["sample", str(BETA1), "--points", str(pts), "-o", str(tmp_path / "o.csv")])
        assert code == 1
        assert "row 2" in capsys.readouterr().err

    def test_sample_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["sample", str(BETA1), "--grid", "3,3,3", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 27

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
        # The child imports the same quador as this test, installed or not.
        src = str(Path(quador.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "quador.cli", "verify", str(BETA1)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "fillet_identity" in proc.stdout

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
        for argv in (
            ["conics", lattice, "--samples-per-curve", "1", "-o", out],
            ["verify", lattice, "--samples", "-5"],
            ["verify", lattice, "--samples", "1.5"],
            ["verify", lattice, "--tol", "-1"],
            ["verify", lattice, "--tol", "nan"],
            ["verify", lattice, "--seed", "-1"],
            ["mesh", lattice, "--bounds", "1,2,3", "-o", out],
            ["mesh", lattice, "--bounds", "0,0,0,1,1,inf", "-o", out],
            ["mesh", lattice, "--resolution", "1025", "-o", out],
            ["sample", lattice, "--grid", "0,2,2", "-o", out],
            ["sample", lattice, "--grid", "2,2", "-o", out],
        ):
            assert main(argv) == 1, argv
            flag = next(a for a in argv if a.startswith("--"))
            assert f"argument {flag}:" in capsys.readouterr().err, argv
        assert not Path(out).exists()


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

        calls = {"beam_quador": 0, "build_fillet": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for module, name in ((quador.lattice, "beam_quador"), (quador.fillet, "build_fillet")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

        lat = str(path)
        for argv in (
            ["classify", lat],
            ["conics", lat, "-o", str(tmp_path / "c.obj")],
            ["mesh", lat, "--resolution", "12", "-o", str(tmp_path / "m.stl")],
            ["sample", lat, "--points", str(points), "-o", str(tmp_path / "s.csv")],
        ):
            calls.update(beam_quador=0, build_fillet=0)
            assert main(argv) == 0, argv
            assert calls == {"beam_quador": 12, "build_fillet": 24}, argv[0]

        # verify samples the bare field from the same assembly and builds
        # five beta-grid variants of each fillet.
        calls.update(beam_quador=0, build_fillet=0)
        assert main(["verify", lat, "--samples", "200"]) == 0
        assert calls["beam_quador"] == 12
        assert calls["build_fillet"] <= 24 * (1 + 5)
        capsys.readouterr()
