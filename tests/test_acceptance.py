"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import json
import math
import struct
import sys
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import sympy as sp

from quador.algebra import (
    LinearForm,
    Quadric,
    QuadricClass,
    classify_quadric,
    subtract_square,
)
from quador.cli import main
from quador.conics import ConicClass, sample_conic
from quador.fillet import (
    build_fillet,
    fillet_extent,
    fillet_min_curvature_radius,
    fillet_planes,
    fillet_residual,
)
from quador.lattice import Beam, Hub, Lattice, beam_quador, sphere_quadric, stub_views_at_hub
from quador.latticefile import load_lattice
from quador.solid import auto_bounds, build_assembly, classify_point, field_grid, marching_cubes

from form_reference import add, linear_product, scaled, sub
from test_algebra import fd_principal_curvatures

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
sys.path.insert(0, str(FIXTURES.parent / "bench"))

from checks import edge_problems  # noqa: E402


def _report(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _random_config(rng):
    """One random hub + two stub planes + beta, per the acceptance recipe."""
    while True:
        center = rng.uniform(-2, 2, 3)
        r = rng.uniform(0.5, 2.0)
        u1, u2 = rng.normal(size=(2, 3))
        u1 /= np.linalg.norm(u1)
        u2 /= np.linalg.norm(u2)
        if np.linalg.norm(np.cross(u1, u2)) < 1e-3:
            continue
        lam1, lam2 = rng.uniform(0.5, 2.0, 2)
        beta = rng.uniform(0.1, 2.0)
        g1 = LinearForm(lam1 * u1, lam1 * (rng.uniform(-0.9, 0.9) * r - u1 @ center))
        g2 = LinearForm(lam2 * u2, lam2 * (rng.uniform(-0.9, 0.9) * r - u2 @ center))
        s = Quadric(np.eye(3), -center, float(center @ center) - r * r)
        return s, g1, g2, beta


def perp_patch(beta: float):
    lat = load_lattice((FIXTURES / "perpendicular_beta1.json").read_bytes())
    views = {v.beam.id: v for v in stub_views_at_hub(lat, "h0")}
    return build_fillet(views["b1"], views["b2"], beta)


def test_criterion_1_fillet_identity():
    """200 seeded random configurations: H1-E1^2 == H2-E2^2 to 1e-12, < 1s."""
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        s, g1, g2, beta = _random_config(rng)
        h1 = subtract_square(s, g1)
        h2 = subtract_square(s, g2)
        e1, e2, _ = fillet_planes(g1, g2, beta)
        q1 = subtract_square(h1, e1)
        q2 = subtract_square(h2, e2)
        worst = max(
            worst,
            np.linalg.norm((q1 - q2).coeffs()) / np.linalg.norm(q1.coeffs()),
        )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"fillet identity max rel deviation {worst:.2e} over 200 configs in {elapsed:.2f}s",
    )


def test_criterion_2_residual_law():
    """With alpha*beta != 1/4 the residual equals (1-4ab) F+ F- to 1e-12."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        s, g1, g2, beta = _random_config(rng)
        h1 = subtract_square(s, g1)
        h2 = subtract_square(s, g2)
        alpha = 1.0 / (4.0 * beta) * rng.choice([0.5, 2.0])
        f_minus = sub(g2, g1)
        f_plus = add(g2, g1)
        e1 = add(scaled(f_plus, alpha), scaled(f_minus, beta))
        e2 = sub(scaled(f_plus, alpha), scaled(f_minus, beta))
        res = fillet_residual(h1, h2, e1, e2)
        expect = scaled(linear_product(f_plus, f_minus), 1.0 - 4.0 * alpha * beta)
        denom = max(np.linalg.norm(expect.coeffs()), 1e-300)
        worst = max(worst, np.linalg.norm((res - expect).coeffs()) / denom)
    _report(2, worst <= 1e-12, f"residual law max rel deviation {worst:.2e}")


def test_criterion_3_sphere_stub_tangency():
    """grad H == grad S along every stub tangency circle, all fixtures."""
    worst = 0.0
    stubs = 0
    for name in ("perpendicular_beta1.json", "perpendicular_beta05.json", "asymmetric_beam.json"):
        lat = load_lattice((FIXTURES / name).read_bytes())
        for hub in lat.hubs:
            sphere = sphere_quadric(hub)
            for view in stub_views_at_hub(lat, hub.id):
                stubs += 1
                gn = view.G.grad_norm()
                n = view.G.g / gn
                offset = -view.G.value(hub.center) / gn
                rc = math.sqrt(hub.radius**2 - offset**2)
                ref = np.zeros(3)
                ref[int(np.argmin(np.abs(n)))] = 1.0
                w1 = np.cross(n, ref)
                w1 /= np.linalg.norm(w1)
                w2 = np.cross(n, w1)
                p0 = np.asarray(hub.center) + offset * n
                for t in np.linspace(0, 2 * math.pi, 32, endpoint=False):
                    p = p0 + rc * (math.cos(t) * w1 + math.sin(t) * w2)
                    gs = sphere.gradient(p)
                    gh = view.H.gradient(p)
                    worst = max(worst, np.linalg.norm(gh - gs) / np.linalg.norm(gs))
    _report(
        3,
        worst <= 1e-12,
        f"sphere-stub gradient max rel deviation {worst:.2e} over {stubs} stubs x 32 points",
    )


def test_criterion_4_fillet_tangency():
    """Surface residual <= 1e-10 and gradient angle <= 1e-7 on conic samples."""
    worst_res = 0.0
    worst_ang = 0.0
    for beta in (0.8, 1.0, 1.5):
        patch = perp_patch(beta)
        for conic, h in ((patch.conic1, patch.stub1.H), (patch.conic2, patch.stub2.H)):
            for p in sample_conic(conic, 32):
                scale = max(1.0, float(p @ p))
                worst_res = max(
                    worst_res, abs(h.value(p)) / scale, abs(patch.Q.value(p)) / scale
                )
                gq = patch.Q.gradient(p)
                gh = h.gradient(p)
                cosang = gq @ gh / (np.linalg.norm(gq) * np.linalg.norm(gh))
                worst_ang = max(worst_ang, math.acos(min(1.0, max(-1.0, cosang))))
    _report(
        4,
        worst_res <= 1e-10 and worst_ang <= 1e-7,
        f"fillet tangency residual {worst_res:.2e}, angle {worst_ang:.2e} rad",
    )


def test_criterion_5_two_sphere_beam():
    """Asymmetric beam reproduces y^2+z^2-0.75x-73/64; symbolic oracle agrees."""
    # Independent symbolic-expansion oracle (exact rationals).
    x, y, z = sp.symbols("x y z")
    Sa = x**2 + y**2 + z**2 - 1
    Sb = (x - 4) ** 2 + y**2 + z**2 - 4
    L = sp.expand(Sa - Sb)
    Ga = sp.expand((L / 4 + 4) / 2)
    Gb = sp.expand(Ga - 4)
    H_sym = sp.expand(Sa - Ga**2)
    assert sp.simplify(H_sym - sp.expand(Sb - Gb**2)) == 0
    assert sp.simplify(H_sym - (y**2 + z**2 - sp.Rational(3, 4) * x - sp.Rational(73, 64))) == 0

    geom = beam_quador(Hub("h0", (0, 0, 0), 1.0), Hub("h1", (4, 0, 0), 2.0), 4.0)
    expect = Quadric(np.diag([0.0, 1.0, 1.0]), (-0.375, 0.0, 0.0), -73.0 / 64.0)
    dev = np.max(np.abs(geom.stub_a.H.coeffs() - expect.coeffs()))

    # Both tangency checks: ends agree, and grad H == grad S on each circle.
    h_a = subtract_square(sphere_quadric(geom.stub_a.hub), geom.stub_a.G)
    h_b = subtract_square(sphere_quadric(geom.stub_b.hub), geom.stub_b.G)
    end_dev = np.linalg.norm((h_a - h_b).coeffs()) / np.linalg.norm(h_a.coeffs())
    worst_grad = 0.0
    for hub, G in ((geom.stub_a.hub, geom.stub_a.G), (geom.stub_b.hub, geom.stub_b.G)):
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
            worst_grad = max(
                worst_grad,
                np.linalg.norm(H.gradient(p) - sphere.gradient(p))
                / np.linalg.norm(sphere.gradient(p)),
            )
    _report(
        5,
        dev <= 1e-12 and end_dev <= 1e-12 and worst_grad <= 1e-12,
        f"asymmetric beam coeff dev {dev:.2e}, end agreement {end_dev:.2e}, "
        f"tangency {worst_grad:.2e}",
    )


def test_criterion_6_fan_and_monotonicity():
    """Fan of fillets over the beta grid: identity+tangency, extent monotone,
    frozen extent values, curvature radius vs finite-difference oracle."""
    grid = (0.6, 0.8, 1.0, 1.25, 1.5)
    extents = []
    for beta in grid:
        patch = perp_patch(beta)
        q2 = subtract_square(patch.stub2.H, patch.E2)
        assert (
            np.linalg.norm((patch.Q - q2).coeffs())
            <= 1e-12 * np.linalg.norm(patch.Q.coeffs())
        )
        for conic, h in ((patch.conic1, patch.stub1.H), (patch.conic2, patch.stub2.H)):
            for p in sample_conic(conic, 16):
                scale = max(1.0, float(p @ p))
                assert abs(h.value(p)) <= 1e-10 * scale
                assert abs(patch.Q.value(p)) <= 1e-10 * scale
        extents.append(fillet_extent(patch))
    monotone = all(b < a for a, b in zip(extents, extents[1:])) or all(
        b > a for a, b in zip(extents, extents[1:])
    )

    e1 = fillet_extent(perp_patch(1.0))
    e2 = fillet_extent(perp_patch(2.0))
    ok_e1 = abs(e1 - math.sqrt(34) / 3) <= 1e-6
    ok_e2 = abs(e2 - math.sqrt(514) / 15) <= 1e-6

    patch1 = perp_patch(1.0)
    radius = fillet_min_curvature_radius(patch1)
    ok_radius = abs(radius - 0.4082) <= 1e-3
    # Cross-check against the finite-difference normal-section oracle.
    t = math.sqrt(4.0 / 3.0)
    kmin, kmax = fd_principal_curvatures(patch1.Q, (t, t, 0.0))
    radius_fd = 1.0 / max(abs(kmin), abs(kmax))
    ok_fd = abs(radius - radius_fd) <= 1e-3

    _report(
        6,
        monotone and ok_e1 and ok_e2 and ok_radius and ok_fd,
        f"extents {[round(e, 4) for e in extents]} monotone={monotone}, "
        f"extent(1)={e1:.7f}, extent(2)={e2:.7f}, radius={radius:.5f} (fd {radius_fd:.5f})",
    )


def test_criterion_7_material_monotonicity():
    """Fillets only add material; the corner point flips outside -> inside."""
    lat = load_lattice((FIXTURES / "perpendicular_beta1.json").read_bytes())
    full = build_assembly(lat)
    bare = build_assembly(dataclasses.replace(lat, fillets=()))
    rng = np.random.default_rng(0)
    lo, hi = auto_bounds(full)
    t0 = time.perf_counter()
    pts = rng.uniform(lo, hi, size=(10000, 3))
    f_bare = field_grid(bare, pts[:, 0], pts[:, 1], pts[:, 2])
    f_full = field_grid(full, pts[:, 0], pts[:, 1], pts[:, 2])
    violations = int(np.count_nonzero((f_bare <= 0.0) & (f_full > 0.0)))
    elapsed = time.perf_counter() - t0
    probe = (1.05, 1.05, 0.0)
    flipped = (
        classify_point(bare, probe).state == "outside"
        and classify_point(full, probe).state == "inside"
    )
    _report(
        7,
        violations == 0 and flipped and elapsed < 2.0,
        f"{violations} monotonicity violations in 10^4 points ({elapsed:.2f}s); "
        f"corner point flips outside->inside: {flipped}",
    )


def test_criterion_8_degenerate_chamfer():
    """beta=1/2 gives Q = z^2-1 (PARALLEL_PLANES) and PARALLEL_LINES conics."""
    patch = perp_patch(0.5)
    coeff_ok = np.allclose(
        patch.Q.coeffs(), [0, 0, 1, 0, 0, 0, 0, 0, 0, -1], atol=1e-15
    )
    label = classify_quadric(patch.Q).label
    conics_ok = (
        patch.conic1.klass is ConicClass.PARALLEL_LINES
        and patch.conic2.klass is ConicClass.PARALLEL_LINES
    )
    _report(
        8,
        coeff_ok and label is QuadricClass.PARALLEL_PLANES and conics_ok,
        f"chamfer Q classified {label.value}, conics "
        f"{patch.conic1.klass.value}/{patch.conic2.klass.value}",
    )


def test_criterion_9_meshing():
    """Unit sphere res 64 watertight with |S|<=0.01; fixture res 96 < 10s."""
    sphere_lat = Lattice((Hub("h", (0.0, 0.0, 0.0), 1.0),), (), ())
    asm = build_assembly(sphere_lat)
    mesh = marching_cubes(asm, auto_bounds(asm), 64)
    sphere = sphere_quadric(sphere_lat.hubs[0])
    res_ok = max(abs(sphere.value(v)) for v in mesh.vertices) <= 0.01
    tight_sphere = edge_problems(mesh.triangles) == []

    lat = load_lattice((FIXTURES / "perpendicular_beta1.json").read_bytes())
    full = build_assembly(lat)
    t0 = time.perf_counter()
    mesh96 = marching_cubes(full, auto_bounds(full), 96)
    elapsed = time.perf_counter() - t0
    tight96 = edge_problems(mesh96.triangles) == []
    rng = np.random.default_rng(5)
    tris = mesh96.triangles[rng.integers(0, len(mesh96.triangles), 2000)]
    a, b, c = (mesh96.vertices[tris[:, q]] for q in range(3))
    n = np.cross(b - a, c - a)
    centroid = (a + b + c) / 3.0
    h = 1e-6
    # Central differences at every centroid at once: field_grid gives an
    # array the bits it gives each of its points alone.
    grad = np.stack(
        [
            (field_grid(full, *(centroid[:, q] + h * e[q] for q in range(3)))
             - field_grid(full, *(centroid[:, q] - h * e[q] for q in range(3))))
            / (2 * h)
            for e in np.eye(3)
        ],
        axis=1,
    )
    oriented = bool(np.all(np.einsum("ij,ij->i", n, grad) > 0.0))
    _report(
        9,
        res_ok and tight_sphere and tight96 and oriented and elapsed < 10.0,
        f"sphere residual ok={res_ok} watertight={tight_sphere}; fixture res96 "
        f"watertight={tight96} oriented={oriented} in {elapsed:.2f}s",
    )


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    """verify exits 0 with a report; mesh writes byte-valid STL; sample
    reproduces the three classified example points."""
    fixture = str(FIXTURES / "perpendicular_beta1.json")
    report = tmp_path / "report.json"
    code_verify = main(["verify", fixture, "--report", str(report)])
    doc = json.loads(report.read_text())
    report_ok = doc["summary"]["fail"] == 0 and len(doc["checks"]) >= 7

    stl = tmp_path / "m.stl"
    code_mesh = main(["mesh", fixture, "--resolution", "32", "-o", str(stl)])
    data = stl.read_bytes()
    n = struct.unpack_from("<I", data, 80)[0]
    stl_ok = len(data) == 84 + 50 * n and n > 0

    pts = tmp_path / "pts.csv"
    pts.write_text("x,y,z\n0,0,0\n0.9,0.9,0.3\n1.05,1.05,0\n")
    out = tmp_path / "out.csv"
    code_sample = main(["sample", fixture, "--points", str(pts), "-o", str(out)])
    rows = out.read_text().splitlines()
    capsys.readouterr()

    def row_matches(row, value, state, label):
        fields = row.split(",")
        return (
            abs(float(fields[3]) - value) <= 1e-12
            and fields[4] == state
            and ",".join(fields[5:]) == label
        )

    sample_ok = (
        rows[1] == "0,0,0,-1,inside,HUB(h0)"
        and row_matches(rows[2], -0.10, "inside", "BEAM(b1)")
        and row_matches(rows[3], -0.173125, "inside", "FILLET(h0:b1+b2)")
    )
    _report(
        10,
        code_verify == 0 and code_mesh == 0 and code_sample == 0
        and report_ok and stl_ok and sample_ok,
        f"verify exit {code_verify} (report ok={report_ok}), STL bytes ok={stl_ok}, "
        f"sample rows ok={sample_ok}",
    )
