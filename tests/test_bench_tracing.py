"""The hooks ``bench/run.py --trace 1`` relies on in ``src/``.

The tracer wraps functions by the module attribute a caller imported; the
traced mesh run reads the grid ``marching_cubes`` got from ``field_grid``,
and the traced sample run times the ``classify_point`` calls that ``sample``
makes through ``quador.cli``.  A refactor that renames or drops any of these
breaks the traced benchmark without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import quador.cli
from quador.lattice import Hub, Lattice
from quador.solid import auto_bounds, build_assembly, field_grid

from test_fillet import jittered_cubic

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from inputs import cubic_lattice, lattice_json  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402


def test_every_wrapped_name_resolves():
    missing = [
        (module, attr)
        for module, attr, _ in WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def traced_mesh_grid(asm, res):
    """The number of field_grid calls under a traced mesh, and the grid the
    traced run reads."""
    modules = {module: importlib.import_module(module) for module, _, _ in WRAPPED}
    tracer = Tracer()
    tracer.install(modules)
    try:
        tracer.call("cli.mesh", quador.cli.marching_cubes, asm, auto_bounds(asm), res)
    finally:
        tracer.restore()
    calls = tracer.totals(parent="solid.marching_cubes")
    return calls["solid.field_grid"][0], tracer.last_result[("solid.field_grid", "solid.marching_cubes")]


def test_marching_cubes_evaluates_full_grid_once():
    asm = build_assembly(Lattice((Hub("h", (0, 0, 0), 1.0),), (), ()))
    calls, grid = traced_mesh_grid(asm, (5, 6, 7))
    assert calls == 1
    assert grid.shape == (6, 7, 8)


def test_marching_cubes_evaluates_culled_grid_once():
    # Large enough that field_grid culls parts brick by brick; the traced run
    # still reads one full grid, with the dense grid's signs.
    asm = build_assembly(jittered_cubic(5))
    calls, grid = traced_mesh_grid(asm, (48, 50, 52))
    assert calls == 1
    assert grid.shape == (49, 51, 53)
    lo, hi = auto_bounds(asm)
    axes = [np.linspace(lo[i], hi[i], n) for i, n in enumerate(grid.shape)]
    dense = field_grid(asm, *np.meshgrid(*axes, indexing="ij"))
    assert np.array_equal(np.sign(grid), np.sign(dense))


def test_sample_classifies_each_point_once(tmp_path, monkeypatch):
    # bench/run.py reads totals["solid.classify_point"]: sample must call it
    # through quador.cli, and the batches it passes hold every row once.
    rows = [(i * 0.25, 0.5, -0.25) for i in range(13)]
    points = tmp_path / "points.csv"
    points.write_text("x,y,z\n" + "".join(f"{x},{y},{z}\n" for x, y, z in rows))
    argv = ["sample", str(ROOT / "fixtures" / "perpendicular_beta1.json"),
            "--points", str(points), "-o", str(tmp_path / "sample.csv")]
    passed = []
    classify = quador.cli.classify_point
    monkeypatch.setattr(quador.cli, "classify_point",
                        lambda asm, pts, *a: passed.append(pts) or classify(asm, pts, *a))
    modules = {module: importlib.import_module(module) for module, _, _ in WRAPPED}
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert tracer.call("cli.sample", quador.cli.main, argv) == 0
    finally:
        tracer.restore()
    calls = tracer.totals(parent="cli.sample")["solid.classify_point"][0]
    assert calls == len(passed) >= 1
    assert np.concatenate(passed).tolist() == [list(p) for p in rows]


def test_traced_verify_records_each_fillet_span(tmp_path):
    # The beta grid is built and measured in stacked calls; each still goes
    # through the names bench/run.py wraps, so its per-layer spans never read 0.
    path = tmp_path / "cubic.json"
    path.write_text(lattice_json(cubic_lattice((2, 2, 2), 0)))
    modules = {module: importlib.import_module(module) for module, _, _ in WRAPPED}
    tracer = Tracer()
    tracer.install(modules)
    try:
        argv = ["verify", str(path), "--samples", "200", "--report", str(tmp_path / "r.json")]
        assert tracer.call("cli.verify", quador.cli.main, argv) == 0
    finally:
        tracer.restore()
    calls = tracer.totals(parent="verify.run_verify")
    for name in ("fillet.build_fillet_for_spec", "fillet.fillet_extent",
                 "fillet.fillet_min_curvature_radius"):
        assert calls.get(name, (0, 0.0))[0] >= 1, name
