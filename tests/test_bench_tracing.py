"""The hooks ``bench/run.py --trace 1`` relies on in ``src/``.

The tracer wraps functions by the module attribute a caller imported; the
traced mesh run reads the grid ``marching_cubes`` got from ``field_grid``,
and the traced sample run counts one ``classify_point`` call per point.  A
refactor that renames, drops or batches any of these breaks the traced
benchmark without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import quador.cli
from quador.lattice import Hub, Lattice
from quador.solid import auto_bounds, build_assembly

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracing import WRAPPED, Tracer  # noqa: E402


def test_every_wrapped_name_resolves():
    missing = [
        (module, attr)
        for module, attr, _ in WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_marching_cubes_evaluates_full_grid_once():
    asm = build_assembly(Lattice((Hub("h", (0, 0, 0), 1.0),), (), ()))
    modules = {module: importlib.import_module(module) for module, _, _ in WRAPPED}
    tracer = Tracer()
    tracer.install(modules)
    try:
        tracer.call("cli.mesh", quador.cli.marching_cubes, asm, auto_bounds(asm), (5, 6, 7))
    finally:
        tracer.restore()
    calls = tracer.totals(parent="solid.marching_cubes")
    assert calls["solid.field_grid"][0] == 1
    grid = tracer.last_result[("solid.field_grid", "solid.marching_cubes")]
    assert grid.shape == (6, 7, 8)


def test_sample_classifies_each_point_once(tmp_path):
    # bench/run.py divides the traced classify_point time by its call count.
    points = tmp_path / "points.csv"
    points.write_text("x,y,z\n" + "".join(f"{i * 0.25},0.5,-0.25\n" for i in range(13)))
    argv = ["sample", str(ROOT / "fixtures" / "perpendicular_beta1.json"),
            "--points", str(points), "-o", str(tmp_path / "sample.csv")]
    modules = {module: importlib.import_module(module) for module, _, _ in WRAPPED}
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert tracer.call("cli.sample", quador.cli.main, argv) == 0
    finally:
        tracer.restore()
    assert tracer.totals(parent="cli.sample")["solid.classify_point"][0] == 13
