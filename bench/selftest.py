"""Self-tests of the benchmark itself (not of quador).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from inputs import cubic_lattice, lattice_json, write_inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A closed octahedron with outward winding.
OCTA_VERTS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
)
OCTA_TRIS = np.array(
    [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
     [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]], dtype=np.int64
)


def stl_bytes(vertices, triangles) -> bytes:
    records = np.zeros(len(triangles), dtype=checks._STL_RECORD)
    records["verts"] = vertices[triangles]
    return b"\0" * 80 + len(triangles).to_bytes(4, "little") + records.tobytes()


def test_generator_is_deterministic():
    assert lattice_json(cubic_lattice((3, 3, 2), 7)) == lattice_json(cubic_lattice((3, 3, 2), 7))
    assert lattice_json(cubic_lattice((3, 3, 2), 7)) != lattice_json(cubic_lattice((3, 3, 2), 8))
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        files_a = write_inputs(Path(a), cubic_lattice((3, 3, 2), 7), 100, 7)
        files_b = write_inputs(Path(b), cubic_lattice((3, 3, 2), 7), 100, 7)
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()


def test_cubic_lattice_counts():
    doc = cubic_lattice(run.WORKLOADS["cubic-filleted"].shape, 0)
    assert (len(doc["hubs"]), len(doc["beams"]), len(doc["fillets"])) == (8, 12, 24)
    doc = cubic_lattice((3, 3, 2), 0)
    assert (len(doc["hubs"]), len(doc["beams"]), len(doc["fillets"])) == (18, 33, 80)
    doc = cubic_lattice((3, 3, 3), 0)
    assert (len(doc["hubs"]), len(doc["beams"]), len(doc["fillets"])) == (27, 54, 144)
    assert all(0.75 <= f["beta"] <= 1.5 for f in doc["fillets"])


def test_mesh_check_accepts_closed_outward_mesh():
    assert checks.mesh_problems(OCTA_VERTS, OCTA_TRIS) == []
    assert checks.mesh_problems(*checks.read_stl_mesh(stl_bytes(OCTA_VERTS, OCTA_TRIS))) == []


def test_mesh_check_rejects_removed_triangle():
    holed = OCTA_TRIS[1:]
    assert checks.mesh_problems(OCTA_VERTS, holed)
    assert checks.mesh_problems(*checks.read_stl_mesh(stl_bytes(OCTA_VERTS, holed)))


def test_mesh_check_rejects_flipped_triangle():
    flipped = OCTA_TRIS.copy()
    flipped[3] = flipped[3, ::-1]
    assert checks.mesh_problems(OCTA_VERTS, flipped)
    assert checks.mesh_problems(*checks.read_stl_mesh(stl_bytes(OCTA_VERTS, flipped)))
    # All triangles flipped is consistent but faces inward.
    assert checks.mesh_problems(OCTA_VERTS, OCTA_TRIS[:, ::-1])


def test_metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_tracer_nests_and_restores():
    def inner(x):
        return x + 1

    mod = types.SimpleNamespace(inner=inner)
    tracer = Tracer()
    tracer.install({"mod": mod}, [("mod", "inner", "layer.inner")])
    assert tracer.call("cli.outer", lambda: mod.inner(1) + mod.inner(2)) == 5
    tracer.restore()
    assert mod.inner is inner
    totals = tracer.totals()
    assert totals["layer.inner"][0] == 2 and totals["cli.outer"][0] == 1
    assert tracer.totals(parent="cli.outer")["layer.inner"][0] == 2
    assert tracer.self_times()["cli.outer"] <= totals["cli.outer"][1]


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
