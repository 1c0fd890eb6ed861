"""Output checks for each CLI command the benchmark runs.

Every check returns a list of problems; an empty list means the output is
correct.  The mesh checks read the written file back, so they test what a
user of the CLI gets, not the in-memory mesh.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

SAMPLE_HEADER = "x,y,z,value,state,label"


def printed_count(stdout: str, noun: str) -> int | None:
    """The ``N`` of a ``N <noun> -> path`` line the CLI prints."""
    match = re.search(rf"^(\d+) {noun} -> ", stdout, re.MULTILINE)
    return int(match.group(1)) if match else None


def edge_problems(triangles: np.ndarray) -> list[str]:
    """Watertight and consistently oriented: every directed edge appears
    once and every undirected edge twice."""
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if len(tris) == 0:
        return ["mesh has no triangles"]
    a = tris.ravel()
    b = tris[:, [1, 2, 0]].ravel()
    if np.any(a == b):
        return ["mesh has a degenerate triangle"]
    n = int(tris.max()) + 1
    problems = []
    _, directed = np.unique(a * n + b, return_counts=True)
    if np.any(directed != 1):
        problems.append(f"{int(np.sum(directed != 1))} directed edges used more than once")
    _, undirected = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
    if np.any(undirected != 2):
        problems.append(f"{int(np.sum(undirected != 2))} edges not shared by exactly two triangles")
    return problems


def signed_volume(vertices: np.ndarray, triangles: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)[np.asarray(triangles, dtype=np.int64)]
    return float(np.einsum("ij,ij->", v[:, 0], np.cross(v[:, 1], v[:, 2]))) / 6.0


def mesh_problems(vertices: np.ndarray, triangles: np.ndarray) -> list[str]:
    problems = edge_problems(triangles)
    if not problems and signed_volume(vertices, triangles) <= 0.0:
        problems.append("mesh is oriented inward (signed volume <= 0)")
    return problems


_STL_RECORD = np.dtype([("normal", "<f4", 3), ("verts", "<f4", (3, 3)), ("attr", "<u2")])


def read_stl_mesh(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Weld a binary STL by exact float32 coordinates into (vertices, triangles)."""
    records = np.frombuffer(data, dtype=_STL_RECORD, offset=84)
    corners = np.ascontiguousarray(records["verts"].reshape(-1, 3))
    keys = corners.view(np.dtype((np.void, corners.dtype.itemsize * 3))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return corners[first].astype(float), inverse.reshape(-1, 3)


def stl_problems(path: Path, count: int | None) -> list[str]:
    if count is None:
        return ["no triangle count printed"]
    data = path.read_bytes()
    if len(data) != 84 + 50 * count:
        return [f"STL is {len(data)} bytes, expected 84 + 50*{count}"]
    if int.from_bytes(data[80:84], "little") != count:
        return ["STL header count differs from the printed count"]
    return mesh_problems(*read_stl_mesh(data))


def read_obj_mesh(text: str) -> tuple[np.ndarray, np.ndarray]:
    verts = []
    faces = []
    for line in text.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "v":
            verts.append([float(x) for x in rest.split()])
        elif tag == "f":
            faces.append([int(x) - 1 for x in rest.split()])
    return np.array(verts, dtype=float).reshape(-1, 3), np.array(faces, dtype=np.int64).reshape(-1, 3)


def obj_mesh_problems(path: Path, count: int | None) -> list[str]:
    if count is None:
        return ["no triangle count printed"]
    vertices, triangles = read_obj_mesh(path.read_text(encoding="ascii"))
    if len(triangles) != count:
        return [f"OBJ has {len(triangles)} faces, printed {count}"]
    if len(triangles) and (triangles.min() < 0 or triangles.max() >= len(vertices)):
        return ["OBJ face index out of range"]
    return mesh_problems(vertices, triangles)


def sample_problems(path: Path, n_points: int) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SAMPLE_HEADER:
        return [f"sample CSV header is not {SAMPLE_HEADER!r}"]
    if len(lines) - 1 != n_points:
        return [f"sample CSV has {len(lines) - 1} rows, expected {n_points}"]
    return []


def verify_problems(path: Path) -> list[str]:
    summary = json.loads(path.read_text(encoding="utf-8"))["summary"]
    return [] if summary["fail"] == 0 else [f"verify report has {summary['fail']} failures"]


def conics_problems(path: Path, stdout: str, n_fillets: int) -> list[str]:
    polylines = sum(
        1 for line in path.read_text(encoding="ascii").splitlines() if line.startswith("l ")
    )
    expected = 2 * n_fillets
    if polylines != expected or printed_count(stdout, "polylines") != expected:
        return [f"conics wrote {polylines} polylines, expected {expected}"]
    return []


def classify_problems(stdout: str, n_beams: int, n_fillets: int) -> list[str]:
    rows = stdout.splitlines()[1:]
    beams = sum(1 for r in rows if r.startswith("beam "))
    fillets = sum(1 for r in rows if r.startswith("fillet "))
    if (beams, fillets) != (n_beams, n_fillets):
        return [f"classify listed {beams} beams and {fillets} fillets, "
                f"expected {n_beams} and {n_fillets}"]
    return []
