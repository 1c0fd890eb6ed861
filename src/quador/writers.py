"""Mesh, polyline and CSV writers.

Binary STL layout: 80-byte header, little-endian uint32 triangle count,
then 50 bytes per triangle (12 little-endian float32: normal + three
vertices, plus a zero uint16 attribute), so the file length is always
``84 + 50 * n``.  OBJ output is ASCII with 1-based indices; conic exports
use ``l`` polyline records with metadata comments.  All writers are
deterministic: identical input produces byte-identical output.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import StlRangeError
from .solid import Mesh

__all__ = [
    "write_stl",
    "read_stl",
    "write_obj_mesh",
    "write_obj_polylines",
    "format_value",
]

_STL_HEADER = b"quador binary STL" + b"\x00" * 63
# One binary STL triangle record: 50 bytes, no padding.
_STL_RECORD = np.dtype(
    [("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attribute", "<u2")]
)


def write_stl(mesh: Mesh, path: str | Path) -> int:
    """Write binary STL; returns the triangle count.

    Raises :class:`StlRangeError` before the file is opened when a finite
    normal or vertex coordinate does not fit in float32.
    """
    corners = mesh.vertices[mesh.triangles]
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    normals = np.cross(b - a, c - a)
    # A (1, 3) @ (3, 1) matmul takes the same dot product as np.linalg.norm
    # of one vector, so the normals match a per-triangle norm bit for bit.
    norms = np.sqrt(normals[:, None, :] @ normals[:, :, None])[:, 0]
    np.divide(normals, norms, out=normals, where=norms > 0.0)
    records = np.zeros(len(corners), dtype=_STL_RECORD)
    with np.errstate(over="ignore"):
        records["normal"] = normals
        records["vertices"] = corners
    for field, values in (("normal", normals), ("vertices", corners)):
        overflow = np.isinf(records[field]) & np.isfinite(values)
        if overflow.any():
            value = float(values[overflow][0])
            raise StlRangeError(f"STL {field} value {value!r} is outside the float32 range")
    with open(path, "wb") as fh:
        fh.write(_STL_HEADER)
        fh.write(struct.pack("<I", len(records)))
        fh.write(records.tobytes())
    return len(records)


def read_stl(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read binary STL back as (normals, triangle vertices (n, 3, 3))."""
    data = Path(path).read_bytes()
    (count,) = struct.unpack_from("<I", data, 80)
    records = np.frombuffer(data, dtype=_STL_RECORD, count=count, offset=84)
    return records["normal"].astype(np.float32), records["vertices"].astype(np.float32)


def format_value(x: float) -> str:
    """Shortest exact decimal for a float; integral values print as integers."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def write_obj_mesh(mesh: Mesh, path: str | Path) -> int:
    lines = []
    # Row by row: Python scalars format faster than numpy ones, and a
    # whole-array tolist() would hold every element as an object at once.
    for x, y, z in map(np.ndarray.tolist, mesh.vertices):
        lines.append(f"v {format_value(x)} {format_value(y)} {format_value(z)}")
    for i, j, k in map(np.ndarray.tolist, mesh.triangles):
        lines.append(f"f {i + 1} {j + 1} {k + 1}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    return len(mesh.triangles)


def write_obj_polylines(
    curves: list[tuple[np.ndarray, bool, str]], path: str | Path
) -> int:
    """Write polylines as OBJ ``v``/``l`` records.

    Each curve is (points, closed, comment); closed curves repeat their
    first index at the end of the ``l`` record.  Returns the polyline count.
    """
    lines = []
    base = 1
    for points, closed, comment in curves:
        if comment:
            lines.append(f"# {comment}")
        for p in points:
            lines.append(
                f"v {format_value(p[0])} {format_value(p[1])} {format_value(p[2])}"
            )
        idx = list(range(base, base + len(points)))
        if closed:
            idx.append(base)
        lines.append("l " + " ".join(str(i) for i in idx))
        base += len(points)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    return len(curves)
