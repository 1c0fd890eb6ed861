"""Mesh, polyline and CSV writers.

Binary STL layout: 80-byte header, little-endian uint32 triangle count,
then 50 bytes per triangle (12 little-endian float32: normal + three
vertices, plus a zero uint16 attribute), so the file length is always
``84 + 50 * n``.  OBJ output is ASCII with 1-based indices; conic exports
use ``l`` polyline records with metadata comments.  All writers are
deterministic: identical input produces byte-identical output.

OBJ rows are built ``_OBJ_ROWS`` at a time as one fixed-width bytes table
per chunk (prefix, field, space, ..., newline), whose NUL padding is then
stripped.  A chunk's coordinates are made unique by their bits, so each
distinct value goes through :func:`format_values` once (marching-cubes
vertices have two of three coordinates on grid planes); vertex numbers are
formatted once per mesh.  Stripping every NUL is safe because the table
holds only number text; comments and ids never enter it.

Every output, including the CLI's CSV and JSON, goes through
:func:`write_output`: the bytes go to a fresh sibling temp file, which is
then renamed onto the output name, so no run leaves a partial output.  An
existing output is unlinked before the rename rather than replaced by it:
on ext4, truncating a file or renaming over one whose blocks are not yet
written forces a synchronous flush (50-150 ms per rewrite), and a rename
onto a free name does not.  Symlinks, devices, FIFOs, read-only files and
directories that cannot hold the temp file are written in place, as by
``open(path, "wb")``.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .algebra import _cross3
from .errors import StlRangeError
from .solid import _BATCH, Mesh

__all__ = [
    "write_stl",
    "write_obj_mesh",
    "write_obj_polylines",
    "format_values",
    "write_output",
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
    normals = _cross3(b - a, c - a)
    # A (1, 3) @ (3, 1) matmul takes the same dot product as np.linalg.norm
    # of one vector, so the normals match a per-triangle norm bit for bit.
    norms = np.sqrt(normals[:, None, :] @ normals[:, :, None])[:, 0]
    np.divide(normals, norms, out=normals, where=norms > 0.0)
    records = np.zeros(len(corners), dtype=_STL_RECORD)
    with np.errstate(over="ignore"):
        records["normal"] = normals
        records["vertices"] = corners
    # One mask at a time, and the second only after an overflow, keeps the
    # peak memory at the records plus one boolean per value.
    for field, values in (("normal", normals), ("vertices", corners)):
        infinite = np.isinf(records[field])
        if infinite.any():
            overflow = infinite & np.isfinite(values)
            if overflow.any():
                value = float(values[overflow][0])
                raise StlRangeError(f"STL {field} value {value!r} is outside the float32 range")
    # The record array goes out through the buffer protocol, not as a copy.
    write_output(path, _STL_HEADER, struct.pack("<I", len(records)), records)
    return len(records)


def write_output(path: str | os.PathLike, *chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` as one fresh file.

    A missing path or a writable regular file gets a new file: the chunks
    go to ``.{name}.{pid}.{random}.tmp`` beside it, which takes the old
    file's permission bits and, once the old file is unlinked, its name.
    The temp file is removed again if anything fails.  Any other path is
    written in place, as is one whose directory cannot hold the temp file
    or will not let the old file be unlinked.
    """
    path = os.fspath(path)
    if _replaceable(path) and _write_fresh(path, chunks):
        return
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _replaceable(path: str) -> bool:
    try:
        return stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK)
    except FileNotFoundError:
        return True
    except OSError:
        return False


def _write_fresh(path: str, chunks) -> bool:
    head, name = os.path.split(path)
    temp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, "xb")
    except OSError:
        return False
    try:
        with fh:
            fh.writelines(chunks)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(temp, stat.S_IMODE(os.stat(path).st_mode))
            os.unlink(path)
        os.rename(temp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        # A sticky directory lets another user's file be written, not unlinked.
        if not isinstance(exc, PermissionError):
            raise
        return False
    return True


def format_values(values: np.ndarray) -> list[str]:
    """Each value of a float array, in C order, as the shortest decimal that
    reads back exactly; integral values below 1e16 in size print as integers
    (``-0.0`` as ``0``), and non-finite ones as ``inf``, ``-inf`` or ``nan``.

    One ``repr`` formats them all.  A value's ``repr`` ends in ``.0`` exactly
    where it is integral and below 1e16 in size, and only ``-0.0`` then ends
    in ``-0``, so two replaces give the integers.
    """
    if not np.size(values):
        return []
    text = repr(np.ravel(values).tolist())[1:-1] + ","
    return text.replace(".0,", ",").replace("-0,", "0,")[:-1].split(", ")


# Rows of text per chunk handed to write_output: _BATCH numbers, 4 a sample row.
_OBJ_ROWS = _BATCH // 4


def _rows(prefix: bytes, fields: np.ndarray) -> bytes:
    """``prefix f1 f2 ... fk`` rows, one per row of the ``(n, k)`` bytes
    array ``fields``, built as one fixed-width table."""
    n, k = fields.shape
    table = np.empty((n, 2 * k + 1), dtype=f"S{max(fields.itemsize, len(prefix))}")
    table[:, 0] = prefix
    table[:, 1::2] = fields
    table[:, 2:-1:2] = b" "
    table[:, -1] = b"\n"
    return table.tobytes().translate(None, b"\0")


def _obj_vertex_rows(vertices: np.ndarray) -> list[bytes]:
    """``v x y z`` rows, each value as :func:`format_values` prints it, in
    chunks of ``_OBJ_ROWS`` rows."""
    chunks = []
    for start in range(0, len(vertices), _OBJ_ROWS):
        values = np.ravel(vertices[start : start + _OBJ_ROWS])
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        text = np.array(format_values(bits.view(np.float64)), dtype="S")
        chunks.append(_rows(b"v ", text[inverse].reshape(-1, 3)))
    return chunks


def write_obj_mesh(mesh: Mesh, path: str | Path) -> int:
    """Write OBJ ``v``/``f`` records (1-based indices); returns the triangle count."""
    chunks = _obj_vertex_rows(mesh.vertices)
    count = len(mesh.vertices)
    numbers = np.arange(1, count + 1).astype(f"S{len(str(count))}")
    for start in range(0, len(mesh.triangles), _OBJ_ROWS):
        chunks.append(_rows(b"f ", numbers[mesh.triangles[start : start + _OBJ_ROWS]]))
    write_output(path, *(chunks or [b"\n"]))
    return len(mesh.triangles)


def write_obj_polylines(
    curves: list[tuple[np.ndarray, bool, str]], path: str | Path
) -> int:
    """Write polylines as OBJ ``v``/``l`` records.

    Each curve is (points, closed, comment); closed curves repeat their
    first index at the end of the ``l`` record.  Returns the polyline count.
    """
    chunks = []
    base = 1
    for points, closed, comment in curves:
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if comment:
            chunks.append(f"# {comment}\n".encode("utf-8"))
        chunks += _obj_vertex_rows(points)
        idx = [*range(base, base + len(points)), *([base] if closed else [])]
        chunks.append(("l " + " ".join(map(str, idx)) + "\n").encode("ascii"))
        base += len(points)
    write_output(path, *(chunks or [b"\n"]))
    return len(curves)
