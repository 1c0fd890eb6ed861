"""The bytes of the mesh and polyline files: binary STL records and OBJ
text rows (layouts in :mod:`quador.writers`).

Only ``mesh`` and ``conics`` write these files, so :mod:`quador.writers`
imports this module on first use: the other commands do not compile it.

STL records are filled ``_BATCH // 9`` triangles at a time.  OBJ rows are
built ``_OBJ_ROWS`` at a time as one fixed-width bytes table per chunk
(prefix, field, space, ..., newline), whose NUL padding is then stripped;
the row builders yield their chunks, so each is written before the next
is built.
A chunk of coordinate rows may run across curves; its coordinates are made
unique by their bits, so each distinct value goes through
:func:`~quador.writers.format_values` once (marching-cubes vertices have
two of three coordinates on grid planes).  Every ``f`` and ``l`` index is
formatted by one integer formatter, vertex numbers once per mesh.
Stripping every NUL is safe because the table holds only number text;
comments and ids never enter it.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .algebra import _BATCH, _cross3
from .errors import StlRangeError
from .writers import _STL_RECORD, format_values

# OBJ rows per chunk handed to write_output: at most _BATCH numbers, 3 a row.
_OBJ_ROWS = _BATCH // 4


def stl_records(mesh) -> np.ndarray:
    """The mesh's binary STL triangle records; raises :class:`StlRangeError`
    when a finite normal or vertex coordinate does not fit in float32."""
    records = np.zeros(len(mesh.triangles), dtype=_STL_RECORD)
    step = _BATCH // 9  # triangles per chunk, 9 coordinates each
    for start in range(0, len(records), step):
        corners = mesh.vertices[mesh.triangles[start : start + step]]
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        normals = _cross3(b - a, c - a)
        # A (1, 3) @ (3, 1) matmul takes the same dot product as np.linalg.norm
        # of one vector, so the normals match a per-triangle norm bit for bit.
        norms = np.sqrt(normals[:, None, :] @ normals[:, :, None])[:, 0]
        np.divide(normals, norms, out=normals, where=norms > 0.0)
        chunk = records[start : start + step]
        with np.errstate(over="ignore"):
            chunk["normal"] = normals
            chunk["vertices"] = corners
        for field, values in (("normal", normals), ("vertices", corners)):
            overflow = np.isinf(chunk[field]) & np.isfinite(values)
            if overflow.any():
                value = float(values[overflow][0])
                raise StlRangeError(f"STL {field} value {value!r} is outside the float32 range")
    return records


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


def _integers(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as decimal text: an ``S`` array as wide as the
    largest, a shorter number's leading places NUL (stripped by
    :func:`_rows`)."""
    width = len(str(values.max())) if values.size else 1
    digits = np.empty(values.shape + (width,), dtype=np.uint8)
    rest = values
    for place in range(width - 1, -1, -1):
        rest, digits[..., place] = np.divmod(rest, 10)
    digits += ord("0")
    digits[..., :-1] *= values[..., None] >= 10 ** np.arange(width - 1, 0, -1)
    return digits.view(f"S{width}")[..., 0]


def _coordinate_text(blocks) -> Iterator[np.ndarray]:
    """The rows of the ``(n, 3)`` point blocks, in order, as ``(k, 3)``
    bytes arrays of :func:`format_values` text: ``_OBJ_ROWS`` rows at a
    time, a chunk running on across block boundaries."""
    pending, size = [], 0
    for block in blocks:
        while len(block):
            pending.append(block[: _OBJ_ROWS - size])
            block = block[len(pending[-1]) :]
            size += len(pending[-1])
            if size == _OBJ_ROWS:
                yield _format_rows(pending)
                pending, size = [], 0
    if pending:
        yield _format_rows(pending)


def _format_rows(blocks: list[np.ndarray]) -> np.ndarray:
    """The rows of the point blocks as one bytes array, each distinct value
    formatted once."""
    values = np.concatenate(blocks).ravel()
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(format_values(bits.view(np.float64)), dtype="S")
    return text[inverse].reshape(-1, 3)


def _polyline_row(first: int, count: int, closed: bool) -> bytes:
    """The ``l`` record of ``count`` vertices numbered from ``first``, the
    first repeated at the end when ``closed``."""
    numbers = np.arange(first, first + count + closed)
    numbers[count:] = first
    return _rows(b"l ", _integers(numbers)[None]) if len(numbers) else b"l \n"


def obj_mesh_rows(mesh) -> Iterator[bytes]:
    """The mesh's OBJ ``v`` and ``f`` rows (1-based indices), in chunks; an
    empty mesh is one newline."""
    if not len(mesh.vertices) and not len(mesh.triangles):
        yield b"\n"
    for text in _coordinate_text([mesh.vertices]):
        yield _rows(b"v ", text)
    numbers = _integers(np.arange(1, len(mesh.vertices) + 1))
    for start in range(0, len(mesh.triangles), _OBJ_ROWS):
        yield _rows(b"f ", numbers[mesh.triangles[start : start + _OBJ_ROWS]])


def obj_polyline_rows(curves) -> Iterator[bytes]:
    """The OBJ ``v`` and ``l`` rows of (points, closed, comment) curves, in
    chunks, each curve's after its ``# comment`` line; no curves is one
    newline."""
    curves = [(np.asarray(points, dtype=float).reshape(-1, 3), closed, comment)
              for points, closed, comment in curves]
    if not curves:
        yield b"\n"
    texts = _coordinate_text([points for points, _, _ in curves])
    text = np.empty((0, 3), dtype="S1")  # formatted rows not yet written
    base = 1
    for points, closed, comment in curves:
        if comment:
            yield f"# {comment}\n".encode("utf-8")
        left = len(points)
        while left:
            if not len(text):
                text = next(texts)
            piece, text = text[:left], text[left:]
            yield _rows(b"v ", piece)
            left -= len(piece)
        yield _polyline_row(base, len(points), closed)
        base += len(points)
