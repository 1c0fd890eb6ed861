"""Mesh, polyline and CSV writers.

Binary STL layout: 80-byte header, little-endian uint32 triangle count,
then 50 bytes per triangle (12 little-endian float32: normal + three
vertices, plus a zero uint16 attribute), so the file length is always
``84 + 50 * n``.  OBJ output is ASCII with 1-based indices; conic exports
use ``l`` polyline records with metadata comments.  All writers are
deterministic: identical input produces byte-identical output.

The STL records and OBJ rows are built in :mod:`quador.formats`.

Every output, including the CLI's CSV and JSON, goes through
:func:`write_output`, which takes one iterable of chunks and writes each as
it comes: OBJ rows and ``sample``'s CSV rows are made a block at a time as
they are written, so neither file is ever held whole.  The bytes go to a
fresh sibling temp file, which is then renamed onto the output name, so no
run leaves a partial output.  An existing output is unlinked before the
rename rather than replaced by it: on ext4, truncating a file or renaming
over one whose blocks are not yet written forces a synchronous flush
(50-150 ms per rewrite), and a rename onto a free name does not.
Symlinks, devices, FIFOs, read-only files and directories that cannot hold
the temp file are written in place, as by ``open(path, "wb")``.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import stat
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .solid import Mesh

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
    from .formats import stl_records  # only mesh and conics compile it

    records = stl_records(mesh)
    # The record array goes out through the buffer protocol, not as a copy.
    write_output(path, (_STL_HEADER, struct.pack("<I", len(records)), records))
    return len(records)


def write_output(path: str | os.PathLike, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks``, an iterable that may make each one
    as it is asked for, to ``path`` as one fresh file.

    A missing path or a writable regular file gets a new file: the chunks
    go to ``.{name}.{pid}.{random}.tmp`` beside it, which takes the old
    file's permission bits and, once the old file is unlinked, its name.
    The temp file is removed again if anything fails.  Any other path is
    written in place, as is one whose directory cannot hold the temp file;
    one whose directory will not let the old file be unlinked is written
    in place from the finished temp file, as the chunks are taken once.
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
        try:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(temp, stat.S_IMODE(os.stat(path).st_mode))
                os.unlink(path)
            os.rename(temp, path)
        except PermissionError:
            # A sticky directory lets another user's file be written, not unlinked.
            shutil.copyfile(temp, path)
            os.unlink(temp)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
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


def write_obj_mesh(mesh: Mesh, path: str | Path) -> int:
    """Write OBJ ``v``/``f`` records (1-based indices); returns the triangle count."""
    from .formats import obj_mesh_rows  # only mesh and conics compile it

    write_output(path, obj_mesh_rows(mesh))
    return len(mesh.triangles)


def write_obj_polylines(
    curves: list[tuple[np.ndarray, bool, str]], path: str | Path
) -> int:
    """Write polylines as OBJ ``v``/``l`` records.

    Each curve is (points, closed, comment); closed curves repeat their
    first index at the end of the ``l`` record.  Returns the polyline count.
    """
    from .formats import obj_polyline_rows  # only mesh and conics compile it

    write_output(path, obj_polyline_rows(curves))
    return len(curves)
