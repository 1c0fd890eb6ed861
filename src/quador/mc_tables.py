"""Marching cubes: the standard 256-case tables, and the extraction that
reads them.

Vertex layout: v0 at the cell origin, v1 = +x, v2 = +x+y, v3 = +y,
v4..v7 the same square at +z.  Edge k joins EDGE_VERTS[k].  Cube index
bit i is set when the field at vertex i is below the isolevel.

Only meshing needs this module, so :func:`quador.solid.marching_cubes`
imports it on first use: the other commands do not compile it.
"""

import numpy as np

from .algebra import _BATCH

# TRI_TABLE[case] lists the edges of the case's triangles, three per
# triangle: one line per case below, blank for cases 0 and 255.  Parsed
# at import, the text compiles in far less time than a tuple literal.
TRI_TABLE = tuple(tuple(map(int, line.split())) for line in """\

0 8 3
0 1 9
1 8 3 9 8 1
1 2 10
0 8 3 1 2 10
9 2 10 0 2 9
2 8 3 2 10 8 10 9 8
3 11 2
0 11 2 8 11 0
1 9 0 2 3 11
1 11 2 1 9 11 9 8 11
3 10 1 11 10 3
0 10 1 0 8 10 8 11 10
3 9 0 3 11 9 11 10 9
9 8 10 10 8 11
4 7 8
4 3 0 7 3 4
0 1 9 8 4 7
4 1 9 4 7 1 7 3 1
1 2 10 8 4 7
3 4 7 3 0 4 1 2 10
9 2 10 9 0 2 8 4 7
2 10 9 2 9 7 2 7 3 7 9 4
8 4 7 3 11 2
11 4 7 11 2 4 2 0 4
9 0 1 8 4 7 2 3 11
4 7 11 9 4 11 9 11 2 9 2 1
3 10 1 3 11 10 7 8 4
1 11 10 1 4 11 1 0 4 7 11 4
4 7 8 9 0 11 9 11 10 11 0 3
4 7 11 4 11 9 9 11 10
9 5 4
9 5 4 0 8 3
0 5 4 1 5 0
8 5 4 8 3 5 3 1 5
1 2 10 9 5 4
3 0 8 1 2 10 4 9 5
5 2 10 5 4 2 4 0 2
2 10 5 3 2 5 3 5 4 3 4 8
9 5 4 2 3 11
0 11 2 0 8 11 4 9 5
0 5 4 0 1 5 2 3 11
2 1 5 2 5 8 2 8 11 4 8 5
10 3 11 10 1 3 9 5 4
4 9 5 0 8 1 8 10 1 8 11 10
5 4 0 5 0 11 5 11 10 11 0 3
5 4 8 5 8 10 10 8 11
9 7 8 5 7 9
9 3 0 9 5 3 5 7 3
0 7 8 0 1 7 1 5 7
1 5 3 3 5 7
9 7 8 9 5 7 10 1 2
10 1 2 9 5 0 5 3 0 5 7 3
8 0 2 8 2 5 8 5 7 10 5 2
2 10 5 2 5 3 3 5 7
7 9 5 7 8 9 3 11 2
9 5 7 9 7 2 9 2 0 2 7 11
2 3 11 0 1 8 1 7 8 1 5 7
11 2 1 11 1 7 7 1 5
9 5 8 8 5 7 10 1 3 10 3 11
5 7 0 5 0 9 7 11 0 1 0 10 11 10 0
11 10 0 11 0 3 10 5 0 8 0 7 5 7 0
11 10 5 7 11 5
10 6 5
0 8 3 5 10 6
9 0 1 5 10 6
1 8 3 1 9 8 5 10 6
1 6 5 2 6 1
1 6 5 1 2 6 3 0 8
9 6 5 9 0 6 0 2 6
5 9 8 5 8 2 5 2 6 3 2 8
2 3 11 10 6 5
11 0 8 11 2 0 10 6 5
0 1 9 2 3 11 5 10 6
5 10 6 1 9 2 9 11 2 9 8 11
6 3 11 6 5 3 5 1 3
0 8 11 0 11 5 0 5 1 5 11 6
3 11 6 0 3 6 0 6 5 0 5 9
6 5 9 6 9 11 11 9 8
5 10 6 4 7 8
4 3 0 4 7 3 6 5 10
1 9 0 5 10 6 8 4 7
10 6 5 1 9 7 1 7 3 7 9 4
6 1 2 6 5 1 4 7 8
1 2 5 5 2 6 3 0 4 3 4 7
8 4 7 9 0 5 0 6 5 0 2 6
7 3 9 7 9 4 3 2 9 5 9 6 2 6 9
3 11 2 7 8 4 10 6 5
5 10 6 4 7 2 4 2 0 2 7 11
0 1 9 4 7 8 2 3 11 5 10 6
9 2 1 9 11 2 9 4 11 7 11 4 5 10 6
8 4 7 3 11 5 3 5 1 5 11 6
5 1 11 5 11 6 1 0 11 7 11 4 0 4 11
0 5 9 0 6 5 0 3 6 11 6 3 8 4 7
6 5 9 6 9 11 4 7 9 7 11 9
10 4 9 6 4 10
4 10 6 4 9 10 0 8 3
10 0 1 10 6 0 6 4 0
8 3 1 8 1 6 8 6 4 6 1 10
1 4 9 1 2 4 2 6 4
3 0 8 1 2 9 2 4 9 2 6 4
0 2 4 4 2 6
8 3 2 8 2 4 4 2 6
10 4 9 10 6 4 11 2 3
0 8 2 2 8 11 4 9 10 4 10 6
3 11 2 0 1 6 0 6 4 6 1 10
6 4 1 6 1 10 4 8 1 2 1 11 8 11 1
9 6 4 9 3 6 9 1 3 11 6 3
8 11 1 8 1 0 11 6 1 9 1 4 6 4 1
3 11 6 3 6 0 0 6 4
6 4 8 11 6 8
7 10 6 7 8 10 8 9 10
0 7 3 0 10 7 0 9 10 6 7 10
10 6 7 1 10 7 1 7 8 1 8 0
10 6 7 10 7 1 1 7 3
1 2 6 1 6 8 1 8 9 8 6 7
2 6 9 2 9 1 6 7 9 0 9 3 7 3 9
7 8 0 7 0 6 6 0 2
7 3 2 6 7 2
2 3 11 10 6 8 10 8 9 8 6 7
2 0 7 2 7 11 0 9 7 6 7 10 9 10 7
1 8 0 1 7 8 1 10 7 6 7 10 2 3 11
11 2 1 11 1 7 10 6 1 6 7 1
8 9 6 8 6 7 9 1 6 11 6 3 1 3 6
0 9 1 11 6 7
7 8 0 7 0 6 3 11 0 11 6 0
7 11 6
7 6 11
3 0 8 11 7 6
0 1 9 11 7 6
8 1 9 8 3 1 11 7 6
10 1 2 6 11 7
1 2 10 3 0 8 6 11 7
2 9 0 2 10 9 6 11 7
6 11 7 2 10 3 10 8 3 10 9 8
7 2 3 6 2 7
7 0 8 7 6 0 6 2 0
2 7 6 2 3 7 0 1 9
1 6 2 1 8 6 1 9 8 8 7 6
10 7 6 10 1 7 1 3 7
10 7 6 1 7 10 1 8 7 1 0 8
0 3 7 0 7 10 0 10 9 6 10 7
7 6 10 7 10 8 8 10 9
6 8 4 11 8 6
3 6 11 3 0 6 0 4 6
8 6 11 8 4 6 9 0 1
9 4 6 9 6 3 9 3 1 11 3 6
6 8 4 6 11 8 2 10 1
1 2 10 3 0 11 0 6 11 0 4 6
4 11 8 4 6 11 0 2 9 2 10 9
10 9 3 10 3 2 9 4 3 11 3 6 4 6 3
8 2 3 8 4 2 4 6 2
0 4 2 4 6 2
1 9 0 2 3 4 2 4 6 4 3 8
1 9 4 1 4 2 2 4 6
8 1 3 8 6 1 8 4 6 6 10 1
10 1 0 10 0 6 6 0 4
4 6 3 4 3 8 6 10 3 0 3 9 10 9 3
10 9 4 6 10 4
4 9 5 7 6 11
0 8 3 4 9 5 11 7 6
5 0 1 5 4 0 7 6 11
11 7 6 8 3 4 3 5 4 3 1 5
9 5 4 10 1 2 7 6 11
6 11 7 1 2 10 0 8 3 4 9 5
7 6 11 5 4 10 4 2 10 4 0 2
3 4 8 3 5 4 3 2 5 10 5 2 11 7 6
7 2 3 7 6 2 5 4 9
9 5 4 0 8 6 0 6 2 6 8 7
3 6 2 3 7 6 1 5 0 5 4 0
6 2 8 6 8 7 2 1 8 4 8 5 1 5 8
9 5 4 10 1 6 1 7 6 1 3 7
1 6 10 1 7 6 1 0 7 8 7 0 9 5 4
4 0 10 4 10 5 0 3 10 6 10 7 3 7 10
7 6 10 7 10 8 5 4 10 4 8 10
6 9 5 6 11 9 11 8 9
3 6 11 0 6 3 0 5 6 0 9 5
0 11 8 0 5 11 0 1 5 5 6 11
6 11 3 6 3 5 5 3 1
1 2 10 9 5 11 9 11 8 11 5 6
0 11 3 0 6 11 0 9 6 5 6 9 1 2 10
11 8 5 11 5 6 8 0 5 10 5 2 0 2 5
6 11 3 6 3 5 2 10 3 10 5 3
5 8 9 5 2 8 5 6 2 3 8 2
9 5 6 9 6 0 0 6 2
1 5 8 1 8 0 5 6 8 3 8 2 6 2 8
1 5 6 2 1 6
1 3 6 1 6 10 3 8 6 5 6 9 8 9 6
10 1 0 10 0 6 9 5 0 5 6 0
0 3 8 5 6 10
10 5 6
11 5 10 7 5 11
11 5 10 11 7 5 8 3 0
5 11 7 5 10 11 1 9 0
10 7 5 10 11 7 9 8 1 8 3 1
11 1 2 11 7 1 7 5 1
0 8 3 1 2 7 1 7 5 7 2 11
9 7 5 9 2 7 9 0 2 2 11 7
7 5 2 7 2 11 5 9 2 3 2 8 9 8 2
2 5 10 2 3 5 3 7 5
8 2 0 8 5 2 8 7 5 10 2 5
9 0 1 5 10 3 5 3 7 3 10 2
9 8 2 9 2 1 8 7 2 10 2 5 7 5 2
1 3 5 3 7 5
0 8 7 0 7 1 1 7 5
9 0 3 9 3 5 5 3 7
9 8 7 5 9 7
5 8 4 5 10 8 10 11 8
5 0 4 5 11 0 5 10 11 11 3 0
0 1 9 8 4 10 8 10 11 10 4 5
10 11 4 10 4 5 11 3 4 9 4 1 3 1 4
2 5 1 2 8 5 2 11 8 4 5 8
0 4 11 0 11 3 4 5 11 2 11 1 5 1 11
0 2 5 0 5 9 2 11 5 4 5 8 11 8 5
9 4 5 2 11 3
2 5 10 3 5 2 3 4 5 3 8 4
5 10 2 5 2 4 4 2 0
3 10 2 3 5 10 3 8 5 4 5 8 0 1 9
5 10 2 5 2 4 1 9 2 9 4 2
8 4 5 8 5 3 3 5 1
0 4 5 1 0 5
8 4 5 8 5 3 9 0 5 0 3 5
9 4 5
4 11 7 4 9 11 9 10 11
0 8 3 4 9 7 9 11 7 9 10 11
1 10 11 1 11 4 1 4 0 7 4 11
3 1 4 3 4 8 1 10 4 7 4 11 10 11 4
4 11 7 9 11 4 9 2 11 9 1 2
9 7 4 9 11 7 9 1 11 2 11 1 0 8 3
11 7 4 11 4 2 2 4 0
11 7 4 11 4 2 8 3 4 3 2 4
2 9 10 2 7 9 2 3 7 7 4 9
9 10 7 9 7 4 10 2 7 8 7 0 2 0 7
3 7 10 3 10 2 7 4 10 1 10 0 4 0 10
1 10 2 8 7 4
4 9 1 4 1 7 7 1 3
4 9 1 4 1 7 0 8 1 8 7 1
4 0 3 7 4 3
4 8 7
9 10 8 10 11 8
3 0 9 3 9 11 11 9 10
0 1 10 0 10 8 8 10 11
3 1 10 11 3 10
1 2 11 1 11 9 9 11 8
3 0 9 3 9 11 1 2 9 2 11 9
0 2 11 8 0 11
3 2 11
2 3 8 2 8 10 10 8 9
9 10 2 0 9 2
2 3 8 2 8 10 0 1 8 1 10 8
1 10 2
1 3 8 9 1 8
0 9 1
0 3 8

""".splitlines())

# Edge k connects cell vertices EDGE_VERTS[k][0] and EDGE_VERTS[k][1].
EDGE_VERTS = (
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 0),
    (4, 5),
    (5, 6),
    (6, 7),
    (7, 4),
    (0, 4),
    (1, 5),
    (2, 6),
    (3, 7),
)

# Cell-vertex offsets (dx, dy, dz) in grid steps.
VERT_OFFSETS = (
    (0, 0, 0),
    (1, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (0, 1, 1),
)

# Array forms for the polygonizer, built once at import.
# TRI_EDGES[case] is TRI_TABLE[case] padded with -1 to 16 entries, and
# CORNERS[case] is its length: 0 for a cell the surface does not cross.
TRI_EDGES = np.array([row + (-1,) * (16 - len(row)) for row in TRI_TABLE], dtype=np.int8)
CORNERS = np.array([len(row) for row in TRI_TABLE], dtype=np.uint8)
# Each edge's grid axis and the cell-vertex offset of its low end.
_ENDS = np.array(VERT_OFFSETS)[np.array(EDGE_VERTS)]  # (12, 2, 3)
EDGE_AXIS = np.argmax(_ENDS[:, 0] != _ENDS[:, 1], axis=1)
EDGE_LOW = _ENDS.min(axis=1)
# Where each corner of a triangle goes when corners 1 and 2 swap.
_SWAP = np.array([0, 1, -1])


def polygonize(F, coords):
    """The vertices and triangles of the zero level set of the grid ``F``
    over the axis vectors ``coords``; see :func:`quador.solid.marching_cubes`.

    Besides ``F`` and the result, no array holds more than ``_BATCH``
    values or a few bytes per triangle corner.
    """
    key, triangles = _weld(_corner_keys(F))
    return _vertices(F, coords, key), triangles


def _corner_keys(F):
    """One key per triangle corner, in cell order then table order: grid
    edge (axis, low end) has key ``axis * F.size`` plus the low end's flat
    index, which is the corner's cell index plus a per-edge offset.  Keys
    are int32 where every key fits.

    The cells' cases are found one x-slab of at most ``_BATCH`` grid points
    at a time, or of one cell layer where a layer holds more.
    """
    nx, ny, nz = (n - 1 for n in F.shape)
    plane = F[0].size
    strides = np.array([plane, nz + 1, 1])
    dtype = np.int32 if 3 * F.size < 2**31 else np.int64
    edge_offset = (EDGE_AXIS * F.size + EDGE_LOW @ strides).astype(dtype)
    # Flat offsets of cell vertices v0..v3; v4..v7 sit one z step above them.
    square = (np.array(VERT_OFFSETS[:4]) @ strides).tolist()
    keys = []
    step = max(1, _BATCH // plane - 1)  # cell layers per slab
    for x0 in range(0, nx, step):
        inside = (F[x0 : x0 + step + 1] < 0.0).view(np.uint8).reshape(-1)
        k = len(inside) // plane - 1
        # Each cell's case sits at its low corner in a slab shaped like F's,
        # so a cell's flat index is that corner's flat index into the slab.
        # Flat offsets read past a row's end: those cells, at y = ny or
        # z = nz, are then cleared, and every real cell lies below ``size``.
        size = k * plane - nz - 2
        low = np.zeros(size + 1, dtype=np.uint8)  # bits of v0..v3
        for bit, offset in enumerate(square):
            low |= inside[offset : offset + size + 1] << bit
        case = np.zeros((k, ny + 1, nz + 1), dtype=np.uint8)
        flat = case.reshape(-1)[:size]
        np.left_shift(low[1:], 4, out=flat)
        flat |= low[:-1]
        case[:, ny] = 0
        case[:, :, nz] = 0
        cells = np.flatnonzero(CORNERS[case])
        case = case.reshape(-1)[cells]
        edges = TRI_EDGES[case]
        cells = (cells + x0 * plane).astype(dtype)
        keys.append(np.repeat(cells, CORNERS[case]) + edge_offset[edges[edges >= 0]])
    return np.concatenate(keys)


def _weld(key):
    """Weld the corners on one grid edge: the vertices' keys, numbered by
    first use, and the triangles, wound for outward normals.

    A stable sort puts each edge's first corner first among its own; the
    vertices' ranks by first use then number every corner.
    """
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    order = np.argsort(perm[new])  # vertices, from key order to first-use order
    key = key[new][order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # Table winding faces the inside: corners 1 and 2 swap places.
    triangles = np.empty((len(perm) // 3, 3), dtype=np.int64)
    slot = triangles.reshape(-1)
    last = -1  # the vertex, in key order, of the sorted corner before the chunk
    for start in range(0, len(perm), _BATCH):
        vertex = np.cumsum(new[start : start + _BATCH]) + last
        corner = perm[start : start + _BATCH]
        slot[corner + _SWAP[corner % 3]] = rank[vertex]
        last = vertex[-1]
    return key, triangles


def _vertices(F, coords, key):
    """Each vertex on its grid edge, by linear interpolation from the
    canonical (low) end, so both adjacent cells produce bit-identical
    coordinates; ``_BATCH`` vertices at a time."""
    f = F.ravel()
    strides = np.array([F[0].size, F.shape[2], 1])
    vertices = np.empty((len(key), 3))
    for start in range(0, len(key), _BATCH):
        axis, low = np.divmod(key[start : start + _BATCH], F.size)
        f0 = f[low]
        f1 = f[low + strides[axis]]
        t = np.divide(f0, f0 - f1, out=np.full_like(f0, 0.5), where=f0 != f1)
        low = np.unravel_index(low, F.shape)
        chunk = vertices[start : start + _BATCH]
        for i in range(3):
            chunk[:, i] = coords[i][low[i]]
        for i in range(3):
            on = axis == i
            chunk[on, i] += t[on] * (coords[i][low[i][on] + 1] - coords[i][low[i][on]])
    return vertices
