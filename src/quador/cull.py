"""The mesh field behind :func:`~quador.solid.field_grid`: the grid formula,
the bounds whose slack covers its rounding, and both fills, culled bricks
for three axis vectors and budgeted slabs for any other broadcast.

The grid formula (:func:`_form_grid`) expands each form term by term and
min-reduces the parts by ``np.minimum`` in part order, elementwise, so no
value's bits depend on how the work is split or broadcast.  The point
path's BLAS products and ``np.fmin`` (:func:`~quador.solid.field_value`)
differ from it in the last bits of about a quarter of the values, and give
inf where it gives NaN at (1e160, 1e160, 0).  Both stay: the reference
digests pin the meshes to this formula and ``sample.csv`` to that one.

A part matters only near its own hub, so most of the assembly's parts
cannot hold the minimum at a given grid point.  The grid is split into
bricks of 32 points a side, halved down to leaves of 4; an edge brick
moves back to end at the grid's edge, so a brick lies in its parent and
every leaf has the leaf shape.  Each form is bounded on a brick with centre
``m`` and half-extent ``h`` by ``|f(m + d) - f(m)| <= 2 sum |(Am + b)_i|
h_i + sum |A_ij| max(h_i)^2``, padded by a rounding slack that scales with
the sizes of the terms.  A part's bounds are the largest of its forms'.  A
brick keeps the parts whose lower bound is at most the smallest upper
bound over all parts, or all of them where a bound is not finite (a form
may overflow there); its children start from its list.  A culled part is
strictly above the minimum at every point of its brick, so leaving it out
changes no bit of the grid.

Every brick is culled down to its leaves, however many forms they keep.
Each kept part is evaluated over all its leaves at once, by the grid
formula, and folded into the grid in part order.  NaN propagates
through ``min`` in any order, and of equal values (``0.0``, ``-0.0``)
``np.minimum`` keeps the later part's, which every leaf over a point
keeps too.  Gathering costs 1.2 to 1.5 times what broadcasting does per
value, so broadcasting a top brick would pay only where its leaves keep
more than about 70% of all forms: no top brick of the benchmark grids
comes near (62% at most, on the 6-part fixture), and only a lattice of
very few parts, whose leaves keep them all, pays up to that factor.

Bricks are bounded in batches of at most ``_BATCH`` (brick, form) rows
and ``_BATCH // 9`` bricks.  A row reads 21 values, 12 of its form and 9
of its brick's box, and each column is gathered only when the bound
reads it: bounding a batch holds about 16 values a row at once, indices
and temporaries included, where gathering the 21 columns first would
hold about 29.

Meshing alone reads this module, so :mod:`quador.solid` imports it on
first use and the other commands do not compile it; it imports nothing
from :mod:`quador.solid` and reads the part table's ``stack`` and
``bounds`` only.  It calls no numpy function that imports :mod:`numpy.ma`
(a plain ``np.unique`` does), which raised the mesh's peak RSS by 1 MB.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .algebra import _BATCH

# Bricks of _BRICK points a side are halved down to leaves of _LEAF.  Half and
# twice _BATCH measured 8-23% slower on the benchmark grids, and twice it
# raised marching_cubes' peak memory.
_BRICK = 32
_LEAF = 4
_SIZES = tuple(_BRICK >> k for k in range((_BRICK // _LEAF).bit_length()))
# Rounding slack per unit of term size (256 ulps), and the largest term size
# for which a bound counts as finite (no partial sum of the formula overflows).
_ROUNDING = 2.0 ** -44
_TERMS_MAX = 2.0 ** 1020


# A's upper triangle, which the grid formula reads, and where each entry of
# the symmetric matrix sits in it.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYM = [[_UPPER.index((min(i, j), max(i, j))) for j in range(3)] for i in range(3)]


def _form_grid(A, b, c, x, y, z):
    """One form's values over broadcast coordinates; ``A is None`` for a plane.

    A fixed summation order keeps each value's bits whatever the slab, brick
    or broadcast: a plane row takes ``2 (b . X) + c``, the bits of
    ``g . X + c0``.
    """
    linear = 2.0 * (b[0] * x + b[1] * y + b[2] * z)
    if A is None:
        return linear + c
    return (A[0, 0] * x * x + A[1, 1] * y * y + A[2, 2] * z * z
            + 2.0 * (A[0, 1] * x * y + A[0, 2] * x * z + A[1, 2] * y * z)
            + linear + c)


def _lower_to_parts(out, table, parts, x, y, z):
    """Lower ``out`` to each listed part's value, the max of its forms', at
    the broadcast points ``x, y, z``, part by part in the listed order."""
    A, b, c = table.stack
    for p in parts:
        forms = (_form_grid(A[i] if A[i].any() else None, b[i, 0], c[i], x, y, z)
                 for i in range(table.bounds[p], table.bounds[p + 1]))
        np.minimum(out, functools.reduce(np.maximum, forms), out=out)


def fill_grid(table, X, Y, Z):
    """The field of a part table over broadcastable coordinate arrays, as
    :func:`~quador.solid.field_grid` documents it."""
    X, Y, Z = (np.asarray(a, dtype=float) for a in (X, Y, Z))
    shape = np.broadcast_shapes(X.shape, Y.shape, Z.shape)
    out = np.full(shape or (1,), math.inf)  # a scalar is one slab of one point
    X, Y, Z = (a.reshape((1,) * (out.ndim - a.ndim) + a.shape) for a in (X, Y, Z))
    if (len(table.bounds) > 1 and out.ndim == 3 and out.size
            and all(a.size == a.shape[i] for i, a in enumerate((X, Y, Z)))):
        culled_grid(out, table, tuple(a.ravel() for a in (X, Y, Z)))
        return out
    step = max(1, _BATCH // max(1, math.prod(out.shape[1:])))
    for start in range(0, len(out), step):
        slab = slice(start, start + step)
        _lower_to_parts(out[slab], table, range(len(table.bounds) - 1),
                        *(a[slab] if len(a) > 1 else a for a in (X, Y, Z)))
    return out.reshape(shape)


def _form_table(A, b, c):
    """What bounding reads of forms ``A (m, 3, 3)``, ``b (m, 3)``, ``c (m,)``,
    one column each: A's upper triangle, ``b``, ``c``, ``||A|| = sum |A_ij|``
    over the symmetric matrix and ``2 sum |b_i|``."""
    U = np.array([A[:, i, j] for i, j in _UPPER])
    weight = np.array([1.0 if i == j else 2.0 for i, j in _UPPER])
    return np.vstack([U, b.T, c, weight @ np.abs(U), 2.0 * np.abs(b).sum(axis=1)])


def _box(lo, hi):
    """What bounding reads of boxes ``lo, hi (3, n)``, one column each: the
    centre ``m``, the half-extent ``h``, the largest ``h_i`` squared, and the
    largest ``|coordinate|`` ``X`` and its square."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = 0.5 * (hi - lo)
        X = np.maximum(np.abs(lo), np.abs(hi)).max(axis=0)
        return np.vstack([0.5 * (lo + hi), h, h.max(axis=0) ** 2, X, X * X])


def _form_bounds(form, box, form_at, box_at):
    """Bounds on every value :func:`_form_grid` gives in a box, for columns
    of :func:`_form_table` and :func:`_box`: bound ``k`` reads form
    ``form_at[k]`` and box ``box_at[k]``, each column only when read.

    With centre ``m`` and half-extent ``h``, ``|f(m + d) - f(m)| <= 2 sum
    |(Am + b)_i| h_i + ||A|| max(h_i)^2``.  The slack covers the rounding
    of ``f(m)``, of the bound and of the grid formula: each is a few dozen
    ulps of the largest term size ``M = ||A|| X^2 + 2 sum |b_i| X + |c|``,
    never of ``|f|``, so cancelling coefficients stay covered.  The bounds
    are not finite unless ``M < _TERMS_MAX``.
    """
    m = [box[i][box_at] for i in range(3)]
    c, norm_A = form[9][form_at], form[10][form_at]
    with np.errstate(over="ignore", invalid="ignore"):
        fm, r = c, norm_A * box[6][box_at]
        for i, (j0, j1, j2) in enumerate(_SYM):
            b = form[6 + i][form_at]
            g = (form[j0][form_at] * m[0] + form[j1][form_at] * m[1]
                 + form[j2][form_at] * m[2] + b)
            fm = fm + m[i] * (g + b)
            r = r + 2.0 * np.abs(g) * box[3 + i][box_at]
        M = norm_A * box[8][box_at] + form[11][form_at] * box[7][box_at] + np.abs(c)
        pad = r + np.where(M < _TERMS_MAX, _ROUNDING * M + 2.0 ** -1000, math.inf)
        return fm - pad, fm + pad


class _Grid(NamedTuple):
    """What the culled fill reads."""

    out: np.ndarray
    axes: tuple  # the three coordinate vectors
    table: tuple  # the assembly's part table; its stack and bounds are read
    forms: np.ndarray  # _form_table of the stack
    nforms: np.ndarray  # forms per part
    points: dict  # brick size -> per axis, _brick_points
    boxes: dict  # brick size -> per axis, each brick's (lowest, highest) coordinate


def _brick_points(n, s):
    """Grid indices of each brick of ``s`` points along an axis of ``n``:
    brick ``k`` starts at ``k s``, moved back to end at the edge (so it
    overlaps its neighbour) and clamped where ``n < s``.  A brick then lies
    in its parent, and a leaf's points fill the leaf shape."""
    starts = np.minimum(np.arange(0, n, s), max(n - s, 0))
    return np.minimum(starts[:, None] + np.arange(s), n - 1)


def _ranges(starts, counts):
    """Concatenated ``arange(s, s + n)`` for each start ``s`` and count ``n``."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


# A brick's eight children, as offsets of their brick coordinates.
_CHILDREN = np.array(list(itertools.product((0, 1), repeat=3)))


def culled_grid(out, table, axes):
    """Fill ``out``, all ``inf``, over the grid of three axis vectors, a
    few top bricks at a time."""
    A, b, c = table.stack
    points = {s: [_brick_points(len(a), s) for a in axes] for s in _SIZES}
    grid = _Grid(out, axes, table, _form_table(A, b[:, 0], c), np.diff(table.bounds), points,
                 {s: [(a[p].min(axis=1), a[p].max(axis=1)) for a, p in zip(axes, points[s])]
                  for s in _SIZES})
    top = np.array(list(itertools.product(*(range(len(p)) for p in points[_BRICK]))))
    per_group = _BATCH // (_BRICK // _LEAF) ** 3  # top bricks whose leaves fill a batch
    for group in np.array_split(top, -(-len(top) // per_group)):
        _lower_leaves(grid, *_cull_down(grid, group))


def _cull_down(grid, top):
    """Bound the top bricks' parts, then their descendants' inherited ones,
    down to the leaves.  Returns the kept (leaf, part) pairs."""
    nparts = len(grid.nforms)
    work = [(0, top, np.repeat(np.arange(len(top)), nparts), np.tile(np.arange(nparts), len(top)))]
    leaves = [(np.empty((0, 3), int), np.empty(0, int))]
    while work:
        level, bricks, pair_brick, pair_part = work.pop()
        s = _SIZES[level]
        # At most _BATCH (brick, form) rows, and bricks whose 9 box values
        # fill _BATCH, at a time; the rest waits.
        rows = np.cumsum(np.bincount(pair_brick, grid.nforms[pair_part], len(bricks)))
        cut = max(1, min(int(np.searchsorted(rows, _BATCH, side="right")), _BATCH // 9))
        if cut < len(bricks):
            rest = np.searchsorted(pair_brick, cut)
            work.append((level, bricks[cut:], pair_brick[rest:] - cut, pair_part[rest:]))
            bricks, pair_brick, pair_part = bricks[:cut], pair_brick[:rest], pair_part[:rest]
        box = _box(*(np.array([q[end][k] for q, k in zip(grid.boxes[s], bricks.T)])
                     for end in (0, 1)))
        keep = _cull(grid, box, pair_brick, pair_part)
        if s == _LEAF:
            leaves.append((bricks[pair_brick[keep]], pair_part[keep]))
        elif keep.any():
            # Children inherit their parent's kept parts.
            counts = np.bincount(pair_brick[keep], minlength=len(bricks))
            parents = np.flatnonzero(counts)
            counts = counts[parents]
            children = (2 * bricks[parents][:, None, :] + _CHILDREN).reshape(-1, 3)
            valid = np.all(children * (s // 2) < grid.out.shape, axis=1)
            parent_of = np.repeat(np.arange(len(parents)), len(_CHILDREN))[valid]
            work.append((level + 1, children[valid],
                         np.repeat(np.arange(valid.sum()), counts[parent_of]),
                         pair_part[keep][_ranges((np.cumsum(counts) - counts)[parent_of],
                                                 counts[parent_of])]))
    return tuple(map(np.concatenate, zip(*leaves)))


def _cull(grid, box, pair_brick, pair_part):
    """Which (brick, part) pairs can hold their brick's minimum.  Pairs are
    sorted by brick; ``box`` is the bricks' :func:`_box`.

    A part's bounds are the largest of its forms' bounds; a pair is kept
    when its lower bound is at most the brick's smallest upper bound, or
    when any of the brick's bounds is not finite.
    """
    nforms = grid.nforms[pair_part]
    starts = np.flatnonzero(np.diff(pair_brick, prepend=-1))  # every brick has pairs
    lower, upper = _form_bounds(
        grid.forms, box, _ranges(grid.table.bounds[pair_part], nforms),
        np.repeat(np.arange(len(starts)), np.add.reduceat(nforms, starts)))
    first = np.cumsum(nforms) - nforms
    lower, upper = np.maximum.reduceat(lower, first), np.maximum.reduceat(upper, first)
    finite = np.isfinite(np.maximum.reduceat(upper, starts))  # so lower is finite too
    least = np.minimum.reduceat(upper, starts)
    return (lower <= least[pair_brick]) | ~finite[pair_brick]


def _lower_leaves(grid, bricks, parts):
    """Lower each listed leaf brick of the result to its listed parts, part
    by part: a part's leaves are broadcast together, their points on the
    leading axes and the leaves on the last."""
    order = np.argsort(parts, kind="stable")
    bricks, parts = bricks[order], parts[order]
    starts = np.flatnonzero(np.diff(parts, prepend=-1)).tolist()
    flat = grid.out.reshape(-1)
    n1, n2 = grid.out.shape[1:]
    shapes = ((_LEAF, 1, 1, -1), (1, _LEAF, 1, -1), (1, 1, _LEAF, -1))
    for p, s0, s1 in zip(parts[starts].tolist(), starts, starts[1:] + [len(parts)]):
        for s in range(s0, s1, _BATCH // _LEAF ** 3):
            bk = bricks[s:min(s + _BATCH // _LEAF ** 3, s1)].T
            i, j, k = (q.T.take(bk[a], axis=1).reshape(shape)
                       for a, (q, shape) in enumerate(zip(grid.points[_LEAF], shapes)))
            at = (i * n1 + j) * n2 + k
            v = flat[at]
            _lower_to_parts(v, grid.table, (p,), grid.axes[0][i], grid.axes[1][j], grid.axes[2][k])
            flat[at] = v
