"""Scalar F_b reference routines that the tests compare the library against.

The library keeps every net's generating matrices in one digit array;
these are the plain integer algorithms on single ``Matrix`` tuples that it
replaced: reading a net's matrices and building a net from them, row
access, products and powers, matrix-vector products, row stacking, rank
by elimination of a whole digit array, single net points, and point
coordinates as floats or exact fractions.  The exact star discrepancy
sweep that evaluates its whole plane at every slice is kept here too, as
the reference for the pruned sweep.  Only tests call them, so they trust
their inputs.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import numpy as np

from rednets.discrepancy import _axis_grids
from rednets.nets import NetSpec

# An n_rows x n_cols matrix over F_base with its entries row-major in a tuple.
Matrix = namedtuple("Matrix", "base n_rows n_cols entries")


def matrices(net):
    """The generating matrices of a net as m x m ``Matrix`` values."""
    b, m, flat = net.base, net.m, net.digits.reshape(net.s, -1).tolist()
    return tuple(Matrix(b, m, m, tuple(ent)) for ent in flat)


def net_from_matrices(base, m, mats, **fields):
    """Net from m x m ``Matrix`` values; fields are declared_t and provenance."""
    return NetSpec(base, m, np.array([c.entries for c in mats]).reshape(-1, m, m), **fields)


def from_rows(base, rows, n_cols=None):
    """Matrix from a list of rows; n_cols is needed when rows is empty."""
    rows = [tuple(r) for r in rows]
    if rows:
        n_cols = len(rows[0])
    return Matrix(base, len(rows), n_cols, tuple(e for r in rows for e in r))


def identity(base, n):
    return Matrix(base, n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def zeros(base, n_rows, n_cols):
    return Matrix(base, n_rows, n_cols, (0,) * (n_rows * n_cols))


def at(mat, i, j):
    return mat.entries[i * mat.n_cols + j]


def row(mat, i):
    return mat.entries[i * mat.n_cols : (i + 1) * mat.n_cols]


def rows(mat):
    return [row(mat, i) for i in range(mat.n_rows)]


def transpose(mat):
    ent = tuple(at(mat, i, j) for j in range(mat.n_cols) for i in range(mat.n_rows))
    return Matrix(mat.base, mat.n_cols, mat.n_rows, ent)


def matmul(a, b):
    ent = tuple(
        sum(x * at(b, k, j) for k, x in enumerate(ri)) % a.base
        for ri in rows(a)
        for j in range(b.n_cols)
    )
    return Matrix(a.base, a.n_rows, b.n_cols, ent)


def matpow(mat, k):
    """k-th power of a square matrix by repeated squaring, k >= 0."""
    result, square = identity(mat.base, mat.n_rows), mat
    while k:
        if k & 1:
            result = matmul(result, square)
        square = matmul(square, square)
        k >>= 1
    return result


def mat_vec(mat, vec):
    """Matrix times a digit vector over F_base."""
    return tuple(sum(r * v for r, v in zip(ri, vec)) % mat.base for ri in rows(mat))


def stack_rows(parts):
    """The first d rows of each (matrix, d) part, stacked in order."""
    parts = list(parts)
    stacked = [row(mat, i) for mat, d in parts for i in range(d)]
    return from_rows(parts[0][0].base, stacked, n_cols=parts[0][0].n_cols)


def rank_generic(mat):
    """Rank by Gaussian elimination of the whole digit array, any prime base."""
    b = mat.base
    work = [list(r) for r in rows(mat)]
    r = 0
    for col in range(mat.n_cols):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], -1, b)
        for i in range(r + 1, len(work)):
            factor = (work[i][col] * inv) % b
            if factor:
                work[i] = [(x - factor * y) % b for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def point_slow(net, k):
    """Point k of a net by one scalar matrix-vector product per coordinate."""
    b, m = net.base, net.m
    digits = [(k // b**i) % b for i in range(m)]
    out = []
    for mat in matrices(net):
        ys = mat_vec(mat, digits)
        num = sum(y * b ** (m - 1 - i) for i, y in enumerate(ys))
        out.append(Fraction(num, b**m))
    return tuple(out)


def coords(points):
    """Coordinates of a point block as float64 in [0, 1)."""
    return points.numerators / float(points.base**points.m)


def coord_fraction(points, k, j):
    """Exact coordinate x_{k,j} of a point block (j is 0-based here)."""
    return Fraction(int(points.numerators[k, j]), points.base**points.m)


def star_disc_plane_sweep(points, u):
    """Exact star discrepancy by the integer plane sweep that evaluates
    both deviations over the whole plane at every slice.

    u is a tuple of 1-based coordinates, 1 <= len(u) <= 3, and b^m <= 4096.
    """
    d = len(u)
    n_full = points.base**points.m
    cols = [j - 1 for j in u]
    grids = _axis_grids(points, cols)

    # Walk the first axis in order, keeping one plane over the remaining
    # axes: after slice i it holds the closed counts #{y <= corner} of the
    # corners with first coordinate grids[0][i], scaled to the common
    # denominator b^(m d).  Memory is O(N^(d-1)), not O(N^d).  Numerators
    # fit in int64 for b^m <= 4096 and d <= 3.
    scale = n_full ** (d - 1)
    idx = [np.searchsorted(g, points.numerators[:, c]) for g, c in zip(grids, cols)]
    plane_idx = np.array(idx[1:], dtype=np.intp).reshape(d - 1, points.n_points)
    order = np.argsort(idx[0], kind="stable")
    starts = np.searchsorted(idx[0][order], np.arange(grids[0].size + 1))
    plane = tuple(g.size for g in grids[1:])
    plane_vol = np.ones(plane, dtype=np.int64)
    for axis, g in enumerate(grids[1:]):
        shape = [1] * (d - 1)
        shape[axis] = -1
        plane_vol = plane_vol * g.reshape(shape)
    # Open counts #{y < corner} are the previous slice's closed counts one
    # grid step back along every plane axis (coordinates sit exactly on
    # grid values).  Corners on the low edge of the plane have none, so
    # their deviation is the volume, largest at the edge's far corner.
    inner = (slice(1, None),) * (d - 1)
    below = (slice(None, -1),) * (d - 1)
    edge = np.ones(plane, dtype=bool)
    edge[inner] = False
    edge_vol = int(np.where(edge, plane_vol, 0).max())
    closed = np.zeros(plane, dtype=np.int64)
    best = 0
    for i, g0 in enumerate(grids[0]):
        vol = plane_vol * g0
        dev_minus = np.max(vol[inner] - closed[below], initial=0)
        best = max(best, int(g0) * edge_vol, int(dev_minus))
        at = plane_idx[:, order[starts[i] : starts[i + 1]]]
        if at.shape[1] == 1:
            # Distinct first coordinates, as in every full block of a net
            # with nonsingular matrices, give one point per slice; adding
            # to its orthant takes half the time of the histogram below.
            closed[tuple(slice(k, None) for k in at[:, 0].tolist())] += scale
        elif at.shape[1] > 1:
            # Histogram the slice's points over the block above their lowest
            # corner and prefix-sum it along every axis.  The leading length-1
            # axis gives np.add.at an index array even for a 0-d plane.
            lo = at.min(axis=1)
            block = tuple(slice(k, None) for k in lo.tolist())
            hist = np.zeros(closed[block].shape, dtype=np.int64)
            cells = (np.zeros(at.shape[1], dtype=np.intp),) + tuple(at - lo[:, None])
            np.add.at(hist[None], cells, scale)
            for axis in range(d - 1):
                hist = np.cumsum(hist, axis=axis)
            closed[block] += hist
        best = max(best, int(np.max(closed - vol)))
    return best / float(n_full**d)
