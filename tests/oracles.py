"""Scalar F_b reference routines that the tests compare the library against.

The library computes on one digit array per net; these are the plain
integer algorithms on ``FieldMatrix`` values that it replaced: row access,
products and powers, matrix-vector products, row stacking, rank by
elimination of a whole digit array, and single net points.  Only tests
call them, so they trust their inputs.
"""

from __future__ import annotations

from fractions import Fraction

from rednets.gfmat import FieldMatrix


def from_rows(base, rows, n_cols=None):
    """Matrix from a list of rows; n_cols is needed when rows is empty."""
    rows = [tuple(r) for r in rows]
    if rows:
        n_cols = len(rows[0])
    return FieldMatrix(base, len(rows), n_cols, tuple(e for r in rows for e in r))


def identity(base, n):
    return FieldMatrix(base, n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def zeros(base, n_rows, n_cols):
    return FieldMatrix(base, n_rows, n_cols, (0,) * (n_rows * n_cols))


def at(mat, i, j):
    return mat.entries[i * mat.n_cols + j]


def row(mat, i):
    return mat.entries[i * mat.n_cols : (i + 1) * mat.n_cols]


def rows(mat):
    return [row(mat, i) for i in range(mat.n_rows)]


def transpose(mat):
    ent = tuple(at(mat, i, j) for j in range(mat.n_cols) for i in range(mat.n_rows))
    return FieldMatrix(mat.base, mat.n_cols, mat.n_rows, ent)


def matmul(a, b):
    ent = tuple(
        sum(x * at(b, k, j) for k, x in enumerate(ri)) % a.base
        for ri in rows(a)
        for j in range(b.n_cols)
    )
    return FieldMatrix(a.base, a.n_rows, b.n_cols, ent)


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
    for mat in net.matrices:
        ys = mat_vec(mat, digits)
        num = sum(y * b ** (m - 1 - i) for i, y in enumerate(ys))
        out.append(Fraction(num, b**m))
    return tuple(out)
