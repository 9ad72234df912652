"""Exact linear algebra over prime fields F_b.

Small dense matrices with digit entries in {0, ..., b-1}, b prime.  Values
are immutable and operations are pure, so they can be shared freely across
threads.  Rank is computed by Gaussian elimination, one row at a time into
an echelon basis, on packed bit rows for base 2 and on digit rows with
modular inverses otherwise.  ``rank_generic`` eliminates a whole digit
array independently and is kept as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "FieldMatrix",
    "is_prime",
    "mat_vec",
    "rank",
    "rank_generic",
    "stack_rows",
]


# The first 13 primes.  A strong probable prime to all of them is prime
# below 3317044064679887385961981 (about 3.3e24); the first 12 alone admit
# the composite 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


# Bases are held below 2^63, where the test above is exact and uint64
# digit arrays hold 2b - 2.
_BASE_LIMIT = 1 << 63


def _check_base(base: int) -> None:
    """Raise ValueError unless base is a prime below 2^63."""
    if not (base < _BASE_LIMIT and is_prime(base)):
        raise ValueError(f"base must be a prime below 2^63, got {base}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < 3.3e24.

    Above that bound a True means n is a strong probable prime to the
    first 13 prime bases.
    """
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldMatrix:
    """Immutable n_rows x n_cols matrix over F_base, entries row-major.

    A 0-row matrix is allowed (it arises from empty row selections and has
    rank 0 by convention); a 0-column matrix is not.
    """

    base: int
    n_rows: int
    n_cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_base(self.base)
        if self.n_rows < 0 or self.n_cols < 1:
            raise ValueError(f"invalid shape {self.n_rows}x{self.n_cols}")
        if len(self.entries) != self.n_rows * self.n_cols:
            raise ValueError("entry count does not match shape")
        for e in self.entries:
            if not 0 <= e < self.base:
                raise ValueError(f"entry {e} outside [0, {self.base})")

    @classmethod
    def from_rows(
        cls,
        base: int,
        rows: Sequence[Sequence[int]],
        n_cols: int | None = None,
    ) -> FieldMatrix:
        """Build from an iterable of rows; n_cols is required when rows is empty."""
        rows = [tuple(r) for r in rows]
        if rows:
            n_cols = len(rows[0])
            if any(len(r) != n_cols for r in rows):
                raise ValueError("ragged rows")
        elif n_cols is None:
            raise ValueError("n_cols required for a 0-row matrix")
        flat = tuple(e for r in rows for e in r)
        return cls(base, len(rows), n_cols, flat)

    @classmethod
    def identity(cls, base: int, n: int) -> FieldMatrix:
        ent = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        return cls(base, n, n, ent)

    @classmethod
    def zeros(cls, base: int, n_rows: int, n_cols: int) -> FieldMatrix:
        return cls(base, n_rows, n_cols, (0,) * (n_rows * n_cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.n_cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.n_cols : (i + 1) * self.n_cols]

    def rows(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.n_rows)]

    def transpose(self) -> FieldMatrix:
        ent = tuple(
            self.entries[i * self.n_cols + j]
            for j in range(self.n_cols)
            for i in range(self.n_rows)
        )
        return FieldMatrix(self.base, self.n_cols, self.n_rows, ent)

    def matmul(self, other: FieldMatrix) -> FieldMatrix:
        if self.base != other.base:
            raise ValueError("base mismatch")
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimension mismatch")
        b = self.base
        ent = []
        for i in range(self.n_rows):
            ri = self.row(i)
            for j in range(other.n_cols):
                acc = 0
                for k in range(self.n_cols):
                    acc += ri[k] * other.entries[k * other.n_cols + j]
                ent.append(acc % b)
        return FieldMatrix(b, self.n_rows, other.n_cols, tuple(ent))

    def matpow(self, k: int) -> FieldMatrix:
        """k-th matrix power, k >= 0; square matrices only."""
        if self.n_rows != self.n_cols:
            raise ValueError("matpow needs a square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = FieldMatrix.identity(self.base, self.n_rows)
        square = self
        while k:
            if k & 1:
                result = result.matmul(square)
            square = square.matmul(square)
            k >>= 1
        return result


def mat_vec(mat: FieldMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    """Matrix-times-digit-vector product over F_base."""
    if len(vec) != mat.n_cols:
        raise ValueError("vector length does not match matrix columns")
    b = mat.base
    for v in vec:
        if not 0 <= v < b:
            raise ValueError(f"vector entry {v} outside [0, {b})")
    out = []
    for i in range(mat.n_rows):
        ri = mat.row(i)
        out.append(sum(r * v for r, v in zip(ri, vec)) % b)
    return tuple(out)


def stack_rows(parts: Iterable[tuple[FieldMatrix, int]]) -> FieldMatrix:
    """Stack the first d_j rows of each matrix, in order.

    All parts must share the base and column count; each count d_j must lie
    in [0, n_rows].  The result may legitimately have 0 rows.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    base = parts[0][0].base
    n_cols = parts[0][0].n_cols
    rows: list[tuple[int, ...]] = []
    for mat, d in parts:
        if mat.base != base or mat.n_cols != n_cols:
            raise ValueError("mismatched base or column count across parts")
        if not 0 <= d <= mat.n_rows:
            raise ValueError(f"row count {d} outside [0, {mat.n_rows}]")
        rows.extend(mat.row(i) for i in range(d))
    return FieldMatrix.from_rows(base, rows, n_cols=n_cols)


def rank(mat: FieldMatrix) -> int:
    """F_b-rank via Gaussian elimination; packed bit rows when b = 2."""
    return _rank_rows(_rank_form(mat.rows(), mat.base), mat.base)


def rank_generic(mat: FieldMatrix) -> int:
    """Digit-array elimination for any prime base; reference path for rank."""
    if mat.n_rows == 0:
        return 0
    b = mat.base
    work = [list(mat.row(i)) for i in range(mat.n_rows)]
    r = 0
    for col in range(mat.n_cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], -1, b)
        for i in range(r + 1, len(work)):
            factor = (work[i][col] * inv) % b
            if factor:
                row_r = work[r]
                row_i = work[i]
                for j in range(col, mat.n_cols):
                    row_i[j] = (row_i[j] - factor * row_r[j]) % b
        r += 1
        if r == len(work):
            break
    return r


def _rank_form(rows: Iterable[Sequence[int]], base: int) -> list:
    """Digit rows in the form :func:`_rank_rows` takes.

    Base 2 rows become ints with column j at bit j; other rows become
    digit lists.
    """
    if base == 2:
        return [sum(e << j for j, e in enumerate(row)) for row in rows]
    return [list(row) for row in rows]


def _rank_rows(rows: Iterable, base: int) -> int:
    """Rank of rows inserted one at a time into an echelon basis.

    Rows come from :func:`_rank_form`.  Base 2 rows are ints, keyed in the
    basis by their lowest set bit.  Other rows are digit lists; the basis
    keeps them scaled to a pivot entry of 1, keyed by the pivot column.
    """
    basis: dict = {}
    for row in rows:
        if base == 2:
            while row and (row & -row) in basis:
                row ^= basis[row & -row]
            if row:
                basis[row & -row] = row
            continue
        for col in range(len(row)):
            x = row[col]
            if x and col in basis:
                row = [(v - x * w) % base for v, w in zip(row, basis[col])]
            elif x:
                inv = pow(x, -1, base)
                basis[col] = [(v * inv) % base for v in row]
                break
    return len(basis)
