"""Exact linear algebra over prime fields F_b.

The prime-base check that every net goes through, and the rank that
``rho`` computes: Gaussian elimination, one row at a time into an echelon
basis, on packed bit rows for base 2 and on digit rows with modular
inverses otherwise.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["is_prime"]


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
