"""Digital net construction, column/row reduction, and exact point generation.

A net over F_b with b^m points in dimension s is described by s generating
matrices of shape m x m.  The k-th point has coordinates built by multiplying
each matrix with the base-b digit vector of k (least significant digit
first) and reading the output digits as b-adic fractions.  Points are kept
as exact integer numerators over the denominator b^m so that net properties
can be verified without rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .gfmat import FieldMatrix, _check_base

# Largest point or product block, in entries, that any routine allocates
# (2 GiB of int64); larger requests fail with a ValueError up front.
_MAX_ENTRIES = 1 << 28

__all__ = [
    "NetSpec",
    "PointBlock",
    "ReductionSchedule",
    "block_diag_seq",
    "column_reduce",
    "coordinate_numerators",
    "generate_points",
    "pascal_net",
    "prepend_zero_columns_seq",
    "random_net",
    "read_net",
    "row_reduce",
    "write_net",
]


@dataclass(frozen=True, eq=False)
class NetSpec:
    """Generating matrices of a digital net of b^m points in dimension s.

    ``digits[j, r, i]`` is entry (r, i) of the (j+1)-th matrix, held in one
    read-only (s, m, m) array of uint8 below b = 128 and uint64 above; nets
    compare equal by value.  ``declared_t`` is a quality claim carried by
    constructions with known t-value; reductions drop it and quality
    analysis re-derives it.
    """

    base: int
    m: int
    digits: np.ndarray = field(repr=False)
    declared_t: int | None = None
    provenance: str = "constructed"

    def __post_init__(self) -> None:
        _check_base(self.base)
        if self.m < 1:
            raise ValueError("m must be >= 1")
        d = np.asarray(self.digits)
        shape_ok = d.ndim == 3 and len(d) > 0 and d.shape[1:] == (self.m, self.m)
        if not shape_ok or d.dtype.kind not in "iu":
            raise ValueError("digits must be an integer (s, m, m) array with s >= 1")
        bad = d[(d < 0) | (d >= self.base)]
        if bad.size:
            raise ValueError(f"digit {bad[0]} outside [0, {self.base})")
        # unsigned digits that hold 2b - 2, as _numerators_digits needs
        d = d.astype(np.uint8 if self.base < 128 else np.uint64)
        d.flags.writeable = False
        object.__setattr__(self, "digits", d)
        if self.declared_t is not None and not 0 <= self.declared_t <= self.m:
            raise ValueError("declared_t outside [0, m]")

    @classmethod
    def from_matrices(
        cls, base: int, m: int, matrices: Sequence[FieldMatrix], **fields
    ) -> NetSpec:
        """Net from m x m ``FieldMatrix`` values over F_base; ``fields`` are
        the optional ``declared_t`` and ``provenance``."""
        if any(c.base != base or (c.n_rows, c.n_cols) != (m, m) for c in matrices):
            raise ValueError(f"matrices must be {m}x{m} over F_{base}")
        digits = np.array([c.entries for c in matrices], dtype=np.int64)
        return cls(base, m, digits.reshape(-1, m, m), **fields)

    @functools.cached_property
    def matrices(self) -> tuple[FieldMatrix, ...]:
        """The matrices as ``FieldMatrix`` values, the form that the sequence
        constructions take and that the scalar test oracles read."""
        b, m, flat = self.base, self.m, self.digits.reshape(self.s, -1).tolist()
        return tuple(FieldMatrix(b, m, m, tuple(ent)) for ent in flat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetSpec):
            return NotImplemented
        return (self.base, self.m, self.declared_t, self.provenance) == (
            other.base, other.m, other.declared_t, other.provenance
        ) and np.array_equal(self.digits, other.digits)

    def __hash__(self) -> int:
        return hash((self.base, self.m, self.digits.shape, self.digits.tobytes()))

    @property
    def s(self) -> int:
        return self.digits.shape[0]

    @property
    def n_points(self) -> int:
        return self.base**self.m


@dataclass(frozen=True)
class ReductionSchedule:
    """Nondecreasing per-coordinate reduction indices with w_1 = 0.

    The schedule is independent of m; ``s_star(m)`` gives the largest index
    whose coordinate is not reduced away entirely (0 if there is none).
    """

    w: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.w:
            raise ValueError("empty schedule")
        if self.w[0] != 0:
            raise ValueError("w_1 must be 0")
        for a, b in zip(self.w, self.w[1:]):
            if b < a:
                raise ValueError("reduction indices must be nondecreasing")

    @property
    def s(self) -> int:
        return len(self.w)

    def s_star(self, m: int) -> int:
        """Largest 1-based index j with w_j < m, or 0 if none."""
        for j in range(len(self.w), 0, -1):
            if self.w[j - 1] < m:
                return j
        return 0

    @classmethod
    def explicit(cls, w: Sequence[int]) -> ReductionSchedule:
        return cls(tuple(int(x) for x in w))

    @classmethod
    def floor_log(
        cls, s: int, base: int, m: int, num: int = 1, den: int = 1
    ) -> ReductionSchedule:
        """w_j = min(floor(log_base(j^(num/den))), m), computed exactly.

        num=den=1 gives floor(log_b j); num=1, den=2 gives floor(log_b sqrt(j)).
        """
        if num < 0 or den < 1:
            raise ValueError("exponent must be a nonnegative rational")
        w = []
        for j in range(1, s + 1):
            k = 0
            # largest k with base^(k*den) <= j^num
            while base ** ((k + 1) * den) <= j**num:
                k += 1
            w.append(min(k, m))
        return cls(tuple(w))


@dataclass(frozen=True)
class PointBlock:
    """N x s block of points stored as integer numerators over b^m.

    The numerators keep the memory order they are given in; the point
    kernel's blocks are column-major, one contiguous array per coordinate.
    """

    base: int
    m: int
    numerators: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        nums = np.asarray(self.numerators, dtype=np.int64)
        if nums.ndim != 2:
            raise ValueError("numerators must be a 2-d array")
        if nums.size and (nums.min() < 0 or nums.max() >= self.base**self.m):
            raise ValueError("numerators outside [0, b^m)")
        nums.flags.writeable = False
        object.__setattr__(self, "numerators", nums)

    @property
    def n_points(self) -> int:
        return self.numerators.shape[0]

    @property
    def s(self) -> int:
        return self.numerators.shape[1]

    def coords(self) -> np.ndarray:
        """Coordinates as float64 in [0, 1)."""
        return self.numerators / float(self.base**self.m)

    def coord_fraction(self, k: int, j: int) -> Fraction:
        """Exact coordinate x_{k,j} (j is 0-based here)."""
        return Fraction(int(self.numerators[k, j]), self.base**self.m)

    def write_csv(self, fh: IO[str]) -> None:
        """CSV export: header ``k,x1,...,xs``; each value as ``num/b^m``.

        Values are exact fractions with the fixed denominator b^m written in
        decimal digits, e.g. ``12/16``; 0 is written as ``0/16``.
        """
        fh.write("k," + ",".join(f"x{j + 1}" for j in range(self.s)) + "\n")
        line = "%d," + ",".join([f"%d/{self.base**self.m}"] * self.s) + "\n"
        step = max(1, (1 << 16) // (self.s + 1))
        for start in range(0, self.n_points, step):
            block = self.numerators[start : start + step]
            ks = np.arange(start, start + block.shape[0], dtype=np.int64)
            rows = np.column_stack((ks, block))
            fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def _uniform_digits(seed: int, count: int, base: int, limit: int) -> np.ndarray:
    """The first ``count`` SplitMix64 draws of ``seed`` below ``limit``, mod base.

    A fixed algorithm, so seeds reproduce across platforms; the uint64
    arithmetic wraps mod 2^64 as it requires.  With limit = 2^64 - (2^64
    mod base) the rejection keeps the digits exactly uniform.
    """
    parts, have, start = [], 0, 0
    with np.errstate(over="ignore"):
        while have < count:
            z = np.arange(start + 1, start + 1 + count - have, dtype=np.uint64)
            start += count - have
            z = z * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed % (1 << 64))
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
            parts.append(z[z <= np.uint64(limit - 1)])
            have += parts[-1].size
    return np.concatenate(parts) % np.uint64(base)


def pascal_net(base: int, m: int, s: int) -> NetSpec:
    """Net generated by powers of the upper-triangular binomial matrix P.

    P has entry binom(r, i) mod base at 0-based row i, column r, and
    coordinate j uses P^(j-1) (the identity for j = 1).  By the binomial
    theorem, (P^k)[i, r] = binom(r, i) k^(r-i) mod base with 0^0 = 1, so
    the entries are filled in exact integers without matrix products.  The
    quality claim t = 0 is only attached for base 2 with s <= 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    _check_base(base)
    digits = [
        [[math.comb(r, i) * pow(k, r - i, base) % base if r >= i else 0
          for r in range(m)] for i in range(m)]
        for k in range(s)
    ]
    t = 0 if (base == 2 and s <= 2) else None
    return NetSpec(base, m, np.array(digits), declared_t=t, provenance="pascal")


def random_net(base: int, m: int, s: int, seed: int) -> NetSpec:
    """Net with i.i.d. uniform matrix entries, deterministic in the seed.

    Entries come from a SplitMix64 stream reduced by rejection sampling, so
    the same (base, m, s, seed) reproduces the same net anywhere.
    """
    _check_base(base)
    digits = _uniform_digits(seed, s * m * m, base, (1 << 64) - (1 << 64) % base)
    return NetSpec(base, m, digits.reshape(s, m, m), provenance=f"random(seed={seed})")


def _kept_columns(net: NetSpec, sched: ReductionSchedule) -> np.ndarray:
    """(s, 1, m) mask of the first m - min(m, w_j) columns of each matrix."""
    if sched.s != net.s:
        raise ValueError(f"schedule length {sched.s} != net dimension {net.s}")
    kept = np.array([net.m - min(net.m, wj) for wj in sched.w])
    return np.arange(net.m) < kept[:, None, None]


def column_reduce(net: NetSpec, sched: ReductionSchedule) -> NetSpec:
    """Zero the last min(m, w_j) columns of each generating matrix."""
    keep = _kept_columns(net, sched)
    return NetSpec(net.base, net.m, np.where(keep, net.digits, 0))


def row_reduce(net: NetSpec, sched: ReductionSchedule) -> NetSpec:
    """Zero the last min(m, w_j) rows instead; comparison utility only."""
    keep = _kept_columns(net, sched).transpose(0, 2, 1)
    return NetSpec(net.base, net.m, np.where(keep, net.digits, 0))


def prepend_zero_columns_seq(
    d1: FieldMatrix, d2: FieldMatrix, t: int, m: int
) -> NetSpec:
    """Two-dimensional net with t zero columns prepended to both matrices.

    C_j is [0_{m x t} | left m x (m-t) block of D_j].  When D_1, D_2 generate
    a (0,2)-sequence the result carries declared_t = t; the caller is
    responsible for that hypothesis.
    """
    if t < 0 or t > m:
        raise ValueError("need 0 <= t <= m")
    if d2.base != d1.base:
        raise ValueError("base mismatch")
    digits = np.zeros((2, m, m), dtype=np.int64)
    for c, d in zip(digits, (d1, d2)):
        if d.n_rows < m or d.n_cols < m:
            raise ValueError(f"input matrices must be at least {m}x{m}")
        c[:, t:] = np.reshape(d.entries, (d.n_rows, d.n_cols))[:m, : m - t]
    return NetSpec(d1.base, m, digits, declared_t=t)


def block_diag_seq(d2: FieldMatrix, t: int, m: int) -> FieldMatrix:
    """Block-diagonal matrix with the t x t and (m-t) x (m-t) blocks of D_2.

    Pairs with the first matrix of :func:`prepend_zero_columns_seq` to form
    the strict two-dimensional example whose reduced linear independence
    parameter equals m - max(t, w_2) exactly.
    """
    if t < 0 or t > m:
        raise ValueError("need 0 <= t <= m")
    if d2.n_rows < max(t, m - t) or d2.n_cols < max(t, m - t):
        raise ValueError("input matrix too small for the requested blocks")
    d = np.reshape(d2.entries, (d2.n_rows, d2.n_cols))
    out = np.zeros((m, m), dtype=np.int64)
    out[:t, :t] = d[:t, :t]
    out[t:, t:] = d[: m - t, : m - t]
    return FieldMatrix(d2.base, m, m, tuple(out.ravel().tolist()))


def _check_entries(count: int, what: str) -> None:
    """Raise ValueError before allocating a block of more than _MAX_ENTRIES."""
    if count > _MAX_ENTRIES:
        raise ValueError(f"{what} of {count} entries exceeds the limit of {_MAX_ENTRIES}")


def coordinate_numerators(digits: np.ndarray, base: int, n_digits: int) -> np.ndarray:
    """Numerators of k coordinates over the first base^n_digits indices.

    ``digits`` holds k generating matrices over F_base as ``NetSpec.digits``
    does; column c of the returned int64 (base^n_digits, k) block holds the
    numerators of matrix c over b^m.  The block is the transpose of a
    C-ordered (k, base^n_digits) array, so each column is contiguous.
    Index d b^i + k' (k' < b^i) differs from (d-1) b^i + k' only in digit
    i, so its output digits are the earlier ones plus C[:, i] mod b: the
    doubling of Antonov-Saleev and Bratley-Fox.  Base 2 runs it on packed
    column integers with XOR; other bases run it one output digit at a time.
    """
    c = np.asarray(digits)
    if c.ndim != 3 or not c.shape[0] or c.shape[1] != c.shape[2]:
        raise ValueError("need a nonempty (k, m, m) array of square matrices")
    m = c.shape[1]
    if not 0 <= n_digits <= m:
        raise ValueError("n_digits outside [0, m]")
    if base**m >= 1 << 62:
        raise ValueError("b^m too large for exact 64-bit numerators")
    _check_entries(base**n_digits * c.shape[0], "point block")
    if c.min() < 0 or c.max() >= base:
        raise ValueError(f"digits outside [0, {base})")
    c = c.astype(np.uint8 if base < 128 else np.uint64, copy=False)
    if base == 2:
        return _numerators_xor(c, n_digits)
    return _numerators_digits(c, base, n_digits)


def _numerators_xor(c: np.ndarray, n_digits: int) -> np.ndarray:
    """Base-2 kernel on a (k, m, m) digit array.

    Column i of each matrix packs to col_i = sum_r C[r, i] 2^(m-1-r), and
    the numerator of index n + k' (k' < n = 2^i) is that of k' XOR col_i.
    """
    k, m = c.shape[0], c.shape[1]
    weights = 2 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    cols = np.einsum("kri,r->ik", c, weights)
    out = np.zeros((k, 1 << n_digits), dtype=np.int64)
    n = 1
    for i in range(n_digits):
        np.bitwise_xor(out[:, :n], cols[i][:, None], out=out[:, n : 2 * n])
        n *= 2
    return out.T


def _numerators_digits(c: np.ndarray, base: int, n_digits: int) -> np.ndarray:
    """Kernel for any prime base on a (k, m, m) unsigned digit array.

    The doubling runs on one output digit r at a time in a (k, N) digit
    array y_r of c's type, and the numerators accumulate as
    out = out b + y_r, in the narrowest of uint16, uint32 and int64 that
    holds b^m - 1.  The levels whose blocks hold fewer than 64 indices run
    in a small index-major scratch, whose transpose then starts y_r, so no
    level steps through k rows of a few entries each.  The digit type must
    hold 2b - 2; being unsigned, x - b wraps above x exactly when x < b, so
    for x < 2b, min(x, x - b) is x mod b without a division.
    """
    k, m = c.shape[0], c.shape[1]
    n_rows = base**n_digits
    n_head = 0
    while n_head < n_digits and base**n_head < 64:
        n_head += 1
    cols = np.ascontiguousarray(c.transpose(1, 2, 0))  # cols[r, i] = C[r, i] over k
    y = np.zeros((k, n_rows), dtype=c.dtype)
    tmp = np.empty((k, n_rows // base), dtype=c.dtype)
    head = np.zeros((base**n_head, k), dtype=c.dtype).T
    head_tmp = np.empty_like(head)
    acc = np.uint16 if base**m <= 65536 else np.uint32 if base**m <= 2**32 else np.int64
    out = np.zeros((k, n_rows), dtype=acc)
    for r in range(m):
        _add_levels(head, cols[r], base, 0, n_head, head_tmp)
        y[:, : head.shape[1]] = head
        _add_levels(y, cols[r], base, n_head, n_digits, tmp)
        out *= base
        np.add(out, y, out=out, dtype=acc)
    return out.astype(np.int64, copy=False).T


def _add_levels(y: np.ndarray, cols: np.ndarray, base: int, lo: int, hi: int,
                tmp: np.ndarray) -> None:
    """Doubling levels lo..hi-1 of one output digit r on the (k, >= b^hi)
    view y, given y[:, :b^lo]; ``cols[i]`` is C[r, i] over the k matrices."""
    n = base**lo
    for i in range(lo, hi):
        col = cols[i, :, None]
        for d in range(1, base):
            block, scratch = y[:, d * n : (d + 1) * n], tmp[:, :n]
            np.add(y[:, (d - 1) * n : d * n], col, out=block)
            np.subtract(block, base, out=scratch)
            np.minimum(block, scratch, out=block)
        n *= base


def generate_points(net: NetSpec, first_digits: int | None = None) -> PointBlock:
    """Points of the net over indices k = 0, ..., b^first_digits - 1.

    Digit vectors shorter than m are zero padded, so first_digits = m gives
    the full net and smaller values give the leading block.
    """
    if first_digits is None:
        first_digits = net.m
    if not 0 <= first_digits <= net.m:
        raise ValueError("first_digits outside [0, m]")
    return PointBlock(
        net.base, net.m, coordinate_numerators(net.digits, net.base, first_digits)
    )


def write_net(net: NetSpec, fh: IO[str]) -> None:
    """Text format: line ``b m s``; then for each j, m lines of m digits."""
    fh.write(f"{net.base} {net.m} {net.s}\n")
    line = " ".join(["%d"] * net.m) + "\n"
    rows = net.digits.reshape(-1, net.m)
    for start in range(0, rows.shape[0], 4096):
        block = rows[start : start + 4096]
        fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def _loadtxt(lines: list[str], what: str, **kw) -> np.ndarray:
    """The one text-table parser of net and matrix files: a 2-d array, or
    a one-line ValueError naming the file kind and the first bad cell."""
    try:
        return np.loadtxt(lines, ndmin=2, comments=None, **kw)
    except ValueError as exc:
        raise ValueError(f"bad {what}: {str(exc).split('; use `usecols`')[0]}") from None


def read_net(fh: IO[str]) -> NetSpec:
    """Parse the :func:`write_net` format; blank lines are ignored."""
    head = next((ln.split() for ln in fh if ln.strip()), None)
    if head is None:
        raise ValueError("empty net file")
    if len(head) != 3:
        raise ValueError("header must be 'b m s'")
    base, m, s = (int(x) for x in head)
    if m < 1 or s < 1:
        raise ValueError("header needs m >= 1 and s >= 1")
    lines = [ln for ln in fh if ln.strip()]
    if len(lines) != s * m:
        raise ValueError(f"expected {1 + s * m} lines, found {1 + len(lines)}")
    digits = _loadtxt(lines, "net file body", dtype=np.int64)
    if digits.shape[1] != m:
        raise ValueError(f"row length {digits.shape[1]} != m = {m}")
    return NetSpec(base, m, digits.reshape(s, m, m), provenance="file")
