"""Digital net construction, column/row reduction, and exact point generation.

A net over F_b with b^m points in dimension s is described by s generating
matrices of shape m x m.  The k-th point has coordinates built by multiplying
each matrix with the base-b digit vector of k (least significant digit
first) and reading the output digits as b-adic fractions.  Points are kept
as exact integer numerators over the denominator b^m so that net properties
can be verified without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterator, Sequence

import numpy as np

from .gfmat import FieldMatrix, is_prime, mat_vec

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

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NetSpec:
    """Generating matrices of a digital net of b^m points in dimension s.

    ``declared_t`` is a quality claim carried by constructions with known
    t-value; reductions drop it and quality analysis re-derives it.
    """

    base: int
    m: int
    matrices: tuple[FieldMatrix, ...]
    declared_t: int | None = None
    provenance: str = "constructed"

    def __post_init__(self) -> None:
        if not is_prime(self.base):
            raise ValueError(f"base must be prime, got {self.base}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.matrices:
            raise ValueError("need at least one generating matrix")
        for c in self.matrices:
            if c.base != self.base:
                raise ValueError("matrix base differs from net base")
            if c.n_rows != self.m or c.n_cols != self.m:
                raise ValueError(f"matrices must be {self.m}x{self.m}")
        if self.declared_t is not None and not 0 <= self.declared_t <= self.m:
            raise ValueError("declared_t outside [0, m]")

    @property
    def s(self) -> int:
        return len(self.matrices)

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
        if any(x < 0 for x in self.w):
            raise ValueError("reduction indices must be nonnegative")

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
    """N x s block of points stored as integer numerators over b^m."""

    base: int
    m: int
    numerators: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        nums = np.ascontiguousarray(self.numerators, dtype=np.int64)
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
        den = self.base**self.m
        fh.write("k," + ",".join(f"x{j + 1}" for j in range(self.s)) + "\n")
        for k in range(self.n_points):
            row = ",".join(f"{int(v)}/{den}" for v in self.numerators[k])
            fh.write(f"{k},{row}\n")


def _splitmix64(seed: int) -> Iterator[int]:
    """SplitMix64 stream; fixed algorithm so seeds reproduce across platforms."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _uniform_digits(seed: int, count: int, base: int) -> list[int]:
    # Rejection sampling keeps the digits exactly uniform on {0, ..., base-1}.
    stream = _splitmix64(seed)
    limit = (1 << 64) - ((1 << 64) % base)
    out = []
    while len(out) < count:
        v = next(stream)
        if v < limit:
            out.append(v % base)
    return out


def pascal_net(base: int, m: int, s: int) -> NetSpec:
    """Net generated by powers of the upper-triangular binomial matrix.

    The first matrix is the identity, the second has entries
    binom(r-1, i-1) mod base at row i, column r, and coordinate j uses the
    (j-1)-th power of that matrix.  The quality claim t = 0 is only attached
    for base 2 with s <= 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    binom = FieldMatrix(
        base,
        m,
        m,
        tuple(math.comb(r, i) % base for i in range(m) for r in range(m)),
    )
    matrices = tuple(binom.matpow(j) for j in range(s))
    declared = 0 if (base == 2 and s <= 2) else None
    return NetSpec(base, m, matrices, declared_t=declared, provenance="pascal")


def random_net(base: int, m: int, s: int, seed: int) -> NetSpec:
    """Net with i.i.d. uniform matrix entries, deterministic in the seed.

    Entries come from a SplitMix64 stream reduced by rejection sampling, so
    the same (base, m, s, seed) reproduces the same net anywhere.
    """
    digits = _uniform_digits(seed, s * m * m, base)
    matrices = []
    for j in range(s):
        ent = tuple(digits[j * m * m : (j + 1) * m * m])
        matrices.append(FieldMatrix(base, m, m, ent))
    return NetSpec(base, m, tuple(matrices), provenance=f"random(seed={seed})")


def _check_schedule(net: NetSpec, sched: ReductionSchedule) -> None:
    if sched.s != net.s:
        raise ValueError(f"schedule length {sched.s} != net dimension {net.s}")


def column_reduce(net: NetSpec, sched: ReductionSchedule) -> NetSpec:
    """Zero the last min(m, w_j) columns of each generating matrix."""
    _check_schedule(net, sched)
    m = net.m
    matrices = []
    for c, wj in zip(net.matrices, sched.w):
        keep = m - min(m, wj)
        ent = tuple(
            c.at(i, j) if j < keep else 0 for i in range(m) for j in range(m)
        )
        matrices.append(FieldMatrix(net.base, m, m, ent))
    return NetSpec(net.base, m, tuple(matrices), provenance="constructed")


def row_reduce(net: NetSpec, sched: ReductionSchedule) -> NetSpec:
    """Zero the last min(m, w_j) rows instead; comparison utility only."""
    _check_schedule(net, sched)
    m = net.m
    matrices = []
    for c, wj in zip(net.matrices, sched.w):
        keep = m - min(m, wj)
        ent = tuple(
            c.at(i, j) if i < keep else 0 for i in range(m) for j in range(m)
        )
        matrices.append(FieldMatrix(net.base, m, m, ent))
    return NetSpec(net.base, m, tuple(matrices), provenance="constructed")


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
    matrices = []
    for d in (d1, d2):
        if d.base != d1.base:
            raise ValueError("base mismatch")
        if d.n_rows < m or d.n_cols < m:
            raise ValueError(f"input matrices must be at least {m}x{m}")
        ent = tuple(
            d.at(i, j - t) if j >= t else 0 for i in range(m) for j in range(m)
        )
        matrices.append(FieldMatrix(d.base, m, m, ent))
    return NetSpec(
        d1.base, m, tuple(matrices), declared_t=t, provenance="constructed"
    )


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
    ent = []
    for i in range(m):
        for j in range(m):
            if i < t and j < t:
                ent.append(d2.at(i, j))
            elif i >= t and j >= t:
                ent.append(d2.at(i - t, j - t))
            else:
                ent.append(0)
    return FieldMatrix(d2.base, m, m, tuple(ent))


def coordinate_numerators(mats: Sequence[FieldMatrix], n_digits: int) -> np.ndarray:
    """Numerators of k coordinates over the first base^n_digits indices.

    ``mats`` are the k generating matrices of those coordinates, all square
    and of one base and size m; column c of the returned int64
    (base^n_digits, k) block holds the numerators of ``mats[c]`` over b^m.
    Index d b^i + k' (k' < b^i) differs from (d-1) b^i + k' only in digit i,
    so its output digits are the earlier ones plus C[:, i] mod b: the
    doubling of Antonov-Saleev and Bratley-Fox.  Base 2 runs it on packed
    column integers with XOR; other bases run it one output digit at a time.
    """
    if not mats:
        raise ValueError("need at least one generating matrix")
    base, m = mats[0].base, mats[0].n_rows
    for mat in mats:
        if mat.n_rows != m or mat.n_cols != m:
            raise ValueError("generating matrices must be square and of one size")
        if mat.base != base:
            raise ValueError("generating matrices must share one base")
    if not 0 <= n_digits <= m:
        raise ValueError("n_digits outside [0, m]")
    if base**m >= 1 << 62:
        raise ValueError("b^m too large for exact 64-bit numerators")
    # unsigned digits that hold 2b - 2, as _numerators_digits needs
    dtype = np.uint8 if base < 128 else np.uint64
    c = np.array([mat.entries for mat in mats], dtype=dtype).reshape(-1, m, m)
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
    out = np.zeros((1 << n_digits, k), dtype=np.int64)
    n = 1
    for i in range(n_digits):
        np.bitwise_xor(out[:n], cols[i], out=out[n : 2 * n])
        n *= 2
    return out


def _numerators_digits(c: np.ndarray, base: int, n_digits: int) -> np.ndarray:
    """Kernel for any prime base on a (k, m, m) unsigned digit array.

    The doubling runs on one output digit r at a time in an (N, k) digit
    array y_r of c's type, and the numerators accumulate as
    out = out b + y_r.  The type must hold 2b - 2; being unsigned, x - b
    wraps above x exactly when x < b, so for x < 2b, min(x, x - b) is
    x mod b without a division.
    """
    k, m = c.shape[0], c.shape[1]
    n_rows = base**n_digits
    y = np.zeros((n_rows, k), dtype=c.dtype)
    tmp = np.empty((n_rows // base, k), dtype=c.dtype)
    out = np.zeros((n_rows, k), dtype=np.int64)
    for r in range(m):
        n = 1
        for i in range(n_digits):
            for d in range(1, base):
                block = y[d * n : (d + 1) * n]
                np.add(y[(d - 1) * n : d * n], c[:, r, i], out=block)
                np.subtract(block, base, out=tmp[:n])
                np.minimum(block, tmp[:n], out=block)
            n *= base
        out *= base
        np.add(out, y, out=out, dtype=np.int64)
    return out


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
        net.base, net.m, coordinate_numerators(net.matrices, first_digits)
    )


def point_slow(net: NetSpec, k: int) -> tuple[Fraction, ...]:
    """Single point via scalar matrix-vector products; test oracle path."""
    m = net.m
    digits = [(k // net.base**i) % net.base for i in range(m)]
    out = []
    for mat in net.matrices:
        ys = mat_vec(mat, digits)
        num = sum(y * net.base ** (m - 1 - i) for i, y in enumerate(ys))
        out.append(Fraction(num, net.base**m))
    return tuple(out)


def write_net(net: NetSpec, fh: IO[str]) -> None:
    """Text format: line ``b m s``; then for each j, m lines of m digits."""
    fh.write(f"{net.base} {net.m} {net.s}\n")
    for mat in net.matrices:
        for i in range(net.m):
            fh.write(" ".join(str(e) for e in mat.row(i)) + "\n")


def read_net(fh: IO[str]) -> NetSpec:
    """Parse the :func:`write_net` format; blank lines are ignored."""
    lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty net file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("header must be 'b m s'")
    base, m, s = (int(x) for x in head)
    need = 1 + s * m
    if len(lines) != need:
        raise ValueError(f"expected {need} lines, found {len(lines)}")
    matrices = []
    pos = 1
    for _ in range(s):
        rows = []
        for _ in range(m):
            row = [int(x) for x in lines[pos].split()]
            if len(row) != m:
                raise ValueError(f"row length {len(row)} != m = {m}")
            rows.append(row)
            pos += 1
        matrices.append(FieldMatrix.from_rows(base, rows))
    return NetSpec(base, m, tuple(matrices), provenance="file")
