"""Matrix products with digital-net point sets.

Both products run one accumulation loop, which never materializes X.  In
a column-reduced net coordinate j repeats its leading b^(m - w_j) values
b^(w_j) times, so the running (tau, rows) product is tiled vertically
between coordinates and updated with one rank-one term x_j a_j per
coordinate, from the last unreduced one down to the first; the point
kernel runs on a few coordinates at a time, so no numerator block of the
whole net exists either.  The standard product is that loop on the
zero schedule (nothing is tiled), coordinates reversed.  Neither
product calls BLAS, so no output depends on its thread count.  The loop
runs under a small ufunc buffer (see ``nets._RANK_ONE_BUFSIZE`` for why,
and why no output depends on it) and raises ValueError at the first entry
of X A that overflowed float64.  The products stay single-threaded; only
the CSV writer may fork, one child on Linux for outputs of at least 2^14
values, and its bytes do not depend on the child.
"""

from __future__ import annotations

import os
import struct
import tempfile
import warnings
from dataclasses import dataclass
from typing import IO, Callable, Iterator

import numpy as np

from .nets import (
    NetSpec,
    ReductionSchedule,
    _RANK_ONE_BUFSIZE,
    _check_block,
    _check_entries,
    _kept_columns,
    _loadtxt,
    coordinate_numerators,
)

__all__ = [
    "OpCounts",
    "Transform",
    "fast_reduced_product",
    "norm_inverse",
    "op_count_model",
    "qmc_estimate",
    "read_matrix_csv",
    "read_product_bin",
    "standard_product",
    "write_product_bin",
    "write_product_csv",
]

# Acklam's rational approximation to the standard normal quantile.
# Max relative error about 1.15e-9 over (0, 1), far inside the 1.5e-7
# absolute tolerance required of this transform.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425

# Numerators per point-kernel call in the rank-one loop (2 MiB of int64).
_CHUNK_ENTRIES = 1 << 18
# Fewest values for which the product CSV writer forks.  On a 2-CPU x86-64
# Linux host a child costs 6-7 ms (file, fork, wait); writing 2^e values in
# two blocks against one took, as a median of 31-41 alternating writes at
# tau 1 and 20, 1.3-2.0x the time at e = 12, 0.95-1.51x at e = 13 and
# 0.78-0.85x at e = 14, so the writer forks one child from 2^14 values.
_CSV_FORK_VALUES = 1 << 14
# Bytes per slice when a forked block's text is copied into the output.
_COPY_BYTES = 1 << 16


def norm_inverse(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF on (0, 1), elementwise."""
    p = np.asarray(p, dtype=np.float64)
    # min and max propagate NaN, and NaN fails both comparisons
    if p.size and not (p.min() > 0.0 and p.max() < 1.0):
        raise ValueError("arguments must lie strictly inside (0, 1)")
    out = np.empty_like(p)

    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    mid = ~(low | high)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        out[mid] = num * q / den
    # The high tail negates the low one at 1 - p; IEEE negation is exact.
    for tail, r, sign in ((low, p[low], 1.0), (high, 1.0 - p[high], -1.0)):
        if r.size:
            q = np.sqrt(-2.0 * np.log(r))
            num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
            den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
            out[tail] = sign * (num / den)
    return out


@dataclass(frozen=True)
class Transform:
    """Componentwise point transform applied before multiplying with A.

    kinds: ``identity``; ``norminv`` shifts right by ``shift`` > 0 and applies
    the inverse normal CDF (the shift keeps 0 away from the pole); ``custom``
    applies a user-supplied function, which must act elementwise and return
    an array of its input's shape.  Both products apply it once, to the grid
    n / b^m of every numerator n.
    """

    kind: str = "identity"
    shift: float = 0.0
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "norminv", "custom"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "norminv" and not self.shift > 0.0:
            raise ValueError("norminv needs a positive right shift")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom transform needs a function")

    @classmethod
    def identity(cls) -> Transform:
        return cls("identity")

    @classmethod
    def normal_inverse(cls, shift: float) -> Transform:
        return cls("norminv", shift=shift)

    @classmethod
    def normal_inverse_for(cls, base: int, m: int) -> Transform:
        """Default right shift b^(-m-1): half the spacing of the point grid."""
        return cls("norminv", shift=float(base) ** -(m + 1))

    @classmethod
    def custom(cls, fn: Callable[[np.ndarray], np.ndarray]) -> Transform:
        return cls("custom", fn=fn)

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return values
        if self.kind == "norminv":
            return norm_inverse(values + self.shift)
        out = np.asarray(self.fn(values), dtype=np.float64)
        if out.shape != np.shape(values):
            raise ValueError(
                f"custom transform returned shape {out.shape}, "
                f"expected {np.shape(values)}"
            )
        if not np.all(np.isfinite(out)):
            raise ValueError("custom transform returned non-finite values")
        return out


def _check_a(a: np.ndarray, s: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("A must be 2-d")
    if a.shape[0] != s:
        raise ValueError(f"A has {a.shape[0]} rows, net dimension is {s}")
    if not np.all(np.isfinite(a)):
        raise ValueError("A must be finite")
    return a


def _check_product(p: np.ndarray) -> np.ndarray:
    """p, or ValueError at its first entry that overflowed float64."""
    if not np.isfinite(p).all():
        i, j = np.argwhere(~np.isfinite(p))[0]
        raise ValueError(f"X A is not finite at row {i + 1}, column {j + 1}: A overflows float64")
    return p


def _aligned_zeros(shape: tuple[int, int]) -> np.ndarray:
    """Zeroed float64 array whose data starts on a 64-byte boundary, so that
    the rank-one loop (up to a third slower on an unaligned operand) does
    not depend on where the allocator puts its running block and scratch."""
    count = shape[0] * shape[1]
    buf = np.zeros(count + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + count].reshape(shape)


def standard_product(
    net: NetSpec,
    a: np.ndarray,
    transform: Transform = Transform.identity(),
) -> np.ndarray:
    """X A for all b^m points of the net, accumulated coordinate by coordinate.

    The loop of ``fast_reduced_product`` on the zero schedule (every w_j = 0,
    so nothing is tiled) with the coordinates reversed: that loop adds the
    last coordinate first, so every entry is 0 + x_1 a_1 + ... + x_s a_s in
    this fixed order, bit for bit.  The reversed digits and rows of A are views.
    """
    b, m = net.base, net.m
    _check_block(b, m, m, net.s)
    a = _check_a(a, net.s)
    return _rank_one_sum(net.digits[::-1], ReductionSchedule((0,) * net.s), a[::-1], transform, b)


def _validate_reduced(net: NetSpec, sched: ReductionSchedule) -> None:
    """Reject nets whose zero-column pattern disagrees with the schedule."""
    bad = np.argwhere((net.digits != 0) & ~_kept_columns(net, sched))
    if bad.size:
        j, _, c = bad[0]
        raise ValueError(
            f"matrix {j + 1} has a nonzero entry in column {c + 1}, but the "
            f"schedule declares the last {min(net.m, sched.w[j])} columns zero"
        )


def fast_reduced_product(
    net: NetSpec,
    sched: ReductionSchedule,
    a: np.ndarray,
    transform: Transform = Transform.identity(),
) -> np.ndarray:
    """X A for a column-reduced net without materializing X.

    Walks j from the last unreduced coordinate down to 1, tiling the running
    block vertically by b^(w_{j+1} - w_j) copies and adding the rank-one term
    of coordinate j.  Fully reduced coordinates are constant 0, so they
    contribute the constant row phi(0) * a_j once up front (zero for the
    identity transform).  Also generates the needed point columns on the fly,
    one kernel call per run of equal w_j, split so that no call returns more
    than _CHUNK_ENTRIES numerators (or takes one coordinate), and looks their
    transformed values up in phi evaluated once on the grid n / b^m.
    """
    a = _check_a(a, net.s)
    _validate_reduced(net, sched)
    return _rank_one_sum(net.digits, sched, a, transform, net.base)


def _rank_one_sum(
    digits: np.ndarray, sched: ReductionSchedule, a: np.ndarray, transform: Transform, base: int
) -> np.ndarray:
    """The one accumulation loop of both products (see fast_reduced_product)."""
    m, tau, w = digits.shape[1], a.shape[1], sched.w
    _check_entries(base**m * max(tau, 1), "product block")  # before anything is built
    s_star = sched.s_star(m)
    # phi(n / b^m) for every numerator n, so no level block is transformed
    grid = transform.apply(np.arange(base**m) / float(base**m))
    # (tau, rows): each rank-one term runs along a contiguous row
    p = np.zeros((tau, 1), dtype=np.float64)
    if s_star < len(w) and grid[0] != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            p += grid[0] * a[s_star:].sum(axis=0)[:, None]

    hi = s_star
    while hi > 0:
        wv = w[hi - 1]
        w_next = m if hi == s_star else min(w[hi], m)
        if w_next > wv:
            rows, copies = p.shape[1], base ** (w_next - wv)
            tiled = _aligned_zeros((tau, copies * rows))
            tiled.reshape(tau, copies, rows)[...] = p[:, None, :]
            # each rank-one term goes to an aligned scratch, not a temporary
            p, term = tiled, _aligned_zeros(tiled.shape)
        # coordinates lo+1..hi share w, hence one index range; a kernel call
        # takes at most _CHUNK_ENTRIES numerators of them, or one coordinate
        lo = max(w.index(wv), hi - max(1, _CHUNK_ENTRIES // base ** (m - wv)))
        nums = coordinate_numerators(digits[lo:hi], base, m - wv)
        with np.errstate(over="ignore", invalid="ignore"):
            np.setbufsize(_RANK_ONE_BUFSIZE)
            for j in range(hi, lo, -1):
                np.multiply(a[j - 1, :, None], grid[nums[:, j - lo - 1]], out=term)
                p += term
        del nums  # so that the next call's block does not coexist with this one
        hi = lo
    return _check_product(np.ascontiguousarray(p.T))


@dataclass(frozen=True)
class OpCounts:
    """Operation-count model with unit constants (no hidden factors)."""

    fast: int
    standard: int
    point_gen: int


def op_count_model(
    m: int, sched: ReductionSchedule, tau: int, s: int, base: int = 2
) -> OpCounts:
    """Predicted operation counts with unit constants:

    fast      = sum_{j <= s*} b^(m - w_j) (tau + m (m - w_j))
    standard  = b^m s tau          (multiply only)
    point_gen = b^m s m^2          (full, unreduced point set)

    ``fast`` covers both point generation and multiplication of the reduced
    net; the other two cover the standard pipeline's separate stages.
    """
    if sched.s != s:
        raise ValueError("schedule length does not match s")
    s_star = sched.s_star(m)
    fast = sum(
        base ** (m - sched.w[j]) * (tau + m * (m - sched.w[j]))
        for j in range(s_star)
    )
    standard = base**m * s * tau
    point_gen = base**m * s * m * m
    return OpCounts(fast=fast, standard=standard, point_gen=point_gen)


def qmc_estimate(
    net: NetSpec,
    sched: ReductionSchedule,
    a: np.ndarray,
    transform: Transform,
    f: Callable[[np.ndarray], float],
) -> float:
    """Equal-weight average of f over the rows of the fast product."""
    p = fast_reduced_product(net, sched, a, transform)
    total = 0.0
    for row in p:
        total += float(f(row))
    return total / p.shape[0]


def read_matrix_csv(fh: IO[str]) -> np.ndarray:
    """Real matrix from CSV, row-major.  Blank lines are ignored, and a
    first line in which no cell is a number is a header and is skipped."""
    lines = [ln for ln in fh if ln.strip()]
    if lines and not any(map(_is_number, lines[0].split(","))):
        lines = lines[1:]
    if not lines:
        raise ValueError("empty matrix file")
    return _loadtxt(lines, "matrix file", delimiter=",")


def _is_number(cell: str) -> bool:
    """Whether one CSV cell reads as a float by the matrix file parser."""
    try:
        return bool(cell.strip()) and _loadtxt([cell], "matrix file", delimiter=",").size == 1
    except ValueError:
        return False


def _csv_rows(block: np.ndarray) -> str:
    """CSV lines of a float64 block, each value the ``repr`` of its float."""
    return "".join([",".join(map(repr, row)) + "\n" for row in block.tolist()])


def _write_csv_rows(block: np.ndarray, fh: IO[str]) -> None:
    # 256 rows at a time: tolist() makes a 24-byte Python float per value
    for start in range(0, block.shape[0], 256):
        fh.write(_csv_rows(block[start : start + 256]))


def _fork_csv_rows(block: np.ndarray) -> tuple[int | None, IO[bytes] | None]:
    """Start a child that writes the block's CSV lines to an unlinked
    temporary file: its pid and the file, or ``(None, None)`` when no child
    could be started."""
    tmp = None
    try:
        tmp = tempfile.TemporaryFile()
        with warnings.catch_warnings():
            # Python >= 3.12 warns here when the parent has other threads
            # right after fork(); as an error it would lose the child's pid.
            # OpenBLAS's pool is not one: on a 2-CPU x86-64 Linux host with
            # numpy 2.4 a process had 2 OS threads after ``import numpy``
            # and 1 in the parent right after fork(), when 3.12 counts them.
            # A library caller may run threads of its own.  The child is
            # safe: it runs no BLAS and takes no lock, only tolist, repr and
            # writes, and it leaves by os._exit, so it runs no exit handler
            # and flushes no buffer it inherited (the parent's fh included).
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        if tmp is not None:
            tmp.close()
        return None, None
    if pid == 0:
        code = 1
        try:
            with open(tmp.fileno(), "w", encoding="ascii", newline="", closefd=False) as out:
                _write_csv_rows(block, out)
            code = 0
        finally:
            os._exit(code)
    return pid, tmp


def _slices(tmp: IO[bytes]) -> Iterator[bytes]:
    """The file's bytes from the start, _COPY_BYTES at a time."""
    tmp.seek(0)
    return iter(lambda: tmp.read(_COPY_BYTES), b"")


def write_product_csv(p: np.ndarray, fh: IO[str]) -> None:
    """CSV with header ``y1,...,ytau``; each value is ``repr`` of a Python
    float, the shortest string that reads back to the same float64.

    ``repr`` is the whole cost, so on a host with at least 2 usable CPUs an
    output of at least _CSV_FORK_VALUES values is cut in two row blocks: one
    forked child formats the second into an unlinked temporary file while
    this process formats the first, and the child's text is then copied here
    in slices, so neither side holds a block's text at once.  If the child
    fails or its text ends short, this process formats that block instead,
    so the bytes never depend on the child.
    """
    fh.write(",".join(f"y{j + 1}" for j in range(p.shape[1])) + "\n")
    p = np.asarray(p, dtype=np.float64)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    split = len(p) // 2 if cpus > 1 and p.size >= _CSV_FORK_VALUES else len(p)
    pid, tmp = _fork_csv_rows(p[split:]) if split < len(p) else (None, None)
    try:
        try:
            _write_csv_rows(p[:split], fh)
        finally:  # reap the child even when this process raised
            exited = pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        if exited and sum(chunk.count(b"\n") for chunk in _slices(tmp)) == len(p) - split:
            for chunk in _slices(tmp):
                fh.write(chunk.decode("ascii"))
        else:
            _write_csv_rows(p[split:], fh)
    finally:
        if tmp is not None:
            tmp.close()


def write_product_bin(p: np.ndarray, fh: IO[bytes]) -> None:
    """Binary format: 16-byte header (N, tau as little-endian uint64),
    then float64 little-endian, row-major."""
    n, tau = p.shape
    fh.write(struct.pack("<QQ", n, tau))
    fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def read_product_bin(fh: IO[bytes]) -> np.ndarray:
    head = fh.read(16)
    if len(head) != 16:
        raise ValueError("truncated header")
    n, tau = struct.unpack("<QQ", head)
    data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * tau:
        raise ValueError("payload size does not match header")
    return data.reshape(n, tau).astype(np.float64)
