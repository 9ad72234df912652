"""Matrix products with digital-net point sets.

The standard route accumulates X A = sum_j x_j a_j over the coordinates of
the net in a fixed left-to-right order, streaming one transformed
coordinate column at a time into a (tau, N) accumulator; the point kernel
runs on a few coordinates at a time, so neither the numerator block nor
the float block X ever exists.  The fast route never materializes X for a
column-reduced net: coordinate j repeats its leading b^(m - w_j) values
b^(w_j) times, so the running product is tiled vertically and updated with
one rank-one term per coordinate, from the last unreduced coordinate down
to the first.  Neither route calls BLAS, so no output depends on its thread
count.  The products stay single-threaded; only the CSV writer may fork, on
Linux, for outputs of at least 2^14 values, and its bytes do not depend on
the workers.
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

# Numerators per point-kernel call in the standard product (2 MiB of int64).
_CHUNK_ENTRIES = 1 << 18
# Fewest values per forked block of the product CSV writer.  On a 2-CPU
# x86-64 Linux host a child costs 6-7 ms (file, fork, wait); writing 2^e
# values in two blocks against one took, as a median of 31-41 alternating
# writes at tau 1 and 20, 1.3-2.0x the time at e = 12, 0.95-1.51x at e = 13
# and 0.78-0.85x at e = 14, so the writer forks from 2^14 values.
_CSV_BLOCK_VALUES = 1 << 13
# Bytes per slice when a forked block's text is copied into the output.
_COPY_BYTES = 1 << 16


def norm_inverse(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF on (0, 1), elementwise."""
    p = np.asarray(p, dtype=np.float64)
    if p.size and (p.min() <= 0.0 or p.max() >= 1.0):
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


def _aligned_zeros(shape: tuple[int, int]) -> np.ndarray:
    """Zeroed float64 array whose data starts on a 64-byte boundary, so that
    the rank-one loop of ``standard_product`` (up to a third slower on an
    unaligned operand) does not depend on where the allocator puts it."""
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

    The point kernel runs on chunks of coordinates of at most
    _CHUNK_ENTRIES numerators; each column x_j is looked up in phi evaluated
    once on the grid n / b^m, and its rank-one term a_j x_j is added to a
    (tau, N) accumulator.  The order is fixed (0 + x_1 a_1 + ... + x_s a_s
    per output entry), so the baseline is bit-reproducible.
    """
    b, m = net.base, net.m
    _check_block(b, m, m, net.s)
    a = _check_a(a, net.s)
    n, tau = b**m, a.shape[1]
    _check_entries(n * tau, "product block")
    grid = transform.apply(np.arange(n) / float(n))
    acc, tmp = _aligned_zeros((tau, n)), _aligned_zeros((tau, n))
    k = max(1, _CHUNK_ENTRIES // n)
    for j0 in range(0, net.s, k):
        nums = coordinate_numerators(net.digits[j0 : j0 + k], b, m)
        for j in range(nums.shape[1]):
            np.multiply(a[j0 + j, :, None], grid[nums[:, j]][None, :], out=tmp)
            acc += tmp
        del nums  # so that the next chunk does not coexist with this one
    return np.ascontiguousarray(acc.T)


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
    one kernel call per run of equal w_j (split so that no call returns more
    numerators than X A has entries), and looks their transformed values up
    in phi evaluated once on the grid n / b^m.
    """
    a = _check_a(a, net.s)
    _validate_reduced(net, sched)
    b, m, tau = net.base, net.m, a.shape[1]
    _check_entries(b**m * max(tau, 1), "product block")
    s_star = sched.s_star(m)

    # phi(n / b^m) for every numerator n, so no level block is transformed
    grid = transform.apply(np.arange(b**m) / float(b**m))
    phi0 = float(grid[0])
    # (tau, rows), as in standard_product: each rank-one term runs along rows
    p = np.zeros((tau, 1), dtype=np.float64)
    if s_star < net.s and phi0 != 0.0:
        p += phi0 * a[s_star:].sum(axis=0)[:, None]

    hi = s_star
    while hi > 0:
        wv = sched.w[hi - 1]
        w_next = m if hi == s_star else min(sched.w[hi], m)
        if w_next > wv:
            p = np.tile(p, (1, b ** (w_next - wv)))
        # coordinates lo+1..hi share w, hence one index range and one kernel
        # call; at most tau b^w of them, so the block is no larger than p
        lo = max(sched.w.index(wv), hi - max(tau, 1) * b**wv)
        nums = coordinate_numerators(net.digits[lo:hi], b, m - wv)
        for j in range(hi, lo, -1):
            p += a[j - 1, :, None] * grid[nums[:, j - lo - 1]]
        hi = lo
    return np.ascontiguousarray(p.T)


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
            # Python >= 3.12 warns here when other threads exist (OpenBLAS's
            # pool); as an error it would lose the child's pid.  The child is
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

    ``repr`` is the whole cost, so on a host with k > 1 usable CPUs an output
    of at least 2 * _CSV_BLOCK_VALUES values is cut into up to k contiguous
    row blocks, and blocks 2.. are formatted by forked children into unlinked
    temporary files while this process formats block 1; their text is then
    copied here in slices, so neither side holds a block's text at once.  A
    block whose child fails or whose text ends short is formatted here
    instead, so the bytes never depend on the workers.
    """
    fh.write(",".join(f"y{j + 1}" for j in range(p.shape[1])) + "\n")
    p = np.asarray(p, dtype=np.float64)
    affinity = getattr(os, "sched_getaffinity", None)
    k = max(1, min(len(affinity(0)) if affinity else 1, p.size // _CSV_BLOCK_VALUES))
    bounds = [i * p.shape[0] // k for i in range(k + 1)]
    workers: list[list] = []  # [pid, file, block]; pid None once reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            workers.append([*_fork_csv_rows(p[lo:hi]), p[lo:hi]])
        _write_csv_rows(p[: bounds[1]], fh)
        for worker in workers:
            pid, tmp, block = worker
            if pid is not None:
                status = os.waitpid(pid, 0)[1]
                worker[0] = None
                exited = os.waitstatus_to_exitcode(status) == 0
                if exited and sum(chunk.count(b"\n") for chunk in _slices(tmp)) == len(block):
                    for chunk in _slices(tmp):
                        fh.write(chunk.decode("ascii"))
                    continue
            _write_csv_rows(block, fh)
    finally:
        for pid, tmp, _ in workers:
            if pid is not None:  # only when this process raised
                os.waitpid(pid, 0)
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
