"""Tests for standard and fast reduced matrix products."""

import errno
import hashlib
import io
import os
import signal
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rednets as rn
import rednets.product
from oracles import coords, from_rows, net_from_matrices
from rednets.cli import main
from rednets.product import (
    _A,
    _B,
    _C,
    _D,
    _P_LOW,
    _aligned_zeros,
    read_matrix_csv,
    read_product_bin,
    write_product_bin,
    write_product_csv,
)

RTOL = 1e-12
ATOL = 1e-14


def random_schedule(rng, s, m):
    w = [0]
    for _ in range(s - 1):
        step = int(rng.integers(0, 3))
        w.append(min(w[-1] + step, m + 1))
    return rn.ReductionSchedule.explicit(w)


def rel_close(a, b):
    return np.allclose(a, b, rtol=RTOL, atol=ATOL)


# --- inverse normal CDF -------------------------------------------------------


def test_norm_inverse_accuracy_against_scipy():
    p = np.concatenate(
        [
            np.linspace(1e-9, 0.02, 200),
            np.linspace(0.02, 0.98, 2000),
            np.linspace(0.98, 1 - 1e-9, 200),
        ]
    )
    got = rn.norm_inverse(p)
    want = scipy.stats.norm.ppf(p)
    assert np.max(np.abs(got - want)) <= 1.5e-7


def test_norm_inverse_symmetry_and_median():
    assert rn.norm_inverse(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-12)
    p = np.array([0.01, 0.2, 0.4])
    assert np.allclose(rn.norm_inverse(p), -rn.norm_inverse(1 - p), atol=1e-9)


def two_branch_norm_inverse(p):
    """Oracle: Acklam's formula with the low and high tails written out."""
    out = np.empty_like(p)
    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    mid = ~(low | high)
    q = p[mid] - 0.5
    r = q * q
    num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
    den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    out[mid] = num * q / den
    q = np.sqrt(-2.0 * np.log(p[low]))
    num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
    out[low] = num / den
    q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
    num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
    out[high] = -num / den
    return out


@pytest.mark.parametrize("b,m", [(2, 12), (3, 8), (5, 5), (7, 4), (None, None)])
def test_norm_inverse_bits_match_two_branch_oracle(b, m):
    if b is None:
        p = np.linspace(1e-15, 1 - 1e-15, 100_001)
    else:
        p = np.arange(b**m) / b**m + rn.Transform.normal_inverse_for(b, m).shift
    assert (p < _P_LOW).any() and (p > 1.0 - _P_LOW).any()
    got = rn.norm_inverse(p)
    assert np.array_equal(got.view(np.uint64), two_branch_norm_inverse(p).view(np.uint64))


def test_norm_inverse_rejects_out_of_range():
    with pytest.raises(ValueError):
        rn.norm_inverse(np.array([0.0]))
    with pytest.raises(ValueError):
        rn.norm_inverse(np.array([1.0]))


@pytest.mark.parametrize("values", [
    [np.nan],
    [0.5, np.nan],
    [np.nan, 0.25, 0.75],
    [0.1, 0.2, np.nan, 0.9],
])
def test_norm_inverse_rejects_nan(values):
    with pytest.raises(ValueError, match=r"^arguments must lie strictly inside \(0, 1\)$"):
        rn.norm_inverse(np.array(values))


def test_transform_validation():
    with pytest.raises(ValueError):
        rn.Transform("norminv", shift=0.0)
    with pytest.raises(ValueError):
        rn.Transform("custom")
    with pytest.raises(ValueError):
        rn.Transform("bogus")
    t = rn.Transform.normal_inverse_for(2, 4)
    assert t.shift == 2.0**-5


# --- standard product ---------------------------------------------------------


def test_standard_product_identity_matrix_returns_points():
    net = rn.pascal_net(2, 4, 2)
    out = rn.standard_product(net, np.eye(2))
    assert np.array_equal(out, coords(rn.generate_points(net)))


def test_standard_product_zero_matrix():
    out = rn.standard_product(rn.pascal_net(2, 3, 2), np.zeros((2, 3)))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("shape", [(0, 8), (1, 1), (3, 5), (20, 4096)])
def test_aligned_zeros_is_a_zeroed_cache_line_aligned_block(shape):
    for _ in range(8):  # several allocations, so several allocator offsets
        block = _aligned_zeros(shape)
        assert block.size == 0 or block.ctypes.data % 64 == 0
        assert block.shape == shape and block.dtype == np.float64
        assert block.flags.c_contiguous and block.flags.writeable
        assert not block.any()


def test_standard_product_with_no_columns_is_empty():
    out = rn.standard_product(rn.pascal_net(3, 2, 2), np.zeros((2, 0)))
    assert out.shape == (9, 0)


def test_standard_product_row_sums_small_net():
    out = rn.standard_product(rn.pascal_net(2, 2, 2), np.array([[1.0], [1.0]]))
    assert out[:, 0].tolist() == [0.0, 1.0, 1.0, 1.0]


def test_standard_product_validates_inputs():
    net = rn.pascal_net(2, 2, 2)
    with pytest.raises(ValueError):
        rn.standard_product(net, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        rn.standard_product(net, np.array([[np.nan], [0.0]]))


def whole_block_standard_product(points, a, transform):
    """Oracle: transform the whole N x s block, then add x_j a_j in j order
    into an (N, tau) block that starts at zero."""
    x = transform.apply(coords(points))
    out = np.zeros((points.n_points, a.shape[1]), dtype=np.float64)
    for j in range(points.s):
        out += x[:, j, None] * a[j, None, :]
    return out


TRANSFORMS = {
    "identity": lambda b, m: rn.Transform.identity(),
    "norminv": rn.Transform.normal_inverse_for,
    "custom": lambda b, m: rn.Transform.custom(lambda x: np.cos(3.0 * x) - x * x),
}


@pytest.mark.parametrize("base,m,s", [(2, 7, 30), (3, 5, 20), (5, 3, 12), (7, 3, 9)])
@pytest.mark.parametrize("kind", sorted(TRANSFORMS))
def test_standard_product_bits_match_whole_block_oracle(base, m, s, kind):
    sched = rn.ReductionSchedule.floor_log(s, base, m)
    net = rn.column_reduce(rn.random_net(base, m, s, seed=m), sched)
    pts = rn.generate_points(net)
    a = np.random.default_rng(base).standard_normal((s, 5))
    # point 0 is the origin: under the identity x = 0 times a negative entry
    # is -0.0, and the zero start turns the sum into +0.0
    a[:, 0] = -np.abs(a[:, 0])
    a[1, 1] = -0.0
    tr = TRANSFORMS[kind](base, m)
    got = rn.standard_product(net, a, tr)
    assert got.flags.c_contiguous and got.shape == (base**m, 5)
    assert got.tobytes() == whole_block_standard_product(pts, a, tr).tobytes()
    if kind == "identity":
        assert np.signbit(coords(pts)[0, 0] * a[0, 0])
        assert not np.signbit(got[0]).any()


@pytest.mark.parametrize("base,m,s,tau,widths", [
    # 2^18 // b^m coordinates per kernel call, the last call partial
    (2, 12, 150, 5, [64, 64, 22]),
    (3, 8, 100, 5, [39, 39, 22]),
    # b^m above 2^18: one coordinate per call
    (2, 19, 3, 2, [1, 1, 1]),
])
@pytest.mark.parametrize("kind", sorted(TRANSFORMS))
def test_standard_product_bits_match_whole_block_oracle_across_chunks(
    monkeypatch, base, m, s, tau, widths, kind
):
    net = rn.random_net(base, m, s, seed=s)
    a = np.random.default_rng(m).standard_normal((s, tau))
    tr = TRANSFORMS[kind](base, m)
    want = whole_block_standard_product(rn.generate_points(net), a, tr).tobytes()
    kernel, seen = rn.product.coordinate_numerators, []

    def counted(digits, *args):
        seen.append(len(digits))
        return kernel(digits, *args)

    monkeypatch.setattr(rn.product, "coordinate_numerators", counted)
    assert rn.standard_product(net, a, tr).tobytes() == want
    assert seen == widths


def test_custom_transform_is_called_once_on_the_grid_by_both_products():
    net = rn.random_net(3, 4, 5, seed=4)
    sched = rn.ReductionSchedule.floor_log(5, 3, 4)
    red = rn.column_reduce(net, sched)
    a = np.random.default_rng(4).standard_normal((5, 3))
    calls = []

    def fn(x):
        calls.append(x.shape)
        return np.sin(x)

    tr = rn.Transform.custom(fn)
    rn.standard_product(red, a, tr)
    assert calls == [(81,)]
    calls.clear()
    rn.fast_reduced_product(red, sched, a, tr)
    assert calls == [(81,)]


# --- fast reduced product ------------------------------------------------------


def test_fast_equals_standard_randomized():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        m = int(rng.integers(1, 9))
        s = int(rng.integers(1, 20))
        tau = int(rng.integers(1, 8))
        net = rn.random_net(2, m, s, seed=int(rng.integers(0, 2**31)))
        sched = random_schedule(rng, s, m)
        red = rn.column_reduce(net, sched)
        a = rng.standard_normal((s, tau))
        for tr in (rn.Transform.identity(), rn.Transform.normal_inverse_for(2, m)):
            fast = rn.fast_reduced_product(red, sched, a, tr)
            std = rn.standard_product(red, a, tr)
            assert rel_close(fast, std), (trial, m, s, tau, tr.kind)


@pytest.mark.parametrize("base,chunk,fast_widths,standard_widths", [
    # b = 3, m = 3: 2, 6 and 18 coordinates per call at w = 0, 1 and 2
    (3, 54, [1, 6, 1, 2, 2, 1], [2] * 6 + [1]),
    # b = 5, m = 3: 1, 6 and 30
    (5, 150, [1, 6, 1, 1, 1, 1, 1, 1], [1] * 13),
])
@pytest.mark.parametrize("kind", sorted(TRANSFORMS))
def test_fast_equals_standard_when_a_level_takes_several_kernel_calls(
    monkeypatch, base, chunk, fast_widths, standard_widths, kind
):
    # a small chunk splits the w = 0 run of 5 and the w = 1 run of 7; the
    # calls walk each run from its last coordinate down
    monkeypatch.setattr(rn.product, "_CHUNK_ENTRIES", chunk)
    net = rn.random_net(base, 3, 13, seed=base)
    sched = rn.ReductionSchedule.explicit([0] * 5 + [1] * 7 + [2])
    red = rn.column_reduce(net, sched)
    pts = rn.generate_points(red)
    a = np.random.default_rng(base).standard_normal((13, 2))
    tr = TRANSFORMS[kind](base, 3)
    kernel, seen = rn.product.coordinate_numerators, []

    def counted(digits, *args):
        seen.append(len(digits))
        return kernel(digits, *args)

    monkeypatch.setattr(rn.product, "coordinate_numerators", counted)
    fast = rn.fast_reduced_product(red, sched, a, tr)
    assert fast.tobytes() == whole_block_fast_product(pts, 13, a, tr).tobytes()
    assert seen == fast_widths
    seen.clear()
    std = rn.standard_product(red, a, tr)
    assert std.tobytes() == whole_block_standard_product(pts, a, tr).tobytes()
    assert seen == standard_widths
    assert rel_close(fast, std)
    assert rn.fast_reduced_product(red, sched, a[:, :0]).shape == (base**3, 0)


def test_fast_single_coordinate_bit_for_bit():
    net = rn.random_net(2, 6, 1, seed=3)
    sched = rn.ReductionSchedule.explicit([0])
    a = np.random.default_rng(1).standard_normal((1, 4))
    fast = rn.fast_reduced_product(net, sched, a)
    std = rn.standard_product(net, a)
    assert np.array_equal(fast, std)


def test_fast_fully_reduced_tail_contributes_first_column_only():
    net = rn.random_net(2, 4, 3, seed=9)
    sched = rn.ReductionSchedule.explicit([0, 4, 4])
    red = rn.column_reduce(net, sched)
    a = np.random.default_rng(2).standard_normal((3, 2))
    fast = rn.fast_reduced_product(red, sched, a)
    xi1 = coords(rn.generate_points(red))[:, 0]
    assert np.array_equal(fast, xi1[:, None] * a[0][None, :])


def test_fast_reproduces_points_with_identity_inputs():
    net = rn.random_net(2, 5, 3, seed=12)
    sched = rn.ReductionSchedule.explicit([0, 1, 3])
    red = rn.column_reduce(net, sched)
    fast = rn.fast_reduced_product(red, sched, np.eye(3))
    assert np.array_equal(fast, coords(rn.generate_points(red)))


def test_fast_constant_row_for_transformed_reduced_tail():
    # fully reduced coordinates are constant 0 and must contribute phi(0)
    net = rn.random_net(2, 3, 2, seed=4)
    sched = rn.ReductionSchedule.explicit([0, 3])
    red = rn.column_reduce(net, sched)
    a = np.array([[0.0], [1.0]])
    tr = rn.Transform.normal_inverse_for(2, 3)
    fast = rn.fast_reduced_product(red, sched, a, tr)
    phi0 = rn.norm_inverse(np.array([tr.shift]))[0]
    assert np.allclose(fast[:, 0], phi0, rtol=0, atol=0)


def whole_block_fast_product(points, s_star, a, transform):
    """Oracle: the fast product's order on the whole block of a reduced net.

    Start at zero, add phi(0) times the left-to-right sum of the rows of A
    past s_star, then x_j a_j for j = s_star down to 1.  The points of a
    reduced coordinate repeat with its period, so each row of this block is
    a row of the fast product's tiled running block."""
    x = transform.apply(coords(points))
    out = np.zeros((points.n_points, a.shape[1]), dtype=np.float64)
    if s_star < points.s:
        tail = a[s_star].copy()
        for j in range(s_star + 1, points.s):
            tail += a[j]
        out += x[0, s_star] * tail
    for j in range(s_star - 1, -1, -1):
        out += x[:, j, None] * a[j, None, :]
    return out


@pytest.mark.parametrize("base,m,s,num,den", [
    # level widths b^(m - w) on both sides of 2731 rows
    (2, 12, 40, 1, 1),  # 4096, 2048, 1024, 512, 256, 128
    (3, 8, 100, 1, 2),  # 6561, 2187, 729
    (5, 5, 30, 1, 1),  # 3125, 625, 125
    (7, 5, 20, 1, 1),  # 16807, 2401
])
@pytest.mark.parametrize("tau", [3, 7])
@pytest.mark.parametrize("kind", sorted(TRANSFORMS))
def test_fast_product_bits_match_whole_block_oracle(base, m, s, num, den, tau, kind):
    # three fully reduced coordinates after the floor_log ones
    w = rn.ReductionSchedule.floor_log(s, base, m, num, den).w + (m, m + 1, m + 1)
    sched = rn.ReductionSchedule.explicit(w)
    net = rn.column_reduce(rn.random_net(base, m, len(w), seed=s), sched)
    a = np.random.default_rng(tau).standard_normal((len(w), tau))
    tr = TRANSFORMS[kind](base, m)
    got = rn.fast_reduced_product(net, sched, a, tr)
    want = whole_block_fast_product(rn.generate_points(net), s, a, tr)
    assert got.flags.c_contiguous and got.shape == (base**m, tau)
    assert got.tobytes() == want.tobytes()


# sha256 of p.tobytes() at paper scale, tau = 20, identity transform
PAPER_DIGESTS = {
    (2, 12, 800, "standard", "full"): "69fc0bb486e85b8ae78d68b3d342b372c6521017316050491b4b0864f5c123e7",
    (2, 12, 800, "standard", "reduced"): "80108d8c8e20781a4ada56b22fa3b783718592e93f4366120ef985fc5333d178",
    (2, 12, 800, "fast", "reduced"): "9a67323acaf13a1790569a4f3473c4c9e24b09068b233c1ee6ed53099bad57b6",
    (3, 8, 400, "standard", "reduced"): "d9048a62ae928c2f82d04637b8e3c2570bf512cc0b0f68aac0213417db32bb9f",
    (3, 8, 400, "fast", "reduced"): "4537215a4dd2b2a698816ad9c3d465df25f6acf7859aa7555dd6ec1db92eb470",
}


@pytest.mark.parametrize("base,m,s,algo,which", sorted(PAPER_DIGESTS))
def test_paper_scale_product_bytes_match_recorded_digests(base, m, s, algo, which):
    # A from integers and one IEEE division, so the digest depends on no
    # libm and no random stream; b = 2 reduces by log, b = 3 by sqrtlog
    i, j = np.indices((s, 20))
    a = ((i * 7919 + j * 104729) % 1000003) / 1000003 - 0.5
    sched = rn.ReductionSchedule.floor_log(s, base, m, 1, 1 if base == 2 else 2)
    net = rn.random_net(base, m, s, seed=1)
    if which == "reduced":
        net = rn.column_reduce(net, sched)
    if algo == "standard":
        p = rn.standard_product(net, a)
    else:
        p = rn.fast_reduced_product(net, sched, a)
    assert hashlib.sha256(p.tobytes()).hexdigest() == PAPER_DIGESTS[base, m, s, algo, which]


def test_products_restore_the_ufunc_buffer_size(monkeypatch):
    # two kernel calls in each product: 400 coordinates of 3^6 numerators
    # exceed one standard-product chunk, and the fast product has 3 levels
    base, m, s = 3, 6, 400
    sched = rn.ReductionSchedule.floor_log(s, base, m, 1, 2)
    net = rn.column_reduce(rn.random_net(base, m, s, seed=3), sched)
    a = np.random.default_rng(3).standard_normal((s, 4))
    products = {
        "standard": lambda: rn.standard_product(net, a),
        "fast": lambda: rn.fast_reduced_product(net, sched, a),
    }
    old_size, old_err = np.setbufsize(4096), np.seterr(over="raise")
    # the caller's numpy state: a buffer size and an error policy, both
    # set away from numpy's defaults and from the loops' own
    caller = (4096, np.geterr())
    try:
        for name, product in products.items():
            product()
            assert (np.getbufsize(), np.geterr()) == caller, name
        rn.nets.coordinate_numerators(rn.random_net(2, 12, 64, seed=1).digits, 2, 12)
        assert (np.getbufsize(), np.geterr()) == caller

        kernel, inside = rn.product.coordinate_numerators, []

        class Failing(np.ndarray):
            def __getitem__(self, key):
                inside.append((np.getbufsize(), np.geterr()["over"]))
                raise RuntimeError("column lookup failed")

        for name, product in products.items():
            calls = []

            def second_fails(*args):
                calls.append(args)
                nums = kernel(*args)
                return nums.view(Failing) if len(calls) == 2 else nums

            monkeypatch.setattr(rn.product, "coordinate_numerators", second_fails)
            with pytest.raises(RuntimeError, match="column lookup failed"):
                product()
            assert len(calls) == 2, name
            assert (np.getbufsize(), np.geterr()) == caller, name
        assert inside == [(512, "ignore")] * 2
    finally:
        np.setbufsize(old_size)
        np.seterr(**old_err)


def test_fast_rejects_schedule_marix_mismatch():
    net = rn.random_net(2, 4, 2, seed=6)
    sched = rn.ReductionSchedule.explicit([0, 2])
    a = np.zeros((2, 1))
    with pytest.raises(ValueError):
        rn.fast_reduced_product(net, sched, a)  # net was never reduced


def test_fast_rejects_schedule_of_wrong_length():
    net = rn.column_reduce(rn.random_net(2, 4, 2, seed=6), rn.ReductionSchedule.explicit([0, 2]))
    for w in ([0], [0, 2, 2]):
        with pytest.raises(ValueError, match="schedule length"):
            rn.fast_reduced_product(net, rn.ReductionSchedule.explicit(w), np.zeros((2, 1)))


def test_fast_rejection_names_first_offending_matrix_and_column():
    # matrix 2 breaks its declared-zero columns 3 and 4 at (row 1, column 4)
    # and (row 2, column 3), matrix 3 at every row; the first entry in
    # matrix order, then row-major order, is reported
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    bad2 = [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    bad3 = [[1, 0, 0, 1]] * 4
    mats = tuple(from_rows(2, rows) for rows in (eye, bad2, bad3))
    net = net_from_matrices(2, 4, mats)
    sched = rn.ReductionSchedule.explicit([0, 2, 7])
    with pytest.raises(ValueError) as err:
        rn.fast_reduced_product(net, sched, np.zeros((3, 1)))
    assert str(err.value) == (
        "matrix 2 has a nonzero entry in column 4, "
        "but the schedule declares the last 2 columns zero"
    )


def test_custom_transform_output_is_checked_in_both_products():
    net = rn.random_net(3, 3, 3, seed=15)
    sched = rn.ReductionSchedule.floor_log(3, 3, 3)
    red = rn.column_reduce(net, sched)
    a = np.random.default_rng(5).standard_normal((3, 2))
    good = rn.Transform.custom(np.sqrt)
    assert rel_close(
        rn.fast_reduced_product(red, sched, a, good),
        rn.standard_product(red, a, good),
    )
    longer = rn.Transform.custom(lambda x: np.concatenate([x, x]))
    nan = rn.Transform.custom(lambda x: x * np.nan)
    for tr in (longer, nan):
        with pytest.raises(ValueError):
            rn.fast_reduced_product(red, sched, a, tr)
        with pytest.raises(ValueError):
            rn.standard_product(red, a, tr)


def test_custom_transform_shape_message_names_one_column():
    # both products transform the grid of all b^m = 27 numerators once
    net = rn.random_net(3, 3, 3, seed=15)
    sched = rn.ReductionSchedule.floor_log(3, 3, 3)
    red = rn.column_reduce(net, sched)
    a = np.ones((3, 2))
    longer = rn.Transform.custom(lambda x: np.concatenate([x, x]))
    message = "custom transform returned shape (54,), expected (27,)"
    for call in (
        lambda: rn.standard_product(red, a, longer),
        lambda: rn.fast_reduced_product(red, sched, a, longer),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_products_reject_oversized_blocks_before_allocating(monkeypatch):
    # 3^4 points times tau = 5 is 405 entries; the points alone are 324
    monkeypatch.setattr(rn.nets, "_MAX_ENTRIES", 404)
    net = rn.random_net(3, 4, 4, seed=2)
    sched = rn.ReductionSchedule.explicit([0, 0, 0, 0])
    message = "product block of 405 entries exceeds the limit of 404"
    with pytest.raises(ValueError, match=message):
        rn.standard_product(net, np.ones((4, 5)))
    with pytest.raises(ValueError, match=message):
        rn.fast_reduced_product(net, sched, np.ones((4, 5)))
    assert rn.standard_product(net, np.ones((4, 4))).shape == (81, 4)
    # the standard product checks the point block it stands for before A
    monkeypatch.setattr(rn.nets, "_MAX_ENTRIES", 323)
    with pytest.raises(ValueError, match="point block of 324 entries exceeds the limit of 323"):
        rn.standard_product(net, np.ones((5, 1)))


def test_tiling_identity_on_reduced_points():
    # shifting the index by a multiple of b^(m - w_j) leaves every
    # coordinate from j on unchanged (their periods all divide the shift)
    net = rn.random_net(2, 6, 4, seed=30)
    sched = rn.ReductionSchedule.explicit([0, 1, 2, 4])
    red = rn.column_reduce(net, sched)
    nums = rn.generate_points(red).numerators
    m = 6
    for j, wj in enumerate(sched.w):
        period = 2 ** (m - wj)
        for c in range(2**wj):
            lo = c * period
            assert np.array_equal(
                nums[lo : lo + period, j:], nums[:period, j:]
            )


# --- operation count model -----------------------------------------------------


def test_op_count_no_reduction_equals_standard_plus_gen():
    s, m, tau = 5, 6, 3
    sched = rn.ReductionSchedule.explicit([0] * s)
    ops = rn.op_count_model(m, sched, tau, s)
    assert ops.fast == s * 2**m * (tau + m * m)
    assert ops.fast == ops.standard + ops.point_gen


def test_op_count_headline_ratio():
    sched = rn.ReductionSchedule.floor_log(800, 2, 12)
    ops = rn.op_count_model(12, sched, 20, 800)
    assert ops.fast / ops.standard < 0.15
    assert ops.standard == 2**12 * 800 * 20
    assert ops.point_gen == 2**12 * 800 * 144


def test_op_count_empty_sum_when_s_star_zero():
    sched = rn.ReductionSchedule.explicit([0, 1])
    ops = rn.op_count_model(0, sched, 7, 2)
    assert ops.fast == 0


def test_op_count_monotone_in_each_w():
    m, tau, s = 8, 5, 4
    base = rn.ReductionSchedule.explicit([0, 1, 2, 3])
    ops0 = rn.op_count_model(m, base, tau, s)
    for j in range(1, s):
        w = list(base.w)
        w[j] += 1
        w = [w[0]] + [max(w[i], w[i - 1]) for i in range(1, s)]
        ops1 = rn.op_count_model(m, rn.ReductionSchedule.explicit(w), tau, s)
        assert ops1.fast <= ops0.fast


# --- QMC estimate ---------------------------------------------------------------


def test_qmc_constant_function():
    net = rn.random_net(2, 5, 3, seed=2)
    sched = rn.ReductionSchedule.explicit([0, 1, 2])
    red = rn.column_reduce(net, sched)
    a = np.ones((3, 2))
    est = rn.qmc_estimate(red, sched, a, rn.Transform.identity(), lambda y: 4.25)
    assert est == 4.25


def test_qmc_first_coordinate_mean():
    # exact mean of {k/16} over the full pascal net, frozen from the
    # brute-force numerator sum: (0 + 1 + ... + 15) / 16 / 16 = 15/32
    net = rn.pascal_net(2, 4, 2)
    sched = rn.ReductionSchedule.explicit([0, 0])
    a = np.array([[1.0], [0.0]])
    est = rn.qmc_estimate(net, sched, a, rn.Transform.identity(), lambda y: y[0])
    pts = rn.generate_points(net)
    oracle = Fraction(int(pts.numerators[:, 0].sum()), 16 * 16)
    assert oracle == Fraction(15, 32)
    assert est == pytest.approx(float(oracle), rel=1e-15)


def test_qmc_mean_of_coordinate_average():
    net = rn.pascal_net(2, 10, 8)
    sched = rn.ReductionSchedule.explicit([0] * 8)
    a = np.full((8, 1), 1.0 / 8)
    est = rn.qmc_estimate(net, sched, a, rn.Transform.identity(), lambda y: y[0])
    pts = rn.generate_points(net)
    oracle = Fraction(int(pts.numerators.sum()), 8 * 2**10 * 2**10)
    assert abs(est - float(oracle)) < 1e-12
    assert abs(est - 0.5) <= 8 * 2.0**-10


# --- file formats ----------------------------------------------------------------


def test_read_matrix_csv_with_and_without_header():
    plain = io.StringIO("1.5,2\n3,4\n")
    a = read_matrix_csv(plain)
    assert a.tolist() == [[1.5, 2.0], [3.0, 4.0]]
    headed = io.StringIO("a1,a2\n1.5,2\n3,4\n")
    b = read_matrix_csv(headed)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        read_matrix_csv(io.StringIO("1,2\n3\n"))
    with pytest.raises(ValueError):
        read_matrix_csv(io.StringIO(""))


def test_read_matrix_csv_skips_blank_lines_before_and_inside():
    a = read_matrix_csv(io.StringIO("\n  \na1,a2\n1.5,2\n\n3,4\n\n"))
    assert a.tolist() == [[1.5, 2.0], [3.0, 4.0]]
    assert read_matrix_csv(io.StringIO("\n1.5,2\n3,4\n")).tolist() == a.tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=48),
    st.integers(1, 6),
    st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format, " {!r} ".format]),
)
@example([-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308], 2, repr)
def test_read_matrix_csv_reads_what_float_reads(values, width, fmt):
    width = min(width, len(values))
    rows = [values[i : i + width] for i in range(0, len(values) - width + 1, width)]
    lines = [",".join(fmt(v) for v in row) for row in rows]
    a = read_matrix_csv(io.StringIO("\n".join(lines) + "\n"))
    want = np.array([[float(c) for c in ln.split(",")] for ln in lines])
    assert a.dtype == np.float64 and a.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", [
    "",
    "\n \n",
    "a1,a2\n",
    "1,2\n3\n",
    "1,2\n3,x\n",
    "1,2\n3,\n",
    "1,2\n1_0,2\n",
    "1,2\n\u0661,2\n",
    "1,2x\n1,2\n",
    "3;4,5\n1,2\n",
])
def test_malformed_matrix_file_is_a_one_line_error_with_exit_2(tmp_path, capsys, text):
    with pytest.raises(ValueError) as err:
        read_matrix_csv(io.StringIO(text))
    assert str(err.value) and "\n" not in str(err.value)
    net, a = tmp_path / "net.txt", tmp_path / "a.csv"
    with open(net, "w") as fh:
        rn.write_net(rn.pascal_net(2, 2, 2), fh)
    a.write_text(text, encoding="utf-8")
    code = main(["product", "--net", str(net), "--a", str(a), "--algo", "standard"])
    err_text = capsys.readouterr().err
    assert code == 2
    assert err_text.startswith("error:") and err_text.count("\n") == 1


def test_product_csv_round_trip_values():
    p = np.array([[0.1, 0.25], [1.0 / 3.0, 2.0]])
    buf = io.StringIO()
    write_product_csv(p, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "y1,y2"
    again = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(again, p)


def test_product_csv_is_repr_of_each_float():
    special = [-0.0, 1e-05, 1e16, 5e-324, 1.0 / 3.0, 0.0]
    rand = np.random.default_rng(7).standard_normal((600, 6)) * 10.0 ** np.arange(-3, 3)
    for p in (np.array([special]), np.array(special)[:, None], rand):
        buf = io.StringIO()
        write_product_csv(p, buf)
        rows = [",".join(repr(float(v)) for v in row) for row in p]
        head = ",".join(f"y{j + 1}" for j in range(p.shape[1]))
        assert buf.getvalue() == "\n".join([head] + rows) + "\n"


# 2051 x 32 values: four times the fork threshold, and rows that do not split evenly
FORKED = np.random.default_rng(3).standard_normal((2051, 32)) * 10.0 ** np.arange(-16, 16)
FORKED_CSV = "\n".join(
    [",".join(f"y{j + 1}" for j in range(32))]
    + [",".join(repr(float(v)) for v in row) for row in FORKED]
) + "\n"


def count_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def write_forked(tmp_path):
    path = tmp_path / "p.csv"
    with open(path, "w") as fh:
        write_product_csv(FORKED, fh)
    return path.read_text()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, not hang, when the writer waits on a child that never ends."""
    def expire(signum, frame):
        raise TimeoutError("write_product_csv did not return within 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("cpus", [{0}, "default", {0, 1}, set(range(4)), set(range(16)), "missing"])
def test_product_csv_bytes_do_not_depend_on_the_workers(tmp_path, monkeypatch, cpus):
    if cpus == "missing":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    elif cpus != "default":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    affinity = getattr(os, "sched_getaffinity", None)
    started = count_forks(monkeypatch)
    assert write_forked(tmp_path) == FORKED_CSV
    assert len(started) == (1 if affinity and len(affinity(0)) > 1 else 0)
    assert_no_children()


@pytest.mark.parametrize("cpus, short, forks", [(set(range(16)), 1, 0), ({0, 1}, 1, 0), ({0, 1}, 0, 1)])
def test_product_csv_forks_from_2_14_values(monkeypatch, deadline, cpus, short, forks):
    """Exactly 2^14 values fork once; one row short of that forks nothing."""
    rows = rednets.product._CSV_FORK_VALUES // 32 - short
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    started = count_forks(monkeypatch)
    buf = io.StringIO()
    write_product_csv(FORKED[:rows], buf)
    assert buf.getvalue() == FORKED_CSV[: len(buf.getvalue())]
    assert buf.getvalue().count("\n") == rows + 1
    assert len(started) == forks
    assert_no_children()


@pytest.mark.parametrize("failure", ["exit", "short", "fork", "file"])
def test_product_csv_failed_workers_give_the_same_bytes(tmp_path, monkeypatch, deadline, failure):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    parent, real = os.getpid(), rednets.product._csv_rows

    def flaky(block):
        if os.getpid() == parent:
            return real(block)
        if failure == "exit":
            os._exit(1)
        return real(block)[:-3]  # exits 0 with rows cut short

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    def no_file():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(rednets.product, "_csv_rows", flaky)
    started = count_forks(monkeypatch)
    if failure == "fork":
        monkeypatch.setattr(os, "fork", no_fork)
    if failure == "file":
        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    assert write_forked(tmp_path) == FORKED_CSV
    assert len(started) == (0 if failure in ("fork", "file") else 1)
    assert_no_children()


def test_product_csv_keeps_every_worker_when_fork_warns(tmp_path, monkeypatch, deadline):
    """Python >= 3.12 warns after forking a process with threads; under
    error::DeprecationWarning that must not lose the child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    real = os.fork

    def warning_fork():
        pid = real()
        if pid:
            warnings.warn("this process is multi-threaded, use of fork() may lead to deadlocks",
                          DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    started = count_forks(monkeypatch)
    assert write_forked(tmp_path) == FORKED_CSV
    assert len(started) == 1
    assert_no_children()


def test_product_csv_workers_hold_no_block_text_in_memory(tmp_path, monkeypatch, deadline):
    """A child formats 256 rows at a time into its file and the parent copies
    it in slices: neither holds a block's text (here about 2.5 MB)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent, real_exit = os.getpid(), os._exit
    child_peak = tmp_path / "child_peak"

    def exit_(code):
        try:
            if os.getpid() != parent:
                child_peak.write_text(str(tracemalloc.get_traced_memory()[1]))
        finally:
            real_exit(code)

    monkeypatch.setattr(os, "_exit", exit_)
    p = np.random.default_rng(4).standard_normal((1 << 15, 8))
    tracemalloc.start()
    try:
        with open(tmp_path / "p.csv", "w") as fh:
            write_product_csv(p, fh)
        parent_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "p.csv").read_text()
    assert text.count("\n") == len(p) + 1
    assert text.splitlines()[-1] == ",".join(map(repr, p[-1].tolist()))
    assert parent_peak < 1 << 20
    assert int(child_peak.read_text()) < 1 << 20


def test_product_csv_reaps_every_worker_when_the_file_write_fails(monkeypatch, deadline):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    started = count_forks(monkeypatch)

    class Full(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(text)

    with pytest.raises(OSError, match="No space left"):
        write_product_csv(FORKED, Full())
    assert len(started) == 1
    assert_no_children()


def test_product_binary_round_trip():
    p = np.random.default_rng(0).standard_normal((6, 3))
    buf = io.BytesIO()
    write_product_bin(p, buf)
    raw = buf.getvalue()
    assert len(raw) == 16 + 6 * 3 * 8
    assert raw[:8] == (6).to_bytes(8, "little")
    assert raw[8:16] == (3).to_bytes(8, "little")
    again = read_product_bin(io.BytesIO(raw))
    assert np.array_equal(again, p)
    with pytest.raises(ValueError):
        read_product_bin(io.BytesIO(raw[:20]))
