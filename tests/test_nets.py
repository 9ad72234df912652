"""Tests for net construction, reduction, and point generation."""

import dataclasses
import hashlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rednets as rn
from oracles import at, identity, matmul, matpow, point_slow, rows, zeros
from rednets.gfmat import is_prime
from rednets.nets import (
    _numerators_digits,
    _numerators_xor,
    _uniform_digits,
    coordinate_numerators,
)


def binom_mod_lucas(n, k, p):
    """Lucas' theorem: binom(n, k) mod p from base-p digits; test oracle."""
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        ni, ki = n % p, k % p
        n, k = n // p, k // p
        if ki > ni:
            return 0
        num = den = 1
        for i in range(ki):
            num = (num * (ni - i)) % p
            den = (den * (i + 1)) % p
        out = (out * num * pow(den, -1, p)) % p
    return out


def splitmix64_scalar(seed):
    """Scalar SplitMix64 stream; the reference for the vectorised sampler."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def uniform_digits_scalar(seed, count, base, limit):
    """The first count draws below limit, mod base, one draw at a time."""
    stream = splitmix64_scalar(seed)
    out = []
    while len(out) < count:
        v = next(stream)
        if v < limit:
            out.append(v % base)
    return out


# --- NetSpec ---------------------------------------------------------------


def test_netspec_value_semantics_and_read_only_digits():
    eye = np.eye(3, dtype=np.int64)[None]
    net = rn.NetSpec(2, 3, eye)
    assert net == rn.NetSpec(2, 3, eye.copy())
    assert hash(net) == hash(rn.NetSpec(2, 3, eye.copy()))
    assert net != rn.NetSpec(3, 3, eye)
    assert net != rn.NetSpec(2, 3, 1 - eye)
    assert net != rn.NetSpec(2, 3, eye, provenance="file")
    with pytest.raises(ValueError):
        net.digits[0, 0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.digits = 1 - eye
    eye[0, 0, 0] = 0  # the net holds its own copy
    assert net.digits[0, 0, 0] == 1


def test_netspec_base_is_a_prime_below_2_pow_63():
    below = next(n for n in range(2**63 - 1, 2**63 - 100, -1) if is_prime(n))
    above = next(n for n in range(2**63, 2**63 + 100) if is_prime(n))
    net = rn.NetSpec(below, 1, np.array([[[below - 1]]], dtype=np.uint64))
    assert net.digits.dtype == np.uint64
    for base in (above, 2**89 - 1):
        with pytest.raises(ValueError, match=r"prime below 2\^63"):
            rn.NetSpec(base, 1, np.zeros((1, 1, 1), dtype=np.int64))


def test_netspec_rejects_malformed_digits():
    for digits in (
        np.zeros((0, 3, 3), dtype=np.int64),
        np.zeros((2, 3, 4), dtype=np.int64),
        np.zeros((3, 3), dtype=np.int64),
        np.zeros((1, 3, 3)),
        np.full((1, 3, 3), 2),
        np.full((1, 3, 3), -1),
    ):
        with pytest.raises(ValueError):
            rn.NetSpec(2, 3, digits)


@pytest.mark.parametrize("base", [2, 3, 131])
def test_netspec_matrices_round_trip_through_from_matrices(base):
    net = rn.random_net(base, 3, 4, seed=base)
    assert net.digits.dtype == (np.uint8 if base < 128 else np.uint64)
    again = rn.NetSpec.from_matrices(base, 3, net.matrices, provenance=net.provenance)
    assert again == net
    assert again.matrices == net.matrices


# --- pascal_net ------------------------------------------------------------


def test_pascal_net_matches_paper_example():
    net = rn.pascal_net(2, 4, 2)
    assert net.matrices[0] == identity(2, 4)
    assert rows(net.matrices[1]) == [
        (1, 1, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 1),
    ]
    assert net.declared_t == 0
    assert net.provenance == "pascal"


def test_pascal_net_1x1():
    net = rn.pascal_net(2, 1, 2)
    assert rows(net.matrices[0]) == [(1,)]
    assert rows(net.matrices[1]) == [(1,)]


def test_pascal_net_m3_second_matrix():
    # c_{2,3} = binom(2,1) mod 2 = 0, not 1
    net = rn.pascal_net(2, 3, 2)
    assert rows(net.matrices[1]) == [(1, 1, 1), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("base,m", [(2, 6), (3, 6), (5, 4)])
def test_pascal_entries_match_lucas_oracle(base, m):
    net = rn.pascal_net(base, m, 2)
    c2 = net.matrices[1]
    for i in range(m):
        for r in range(m):
            assert at(c2, i, r) == binom_mod_lucas(r, i, base)


def test_pascal_net_higher_s_uses_matrix_powers():
    net = rn.pascal_net(3, 4, 4)
    c2 = net.matrices[1]
    assert net.matrices[0] == identity(3, 4)
    assert net.matrices[2] == matmul(c2, c2)
    assert net.matrices[3] == matmul(matmul(c2, c2), c2)
    assert net.declared_t is None


def pascal_oracle(base, m, s):
    """Pascal net from FieldMatrix powers of the binomial matrix; test oracle."""
    ent = tuple(math.comb(r, i) % base for i in range(m) for r in range(m))
    mats = tuple(matpow(rn.FieldMatrix(base, m, m, ent), j) for j in range(s))
    return rn.NetSpec.from_matrices(base, m, mats)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 131, 2**61 - 1]),
       st.integers(1, 8), st.integers(1, 12))
def test_pascal_net_matches_matrix_power_oracle(base, m, s):
    net = rn.pascal_net(base, m, s)
    oracle = pascal_oracle(base, m, s)
    assert net.digits.dtype == oracle.digits.dtype
    assert np.array_equal(net.digits, oracle.digits)
    assert net.declared_t == (0 if base == 2 and s <= 2 else None)
    assert net.provenance == "pascal"


@pytest.mark.parametrize("args,digest", [
    ((2, 12, 800), "7de1e9f729ba21bbc5f3b3442cee5eeb08a46f1257de6d8f88fac8eb18ba170c"),
    ((3, 8, 400), "9d88d10a7e2990d2727f19f021d088fc2437a580fbeac839ef40126ea051ed6f"),
])
def test_pascal_net_file_bytes_are_pinned(args, digest):
    # sha256 of the files written by the matrix-power construction
    buf = io.StringIO()
    rn.write_net(rn.pascal_net(*args), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_pascal_net_rejects_bad_m():
    with pytest.raises(ValueError):
        rn.pascal_net(2, 0, 2)


@pytest.mark.parametrize("base", [0, 1, 4])
def test_pascal_net_rejects_bad_base(base):
    with pytest.raises(ValueError, match="base must be a prime"):
        rn.pascal_net(base, 2, 3)


# --- random_net ------------------------------------------------------------


@pytest.mark.parametrize("base", [0, 1, 4])
def test_random_net_rejects_bad_base(base):
    with pytest.raises(ValueError, match=f"^base must be a prime below 2\\^63, got {base}$"):
        rn.random_net(base, 2, 3, seed=0)


def test_random_net_deterministic():
    a = rn.random_net(2, 5, 3, seed=123)
    b = rn.random_net(2, 5, 3, seed=123)
    assert a == b


@pytest.mark.parametrize("base", [2, 3, 5, 7, 131])
@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
def test_random_net_digits_match_scalar_splitmix64(base, seed):
    net = rn.random_net(base, 3, 5, seed)
    limit = (1 << 64) - (1 << 64) % base
    assert net.digits.ravel().tolist() == uniform_digits_scalar(seed, 45, base, limit)


@pytest.mark.parametrize("base,limit", [(2, 5 << 60), (3, 3 << 62), (5, 1 << 63)])
def test_uniform_digits_rejection_matches_scalar(base, limit):
    # the real limit rejects a draw with probability below b / 2^64, so only
    # a lower limit exercises the rejection branch
    got = _uniform_digits(17, 500, base, limit).tolist()
    assert got == uniform_digits_scalar(17, 500, base, limit)
    assert got != uniform_digits_scalar(17, 500, base, 1 << 64)


def test_random_net_paper_scale_file_is_pinned():
    buf = io.StringIO()
    rn.write_net(rn.random_net(2, 12, 800, seed=0), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "150c89a167738622b5310c68ea0abd747e2bbbb5469fd6e3b9ebe69f969d3187"
    )


def test_random_net_paper_scale_shapes():
    net = rn.random_net(2, 12, 800, seed=0)
    assert net.s == 800
    assert all(c.n_rows == 12 and c.n_cols == 12 for c in net.matrices)


def test_random_net_different_seeds_differ():
    for seed in range(10):
        a = rn.random_net(3, 4, 2, seed=seed)
        b = rn.random_net(3, 4, 2, seed=seed + 1000)
        assert a.matrices != b.matrices


def test_random_net_digits_are_plausibly_uniform():
    net = rn.random_net(5, 10, 10, seed=9)
    flat = [e for c in net.matrices for e in c.entries]
    counts = np.bincount(flat, minlength=5)
    assert counts.min() > 0.8 * len(flat) / 5


# --- reduction -------------------------------------------------------------


def test_column_reduce_paper_example():
    net = rn.pascal_net(2, 4, 2)
    red = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 1]))
    assert red.matrices[0] == net.matrices[0]
    assert rows(red.matrices[1]) == [
        (1, 1, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 0),
    ]
    assert red.declared_t is None


def test_column_reduce_zero_w_is_identity_map():
    net = rn.random_net(3, 4, 3, seed=5)
    red = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 0, 0]))
    assert red.matrices == net.matrices


def test_column_reduce_w_at_least_m_zeroes_matrix():
    net = rn.random_net(2, 3, 2, seed=1)
    red = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 7]))
    assert red.matrices[1] == zeros(2, 3, 3)


def test_row_reduce_paper_example():
    net = rn.pascal_net(2, 4, 2)
    red = rn.row_reduce(net, rn.ReductionSchedule.explicit([0, 1]))
    assert rows(red.matrices[1]) == [
        (1, 1, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 0),
    ]


def test_row_reduce_edge_cases():
    net = rn.random_net(2, 3, 2, seed=2)
    assert rn.row_reduce(net, rn.ReductionSchedule.explicit([0, 0])).matrices == net.matrices
    zeroed = rn.row_reduce(net, rn.ReductionSchedule.explicit([0, 3]))
    assert zeroed.matrices[1] == zeros(2, 3, 3)


def test_reduce_rejects_bad_schedule():
    net = rn.pascal_net(2, 4, 2)
    with pytest.raises(ValueError):
        rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 1, 2]))
    with pytest.raises(ValueError):
        rn.ReductionSchedule.explicit([0, 2, 1])
    with pytest.raises(ValueError):
        rn.ReductionSchedule.explicit([1, 2])
    with pytest.raises(ValueError):  # w_1 = 0 and nondecreasing imply w >= 0
        rn.ReductionSchedule.explicit([0, -1])
    with pytest.raises(ValueError):
        rn.row_reduce(net, rn.ReductionSchedule.explicit([0]))


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_column_reduce_is_idempotent(m, s, data):
    net = rn.random_net(2, m, s, seed=data.draw(st.integers(0, 10**6)))
    w = [0]
    for _ in range(s - 1):
        w.append(data.draw(st.integers(w[-1], m + 2)))
    sched = rn.ReductionSchedule.explicit(w)
    once = rn.column_reduce(net, sched)
    twice = rn.column_reduce(once, sched)
    assert once.matrices == twice.matrices


def test_schedule_s_star():
    sched = rn.ReductionSchedule.explicit([0, 2, 5, 9])
    assert sched.s_star(10) == 4
    assert sched.s_star(6) == 3
    assert sched.s_star(3) == 2
    assert sched.s_star(1) == 1


def test_floor_log_schedules():
    sched = rn.ReductionSchedule.floor_log(16, 2, 12)
    assert sched.w[:8] == (0, 1, 1, 2, 2, 2, 2, 3)
    half = rn.ReductionSchedule.floor_log(16, 2, 12, num=1, den=2)
    assert half.w[3] == 1  # floor(log2 sqrt(4))
    assert half.w[15] == 2  # floor(log2 sqrt(16))
    capped = rn.ReductionSchedule.floor_log(100, 2, 3)
    assert max(capped.w) == 3


# --- sharpness constructions -----------------------------------------------


def test_prepend_zero_columns_t0_is_noop():
    d1, d2 = rn.pascal_net(2, 4, 2).matrices
    net = rn.prepend_zero_columns_seq(d1, d2, 0, 4)
    assert net.matrices == (d1, d2)
    assert net.declared_t == 0


def test_prepend_zero_columns_shifts_right():
    d1, d2 = rn.pascal_net(2, 4, 2).matrices
    net = rn.prepend_zero_columns_seq(d1, d2, 1, 4)
    assert rows(net.matrices[0]) == [
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    ]
    assert net.declared_t == 1


def test_prepend_zero_columns_net_passes_brute_force_check():
    d1, d2 = rn.pascal_net(2, 4, 2).matrices
    net = rn.prepend_zero_columns_seq(d1, d2, 1, 4)
    points = rn.generate_points(net)
    assert rn.verify_tms_net(points, 1)
    assert not rn.verify_tms_net(points, 0)


def test_prepend_zero_columns_rejects_bad_t():
    d1, d2 = rn.pascal_net(2, 4, 2).matrices
    with pytest.raises(ValueError):
        rn.prepend_zero_columns_seq(d1, d2, 5, 4)


def test_block_diag_edges():
    d2 = rn.pascal_net(2, 5, 2).matrices[1]
    assert rn.block_diag_seq(d2, 0, 5) == d2
    assert rn.block_diag_seq(d2, 5, 5) == d2


def test_block_diag_t2_m5():
    d2 = rn.pascal_net(2, 5, 2).matrices[1]
    e2 = rn.block_diag_seq(d2, 2, 5)
    for i in range(2):
        for j in range(2):
            assert at(e2, i, j) == at(d2, i, j)
    for i in range(3):
        for j in range(3):
            assert at(e2, 2 + i, 2 + j) == at(d2, i, j)
    for i in range(2):
        for j in range(2, 5):
            assert at(e2, i, j) == 0
            assert at(e2, j, i) == 0


def prepend_oracle(d1, d2, t, m):
    """prepend_zero_columns_seq entry by entry; test oracle."""
    mats = [
        rn.FieldMatrix(d.base, m, m, tuple(
            at(d, i, j - t) if j >= t else 0 for i in range(m) for j in range(m)
        ))
        for d in (d1, d2)
    ]
    return rn.NetSpec.from_matrices(d1.base, m, mats, declared_t=t)


def block_diag_oracle(d2, t, m):
    """block_diag_seq entry by entry; test oracle."""
    ent = (
        at(d2, i, j) if i < t and j < t
        else at(d2, i - t, j - t) if i >= t and j >= t
        else 0
        for i in range(m) for j in range(m)
    )
    return rn.FieldMatrix(d2.base, m, m, tuple(ent))


@pytest.mark.parametrize("base", [2, 3])
def test_sharpness_constructions_match_per_entry_oracles(base):
    rng = np.random.default_rng(base)
    for m in range(1, 7):
        # inputs larger than m x m and not square, so slicing picks the block
        d1, d2 = (
            rn.FieldMatrix(base, m + 2, m + 3,
                           tuple(rng.integers(0, base, (m + 2) * (m + 3)).tolist()))
            for _ in range(2)
        )
        for t in range(m + 1):
            assert rn.prepend_zero_columns_seq(d1, d2, t, m) == prepend_oracle(d1, d2, t, m)
            assert rn.block_diag_seq(d2, t, m) == block_diag_oracle(d2, t, m)


# --- point generation ------------------------------------------------------


def test_generate_points_k0_is_origin():
    net = rn.random_net(3, 3, 4, seed=11)
    pts = rn.generate_points(net)
    assert list(pts.numerators[0]) == [0, 0, 0, 0]


def test_generate_points_pascal_examples():
    pts = rn.generate_points(rn.pascal_net(2, 4, 2))
    assert list(pts.numerators[1]) == [8, 8]  # (1/2, 1/2)
    assert list(pts.numerators[3]) == [12, 4]  # (3/4, 1/4)


def test_generate_points_numerators_in_range():
    net = rn.random_net(3, 4, 3, seed=3)
    pts = rn.generate_points(net)
    assert pts.numerators.min() >= 0
    assert pts.numerators.max() < 3**4
    assert pts.n_points == 3**4


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.data(),
)
def test_generate_points_agrees_with_scalar_oracle(base, m, s, seed, data):
    net = rn.random_net(base, m, s, seed=seed)
    first_digits = data.draw(st.integers(0, m))
    pts = rn.generate_points(net, first_digits)
    assert pts.n_points == base**first_digits
    for k in range(min(pts.n_points, 20)):
        expect = point_slow(net, k)
        got = [pts.coord_fraction(k, j) for j in range(s)]
        assert got == list(expect)


def test_repetition_structure_of_reduced_points():
    # column j of the reduced net's points is b^w_j vertical copies of the
    # block over the first m - w_j digits
    net = rn.random_net(2, 6, 4, seed=21)
    sched = rn.ReductionSchedule.explicit([0, 2, 3, 6])
    red = rn.column_reduce(net, sched)
    full = rn.generate_points(red)
    for j, wj in enumerate(sched.w):
        head = rn.generate_points(red, first_digits=red.m - min(wj, red.m))
        tiled = np.tile(head.numerators[:, j], 2 ** min(wj, red.m))
        assert np.array_equal(full.numerators[:, j], tiled)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 5),
    st.lists(st.integers(0, 2), min_size=0, max_size=5),
    st.integers(0, 10**6),
)
def test_reduced_coordinates_are_periodic_in_the_index(base, m, steps, seed):
    # after column reduction, coordinate j depends only on the first
    # m - w_j digits of k, so it is periodic in k with period b^(m - w_j)
    w = [0]
    for step in steps:
        w.append(w[-1] + step)
    sched = rn.ReductionSchedule.explicit(w)
    red = rn.column_reduce(rn.random_net(base, m, len(w), seed=seed), sched)
    nums = rn.generate_points(red).numerators
    assert nums.flags.f_contiguous
    for j, wj in enumerate(w):
        period = base ** (m - min(wj, m))
        col = nums[:, j]
        assert col.flags.c_contiguous
        assert (col.reshape(-1, period) == col[:period]).all()


def test_generate_points_rejects_oversized_blocks_before_allocating(monkeypatch):
    monkeypatch.setattr(rn.nets, "_MAX_ENTRIES", 128)
    assert rn.generate_points(rn.random_net(2, 5, 4, seed=1)).numerators.size == 128
    net = rn.random_net(2, 5, 5, seed=1)
    with pytest.raises(ValueError, match="^point block of 160 entries exceeds the limit of 128$"):
        rn.generate_points(net)
    with pytest.raises(ValueError, match="point block of 160 entries"):
        coordinate_numerators(net.digits, 2, 5)
    assert rn.generate_points(net, 4).n_points == 16


def test_generate_points_rejects_a_huge_base_without_allocating():
    # 2^61 - 1 points of one coordinate: far above the limit, below 2^62
    net = rn.NetSpec(2**61 - 1, 1, np.zeros((1, 1, 1), dtype=np.int64))
    with pytest.raises(ValueError, match=f"point block of {2**61 - 1} entries"):
        rn.generate_points(net)


def test_unreduced_columns_match_after_reduction():
    net = rn.random_net(3, 4, 3, seed=8)
    sched = rn.ReductionSchedule.explicit([0, 0, 2])
    red = rn.column_reduce(net, sched)
    a = rn.generate_points(net).numerators
    b = rn.generate_points(red).numerators
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.array_equal(a[:, 1], b[:, 1])
    assert not np.array_equal(a[:, 2], b[:, 2])


def test_generate_points_first_digits_validation():
    net = rn.pascal_net(2, 4, 2)
    with pytest.raises(ValueError):
        rn.generate_points(net, 5)
    assert rn.generate_points(net, 0).n_points == 1


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 10**6),
    st.data(),
)
def test_coordinate_numerators_block_matches_oracle(base, m, k, seed, data):
    net = rn.random_net(base, m, k, seed=seed)
    n_digits = data.draw(st.integers(0, m))
    block = coordinate_numerators(net.digits, base, n_digits)
    assert block.shape == (base**n_digits, k)
    assert block.dtype == np.int64
    for idx in range(min(block.shape[0], 150)):
        got = [Fraction(int(v), base**m) for v in block[idx]]
        assert got == list(point_slow(net, idx))
    if base == 2:
        assert np.array_equal(_numerators_digits(net.digits, 2, n_digits), block)
        assert np.array_equal(_numerators_xor(net.digits, n_digits), block)


@pytest.mark.parametrize(
    "base,m,n_digits", [(2, 16, 16), (2, 17, 17), (3, 10, 10), (3, 11, 11), (3, 21, 3)]
)
def test_numerators_digits_at_accumulator_width_boundaries(base, m, n_digits):
    # b^m up to 2^16 accumulates in uint16, up to 2^32 in uint32, else int64
    net = rn.pascal_net(base, m, 2)
    block = _numerators_digits(net.digits, base, n_digits)
    assert block.dtype == np.int64
    if n_digits == m:
        # both matrices are invertible: each column is a permutation of [0, b^m)
        for col in block.T:
            assert np.array_equal(np.sort(col), np.arange(base**m))
    n_rows = base**n_digits
    for idx in sorted({0, 1, n_rows // 3, n_rows - 2, n_rows - 1}):
        got = [Fraction(int(v), base**m) for v in block[idx]]
        assert got == list(point_slow(net, idx))


def numerators_by_matmul(net, n_digits):
    """Oracle: (N, s) numerators as digit vectors times C_j^T mod b, exact."""
    b, m = net.base, net.m
    idx = np.arange(b**n_digits, dtype=np.int64)
    k_digits = (idx[:, None] // b ** np.arange(m, dtype=np.int64)) % b
    weights = b ** np.arange(m - 1, -1, -1, dtype=np.int64)
    cs = net.digits.astype(np.int64)
    return np.stack([(k_digits @ c.T) % b @ weights for c in cs], axis=1)


@pytest.mark.parametrize("base,m,s", [(2, 8, 5), (3, 6, 4), (5, 4, 3), (7, 4, 2), (131, 2, 3)])
def test_coordinate_numerators_are_column_major_and_exact(base, m, s):
    # every n_digits from a block inside the small index-major head (fewer
    # than 64 indices per level) to blocks past it
    net = rn.random_net(base, m, s, seed=base + m)
    for n_digits in range(m + 1):
        want = numerators_by_matmul(net, n_digits)
        kernels = [
            lambda d, n: coordinate_numerators(d, base, n),
            lambda d, n: _numerators_digits(d, base, n),
        ]
        if base == 2:
            kernels.append(_numerators_xor)
        for kernel in kernels:
            got = kernel(net.digits, n_digits)
            assert got.shape == (base**n_digits, s) and got.dtype == np.int64
            assert got.flags.f_contiguous
            assert np.array_equal(got, want)
    pts = rn.generate_points(net)
    assert pts.numerators.flags.f_contiguous
    for idx in (0, 1, base**m - 1):
        got = [pts.coord_fraction(idx, j) for j in range(s)]
        assert got == list(point_slow(net, idx))


def test_coordinate_numerators_base_beyond_uint8_digits():
    net = rn.random_net(131, 2, 3, seed=4)
    block = coordinate_numerators(net.digits, 131, 2)
    for idx in (0, 1, 130, 131, 5000, 131**2 - 1):
        got = [Fraction(int(v), 131**2) for v in block[idx]]
        assert got == list(point_slow(net, idx))


def test_coordinate_numerators_rejects_mixed_or_empty_input():
    with pytest.raises(ValueError):
        coordinate_numerators(np.zeros((0, 3, 3), dtype=np.uint8), 2, 0)
    with pytest.raises(ValueError):
        coordinate_numerators(np.full((2, 3, 3), 2, dtype=np.uint8), 2, 1)
    with pytest.raises(ValueError):
        coordinate_numerators(np.eye(3, dtype=np.uint8), 2, 1)
    with pytest.raises(ValueError):
        coordinate_numerators(np.zeros((1, 3, 4), dtype=np.uint8), 2, 1)


def test_coordinate_numerators_rejects_b_m_beyond_int64():
    with pytest.raises(ValueError):
        coordinate_numerators(np.eye(62, dtype=np.uint8)[None], 2, 0)


# --- file formats ----------------------------------------------------------


@settings(max_examples=30)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.integers(1, 4), st.integers(0, 10**6))
def test_net_file_round_trip(base, m, s, seed):
    net = rn.random_net(base, m, s, seed=seed)
    buf = io.StringIO()
    rn.write_net(net, buf)
    again = rn.read_net(io.StringIO(buf.getvalue()))
    assert again.base == net.base
    assert again.m == net.m
    assert again.matrices == net.matrices
    # second round trip is byte identical
    buf2 = io.StringIO()
    rn.write_net(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_read_net_rejects_malformed():
    with pytest.raises(ValueError):
        rn.read_net(io.StringIO(""))
    with pytest.raises(ValueError):
        rn.read_net(io.StringIO("2 2\n1 0\n0 1\n"))
    with pytest.raises(ValueError):
        rn.read_net(io.StringIO("2 2 1\n1 0\n"))
    with pytest.raises(ValueError):
        rn.read_net(io.StringIO("2 2 1\n1 0 1\n0 1 0\n"))


def test_read_net_ignores_blank_lines():
    net = rn.read_net(io.StringIO("\n2 2 1\n\n1 0\n  \n0 1\n\n"))
    assert net.matrices[0] == identity(2, 2)


def write_csv_per_row(points, fh):
    """Per-row formatting oracle for ``PointBlock.write_csv``."""
    den = points.base**points.m
    fh.write("k," + ",".join(f"x{j + 1}" for j in range(points.s)) + "\n")
    for k in range(points.n_points):
        row = ",".join(f"{int(v)}/{den}" for v in points.numerators[k])
        fh.write(f"{k},{row}\n")


@pytest.mark.parametrize("base, m, s", [(2, 12, 40), (3, 7, 5), (2, 3, 1)])
@pytest.mark.parametrize("first_digits", [None, 2])
def test_points_csv_matches_per_row_oracle(base, m, s, first_digits):
    # (2, 12, 40) writes 4096 rows in several blocks of rows
    net = rn.column_reduce(
        rn.random_net(base, m, s, seed=11), rn.ReductionSchedule.floor_log(s, base, m)
    )
    pts = rn.generate_points(net, first_digits)
    got, want = io.StringIO(), io.StringIO()
    pts.write_csv(got)
    write_csv_per_row(pts, want)
    assert got.getvalue() == want.getvalue()


def test_points_csv_format():
    pts = rn.generate_points(rn.pascal_net(2, 2, 2))
    buf = io.StringIO()
    pts.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,x1,x2"
    assert lines[1] == "0,0/4,0/4"
    assert lines[2] == "1,2/4,2/4"
    assert lines[3] == "2,1/4,3/4"
    assert lines[4] == "3,3/4,1/4"
    # values are exact fractions of b^m
    assert Fraction(2, 4) == pts.coord_fraction(1, 0)
