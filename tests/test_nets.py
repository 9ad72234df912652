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
from oracles import (
    Matrix,
    at,
    coord_fraction,
    identity,
    matmul,
    matpow,
    matrices,
    net_from_matrices,
    point_slow,
    rows,
    zeros,
)
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
    with pytest.raises(ValueError):
        net.digits[0, 0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.digits = 1 - eye
    eye[0, 0, 0] = 0  # the net holds its own copy
    assert net.digits[0, 0, 0] == 1


def test_netspec_is_its_base_m_and_digits():
    assert [f.name for f in dataclasses.fields(rn.NetSpec)] == ["base", "m", "digits"]
    eye = np.eye(2, dtype=np.int64)[None]
    for claim in ({"declared_t": 0}, {"provenance": "file"}):
        with pytest.raises(TypeError):
            rn.NetSpec(2, 2, eye, **claim)


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
    again = net_from_matrices(base, 3, matrices(net))
    assert again == net
    assert matrices(again) == matrices(net)


# --- pascal_net ------------------------------------------------------------


def test_pascal_net_matches_paper_example():
    net = rn.pascal_net(2, 4, 2)
    assert matrices(net)[0] == identity(2, 4)
    assert rows(matrices(net)[1]) == [
        (1, 1, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 1),
    ]


def test_pascal_net_1x1():
    net = rn.pascal_net(2, 1, 2)
    assert rows(matrices(net)[0]) == [(1,)]
    assert rows(matrices(net)[1]) == [(1,)]


def test_pascal_net_m3_second_matrix():
    # c_{2,3} = binom(2,1) mod 2 = 0, not 1
    net = rn.pascal_net(2, 3, 2)
    assert rows(matrices(net)[1]) == [(1, 1, 1), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("base,m", [(2, 6), (3, 6), (5, 4)])
def test_pascal_entries_match_lucas_oracle(base, m):
    net = rn.pascal_net(base, m, 2)
    c2 = matrices(net)[1]
    for i in range(m):
        for r in range(m):
            assert at(c2, i, r) == binom_mod_lucas(r, i, base)


def test_pascal_net_higher_s_uses_matrix_powers():
    net = rn.pascal_net(3, 4, 4)
    c2 = matrices(net)[1]
    assert matrices(net)[0] == identity(3, 4)
    assert matrices(net)[2] == matmul(c2, c2)
    assert matrices(net)[3] == matmul(matmul(c2, c2), c2)


def pascal_oracle(base, m, s):
    """Pascal net from scalar powers of the binomial matrix; test oracle."""
    ent = tuple(math.comb(r, i) % base for i in range(m) for r in range(m))
    mats = tuple(matpow(Matrix(base, m, m, ent), j) for j in range(s))
    return net_from_matrices(base, m, mats)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 131, 2**61 - 1]),
       st.integers(1, 8), st.integers(1, 12))
def test_pascal_net_matches_matrix_power_oracle(base, m, s):
    net = rn.pascal_net(base, m, s)
    oracle = pascal_oracle(base, m, s)
    assert net.digits.dtype == oracle.digits.dtype
    assert np.array_equal(net.digits, oracle.digits)


@pytest.mark.parametrize("args,digest", [
    ((2, 12, 800), "7de1e9f729ba21bbc5f3b3442cee5eeb08a46f1257de6d8f88fac8eb18ba170c"),
    ((3, 8, 400), "9d88d10a7e2990d2727f19f021d088fc2437a580fbeac839ef40126ea051ed6f"),
])
def test_pascal_net_file_bytes_are_pinned(args, digest):
    # sha256 of the files written by the matrix-power construction
    buf = io.StringIO()
    rn.write_net(rn.pascal_net(*args), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("construct", [
    rn.pascal_net,
    lambda base, m, s: rn.random_net(base, m, s, seed=0),
], ids=["pascal", "random"])
@pytest.mark.parametrize("args, message", [
    ((2, 0, 2), "m must be >= 1"),
    ((2, 2, 0), "s must be >= 1"),
    *[((base, 2, 3), f"base must be a prime below 2\\^63, got {base}") for base in (0, 1, 4)],
    ((2, 4, 7), "net of 112 entries exceeds the limit of 100"),
    # two bad arguments: m, then s, then the base, then the size (an m
    # or s of 0 makes the size 0, so only the base can precede it)
    ((2, 0, 0), "m must be >= 1"),
    ((4, 0, 2), "m must be >= 1"),
    ((4, 2, 0), "s must be >= 1"),
    ((4, 4, 7), "base must be a prime below 2\\^63, got 4"),
])
def test_constructions_reject_bad_arguments(construct, args, message, monkeypatch):
    monkeypatch.setattr(rn.nets, "_MAX_ENTRIES", 100)
    with pytest.raises(ValueError, match=f"^{message}$"):
        construct(*args)


# --- random_net ------------------------------------------------------------


def test_random_net_deterministic():
    a = rn.random_net(2, 5, 3, seed=123)
    b = rn.random_net(2, 5, 3, seed=123)
    assert a == b


@pytest.mark.parametrize("base", [2, 3, 5, 7, 131])
@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
def test_random_net_digits_match_scalar_splitmix64(base, seed):
    # 4,320 draws in bases 2 (limit 2^64: no rejection mask) and 3
    m, s = (12, 30) if base <= 3 else (3, 5)
    net = rn.random_net(base, m, s, seed)
    limit = (1 << 64) - (1 << 64) % base
    assert net.digits.ravel().tolist() == uniform_digits_scalar(seed, s * m * m, base, limit)


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


@pytest.mark.parametrize("make, digest", [
    (lambda: rn.random_net(3, 8, 400, seed=0),
     "2a30a23fc81ecf89382d6c8b839f80a3a6dccbd5194122ab2dcf73083b857c14"),
    (lambda: rn.column_reduce(
        rn.random_net(2, 12, 800, seed=0), rn.ReductionSchedule.floor_log(800, 2, 12)),
     "a69f365714fb4d07b54d02d9e3f44441bd2bbb6bf4ccfc4b429cc0d1a64532f8"),
], ids=["b3-m8-s400", "paper-log-reduced"])
def test_random_net_files_are_pinned(make, digest):
    # sha256 of the files as the %d template writes them; the byte blocks of
    # b <= 10 must give the same bytes
    buf = io.StringIO()
    rn.write_net(make(), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_random_net_paper_scale_shapes():
    net = rn.random_net(2, 12, 800, seed=0)
    assert net.s == 800
    assert all(c.n_rows == 12 and c.n_cols == 12 for c in matrices(net))


def test_random_net_different_seeds_differ():
    for seed in range(10):
        a = rn.random_net(3, 4, 2, seed=seed)
        b = rn.random_net(3, 4, 2, seed=seed + 1000)
        assert matrices(a) != matrices(b)


def test_random_net_digits_are_plausibly_uniform():
    net = rn.random_net(5, 10, 10, seed=9)
    flat = [e for c in matrices(net) for e in c.entries]
    counts = np.bincount(flat, minlength=5)
    assert counts.min() > 0.8 * len(flat) / 5


# --- reduction -------------------------------------------------------------


def test_column_reduce_paper_example():
    net = rn.pascal_net(2, 4, 2)
    red = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 1]))
    assert matrices(red)[0] == matrices(net)[0]
    assert rows(matrices(red)[1]) == [
        (1, 1, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 0),
    ]


def test_column_reduce_zero_w_is_identity_map():
    net = rn.random_net(3, 4, 3, seed=5)
    red = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 0, 0]))
    assert matrices(red) == matrices(net)


def test_column_reduce_w_at_least_m_zeroes_matrix():
    net = rn.random_net(2, 3, 2, seed=1)
    red = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 7]))
    assert matrices(red)[1] == zeros(2, 3, 3)


def test_row_reduce_paper_example():
    net = rn.pascal_net(2, 4, 2)
    red = rn.row_reduce(net, rn.ReductionSchedule.explicit([0, 1]))
    assert rows(matrices(red)[1]) == [
        (1, 1, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 0),
    ]


def test_row_reduce_edge_cases():
    net = rn.random_net(2, 3, 2, seed=2)
    assert matrices(rn.row_reduce(net, rn.ReductionSchedule.explicit([0, 0]))) == matrices(net)
    zeroed = rn.row_reduce(net, rn.ReductionSchedule.explicit([0, 3]))
    assert matrices(zeroed)[1] == zeros(2, 3, 3)


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
    assert matrices(once) == matrices(twice)


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


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(1, 300),
    base=st.sampled_from([2, 3, 5, 7, 11, 257]),
    m=st.integers(1, 30),
    num=st.integers(0, 6),
    den=st.integers(1, 6),
)
def test_floor_log_equals_the_per_coordinate_search(s, base, m, num, den):
    want = []
    for j in range(1, s + 1):
        k = 0  # largest k with base^(k*den) <= j^num, searched from 0
        while base ** ((k + 1) * den) <= j**num:
            k += 1
        want.append(min(k, m))
    assert rn.ReductionSchedule.floor_log(s, base, m, num, den).w == tuple(want)


# --- sharpness constructions -----------------------------------------------


def test_prepend_zero_columns_t0_is_noop():
    pascal = rn.pascal_net(2, 4, 2)
    net = rn.prepend_zero_columns_seq(pascal.digits, 2, 0, 4)
    assert matrices(net) == matrices(pascal)


def test_prepend_zero_columns_shifts_right():
    net = rn.prepend_zero_columns_seq(rn.pascal_net(2, 4, 2).digits, 2, 1, 4)
    assert rows(matrices(net)[0]) == [
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    ]


def test_prepend_zero_columns_net_passes_brute_force_check():
    net = rn.prepend_zero_columns_seq(rn.pascal_net(2, 4, 2).digits, 2, 1, 4)
    points = rn.generate_points(net)
    assert rn.verify_tms_net(points, 1)
    assert not rn.verify_tms_net(points, 0)


def test_prepend_zero_columns_rejects_bad_t():
    # both sharpness constructions, on every kind of bad input
    digits = rn.pascal_net(2, 4, 2).digits
    bad = [
        (digits, 2, 5, 4),  # t > m
        (digits, 2, -1, 4),  # t < 0
        (digits, 4, 1, 4),  # base not prime
        (np.full((2, 4, 4), 2), 2, 1, 4),  # entry outside [0, b)
        (np.full((2, 4, 4), -1), 3, 1, 4),
        # an entry outside [0, b) beyond the m x m block that is read
        (np.pad(digits, ((0, 0), (0, 1), (0, 1)), constant_values=3), 3, 1, 4),
        (digits[:, :3], 2, 1, 4),  # fewer than m rows
        (digits[:, :, :3], 2, 1, 4),  # fewer than m columns
        (digits[:1], 2, 1, 4),  # one matrix, not two
        (digits.astype(float), 2, 1, 4),  # not integer digits
    ]
    for construct in (rn.prepend_zero_columns_seq, rn.block_diag_seq):
        for args in bad:
            with pytest.raises(ValueError):
                construct(*args)


def test_block_diag_edges():
    pascal = rn.pascal_net(2, 5, 2)
    for t in (0, 5):
        c1, c2 = matrices(rn.block_diag_seq(pascal.digits, 2, t, 5))
        assert c1 == matrices(rn.prepend_zero_columns_seq(pascal.digits, 2, t, 5))[0]
        assert c2 == matrices(pascal)[1]


def test_block_diag_t2_m5():
    pascal = rn.pascal_net(2, 5, 2)
    d2 = matrices(pascal)[1]
    e2 = matrices(rn.block_diag_seq(pascal.digits, 2, 2, 5))[1]
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


@pytest.mark.parametrize("construct", [rn.prepend_zero_columns_seq, rn.block_diag_seq])
def test_sharpness_t_is_the_strict_t_value(construct):
    # Pascal's first two matrices generate a (0,2)-sequence in every base
    for base, m_max in ((2, 6), (3, 4), (5, 3), (7, 3)):
        for m in range(1, m_max + 1):
            digits = rn.pascal_net(base, m, 2).digits
            for t in range(m + 1):
                net = construct(digits, base, t, m)
                assert rn.strict_t(rn.generate_points(net)) == t


def prepend_oracle(d1, d2, t, m):
    """prepend_zero_columns_seq entry by entry; test oracle."""
    mats = [
        Matrix(d.base, m, m, tuple(
            at(d, i, j - t) if j >= t else 0 for i in range(m) for j in range(m)
        ))
        for d in (d1, d2)
    ]
    return net_from_matrices(d1.base, m, mats)


def block_diag_oracle(d1, d2, t, m):
    """block_diag_seq entry by entry; test oracle."""
    ent = (
        at(d2, i, j) if i < t and j < t
        else at(d2, i - t, j - t) if i >= t and j >= t
        else 0
        for i in range(m) for j in range(m)
    )
    mats = (matrices(prepend_oracle(d1, d2, t, m))[0], Matrix(d2.base, m, m, tuple(ent)))
    return net_from_matrices(d2.base, m, mats)


@pytest.mark.parametrize("base", [2, 3, 5, 7])
def test_sharpness_constructions_match_per_entry_oracles(base):
    rng = np.random.default_rng(base)
    for m in range(1, 7):
        # inputs larger than m x m and not square, so slicing picks the block
        digits = rng.integers(0, base, (2, m + 2, m + 3))
        d1, d2 = (Matrix(base, m + 2, m + 3, tuple(d.ravel().tolist())) for d in digits)
        for t in range(m + 1):
            assert rn.prepend_zero_columns_seq(digits, base, t, m) == prepend_oracle(d1, d2, t, m)
            assert rn.block_diag_seq(digits, base, t, m) == block_diag_oracle(d1, d2, t, m)


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
        got = [coord_fraction(pts, k, j) for j in range(s)]
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
        got = [coord_fraction(pts, idx, j) for j in range(s)]
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
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 12), st.integers(1, 4),
       st.integers(0, 10**6))
def test_net_file_round_trip(base, m, s, seed):
    net = rn.random_net(base, m, s, seed=seed)
    buf = io.StringIO()
    rn.write_net(net, buf)
    again = rn.read_net(io.StringIO(buf.getvalue()))
    assert again.base == net.base
    assert again.m == net.m
    assert matrices(again) == matrices(net)
    # second round trip is byte identical
    buf2 = io.StringIO()
    rn.write_net(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


@pytest.mark.parametrize("make", [
    lambda: rn.pascal_net(2, 4, 2),
    lambda: rn.pascal_net(5, 3, 4),
    lambda: rn.random_net(2, 3, 2, seed=1),
    lambda: rn.random_net(131, 3, 2, seed=1),
    lambda: rn.prepend_zero_columns_seq(rn.pascal_net(3, 5, 2).digits, 3, 2, 4),
    lambda: rn.block_diag_seq(rn.pascal_net(2, 6, 2).digits, 2, 2, 5),
], ids=["pascal", "pascal-b5", "random", "random-b131", "prepend", "block-diag"])
def test_read_net_of_write_net_equals_the_net(make):
    # a net is its digits: the file holds all of it, so the read net is equal
    net = make()
    buf = io.StringIO()
    rn.write_net(net, buf)
    assert rn.read_net(io.StringIO(buf.getvalue())) == net


def write_net_per_line(net):
    """Per-line formatting oracle for ``write_net``."""
    lines = (" ".join(map(str, row)) + "\n" for row in net.digits.reshape(-1, net.m).tolist())
    return f"{net.base} {net.m} {net.s}\n" + "".join(lines)


@pytest.mark.parametrize("make", [
    *[lambda b=b: rn.random_net(b, 5, 3, seed=b) for b in (2, 3, 5, 7)],
    lambda: rn.random_net(11, 12, 3, seed=2),
    lambda: rn.random_net(131, 3, 2, seed=1),
    lambda: rn.column_reduce(rn.random_net(2, 6, 8, seed=2), rn.ReductionSchedule(tuple(range(8)))),
    lambda: rn.column_reduce(rn.random_net(11, 4, 5, seed=3), rn.ReductionSchedule((0, 1, 2, 4, 9))),
    lambda: rn.random_net(2, 1, 6, seed=4),
    lambda: rn.random_net(11, 1, 6, seed=4),
    lambda: rn.random_net(2, 12, 400, seed=5),
    lambda: rn.random_net(3, 1, 8193, seed=5),
    lambda: rn.random_net(11, 5, 1000, seed=5),
], ids=["b2", "b3", "b5", "b7", "b11", "b131", "reduced-b2", "reduced-b11", "m1-b2", "m1-b11",
        "rows-4800-b2", "rows-8193-b3", "rows-5000-b11"])
def test_write_net_matches_per_line_oracle(make):
    # b <= 10 is written as byte blocks, b > 10 through the %d template; the
    # reduced nets hold zero columns and whole zero matrices, and the last
    # three write several blocks of 4096 rows (the 8193rd row alone)
    net = make()
    buf = io.StringIO()
    rn.write_net(net, buf)
    assert buf.getvalue() == write_net_per_line(net)


def test_read_net_rejects_malformed():
    for text, message in [
        ("", "empty net file"),
        ("2 2\n1 0\n0 1\n", "header must be 'b m s'"),
        ("2 2 1\n1 0\n", "expected 3 lines, found 2"),
        ("2 2 1\n1 0 1\n0 1 0\n", "row length 3 != m = 2"),
    ]:
        with pytest.raises(ValueError) as err:
            rn.read_net(io.StringIO(text))
        assert str(err.value) == message


def _layouts(text):
    """Valid net files in layouts other than write_net's, read as ``text``."""
    header, body = text.split("\n", 1)
    variants = [
        "\n" + text,  # a leading blank line
        header + "\n" + body.replace("\n", "\n\n"),  # blank lines between rows
        text.replace("\n", "\r\n"),  # CRLF, kept by a StringIO
        text[:-1] + " \n",  # a trailing space
        header + "\n" + body.replace(" ", "\t"),  # tab separators
        text[:-1],  # no final newline
    ]
    return [v for v in variants if v != text]  # at m = 1 no line has a space


@pytest.mark.parametrize("base", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("m", [1, 2, 12])
@pytest.mark.parametrize("source", ["random", "pascal"])
def test_read_net_byte_path_and_line_parser_agree(base, m, source, monkeypatch):
    net = rn.random_net(base, m, 3, seed=m) if source == "random" else rn.pascal_net(base, m, 3)
    buf = io.StringIO()
    rn.write_net(net, buf)
    if base > 10 and m == 12:
        assert " 10 " in buf.getvalue()  # an entry of two characters
    parsed = []
    loadtxt = rn.nets._loadtxt
    monkeypatch.setattr(rn.nets, "_loadtxt", lambda *a, **kw: parsed.append(1) or loadtxt(*a, **kw))
    assert rn.read_net(io.StringIO(buf.getvalue())) == net
    # write_net's layout is read as one byte block while every digit is one character
    assert parsed == ([1] if base > 10 else [])
    for text in _layouts(buf.getvalue()):
        parsed.clear()
        assert rn.read_net(io.StringIO(text)) == net, repr(text[:40])
        assert parsed == [1], repr(text[:40])


def test_read_net_ignores_blank_lines():
    net = rn.read_net(io.StringIO("\n2 2 1\n\n1 0\n  \n0 1\n\n"))
    assert matrices(net)[0] == identity(2, 2)


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
    assert Fraction(2, 4) == coord_fraction(pts, 1, 0)
