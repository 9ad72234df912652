"""Tests for local/star discrepancy and the weighted bound machinery."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rednets as rn
from oracles import coords, star_disc_plane_sweep
from rednets.quality import EnumerationBudgetError


def slow_star_disc(points, u):
    """Independent corner-scan oracle with Fraction-exact arithmetic."""
    b, m = points.base, points.m
    full = b**m
    cols = [j - 1 for j in u]
    axes = []
    for c in cols:
        vals = sorted(set(int(v) for v in points.numerators[:, c]) | {full})
        axes.append(vals)
    pts = [
        tuple(int(points.numerators[k, c]) for c in cols)
        for k in range(points.n_points)
    ]
    best = Fraction(0)
    for corner in product(*axes):
        closed = sum(1 for p in pts if all(pc <= cc for pc, cc in zip(p, corner)))
        open_ = sum(1 for p in pts if all(pc < cc for pc, cc in zip(p, corner)))
        vol = Fraction(1)
        for cc in corner:
            vol *= Fraction(cc, full)
        best = max(best, Fraction(closed, full) - vol, vol - Fraction(open_, full))
    return best


# --- weight models ------------------------------------------------------------


def test_weight_model_parse_and_spec_round_trip():
    w = rn.WeightModel.parse("const:0.5")
    assert w.gamma(1) == 0.5 and w.gamma(7) == 0.5
    w = rn.WeightModel.parse("poly:2")
    assert w.gamma(3) == pytest.approx(1 / 9)
    w = rn.WeightModel.parse("1.0,0.5,0.25")
    assert w.gamma(2) == 0.5
    for text in ("const:2", "poly:1.5", "0.5,0.5,0.125"):
        assert rn.WeightModel.parse(rn.WeightModel.parse(text).spec()).gammas(3).tolist() == rn.WeightModel.parse(text).gammas(3).tolist()


def test_weight_model_validation():
    with pytest.raises(ValueError):
        rn.WeightModel.constant(0.0)
    with pytest.raises(ValueError):
        rn.WeightModel.explicit([0.5, 1.0])  # increasing
    with pytest.raises(ValueError):
        rn.WeightModel.explicit([1.0, -1.0])
    with pytest.raises(ValueError):
        rn.WeightModel.polynomial(2, decay_tau=2.5)
    with pytest.raises(ValueError):
        rn.WeightModel.explicit([1.0]).gamma(2)


def test_weight_model_j_zero_and_gamma_u():
    assert rn.WeightModel.constant(1.0).j_zero(5) == 0
    assert rn.WeightModel.constant(2.0).j_zero(5) == 5
    assert rn.WeightModel.explicit([3.0, 2.0, 0.5]).j_zero(3) == 2
    w = rn.WeightModel.polynomial(2)
    assert w.gamma_u((1, 2, 3)) == pytest.approx(1.0 / 36)
    assert w.gamma_u(()) == 1.0


DESCENDING = np.sort(np.random.default_rng(3).uniform(0.1, 3.0, 10**5))[::-1]


@pytest.mark.parametrize("weights, s", [
    (rn.WeightModel.constant(0.7), 10**5),
    (rn.WeightModel.polynomial(2), 10**5),
    (rn.WeightModel.polynomial(1.5), 10**5),
    (rn.WeightModel.explicit(DESCENDING), 10**5),
    (rn.WeightModel.polynomial(2), 0),
])
def test_gammas_are_the_scalar_gammas_bit_for_bit(weights, s):
    # numpy's vectorised j ** -2 differs from float(j) ** -2 in the last bit
    # for some j (the first at j = 31 on x86-64 SIMD); gammas must not
    g = weights.gammas(s)
    assert g.dtype == np.float64 and g.shape == (s,)
    assert g.tobytes() == np.array([weights.gamma(j) for j in range(1, s + 1)]).tobytes()


# --- local discrepancy ----------------------------------------------------------


def test_local_discrepancy_at_one_is_zero():
    pts = rn.generate_points(rn.random_net(2, 3, 2, seed=1))
    assert rn.local_discrepancy(pts, (1, 2), (1.0, 1.0)) == pytest.approx(0.0)


def test_local_discrepancy_pascal_example():
    pts = rn.generate_points(rn.pascal_net(2, 2, 2))
    assert rn.local_discrepancy(pts, (1,), (0.5,)) == 0.0


def test_local_discrepancy_empty_block():
    empty = rn.PointBlock(2, 2, np.zeros((0, 2), dtype=np.int64))
    assert rn.local_discrepancy(empty, (1, 2), (0.5, 0.25)) == -0.125


def test_local_discrepancy_near_zero_anchor():
    # for a block with no coordinate at 0 both the count and the volume
    # vanish as the anchor shrinks
    blk = rn.PointBlock(2, 3, np.array([[1, 3], [5, 7], [2, 6]]))
    val = rn.local_discrepancy(blk, (1, 2), (1e-12, 1e-12))
    assert abs(val) <= 1e-12
    # a digital net always contains the origin, so the limit is the share
    # of points sitting at 0 in the selected coordinates
    pts = rn.generate_points(rn.random_net(2, 3, 2, seed=3))
    zeros = int(np.sum(pts.numerators[:, 0] == 0))
    val = rn.local_discrepancy(pts, (1,), (1e-12,))
    assert val == pytest.approx(zeros / 8, abs=1e-10)


def test_local_discrepancy_counts_a_point_on_a_grid_value_below_the_float_x():
    # the float 0.2 lies just above 1/5, so the point 1/5 is inside [0, 0.2)
    blk = rn.PointBlock(5, 1, [[0], [1], [2], [3], [4]])
    assert Fraction(0.2) > Fraction(1, 5)
    assert rn.local_discrepancy(blk, (1,), (0.2,)) == 2 / 5 - 0.2
    # the float 0.6 lies just below 3/5, so the point 3/5 is outside
    assert Fraction(0.6) < Fraction(3, 5)
    assert rn.local_discrepancy(blk, (1,), (0.6,)) == 3 / 5 - 0.6
    # a numpy float32 anchor gives the same Python float as its value
    assert rn.local_discrepancy(blk, (1,), (np.float32(0.5),)) == 3 / 5 - 0.5


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.integers(0, 2**32),
       st.data())
def test_local_discrepancy_matches_an_exact_count_on_grid_anchors(b, m, seed, data):
    pts = rn.generate_points(rn.random_net(b, m, 2, seed=seed))
    n = b**m
    x = [data.draw(st.integers(1, n)) / n for _ in range(2)]
    inside = sum(all(Fraction(int(v), n) < Fraction(xj) for v, xj in zip(row, x))
                 for row in pts.numerators)
    assert rn.local_discrepancy(pts, (1, 2), x) == inside / n - x[0] * x[1]


def test_local_discrepancy_validates_x():
    pts = rn.generate_points(rn.pascal_net(2, 2, 2))
    with pytest.raises(ValueError):
        rn.local_discrepancy(pts, (1,), (0.0,))
    with pytest.raises(ValueError):
        rn.local_discrepancy(pts, (1,), (1.5,))
    with pytest.raises(ValueError):
        rn.local_discrepancy(pts, (), ())


@pytest.mark.parametrize("u", [(0,), (4,), (1, 4)])
def test_local_discrepancy_rejects_indices_outside_the_dimension(u):
    pts = rn.generate_points(rn.pascal_net(2, 4, 3))
    with pytest.raises(ValueError, match=r"subset indices must lie in \[1, 3\]"):
        rn.local_discrepancy(pts, u, [0.5] * len(u))


@pytest.mark.parametrize("u", [(1, 1), (2, 3, 2)])
def test_local_discrepancy_rejects_a_repeated_index(u):
    # (1, 1) would multiply x_1 into the volume twice: 0.25 for the 1-d box
    # [0, 0.5), whose local discrepancy is 0.0
    pts = rn.generate_points(rn.pascal_net(2, 4, 3))
    assert rn.local_discrepancy(pts, (1,), (0.5,)) == 0.0
    with pytest.raises(ValueError, match="subset indices must be distinct"):
        rn.local_discrepancy(pts, u, [0.5] * len(u))


# --- exact star discrepancy -------------------------------------------------------


@pytest.mark.parametrize("u", [(0,), (4,), (1, 4)])
def test_star_disc_rejects_indices_outside_the_dimension(u):
    pts = rn.generate_points(rn.pascal_net(2, 4, 3))
    with pytest.raises(ValueError, match=r"subset indices must lie in \[1, 3\]"):
        rn.exact_star_discrepancy(pts, u)


def test_star_disc_single_point_at_zero():
    blk = rn.PointBlock(2, 0, np.array([[0]]))
    assert rn.exact_star_discrepancy(blk, (1,)) == 1.0


def test_star_disc_single_point_at_half():
    blk = rn.PointBlock(2, 1, np.array([[1]]))
    assert rn.exact_star_discrepancy(blk, (1,)) == 0.5


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_star_disc_equispaced_first_coordinate(m):
    pts = rn.generate_points(rn.pascal_net(2, m, 1))
    assert rn.exact_star_discrepancy(pts, (1,)) == 2.0**-m


def test_star_disc_permutation_invariance():
    pts = rn.generate_points(rn.random_net(2, 4, 2, seed=17))
    perm = np.random.default_rng(0).permutation(pts.n_points)
    shuffled = rn.PointBlock(2, 4, pts.numerators[perm])
    assert rn.exact_star_discrepancy(pts) == rn.exact_star_discrepancy(shuffled)


def test_star_disc_matches_fraction_oracle_random_sets():
    rng = np.random.default_rng(99)
    for _ in range(20):
        m = int(rng.integers(0, 4))
        s = int(rng.integers(1, 4))
        n = int(rng.integers(0, 9))
        blk = rn.PointBlock(2, m, rng.integers(0, 2**m, size=(n, s)))
        u = tuple(range(1, s + 1))
        got = rn.exact_star_discrepancy(blk, u)
        assert got == pytest.approx(float(slow_star_disc(blk, u)), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
def test_star_disc_matches_fraction_oracle_over_bases(base, d, data):
    # Keep the oracle's corners x points below about 1e5.
    m = data.draw(st.integers(1, max(
        k for k in range(1, 8) if k == 1 or (base**k + 1) ** d * base**k <= 10**5
    )))
    seed = data.draw(st.integers(0, 2**32))
    if data.draw(st.booleans()):
        net = rn.random_net(base, m, 3, seed=seed)
        w = sorted(data.draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
        net = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, *w]))
        # a leading block (first_digits < m) repeats coordinate values
        pts = rn.generate_points(net, data.draw(st.integers(0, m)))
    else:
        # arbitrary points, which need not include the origin
        n = data.draw(st.integers(0, base**m))
        rng = np.random.default_rng(seed)
        pts = rn.PointBlock(base, m, rng.integers(0, base**m, size=(n, 3)))
    u = tuple(sorted(data.draw(st.sets(st.integers(1, 3), min_size=d, max_size=d))))
    assert rn.exact_star_discrepancy(pts, u) == float(slow_star_disc(pts, u))


def test_star_disc_memory_stays_below_one_plane_of_corners():
    # 257^3 int64 corner counts would take 136 MB; one 257^2 plane is 0.5 MB,
    # and the sweep keeps a few of them: volumes, counts and one buffer.
    pts = rn.generate_points(rn.pascal_net(2, 8, 3))
    tracemalloc.start()
    try:
        rn.exact_star_discrepancy(pts, (1, 2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 257**2 * 8


def _nonempty_subsets(s):
    return [u for d in range(1, s + 1) for u in combinations(range(1, s + 1), d)]


def test_star_disc_matches_full_plane_sweep_on_benchmark_block():
    pts = rn.generate_points(rn.pascal_net(2, 8, 3))
    for u in _nonempty_subsets(3):
        assert rn.exact_star_discrepancy(pts, u) == star_disc_plane_sweep(pts, u)


@pytest.mark.parametrize("base,m", [(2, 6), (3, 4), (5, 2), (7, 2)])
def test_star_disc_matches_full_plane_sweep_on_random_nets(base, m):
    for seed in range(3):
        net = rn.random_net(base, m, 3, seed=seed)
        for first_digits in (m, m - 1, 0):
            pts = rn.generate_points(net, first_digits)
            for u in _nonempty_subsets(3):
                got = rn.exact_star_discrepancy(pts, u)
                assert got == star_disc_plane_sweep(pts, u), (seed, first_digits, u)


@pytest.mark.parametrize("base,m", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_star_disc_matches_full_plane_sweep_on_arbitrary_blocks(base, m):
    # three nonzero values per axis, so coordinates repeat and no point is 0
    rng = np.random.default_rng(base)
    for n in (0, 1, 2, 5, 17, base**m):
        values = rng.choice(np.arange(1, base**m), size=3, replace=False)
        pts = rn.PointBlock(base, m, values[rng.integers(0, 3, size=(n, 3))])
        for u in _nonempty_subsets(3):
            got = rn.exact_star_discrepancy(pts, u)
            assert got == star_disc_plane_sweep(pts, u), (n, u)


# The sweep keeps its planes in int32 when max(n_points, b^m) * b^(m (d-1))
# < 2^31 and in int64 otherwise; the full plane sweep is int64 throughout.
@pytest.mark.parametrize(
    "base,m", [(2, 10), (3, 6), (5, 4), (7, 3), (2, 11), (3, 7), (5, 5), (7, 4)]
)
def test_star_disc_matches_full_plane_sweep_on_each_side_of_the_int32_volumes(base, m):
    # b^(3m) is the largest volume: below 2^31 for the first four (int32),
    # above it for the last four (int64), whose blocks are only 10 points
    assert (base ** (3 * m) < 2**31) == (m < {2: 11, 3: 7, 5: 5, 7: 4}[base])
    rng = np.random.default_rng(base * 100 + m)
    for _ in range(3):
        pts = rn.PointBlock(base, m, rng.integers(0, base**m, size=(10, 3)))
        for u in _nonempty_subsets(3):
            got = rn.exact_star_discrepancy(pts, u)
            assert got == star_disc_plane_sweep(pts, u), u


@pytest.mark.parametrize("n", [2047, 2048, 2049])
def test_star_disc_matches_full_plane_sweep_on_each_side_of_the_int32_counts(n):
    # Closed counts reach n_points * 2^20 at b=2, m=10, d=3: below 2^31 only
    # for n = 2047.  With n > b^m the count, not the volume, sets the dtype.
    rng = np.random.default_rng(n)
    pts = rn.PointBlock(2, 10, rng.integers(1, 4, size=(n, 3)))
    want = star_disc_plane_sweep(pts, (1, 2, 3))
    assert want > 1.99
    assert rn.exact_star_discrepancy(pts, (1, 2, 3)) == want


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
def test_star_disc_matches_full_plane_sweep_hypothesis(base, d, data):
    m = data.draw(st.integers(1, {2: 7, 3: 4, 5: 3, 7: 2}[base]))
    seed = data.draw(st.integers(0, 2**32))
    if data.draw(st.booleans()):
        net = rn.random_net(base, m, 3, seed=seed)
        pts = rn.generate_points(net, data.draw(st.sampled_from([m, m - 1, 0])))
    else:
        n = data.draw(st.integers(0, base**m))
        hi = data.draw(st.integers(1, base**m))
        pts = rn.PointBlock(base, m, np.random.default_rng(seed).integers(0, hi, size=(n, 3)))
    u = tuple(sorted(data.draw(st.sets(st.integers(1, 3), min_size=d, max_size=d))))
    assert rn.exact_star_discrepancy(pts, u) == star_disc_plane_sweep(pts, u)


def test_local_discrepancy_reads_only_the_columns_in_u():
    # the whole float block of 4096 x 800 points would take 26 MB
    pts = rn.generate_points(rn.random_net(2, 12, 800, seed=4))
    x = (0.3, 0.55, 0.9)
    tracemalloc.start()
    try:
        val = rn.local_discrepancy(pts, (2, 400, 800), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    y = coords(pts)
    inside = (y[:, 1] < x[0]) & (y[:, 399] < x[1]) & (y[:, 799] < x[2])
    assert val == int(inside.sum()) / 4096 - x[0] * x[1] * x[2]


def test_star_disc_dominates_local_discrepancy_probes():
    pts = rn.generate_points(rn.random_net(2, 4, 3, seed=23))
    dstar = rn.exact_star_discrepancy(pts, (1, 2))
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = tuple(rng.uniform(1e-9, 1.0, size=2))
        assert abs(rn.local_discrepancy(pts, (1, 2), x)) <= dstar + 1e-12


def test_star_disc_guards():
    pts = rn.generate_points(rn.random_net(2, 4, 5, seed=2))
    with pytest.raises(ValueError):
        rn.exact_star_discrepancy(pts, (1, 2, 3, 4))
    big = rn.generate_points(rn.random_net(2, 13, 1, seed=2))
    with pytest.raises(ValueError):
        rn.exact_star_discrepancy(big, (1,))
    with pytest.raises(EnumerationBudgetError):
        rn.exact_star_discrepancy(pts, (1, 2, 3), budget=10)


# --- coefficient table --------------------------------------------------------------


def test_avb_base_cases_exact():
    a = rn.avb_coefficients(2, 2)
    assert a[0] == Fraction(5, 2)
    assert a[1] == Fraction(1, 3)
    b = rn.avb_coefficients(3, 2)
    assert b[0] == Fraction(7, 2)
    assert b[1] == Fraction(1, 2)


def test_avb_positive_small_bases_and_sizes():
    for base in (2, 3, 5, 7, 11, 13):
        for size in range(2, 7):
            assert all(c > 0 for c in rn.avb_coefficients(base, size))


def test_avb_rejects_singletons():
    with pytest.raises(ValueError):
        rn.avb_coefficients(2, 1)


# --- projection bound ----------------------------------------------------------------


def test_projection_bound_cases():
    assert rn.projection_disc_bound(2, 4, 0, 2, in_sstar=False) == 1.0
    assert rn.projection_disc_bound(2, 4, 1, 1, in_sstar=True) == 0.125
    val = rn.projection_disc_bound(2, 4, 0, 2, in_sstar=True)
    assert val == pytest.approx((2.5 + 4 / 3) / 16)


# --- global bound ---------------------------------------------------------------------


def test_global_bound_paper_style_example():
    sched = rn.ReductionSchedule.explicit([0, 1])
    tmap = {(1,): 0, (2,): 0, (1, 2): 0}
    gb = rn.global_disc_bound(tmap, sched, rn.WeightModel.constant(1.0), 2, 4, 2)
    assert gb.outside is None
    assert gb.singles == pytest.approx(2 / 16)
    assert gb.higher == pytest.approx((2 / 16) * (2.5 + 4 / 3))
    assert gb.value == pytest.approx(0.4791666666666667)


def test_global_bound_scales_linearly_in_weights():
    sched = rn.ReductionSchedule.explicit([0, 1])
    tmap = {(1,): 0, (2,): 0, (1, 2): 0}
    one = rn.global_disc_bound(tmap, sched, rn.WeightModel.constant(1.0), 2, 4, 2)
    # gamma_u = c^|u| for constant weights, so terms scale by c and c^2;
    # scaling all gamma_u by c scales each term linearly
    half = rn.global_disc_bound(tmap, sched, rn.WeightModel.constant(0.5), 2, 4, 2)
    assert half.singles == pytest.approx(0.5 * one.singles)
    assert half.higher == pytest.approx(0.25 * one.higher)


def test_global_bound_with_fully_reduced_coordinate():
    # s = 3, third coordinate entirely zeroed: term (i) appears and must
    # dominate the weighted discrepancy of any subset containing it
    m = 4
    net = rn.pascal_net(2, m, 3)
    sched = rn.ReductionSchedule.explicit([0, 1, m])
    red = rn.column_reduce(net, sched)
    pts = rn.generate_points(red)
    weights = rn.WeightModel.polynomial(2)
    base_pts = rn.generate_points(net)
    tmap = {}
    for size in (1, 2):
        for u in combinations(range(1, 3), size):
            tmap[u] = rn.strict_t(base_pts, u)
    gb = rn.global_disc_bound(tmap, sched, weights, 2, m, 3)
    assert gb.outside is not None
    for size in (1, 2, 3):
        for u in combinations(range(1, 4), size):
            wdisc = weights.gamma_u(u) * rn.exact_star_discrepancy(pts, u)
            assert wdisc <= gb.value + 1e-12


def test_global_bound_missing_projection_errors():
    sched = rn.ReductionSchedule.explicit([0, 1])
    with pytest.raises(ValueError):
        rn.global_disc_bound({(1,): 0}, sched, rn.WeightModel.constant(1.0), 2, 4, 2)


@pytest.mark.parametrize("tmap", [
    {(1,): 0, (2,): 5, (1, 2): 0},
    {(1,): -1, (2,): 0, (1, 2): 0},
    {(1,): 0, (2,): 0, (1, 2): 5},
])
def test_global_bound_rejects_t_outside_zero_to_m(tmap):
    sched = rn.ReductionSchedule.explicit([0, 1])
    with pytest.raises(ValueError, match="need 0 <= t <= m"):
        rn.global_disc_bound(tmap, sched, rn.WeightModel.constant(1.0), 2, 4, 2)


# --- reduction index choosers ------------------------------------------------------------


def test_zeta_scheme_examples():
    w = rn.WeightModel.polynomial(2, decay_tau=1.5)
    sched = rn.choose_reduction_indices(w, 2, 12, 16, "zeta")
    assert sched.w[0] == 0
    assert sched.w[1] == 0  # floor(log2 2^0.5)
    assert sched.w[3] == 1  # floor(log2 4^0.5)
    assert sched.w[15] == 2  # floor(log2 16^0.5)


def test_zeta_scheme_is_exact_for_tau_1_2():
    # w_j = floor(log_3(j^0.8)); at j = 3^5 and 3^10 float logs land just below
    w = rn.WeightModel.polynomial(2, decay_tau=1.2)
    sched = rn.choose_reduction_indices(w, 3, 20, 60000, "zeta")
    assert sched.w[242] == 4
    assert sched.w[59048] == 8
    assert sched == rn.ReductionSchedule.floor_log(60000, 3, 20, num=4, den=5)


def test_kappa_scheme_is_exact_at_a_power_of_the_base():
    # target = sqrt(59536) - 1 = 243 = 3^5 exactly
    w = rn.WeightModel.constant(1.0, kappa=59536.0)
    sched = rn.choose_reduction_indices(w, 3, 10, 2, "kappa")
    assert sched.w == (0, 5)


def test_kappa_scheme_example():
    w = rn.WeightModel.constant(1.0, kappa=17.0)
    sched = rn.choose_reduction_indices(w, 2, 12, 4, "kappa")
    assert sched.w == (0, 0, 0, 0)


def test_kappa_scheme_clamps_negative_logs():
    w = rn.WeightModel.explicit([8.0, 8.0], kappa=70.0)
    # j0 = 2, head = 64, target = sqrt(70/64) - 1 ~ 0.046; arg << 1 -> clamp
    sched = rn.choose_reduction_indices(w, 2, 6, 2, "kappa")
    assert sched.w == (0, 0)


def test_kappa_scheme_floor_is_exact_where_the_float_root_is_not():
    # 125 ** (1/3) is 4.999999999999999, but (1 + 2^2)^3 = 125 exactly
    w = rn.WeightModel.constant(1.0, kappa=125.0)
    assert rn.choose_reduction_indices(w, 2, 10, 3, "kappa").w == (0, 2, 2)


def kappa_oracle(weights, base, m, s):
    """w_j = the largest k <= m with (gamma_j b^k + 1)^s gamma_1^j0 <= kappa
    (0 if there is none, and for j = 1), by Fractions and a full search."""
    head = Fraction(weights.gamma(1)) ** weights.j_zero(s)
    w = [0]
    for j in range(2, s + 1):
        g = Fraction(weights.gamma(j))
        ok = [k for k in range(1, m + 1) if (g * base**k + 1) ** s * head <= weights.kappa]
        w.append(max(ok, default=0))
    return tuple(w)


@pytest.mark.parametrize("base", [2, 3, 5, 7])
def test_kappa_scheme_matches_fraction_oracle_at_boundary_weights(base):
    # kappa = (gamma b^k + 1)^s gamma_1^j0 exactly, and its float neighbours
    cases = []
    for gamma, head, s in [(1.0, [], 3), (0.5, [], 2), (0.25, [], 4), (0.5, [2.0], 3)]:
        for k in (1, 2, 3):
            exact = (Fraction(gamma) * base**k + 1) ** s * Fraction(2) ** len(head)
            kappa = float(exact)
            values = head + [gamma] * (s - len(head))
            for near in (np.nextafter(kappa, 0.0), kappa, np.nextafter(kappa, np.inf)):
                cases.append((rn.WeightModel.explicit(values, kappa=float(near)), s))
    cases += [(rn.WeightModel.polynomial(p, kappa=kappa), 6) for p in (1.0, 2.0) for kappa in (7.0, 50.0, 1e4)]
    hits = 0
    for weights, s in cases:
        got = rn.choose_reduction_indices(weights, base, 5, s, "kappa").w
        assert got == kappa_oracle(weights, base, 5, s), (weights, s)
        hits += got[-1] > 0
    assert hits > len(cases) // 2

    w = rn.WeightModel.constant(2.0, kappa=3.0)
    # gamma_1^j0 = 2^s for constant 2; kappa too small
    with pytest.raises(ValueError):
        rn.choose_reduction_indices(w, 2, 6, 3, "kappa")


def test_zeta_scheme_requires_poly2():
    w = rn.WeightModel.constant(1.0, decay_tau=1.5)
    with pytest.raises(ValueError):
        rn.choose_reduction_indices(w, 2, 6, 3, "zeta")


def test_kappa_criterion_product_holds_after_clamping():
    for weights, s in [
        (rn.WeightModel.polynomial(2, kappa=2.0), 50),
        (rn.WeightModel.constant(1.0, kappa=17.0), 4),
        (rn.WeightModel.explicit([2.0, 1.0, 0.25, 0.125], kappa=9.0), 4),
    ]:
        sched = rn.choose_reduction_indices(weights, 2, 10, s, "kappa")
        g = weights.gammas(s)
        prod = float(np.prod(g * (1 + 2.0 ** np.array(sched.w, dtype=float))))
        assert prod <= weights.kappa * (1 + 1e-12)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        rn.choose_reduction_indices(rn.WeightModel.constant(1.0), 2, 4, 2, "nope")


# --- zeta machinery -------------------------------------------------------------------------


def test_zeta_value_against_mpmath():
    for tau in (1.2, 1.5, 1.9):
        want = float(mpmath.zeta(tau))
        assert abs(rn.zeta_value(tau) - want) <= 1e-10


def test_zeta_product_single_factor():
    w = rn.WeightModel.polynomial(2, decay_tau=1.5)
    sched = rn.ReductionSchedule.explicit([0])
    prod, bound = rn.zeta_product_check(w, sched, 2, 1)
    assert prod == pytest.approx(1 + 1.0)
    assert prod <= bound


def test_zeta_product_paper_scale():
    w = rn.WeightModel.polynomial(2, decay_tau=1.5)
    s = 10**4
    sched = rn.choose_reduction_indices(w, 2, 20, s, "zeta")
    prod, bound = rn.zeta_product_check(w, sched, 2, s)
    assert bound == pytest.approx(math.exp(2.6123753486854883), abs=1e-9)
    assert prod <= bound


def test_zeta_product_no_reduction_matches_sinh_identity():
    # prod_{j>=1} (1 + j^-2) = sinh(pi)/pi; finite s approaches from below
    w = rn.WeightModel.polynomial(2, decay_tau=1.5)
    s = 10**5
    sched = rn.ReductionSchedule.explicit([0] * s)
    prod, bound = rn.zeta_product_check(w, sched, 2, s)
    target = math.sinh(math.pi) / math.pi
    assert prod < target
    assert prod == pytest.approx(target, rel=1e-4)
    assert prod <= bound


# --- bound validity pipeline (small scale; the full sweep is acceptance) --------------------


@pytest.mark.parametrize("gamma_spec", ["const:1", "poly:2"])
def test_bound_dominates_weighted_discrepancy_small(gamma_spec):
    weights = rn.WeightModel.parse(gamma_spec)
    for m in (2, 3, 4):
        net = rn.pascal_net(2, m, 2)
        base_pts = rn.generate_points(net)
        for w2 in range(m):
            sched = rn.ReductionSchedule.explicit([0, w2])
            red = rn.column_reduce(net, sched)
            pts = rn.generate_points(red)
            tmap = {
                u: rn.strict_t(base_pts, u)
                for size in (1, 2)
                for u in combinations((1, 2), size)
            }
            gb = rn.global_disc_bound(tmap, sched, weights, 2, m, 2)
            for size in (1, 2):
                for u in combinations((1, 2), size):
                    wdisc = weights.gamma_u(u) * rn.exact_star_discrepancy(pts, u)
                    assert wdisc <= gb.value + 1e-12
