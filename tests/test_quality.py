"""Tests for the linear independence parameter and brute-force net checks."""

import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rednets as rn
from oracles import rank_generic, stack_rows
from rednets import quality
from rednets.cli import parse_schedule
from rednets.quality import (
    EnumerationBudgetError,
    _n_compositions,
    _projection_t,
    _scan_t,
    compositions,
)

ROOT = Path(__file__).resolve().parent.parent


def recursive_compositions(total, parts):
    """Oracle: nonnegative integer tuples with the given sum, ascending lex."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def cell_counts_ok(points, cols, depths, t):
    """Oracle: every cell of the given digit depths holds exactly b^t points."""
    b = points.base
    m = points.m
    n_cells = 1
    key = np.zeros(points.n_points, dtype=np.int64)
    for col, d in zip(cols, depths):
        cell = points.numerators[:, col] // b ** (m - d)
        key = key * b**d + cell
        n_cells *= b**d
    counts = np.bincount(key, minlength=n_cells)
    return bool(np.all(counts == b**t))


def strict_t_oracle(points, u):
    cols = [j - 1 for j in u]
    for t in range(points.m + 1):
        shapes = recursive_compositions(points.m - t, len(u))
        if all(cell_counts_ok(points, cols, d, t) for d in shapes):
            return t


def tmes_oracle(points, t, e):
    cols = range(points.s)
    shapes = (d for d in np.ndindex(*(points.m - t + 1 for _ in e))
              if sum(ej * dj for ej, dj in zip(e, d)) == points.m - t)
    return all(cell_counts_ok(points, cols, [ej * dj for ej, dj in zip(e, d)], t)
               for d in shapes)


def rho_oracle(net, u):
    mats = [net.matrices[j - 1] for j in u]
    for r in range(1, net.m + 1):
        for d in recursive_compositions(r, len(u)):
            if rank_generic(stack_rows(list(zip(mats, d)))) != r:
                return r - 1
    return net.m


@st.composite
def small_nets(draw, max_points=729, s_max=3):
    """Random digital nets with b^m <= max_points, reduced by a random schedule."""
    b = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, max(k for k in range(1, 11) if b**k <= max_points)))
    s = draw(st.integers(1, s_max))
    net = rn.random_net(b, m, s, seed=draw(st.integers(0, 2**32)))
    w = sorted(draw(st.lists(st.integers(0, m), min_size=s - 1, max_size=s - 1)))
    if draw(st.booleans()):
        net = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, *w]))
    return net


def subsets(s):
    return [u for k in range(1, s + 1) for u in combinations(range(1, s + 1), k)]


def reduced_pascal(m, w2):
    net = rn.pascal_net(2, m, 2)
    sched = rn.ReductionSchedule.explicit([0, w2])
    return rn.column_reduce(net, sched), sched


# --- compositions ----------------------------------------------------------


def test_compositions_order_loads_last_coordinate_first():
    got = list(compositions(2, (1, 1)))
    assert got == [(0, 2), (1, 1), (2, 0)]
    assert sum(1 for _ in compositions(5, (1, 1, 1))) == 21


@pytest.mark.parametrize("k", range(1, 6))
def test_compositions_match_recursive_oracle(k):
    for total in range(9):
        assert list(compositions(total, (1,) * k)) == list(recursive_compositions(total, k))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5), st.integers(0, 9))
def test_compositions_with_steps_match_ndindex_filter(steps, total):
    grid = np.ndindex(*(total // e + 1 for e in steps))
    shapes = (tuple(e * dj for e, dj in zip(steps, d)) for d in grid)
    want = [c for c in shapes if sum(c) == total]
    assert list(compositions(total, steps)) == want
    counts = _n_compositions(total, steps)
    assert len(counts) == total + 1
    for r in range(total + 1):
        assert counts[r] == len(list(compositions(r, steps)))


def test_rho_and_strict_t_run_past_the_recursion_limit():
    # 1200 coordinates exceed Python's default recursion limit of 1000.
    net = rn.random_net(2, 2, 1200, seed=1)
    assert (net.digits[:, 0, :] == 0).all(axis=1).any()  # a zero first row
    assert rn.rho(net) == 0
    assert rn.strict_t(rn.generate_points(net)) == 2  # m - rho


# --- rho -------------------------------------------------------------------


def test_rho_pascal_full():
    assert rn.rho(rn.pascal_net(2, 4, 2)) == 4


def test_rho_reduced_pascal():
    red, _ = reduced_pascal(4, 1)
    assert rn.rho(red) == 3


def test_rho_single_zero_matrix():
    red, _ = reduced_pascal(4, 4)
    assert rn.rho(red, (2,)) == 0


def test_rho_respects_budget():
    net = rn.random_net(2, 10, 8, seed=0)
    with pytest.raises(EnumerationBudgetError):
        rn.rho(net, budget=100)


def test_rho_budget_is_exact_sum_of_compositions_times_rows():
    # sum over r of C(r + k - 1, k - 1) * r * m work units, m = 4, k = 3
    net = rn.pascal_net(2, 4, 3)
    work = sum(math.comb(r + 2, 2) * r * 4 for r in range(1, 5))
    assert rn.rho(net, budget=work) == rho_oracle(net, (1, 2, 3))
    with pytest.raises(EnumerationBudgetError, match=f"needs ~{work} work units"):
        rn.rho(net, budget=work - 1)


def test_rho_rejects_empty_subset():
    with pytest.raises(ValueError):
        rn.rho(rn.pascal_net(2, 3, 2), ())


@settings(max_examples=40, deadline=None)
@given(small_nets(s_max=4))
def test_rho_matches_stacked_rank_oracle(net):
    for u in subsets(net.s):
        assert rn.rho(net, u) == rho_oracle(net, u)


# --- theorem bounds --------------------------------------------------------


def test_theorem_bounds_paper_example():
    b = rn.theorem_bounds(0, 4, rn.ReductionSchedule.explicit([0, 1]), (2,))
    assert (b.lower, b.upper, b.t_upper) == (3, 3, 1)


def test_theorem_bounds_clamps():
    b = rn.theorem_bounds(2, 3, rn.ReductionSchedule.explicit([0, 5]))
    assert (b.lower, b.upper, b.t_upper) == (0, 0, 3)


def test_theorem_bounds_arithmetic():
    b = rn.theorem_bounds(2, 8, rn.ReductionSchedule.explicit([0, 3]))
    assert (b.lower, b.upper, b.t_upper) == (3, 5, 5)
    assert b.strict_upper == 5  # 8 - max(2, 3)


# --- verify_tms_net / strict_t ----------------------------------------------


def test_verify_pascal_is_0_4_2_net():
    pts = rn.generate_points(rn.pascal_net(2, 4, 2))
    assert rn.verify_tms_net(pts, 0)


def test_verify_reduced_pascal_is_strict_1_4_2_net():
    red, _ = reduced_pascal(4, 1)
    pts = rn.generate_points(red)
    assert not rn.verify_tms_net(pts, 0)
    assert rn.verify_tms_net(pts, 1)


def test_verify_t_equals_m_is_always_true():
    net = rn.random_net(2, 3, 3, seed=77)
    pts = rn.generate_points(net)
    assert rn.verify_tms_net(pts, 3)


def test_verify_propagation_rule():
    net = rn.random_net(2, 4, 2, seed=5)
    pts = rn.generate_points(net)
    t = rn.strict_t(pts)
    for v in range(t, 5):
        assert rn.verify_tms_net(pts, v)


def test_strict_t_examples():
    assert rn.strict_t(rn.generate_points(rn.pascal_net(2, 4, 2))) == 0
    red, _ = reduced_pascal(4, 1)
    assert rn.strict_t(rn.generate_points(red)) == 1


def test_strict_t_lower_sharp_construction():
    # prepended-zero-columns net with t = 1, m = 4, w = (0, 1)
    d1, d2 = rn.pascal_net(2, 4, 2).matrices
    net = rn.prepend_zero_columns_seq(d1, d2, 1, 4)
    sched = rn.ReductionSchedule.explicit([0, 1])
    red = rn.column_reduce(net, sched)
    assert rn.rho(red) == 2  # m - t - w2 exactly
    assert rn.strict_t(rn.generate_points(red)) == 4 - 2


def test_verify_budget_guard():
    pts = rn.generate_points(rn.random_net(2, 8, 6, seed=1))
    with pytest.raises(EnumerationBudgetError):
        rn.verify_tms_net(pts, 0, budget=10)


@pytest.mark.parametrize("t", [0, 2])
def test_verify_budget_is_exact_shapes_times_points(t):
    pts = rn.generate_points(rn.random_net(3, 4, 3, seed=2))
    need = math.comb(4 - t + 2, 2) * 81
    rn.verify_tms_net(pts, t, budget=need)
    rn.verify_tmes_net(pts, t, (1, 1, 1), budget=need)
    with pytest.raises(EnumerationBudgetError, match=f"exceeds budget {need - 1}$"):
        rn.verify_tms_net(pts, t, budget=need - 1)
    with pytest.raises(EnumerationBudgetError, match=f"exceeds budget {need - 1}$"):
        rn.verify_tmes_net(pts, t, (1, 1, 1), budget=need - 1)


def test_verify_needs_full_block():
    net = rn.pascal_net(2, 4, 2)
    partial = rn.generate_points(net, first_digits=2)
    with pytest.raises(ValueError):
        rn.verify_tms_net(partial, 0)


@settings(max_examples=40, deadline=None)
@given(small_nets())
def test_strict_t_matches_cell_count_oracle(net):
    pts = rn.generate_points(net)
    for u in subsets(net.s):
        assert rn.strict_t(pts, u) == strict_t_oracle(pts, u)


# --- verify_tmes_net ---------------------------------------------------------


def test_tmes_reduced_pascal_e23():
    red, _ = reduced_pascal(4, 1)
    pts = rn.generate_points(red)
    assert rn.verify_tmes_net(pts, 0, (2, 3))


def test_tmes_reduced_pascal_e11_fails():
    red, _ = reduced_pascal(4, 1)
    pts = rn.generate_points(red)
    assert not rn.verify_tmes_net(pts, 0, (1, 1))


def test_tmes_single_solution_shape():
    # e = (m - t, k) with gcd(k, m - t) = 1 and 1 < k < m - t admits only
    # d = (1, 0), so the check reduces to the unreduced first coordinate
    red, _ = reduced_pascal(4, 1)
    pts = rn.generate_points(red)
    assert rn.verify_tmes_net(pts, 1, (3, 2))


def test_tmes_vacuous_when_no_solutions():
    red, _ = reduced_pascal(4, 1)
    pts = rn.generate_points(red)
    # 5 d1 + 7 d2 = 4 has no nonnegative solutions
    assert rn.verify_tmes_net(pts, 0, (5, 7))


def run_snippet(code):
    """Run code in a child process with a 30 s timeout; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import rednets as rn\n" + code],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_tmes_budget_counts_shapes_before_building_them():
    # C(205, 6) = 95746959700 shapes: listing them first would not finish.
    out = run_snippet(
        "pts = rn.generate_points(rn.random_net(2, 6, 200, 2))\n"
        "try:\n"
        "    rn.verify_tmes_net(pts, 0, (1,) * 200, budget=10**6)\n"
        "except rn.EnumerationBudgetError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "95746959700 interval shapes x 64 points exceeds budget 1000000"


def test_tmes_without_solutions_skips_prefixes_that_cannot_complete():
    # 2 d_1 + ... + 2 d_200 = 9 has no solution; a walk that tested only the
    # last entry would visit C(203, 4) = 68685050 dead prefixes.
    out = run_snippet(
        "pts = rn.generate_points(rn.random_net(2, 9, 200, 3))\n"
        "print(rn.verify_tmes_net(pts, 0, (2,) * 200))\n"
    )
    assert out == "True"


def test_tmes_validates_shape_vector():
    pts = rn.generate_points(rn.pascal_net(2, 3, 2))
    with pytest.raises(ValueError):
        rn.verify_tmes_net(pts, 0, (1,))
    with pytest.raises(ValueError):
        rn.verify_tmes_net(pts, 0, (0, 1))


@settings(max_examples=40, deadline=None)
@given(small_nets(), st.data())
def test_tmes_matches_cell_count_oracle(net, data):
    pts = rn.generate_points(net)
    e = tuple(data.draw(st.lists(st.integers(1, 3), min_size=net.s, max_size=net.s)))
    for t in range(net.m + 1):
        assert rn.verify_tmes_net(pts, t, e) == tmes_oracle(pts, t, e)
        assert rn.verify_tms_net(pts, t) == tmes_oracle(pts, t, (1,) * net.s)


# --- sandwich and consistency properties -------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
def test_theorem_sandwich_pascal(m):
    net = rn.pascal_net(2, m, 2)
    for w2 in range(m + 1):
        sched = rn.ReductionSchedule.explicit([0, w2])
        red = rn.column_reduce(net, sched)
        r = rn.rho(red)
        bounds = rn.theorem_bounds(0, m, sched)
        assert bounds.lower <= r <= bounds.upper
        # t = 0 case gives equality and strict t equal to w2
        assert r == max(0, m - w2)
        assert rn.strict_t(rn.generate_points(red)) == min(w2, m)


@pytest.mark.parametrize("m", range(1, 7))
def test_theorem_sandwich_holds_per_projection(m):
    net = rn.pascal_net(2, m, 2)
    base_pts = rn.generate_points(net)
    t_map = {u: rn.strict_t(base_pts, u) for u in [(1,), (2,), (1, 2)]}
    for w2 in range(m + 1):
        sched = rn.ReductionSchedule.explicit([0, w2])
        red = rn.column_reduce(net, sched)
        for u, t_u in t_map.items():
            bounds = rn.theorem_bounds(t_u, m, sched, u)
            r = rn.rho(red, u)
            assert bounds.lower <= r <= bounds.upper, (m, w2, u)


@settings(max_examples=40, deadline=None)
@given(small_nets())
def test_strict_t_equals_m_minus_rho_for_digital_nets(net):
    m = net.m
    r = rn.rho(net)
    t = rn.strict_t(rn.generate_points(net))
    assert t <= m - r  # net property from the rank condition
    assert r >= m - t  # rank condition from the net property
    assert t == m - r


# --- report ------------------------------------------------------------------


def test_analyze_reduced_pascal_report():
    net = rn.pascal_net(2, 4, 2)
    sched = rn.ReductionSchedule.explicit([0, 1])
    report = rn.analyze(net, sched)
    assert report.rho == 3
    assert report.t_exact == 1
    assert report.t_upper == 1
    assert report.projections[(1,)].rho == 4
    assert report.projections[(1,)].t_exact == 0
    assert report.projections[(2,)].rho == 3
    assert report.projections[(2,)].t_exact == 1
    assert report.projections[(2,)].t_upper == 1
    assert report.projections[(1, 2)].rho == 3
    # rho >= m - t always
    assert report.rho >= report.m - report.t_exact


def test_report_json_schema_and_determinism():
    net = rn.pascal_net(2, 3, 2)
    sched = rn.ReductionSchedule.explicit([0, 1])
    r1 = rn.analyze(net, sched).to_json()
    r2 = rn.analyze(net, sched).to_json()
    assert r1 == r2
    payload = json.loads(r1)
    assert set(payload) == {"base", "m", "s", "rho", "t_exact", "t_upper", "projections"}
    assert set(payload["projections"]) == {"1", "2", "1,2"}
    assert set(payload["projections"]["1,2"]) == {"rho", "t_exact", "t_upper"}


# --- subset-seeded projection scans ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(small_nets(s_max=4), st.integers(0, 5))
def test_projection_t_matches_full_scans(net, cap):
    points = rn.generate_points(net)
    got = _projection_t(points, net.s, cap, rn.DEFAULT_BUDGET)
    want = {u: rn.strict_t(points, u) for u in subsets(net.s) if len(u) <= cap}
    assert list(got.items()) == list(want.items())


def report_from_full_scans(net, sched, cap):
    """Oracle: the report JSON from full 0..m strict_t scans and rho."""
    red = rn.column_reduce(net, sched)
    base, reduced = rn.generate_points(net), rn.generate_points(red)
    t_full = rn.strict_t(base) if net.declared_t is None else net.declared_t
    projections = {
        ",".join(map(str, u)): {
            "rho": rn.rho(red, u),
            "t_exact": rn.strict_t(reduced, u),
            "t_upper": min(net.m, sched.w[u[-1] - 1] + rn.strict_t(base, u)),
        }
        for u in subsets(net.s)
        if len(u) <= cap
    }
    payload = {
        "base": net.base, "m": net.m, "s": net.s, "rho": rn.rho(red),
        "t_exact": rn.strict_t(reduced), "t_upper": min(net.m, sched.w[-1] + t_full),
        "projections": projections,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


@settings(max_examples=60, deadline=None)
@given(small_nets(s_max=4), st.data())
def test_analyze_matches_a_report_from_full_scans(net, data):
    w = sorted(data.draw(st.lists(st.integers(0, net.m), min_size=net.s - 1,
                                  max_size=net.s - 1)))
    sched = rn.ReductionSchedule.explicit([0, *w])
    if data.draw(st.booleans()):
        net = rn.NetSpec(net.base, net.m, net.digits,
                         declared_t=data.draw(st.integers(0, net.m)))
    cap = data.draw(st.sampled_from(sorted({0, 1, 2, net.s - 1, net.s})))
    got = rn.analyze(net, sched, proj_cap=cap).to_json()
    assert got == report_from_full_scans(net, sched, cap)


@settings(max_examples=40, deadline=None)
@given(small_nets(s_max=4))
def test_passing_inner_scan_checks_only_all_positive_shapes(net):
    points, m = rn.generate_points(net), net.m
    real, checked = quality._cells_balanced, []

    def counting(points, cols, shapes, t, lead):
        shapes = list(shapes)
        checked.extend(shapes)
        return real(points, cols, shapes, t, lead)

    for u in subsets(net.s):
        t, k = rn.strict_t(points, u), len(u)
        checked.clear()
        quality._cells_balanced = counting
        try:
            assert _scan_t(points, [j - 1 for j in u], t, True, rn.DEFAULT_BUDGET) == t
        finally:
            quality._cells_balanced = real
        assert len(checked) == (math.comb(m - t - 1, k - 1) if t < m else 0)
        assert all(min(shape) >= 1 and sum(shape) == m - t for shape in checked)


def test_analyze_matches_the_recorded_benchmark_reports():
    # the quality workload's pool of nets, read from the benchmark's own file
    with open(ROOT / "perfbench" / "expected.json") as fh:
        expected = json.load(fh)
    q = expected["report_net"]
    sched = parse_schedule(q["w"], q["s"], q["b"], q["m"])
    for seed, want in expected["reports"].items():
        net = rn.random_net(q["b"], q["m"], q["s"], int(seed))
        got = rn.analyze(net, sched, proj_cap=q["proj_cap"]).to_json()
        assert json.loads(got) == want, seed


def test_analyze_raises_the_budget_error_of_a_plain_scan_first():
    # b=2 m=3 s=5: 35 shapes x 8 points = 280 < 420 rho work units; with a
    # declared t the full unreduced set is not scanned, so rho fails first
    net = rn.random_net(2, 3, 5, seed=3)
    sched = rn.ReductionSchedule.explicit([0, 0, 1, 1, 1])
    declared = rn.NetSpec(2, 3, net.digits, declared_t=1)
    shapes = "35 interval shapes x 8 points exceeds budget {}"
    rho_work = "rho enumeration needs ~420 work units, budget is {}"
    for budget, plain, with_t in [
        (1, shapes, rho_work),
        (279, shapes, rho_work),
        (280, rho_work, rho_work),
        (419, rho_work, rho_work),
    ]:
        for n, message in ((net, plain), (declared, with_t)):
            with pytest.raises(EnumerationBudgetError) as err:
                rn.analyze(n, sched, proj_cap=5, budget=budget)
            assert str(err.value) == message.format(budget)
    # b=2 m=2 s=8: 36 x 4 = 144 shapes, 160 rho units, 255 projections
    net = rn.random_net(2, 2, 8, seed=1)
    sched = rn.ReductionSchedule.explicit([0] * 8)
    with pytest.raises(EnumerationBudgetError) as err:
        rn.analyze(net, sched, proj_cap=8, budget=200)
    assert str(err.value) == "255 projections exceed budget 200"
    rn.analyze(net, sched, proj_cap=8, budget=255)
