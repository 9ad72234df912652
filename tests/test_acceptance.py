"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run pytest with -s or see
captured output); a failure surfaces as a normal pytest failure.  Stated
runtime limits are asserted with wall-clock measurements.
"""

import importlib.util
import io
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import rednets as rn

# criterion 9 times through the sweep script's own timing function
_spec = importlib.util.spec_from_file_location(
    "bench_sweep", Path(__file__).resolve().parent.parent / "scripts" / "bench_sweep.py")
bench_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_sweep)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def all_schedules(s, m):
    """All nondecreasing schedules with w_1 = 0 and w_s < m (so s* = s)."""
    def rec(prefix):
        if len(prefix) == s:
            yield rn.ReductionSchedule.explicit(prefix)
            return
        for w in range(prefix[-1], m):
            yield from rec(prefix + [w])
    yield from rec([0])


def test_criterion_1_sobol_example_reproduction():
    t0 = time.perf_counter()
    net = rn.pascal_net(2, 4, 2)
    pts = rn.generate_points(net)
    assert rn.verify_tms_net(pts, 0)
    red = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 1]))
    rpts = rn.generate_points(red)
    assert not rn.verify_tms_net(rpts, 0)
    assert rn.verify_tms_net(rpts, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"(0,4,2)-net verified; reduced net strict (1,4,2) [{elapsed:.3f}s]")


def test_criterion_2_tmes_example():
    t0 = time.perf_counter()
    net = rn.pascal_net(2, 4, 2)
    red = rn.column_reduce(net, rn.ReductionSchedule.explicit([0, 1]))
    rpts = rn.generate_points(red)
    assert rn.verify_tmes_net(rpts, 0, (2, 3))
    assert not rn.verify_tmes_net(rpts, 0, (1, 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"reduced net passes (0,4,(2,3),2), fails (0,4,(1,1),2) [{elapsed:.3f}s]")


def test_criterion_3_theorem_sandwich_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, 9):
        net = rn.pascal_net(2, m, 2)
        for w2 in range(m + 1):
            sched = rn.ReductionSchedule.explicit([0, w2])
            red = rn.column_reduce(net, sched)
            r = rn.rho(red)
            bounds = rn.theorem_bounds(0, m, sched)
            assert bounds.lower <= r <= bounds.upper
            assert r == max(0, m - w2)
            assert rn.strict_t(rn.generate_points(red)) == min(w2, m)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"{checked} (m, w2) configs, zero violations [{elapsed:.1f}s]")


def test_criterion_4_sharpness_constructions():
    t0 = time.perf_counter()
    checked = 0
    for t in (1, 2):
        for m in range(t, 9):
            digits = rn.pascal_net(2, m, 2).digits
            lower_net = rn.prepend_zero_columns_seq(digits, 2, t, m)
            upper_net = rn.block_diag_seq(digits, 2, t, m)
            for w2 in range(m - t + 1):
                sched = rn.ReductionSchedule.explicit([0, w2])
                r_low = rn.rho(rn.column_reduce(lower_net, sched))
                assert r_low == m - t - w2, (t, m, w2, r_low)
                r_up = rn.rho(rn.column_reduce(upper_net, sched))
                assert r_up == m - max(t, w2), (t, m, w2, r_up)
                checked += 1
    elapsed = time.perf_counter() - t0
    report(4, f"{checked} sharpness configs exact on both sides [{elapsed:.1f}s]")


def test_criterion_5_product_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for trial in range(50):
        m = int(rng.integers(1, 11))
        s = int(rng.integers(1, 65))
        tau = int(rng.integers(1, 9))
        net = rn.random_net(2, m, s, seed=int(rng.integers(0, 2**31)))
        w = [0]
        for _ in range(s - 1):
            w.append(min(w[-1] + int(rng.integers(0, 3)), m + 1))
        sched = rn.ReductionSchedule.explicit(w)
        red = rn.column_reduce(net, sched)
        a = rng.standard_normal((s, tau))
        transform = (
            rn.Transform.identity()
            if trial % 2 == 0
            else rn.Transform.normal_inverse_for(2, m)
        )
        fast = rn.fast_reduced_product(red, sched, a, transform)
        std = rn.standard_product(red, a, transform)
        err = np.abs(fast - std)
        # relative 1e-12 with an absolute floor of 1e-14: entries below
        # 1e-2 in magnitude are judged against the floor
        rel = err / np.maximum(np.abs(std), 1e-2)
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
        assert np.all(err <= np.maximum(1e-12 * np.abs(std), 1e-14)), trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"50 configs, max relative error {worst:.2e} <= 1e-12 [{elapsed:.1f}s]")


def test_criterion_6_coefficient_exactness():
    a2 = rn.avb_coefficients(2, 2)
    a3 = rn.avb_coefficients(3, 2)
    assert float(a2[0]) == 2.5
    assert a2[1] == Fraction(1, 3)
    assert float(a3[0]) == 3.5
    assert float(a3[1]) == 0.5
    report(6, "a_{0,2}=2.5, a_{1,2}=1/3, a_{0,3}=3.5, a_{1,3}=0.5 exact")


def test_criterion_7_bound_validity_pipeline():
    t0 = time.perf_counter()
    weight_models = [rn.WeightModel.constant(1.0), rn.WeightModel.polynomial(2)]
    checked = 0
    for s in (1, 2, 3):
        subsets = [
            u for size in range(1, s + 1) for u in combinations(range(1, s + 1), size)
        ]
        for m in range(1, 9):
            net = rn.pascal_net(2, m, s)
            base_pts = rn.generate_points(net)
            t_map = {u: rn.strict_t(base_pts, u) for u in subsets}
            for sched in all_schedules(s, m):
                red = rn.column_reduce(net, sched)
                pts = rn.generate_points(red)
                disc = {u: rn.exact_star_discrepancy(pts, u) for u in subsets}
                for weights in weight_models:
                    gb = rn.global_disc_bound(t_map, sched, weights, 2, m, s)
                    for u in subsets:
                        assert weights.gamma_u(u) * disc[u] <= gb.value + 1e-12, (
                            s, m, sched.w, weights.kind, u,
                        )
                    checked += 1
    elapsed = time.perf_counter() - t0
    report(7, f"{checked} (s, m, schedule, weights) configs, zero violations [{elapsed:.1f}s]")


def test_criterion_8_zeta_bound_every_s():
    t0 = time.perf_counter()
    s_max = 10**5
    weights = rn.WeightModel.polynomial(2, decay_tau=1.5)
    sched = rn.choose_reduction_indices(weights, 2, 30, s_max, "zeta")
    bound = math.exp(rn.zeta_value(1.5))
    g = weights.gammas(s_max)
    factors = 1.0 + g * np.power(2.0, np.array(sched.w, dtype=np.float64))
    running = np.cumprod(factors)
    assert np.all(running <= bound)
    prod, bound2 = rn.zeta_product_check(weights, sched, 2, s_max)
    assert prod == pytest.approx(running[-1])
    assert bound2 == pytest.approx(bound)
    elapsed = time.perf_counter() - t0
    report(8, f"prefix products up to s=1e5 max {running.max():.4f} <= exp(zeta(1.5)) = {bound:.4f} [{elapsed:.1f}s]")


def test_criterion_9_performance():
    t0 = time.perf_counter()
    sched = rn.ReductionSchedule.floor_log(800, 2, 12)
    ops = rn.op_count_model(12, sched, 20, 800)
    ratio = ops.fast / ops.standard
    assert ratio <= 0.15

    rows = bench_sweep.time_config(12, 800, "log", seed=1, reps=3)
    med = {r["algo"]: r for r in rows if r["rep"] == "median"}
    fast_ns = med["fast_column"]["wall_ns"]
    std_ns = med["standard"]["wall_ns"]
    assert fast_ns <= 0.5 * std_ns, (fast_ns, std_ns)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        9,
        f"op ratio {ratio:.3f} <= 0.15; measured fast {fast_ns/1e6:.0f}ms <= "
        f"0.5 x standard {std_ns/1e6:.0f}ms [{elapsed:.1f}s]",
    )


def determinism_pipeline():
    """Criterion 10's outputs: the reduced net file, its points CSV, the fast
    product's bytes and the quality report JSON."""
    net = rn.random_net(2, 6, 10, seed=31337)
    sched = rn.ReductionSchedule.floor_log(10, 2, 6)
    red = rn.column_reduce(net, sched)
    buf_net = io.StringIO()
    rn.write_net(red, buf_net)
    pts = rn.generate_points(red)
    buf_pts = io.StringIO()
    pts.write_csv(buf_pts)
    a = np.random.default_rng(7).standard_normal((10, 4))
    prod = rn.fast_reduced_product(red, sched, a)
    rep = rn.analyze(net, sched, proj_cap=2).to_json()
    return buf_net.getvalue(), buf_pts.getvalue(), prod.tobytes(), rep


def test_criterion_10_determinism():
    first = determinism_pipeline()
    second = determinism_pipeline()
    assert first == second
    report(10, "nets, points, products, reports byte-identical across reruns")


BLAS_CHILD = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import rednets as rn
from test_acceptance import determinism_pipeline

out = [x.encode() if isinstance(x, str) else x for x in determinism_pipeline()]
sched = rn.ReductionSchedule.floor_log(200, 2, 10)
red = rn.column_reduce(rn.random_net(2, 10, 200, seed=5), sched)
a = np.random.default_rng(8).standard_normal((200, 20))
for tr in (rn.Transform.identity(), rn.Transform.normal_inverse_for(2, 10)):
    out.append(rn.standard_product(red, a, tr).tobytes())
print(" ".join(hashlib.sha256(x).hexdigest() for x in out))
"""


def test_criterion_10_determinism_across_blas_thread_counts():
    # no library path calls BLAS, so the thread count of the BLAS that numpy
    # loads cannot change a byte; the variable is set in the children only
    src = str(Path(rn.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_CHILD, str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 6 and digests[0] == digests[1]
    report(10, "the same bytes with OPENBLAS_NUM_THREADS=1 and =2, standard product included")
