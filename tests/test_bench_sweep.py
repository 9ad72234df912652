"""The vary-m / vary-s timing sweep script, scripts/bench_sweep.py."""

import importlib.util
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import rednets as rn
from rednets.cli import parse_schedule

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_sweep.py"
_spec = importlib.util.spec_from_file_location("bench_sweep", SCRIPT)
bench_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_sweep)


def test_rows_and_predictions():
    # per config: fast_column then standard for each rep, then both medians;
    # every column but wall_ns is pinned
    for s in (4, 8):
        rows = bench_sweep.time_config(6, s, "log", seed=5, reps=3)
        sched = parse_schedule("log", s, 2, 6)
        ops = rn.op_count_model(6, sched, 20, s)
        want = [
            dict(algo=algo, b=2, m=6, s=s, s_star=sched.s_star(6), tau=20, w_scheme="log",
                 seed=5, rep=rep, predicted_ops=predicted)
            for rep in (0, 1, 2, "median")
            for algo, predicted in (("fast_column", ops.fast),
                                    ("standard", ops.standard + ops.point_gen))
        ]
        assert [{k: v for k, v in r.items() if k != "wall_ns"} for r in rows] == want
        assert all(set(r) == set(bench_sweep.FIELDS) for r in rows)
        assert all(isinstance(r["wall_ns"], int) and r["wall_ns"] > 0 for r in rows)
        for med in rows[-2:]:
            reps = [r["wall_ns"] for r in rows[:-2] if r["algo"] == med["algo"]]
            assert med["wall_ns"] == int(statistics.median(reps))


def test_single_coordinate_has_no_reduction_benefit():
    # at s = 1 both products do essentially the same work; the ratio is
    # only asserted within a generous noise band
    rows = bench_sweep.time_config(10, 1, "log", seed=1, reps=5)
    med = {r["algo"]: r["wall_ns"] for r in rows if r["rep"] == "median"}
    assert 0.1 < med["fast_column"] / med["standard"] < 10.0


def test_memory_guard_checks_every_configuration_before_the_first_runs(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(rn.nets, "_MAX_ENTRIES", 100)
    code = bench_sweep.main(["--reps", "3", "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == "error: point block of 204800 entries exceeds the limit of 100\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, line", [
    pytest.param(["--reps", "2"], "--reps must be >= 3 for a median, got 2", id="reps"),
    pytest.param(["--m-max", "7"], "--m-max must be >= 8, got 7", id="m-max"),
])
def test_rejects_too_few_reps_or_an_empty_vary_m_sweep(tmp_path, capsys, argv, line):
    code = bench_sweep.main([*argv, "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {line}\n")
    assert not (tmp_path / "out").exists()


def test_script_runs_from_a_source_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--m-max", "8", "--reps", "3",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    configs = {"vary_m_s800_tau20_log.csv": 1,
               "vary_s_m12_tau20_log.csv": 8, "vary_s_m12_tau20_sqrtlog.csv": 8}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(configs)
    for name, n_configs in configs.items():
        rows = (tmp_path / name).read_text().splitlines()
        assert rows[0] == ",".join(bench_sweep.FIELDS)
        # 3 reps and a median row for each of the two algorithms
        assert len(rows) == 1 + 8 * n_configs
        assert sum(",median," in row for row in rows) == 2 * n_configs
