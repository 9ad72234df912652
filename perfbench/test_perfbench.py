"""Tests for the benchmark harness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import check
import run
import spans
import workloads
from hostspeed import HostSpeed

rn = run.import_rednets()


def small_product(tmp_path, **kw) -> workloads.ProductWorkload:
    args = dict(b=2, m=6, s=24, tau=3, w="log", algo="fast", transform="identity", binary=False)
    args.update(kw)
    wl = workloads.ProductWorkload("small", **args)
    wl.setup(rn, 5, tmp_path)
    wl.write_inputs()
    wl.prepare(rn, rn.product.norm_inverse)
    return wl


def public_functions() -> dict:
    mods = [rn] + [getattr(rn, layer) for layer in spans.LAYERS]
    return {
        (mod.__name__, name): obj
        for mod in mods
        for name, obj in vars(mod).items()
        if isinstance(obj, types.FunctionType)
    }


@pytest.mark.parametrize("algo,transform,binary,b", [
    ("fast", "identity", False, 2),
    ("standard", "identity", True, 2),
    ("fast", "norminv", False, 3),
])
def test_checker_accepts_library_products(tmp_path, algo, transform, binary, b):
    wl = small_product(tmp_path, algo=algo, transform=transform, binary=binary, b=b,
                       m=4 if b == 3 else 6)
    wl.next_input()
    wl.job(rn)
    assert wl.check() is None


def test_reference_points_match_library(tmp_path):
    wl = small_product(tmp_path, b=3, m=4, s=10, w="sqrtlog")
    base, m, mats = check.read_net_digits(wl.net_path)
    with open(wl.net_path) as fh:
        net = rn.read_net(fh)
    ours = check.point_numerators(base, m, mats)
    assert np.array_equal(ours, rn.generate_points(net).numerators)


def test_checker_flags_one_entry_off_by_1e9_relative(tmp_path):
    wl = small_product(tmp_path)
    p = wl.ref.value.copy()
    assert wl.ref.compare(p) is None
    i, j = np.unravel_index(np.argmax(np.abs(p)), p.shape)
    p[i, j] *= 1 + 1e-9
    assert "entry" in wl.ref.compare(p)
    assert wl.ref.compare(p[:-1]) is not None
    p[i, j] = np.nan
    assert wl.ref.compare(p) is not None


def test_checker_flags_changed_rho():
    with open(workloads.EXPECTED_PATH) as fh:
        expected = json.load(fh)
    want = expected["reports"]["0"]
    assert check.check_report(json.dumps(want), want) is None
    top = dict(want, rho=want["rho"] + 1)
    assert "rho" in check.check_report(json.dumps(top), want)
    proj = json.loads(json.dumps(want))
    proj["projections"]["1,2"]["rho"] -= 1
    assert "1,2" in check.check_report(json.dumps(proj), want)
    assert check.check_discrepancy(0.25, expected["discrepancy"]) is not None


def test_traced_run_records_spans_and_restores_attributes(tmp_path):
    before = public_functions()
    wl = small_product(tmp_path)
    tracer = spans.Tracer()
    plain, traced, failed, _ = run.run_jobs(wl, rn, HostSpeed(), 0.0, tracer)
    assert (len(plain), len(traced), failed) == (1, 1, 0)
    assert public_functions() == before
    by_name = {rec[1]: rec for rec in tracer.spans}
    main = by_name["cli.main"]
    assert main[3] is None
    assert by_name["nets.read_net"][3] == main[0]
    assert by_name["nets.coordinate_numerators"][3] == by_name["product.fast_reduced_product"][0]
    totals = spans.summarize(tracer.spans, {0: 1.0})
    assert totals["nets.coordinate_numerators"]["rows"] > 0
    assert 0 <= totals["cli.main"]["self_s"] <= totals["cli.main"]["s"]


def test_tracer_restores_after_a_failing_call(tmp_path):
    before = public_functions()
    tracer = spans.Tracer()
    tracer.install(rn)
    try:
        with pytest.raises(ValueError):
            rn.pascal_net(2, 0, 1)
    finally:
        tracer.restore()
    assert public_functions() == before
    assert spans.summarize(tracer.spans, {None: 1.0})["nets.pascal_net"]["errors"] == 1


def in_fresh_interpreter(code: str, tmp_path) -> str:
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=run.HERE,
                          stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    return proc.stdout


def test_peak_rss_counts_jobs_but_not_the_reference(tmp_path):
    out = in_fresh_interpreter("""
import sys
from pathlib import Path
import numpy as np
import run, workloads
from hostspeed import HostSpeed

class BigJob(workloads.ProductWorkload):
    def job(self, rn):
        super().job(rn)
        np.ones(96 << 17).sum()  # 96 MB, every page written

rn = run.import_rednets()
wl = BigJob("big", b=2, m=12, s=800, tau=20, w="log", algo="fast",
            transform="identity", binary=False)
wl.setup(rn, 1, Path(sys.argv[1]))
wl.write_inputs()
before = run.peak_rss_mb()
wl.prepare(rn, rn.product.norm_inverse)
after_prepare = run.peak_rss_mb()
run.run_jobs(wl, rn, HostSpeed(), 0.0)
print(before, after_prepare, run.peak_rss_mb())
""", tmp_path)
    before, after_prepare, after_job = map(float, out.split())
    # The reference's X and |X| (26 MB each) are built in a child process.
    assert after_prepare - before < 8
    assert after_job - after_prepare > 80


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_second_seed_runs_every_workload_without_errors():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    for name in run.WORKLOAD_NAMES:
        assert set(run.END_TO_END_UNITS) == {
            k.split(".", 1)[1] for k in result["metrics"] if k.startswith(name + ".")
        }


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
