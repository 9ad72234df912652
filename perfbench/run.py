"""rednets benchmark: one workload per process, single-client closed loop.

    python3 perfbench/run.py --workload paper_fast --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each job starts only after the previous one has finished and its
output has been checked.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer metrics from spans recorded
around every public library function (see spans.py), and writes the spans to
``perfbench/results/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
RESULTS = HERE / "results"

# One BLAS thread: the load is one process on a small shared machine, and a
# single thread keeps the kernel timings free of thread hand-off noise.
BLAS_THREADS = 1
# Set-ups per run, each in a fresh process (the run's own and COLD_SETUPS - 1
# children); setup_s is the median of their import + set-up times.
COLD_SETUPS = 5

WORKLOAD_NAMES = ("paper_fast", "paper_standard", "base3_norminv", "quality_exact")

# Bounded times are in reference seconds: wall time divided by the host's
# slowdown measured just before (see hostspeed.py).  Raw wall times, the 90th
# percentile and the throughput are printed on the lines above the result.
END_TO_END_UNITS = {
    "job_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-job averages of span totals: "<span name>.<field>", field one of
# s, self_s, calls or a counter recorded at the span (see spans.COUNTERS).
SPAN_METRICS = (
    "cli.main.self_s",
    "nets.read_net.s",
    "nets.coordinate_numerators.s",
    "nets.coordinate_numerators.calls",
    "nets.coordinate_numerators.rows",
    "nets.generate_points.s",
    "nets.generate_points.entries",
    "nets.column_reduce.s",
    "product.fast_reduced_product.self_s",
    "product.norm_inverse.s",
    "product.norm_inverse.calls",
    "product.read_matrix_csv.s",
    "product.write_product_csv.s",
    "product.write_product_csv.bytes",
    "product.write_product_bin.s",
    "product.standard_product.s",
    "quality.analyze.self_s",
    "quality.rho.s",
    "quality.rho.calls",
    "quality.strict_t.s",
    "quality.strict_t.calls",
    "quality.verify_tms_net.calls",
    "gfmat.rank.s",
    "gfmat.rank.calls",
    "gfmat.stack_rows.s",
    "discrepancy.exact_star_discrepancy.s",
    "discrepancy.exact_star_discrepancy.corners",
)
# From the run's own set-up: these layers run only while the inputs are made.
SETUP_SPAN_METRICS = ("nets.random_net.s", "nets.write_net.s")


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".s", "self_s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("ns_per_predicted_op"):
        return "ns/op"
    if name.endswith(("_over_blas", "_frac")):
        return "ratio"
    return "count"


def import_rednets():
    """Import numpy and rednets from this checkout with the BLAS thread cap."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "rednets" / "__init__.py").is_file():
        print(f"error: no rednets package under {src}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import rednets
    import rednets.cli

    return rednets


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
    }
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                env[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int | str:
    """Threads OpenBLAS reports, or the requested cap if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"{BLAS_THREADS} (requested)"


def run_jobs(wl, rn, host, seconds: float, tracer=None):
    """Closed loop for ``seconds`` of timed phase, at least one job.

    With a tracer, each input runs twice in a row, untraced and then traced,
    so both sets of times cover the same inputs.  Garbage collection, the
    host-speed probe, tracer installation and the output check run between
    jobs, outside the timed phase.  Returns (untraced, traced, failures,
    timed phase), where a job is recorded as (wall seconds, host slowdown).
    """
    plain, traced, failed, phase = [], [], 0, 0.0
    while not plain or phase < seconds:
        wl.next_input()
        for with_trace in (False, True) if tracer else (False,):
            gc.collect()
            slowdown = host.slowdown()
            if with_trace:
                tracer.job = len(traced)
                tracer.install(rn)
            t0 = time.perf_counter()
            error = None
            try:
                wl.job(rn)
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
                if failed == 0:
                    traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
            if with_trace:
                tracer.restore()
            phase += dt
            if error is None:
                error = wl.check()
            if error is not None:
                failed += 1
                print(f"job failed: {error}", file=sys.stderr)
            (traced if with_trace else plain).append((dt, slowdown))
    return plain, traced, failed, phase


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(wl, tracer, traced_jobs: dict, setup_jobs: dict, overhead: float,
              blas_s: float | None) -> dict[str, float]:
    """Per-layer metrics; the job dicts map each job id to its time divisor."""
    from spans import LAYERS, summarize

    n_jobs = max(len(traced_jobs), 1)
    per_job = summarize(tracer.spans, traced_jobs)
    per_setup = summarize(tracer.spans, setup_jobs)
    out = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        out[name] = per_job.get(span, {}).get(field, 0.0) / n_jobs
    for name in SETUP_SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        out[name] = per_setup.get(span, {}).get(field, 0.0) / max(len(setup_jobs), 1)
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(
            agg["errors"] for key, agg in per_job.items() if key.startswith(layer + ".")
        )

    fast_s = per_job.get("product.fast_reduced_product", {}).get("s", 0.0) / n_jobs
    std_s = out["product.standard_product.s"]
    std_pipeline_s = std_s + out["nets.generate_points.s"]
    ops = wl.ops
    out["product.predicted_ops.fast"] = ops.fast if ops else 0
    out["product.predicted_ops.standard"] = ops.standard if ops else 0
    out["product.predicted_ops.point_gen"] = ops.point_gen if ops else 0
    out["product.fast.ns_per_predicted_op"] = 1e9 * fast_s / ops.fast if ops and fast_s else 0.0
    out["product.standard.ns_per_predicted_op"] = (
        1e9 * std_pipeline_s / (ops.standard + ops.point_gen) if ops and std_s else 0.0
    )
    out["ref.blas_matmul_s"] = blas_s or 0.0
    out["ref.fast_over_blas"] = fast_s / blas_s if blas_s else 0.0
    out["ref.standard_over_blas"] = std_s / blas_s if blas_s else 0.0
    out["trace.overhead_frac"] = overhead
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_setup(name: str, seed: int, workdir: Path, tracer=None):
    """Import rednets and make the workload's inputs, as the first thing a
    fresh process does.  Returns (rednets, workload, host speed probe,
    (import seconds, set-up seconds, host slowdown))."""
    t0 = time.perf_counter()
    rn = import_rednets()
    import_s = time.perf_counter() - t0

    import workloads
    from hostspeed import HostSpeed

    wl = workloads.WORKLOADS[name]()
    host = HostSpeed()
    slowdown = host.slowdown()
    if tracer is not None:
        tracer.job = "setup"
        tracer.install(rn)
    t0 = time.perf_counter()
    wl.setup(rn, seed, workdir)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.restore()
    return rn, wl, host, (import_s, setup_s, slowdown)


def setup_in_child(name: str, seed: int, workdir: Path) -> tuple[float, float, float]:
    """fresh_setup in a new interpreter; returns its timing triple."""
    workdir.mkdir()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", "1", "--cold-setup", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=120, check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import_s, setup_s, slowdown = json.loads(proc.stdout.strip().splitlines()[-1])
    return import_s, setup_s, slowdown


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from spans import Tracer

    tracer = Tracer()
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rn, wl, host, first = fresh_setup(name, seed, workdir, tracer if trace else None)
        setups = [first]
        if not trace:
            setups += [setup_in_child(name, seed, workdir / f"setup{k}")
                       for k in range(1, COLD_SETUPS)]
        norm_inverse = rn.product.norm_inverse  # taken outside any tracing
        wl.write_inputs()
        wl.prepare(rn, norm_inverse)
        peak_before_jobs = peak_rss_mb()
        # Warm-up job, untimed: fills caches and finishes lazy set-up.
        warm, _, warm_failed, _ = run_jobs(wl, rn, host, 0.0)
        gc.freeze()

        env = environment(seed)
        print("env " + json.dumps(env, sort_keys=True))
        if trace:
            plain, traced, failed_timed, _ = run_jobs(wl, rn, host, seconds, tracer)
            blas_s = None
            if hasattr(wl, "blas_matmul_s"):
                blas_s = wl.blas_matmul_s() / host.slowdown()
            # Each traced job ran right after the untraced job on the same input.
            overhead = statistics.median(t / p for (p, _), (t, _) in zip(plain, traced)) - 1.0
            metrics = per_layer(
                wl, tracer, {k: f for k, (_, f) in enumerate(traced)},
                {"setup": first[2]}, overhead, blas_s,
            )
            RESULTS.mkdir(exist_ok=True)
            spans_path = RESULTS / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            attempted = 1 + len(plain) + len(traced)
            failed = warm_failed + failed_timed
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}; "
                  f"median host slowdown {statistics.median(f for _, f in traced):.3f}")
            print_model_rows(wl, metrics)
        else:
            jobs, _, failed_timed, phase = run_jobs(wl, rn, host, seconds)
            raw = [dt for dt, _ in jobs]
            metrics = {
                "job_s_p50": statistics.median(dt / f for dt, f in jobs),
                "setup_s": statistics.median((imp + st) / f for imp, st, f in setups),
                "peak_rss_mb": peak_rss_mb(),
            }
            RESULTS.mkdir(exist_ok=True)
            with open(RESULTS / f"jobs-{name}-seed{seed}.json", "w") as fh:
                json.dump({"jobs": jobs, "warm_up": warm[0], "setups": setups,
                           "peak_rss_mb": metrics["peak_rss_mb"],
                           "peak_rss_mb_before_jobs": peak_before_jobs}, fh)
            attempted = 1 + len(jobs)
            failed = warm_failed + failed_timed
            print(f"raw wall times of {len(jobs)} jobs (+1 warm-up of {warm[0][0]:.4g} s): "
                  f"job_s_p50 {statistics.median(raw):.6g} s, job_s_p90 {p90(raw):.6g} s, "
                  f"job_s_min {min(raw):.6g} s, jobs_per_s {len(jobs) / phase:.6g} 1/s; "
                  f"median host slowdown {statistics.median(f for _, f in jobs):.3f}")
            print("raw set-ups, one per fresh process (import s, set-up s, slowdown): "
                  + ", ".join(f"({imp:.4f}, {st:.4f}, {f:.3f})" for imp, st, f in setups))
            print(f"peak resident set before the first job {peak_before_jobs:.1f} MB")
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}: attempted {attempted} failed {failed} "
          f"error_rate {failed / attempted:.4g}")
    for key, value in metrics.items():
        print(f"  {key:<44} {value:.6g} {unit(key)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def cold_setup_only(name: str, seed: int, workdir: Path) -> int:
    """Child side of setup_in_child: print the timing triple and exit."""
    *_, timing = fresh_setup(name, seed, workdir)
    print(json.dumps(timing))
    return 0


def print_model_rows(wl, metrics: dict) -> None:
    """Predicted operation counts next to measured time and the BLAS baseline."""
    if wl.ops is None:
        return
    print("model: op_count_model vs measured, per job")
    print(f"  fast      predicted {metrics['product.predicted_ops.fast']:>12} ops"
          f"  {metrics['product.fast.ns_per_predicted_op']:.4g} ns/op")
    print(f"  standard  predicted {metrics['product.predicted_ops.standard']:>12} + "
          f"{metrics['product.predicted_ops.point_gen']} point-gen ops"
          f"  {metrics['product.standard.ns_per_predicted_op']:.4g} ns/op")
    print(f"  BLAS X @ A (X given) {metrics['ref.blas_matmul_s']:.4g} s;"
          f" fast/BLAS {metrics['ref.fast_over_blas']:.4g};"
          f" standard_product/BLAS {metrics['ref.standard_over_blas']:.4g}")


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one cold set-up in this fresh process (see setup_in_child).
    parser.add_argument("--cold-setup", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.cold_setup is not None:
        return cold_setup_only(args.workload, args.seed, args.cold_setup)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
