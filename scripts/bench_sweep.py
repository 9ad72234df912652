#!/usr/bin/env python3
"""Vary-m and vary-s timing sweeps: the fast column-reduced product against
the standard product at b = 2, tau = 20, one CSV per sweep in --out-dir:

  vary_m_s800_tau20_log.csv        s = 800, m = 8..--m-max, floor(log2 j)
  vary_s_m12_tau20_log.csv         m = 12, s = 100..800, floor(log2 j)
  vary_s_m12_tau20_sqrtlog.csv     m = 12, s = 100..800, floor(log2 sqrt(j))

Both products run in this process, single-threaded, and each generates its
own points inside its timed call; neither builds the b^m x s point block.
Runs from a source checkout without installing the package.
"""

import argparse
import pathlib
import statistics
import sys
import time

import numpy as np

# Import rednets from this source checkout when it is not installed.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import rednets as rn  # noqa: E402
from rednets.cli import parse_schedule  # noqa: E402
from rednets.nets import _check_entries  # noqa: E402

B, TAU = 2, 20
FIELDS = ("algo", "b", "m", "s", "s_star", "tau", "w_scheme", "seed", "rep",
          "wall_ns", "predicted_ops")


def time_config(m: int, s: int, scheme: str, seed: int, reps: int) -> list[dict]:
    """Rows of one configuration: fast_column then standard in each rep, after
    one discarded warm-up call of each, then one median row per algorithm."""
    sched = parse_schedule(scheme, s, B, m)
    reduced = rn.column_reduce(rn.random_net(B, m, s, seed), sched)
    a = np.random.default_rng(seed).standard_normal((s, TAU))
    ops = rn.op_count_model(m, sched, TAU, s, base=B)
    # algo -> (product call, predicted ops), timed in this order in each rep
    products = {
        "fast_column": (lambda: rn.fast_reduced_product(reduced, sched, a), ops.fast),
        "standard": (lambda: rn.standard_product(reduced, a), ops.standard + ops.point_gen),
    }
    for product, _ in products.values():
        product()

    rows = []
    for rep in range(reps):
        for algo, (product, predicted_ops) in products.items():
            t0 = time.perf_counter_ns()
            product()
            wall_ns = time.perf_counter_ns() - t0
            rows.append(dict(
                algo=algo, b=B, m=m, s=s, s_star=sched.s_star(m), tau=TAU, w_scheme=scheme,
                seed=seed, rep=rep, wall_ns=wall_ns, predicted_ops=predicted_ops,
            ))
    for algo in products:
        group = [r for r in rows if r["algo"] == algo]
        rows.append(dict(group[0], rep="median",
                         wall_ns=int(statistics.median(r["wall_ns"] for r in group))))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--m-max", type=int, default=14)
    args = ap.parse_args(argv)
    sweeps = {
        "vary_m_s800_tau20_log.csv": [(m, 800, "log") for m in range(8, args.m_max + 1)],
        **{f"vary_s_m12_tau20_{scheme}.csv": [(12, s, scheme) for s in range(100, 801, 100)]
           for scheme in ("log", "sqrtlog")},
    }
    try:
        if args.reps < 3:
            raise ValueError(f"--reps must be >= 3 for a median, got {args.reps}")
        if args.m_max < 8:
            raise ValueError(f"--m-max must be >= 8, got {args.m_max}")
        for configs in sweeps.values():
            for m, s, _ in configs:
                _check_entries(B**m * s, "point block")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, configs in sweeps.items():
        path = args.out_dir / name
        with open(path, "w") as fh:
            fh.write(",".join(FIELDS) + "\n")
            for m, s, scheme in configs:
                for row in time_config(m, s, scheme, args.seed, args.reps):
                    fh.write(",".join(str(row[f]) for f in FIELDS) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
