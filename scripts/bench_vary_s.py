#!/usr/bin/env python3
"""Timing sweep over the dimension s at fixed m = 12, tau = 20.

Runs the fast column-reduced product against the standard pipeline for both
reduction-index growth schemes (floor(log2 j) and floor(log2 sqrt(j))) and
writes one CSV per scheme.  Plot wall_ns of the median rows against s with
any external tool.
"""

import argparse
import pathlib
import sys

# Import rednets from this source checkout when it is not installed.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rednets.cli import main as cli_main  # noqa: E402


def run(out_dir: pathlib.Path, reps: int, seed: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    s_list = ",".join(str(s) for s in range(100, 801, 100))
    for scheme in ("log", "sqrtlog"):
        out = out_dir / f"vary_s_m12_tau20_{scheme}.csv"
        code = cli_main([
            "bench", "--b", "2", "--m-list", "12", "--tau", "20",
            "--s-list", s_list, "--w-scheme", scheme,
            "--seed", str(seed), "--reps", str(reps), "--out", str(out),
        ])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.exit(run(args.out_dir, args.reps, args.seed))
