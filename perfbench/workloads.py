"""The four benchmark workloads.

Each job goes through the public entry point ``rednets.cli.main`` in the
same process, or through the public library function where no subcommand
exists.  Inputs are made from the run's seed: ``setup`` runs the library's
net construction and writes the net files, and ``write_inputs`` writes the
benchmark's own files (the A matrix).  Reference outputs are made after
that, outside every timed interval, in a child process, so that their
memory is not counted in the run's peak resident set.

Every library name is looked up on its module at call time, so a tracer
that has replaced module attributes sees the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import check

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# Quality workload: the report's cost depends on the net (rho stops at the
# first dependent composition and strict_t at the first t that verifies),
# so a run cycles over QUALITY_PICK nets drawn by the seed from a pool of
# QUALITY_POOL nets whose reports were recorded; see record_expected.py.
QUALITY_NET = dict(b=2, m=12, s=5, w="log", proj_cap=3)
QUALITY_POOL = 48
QUALITY_PICK = 16
DISC_NET = dict(b=2, m=8, s=3, u=(1, 2, 3))


def write_matrix_csv(a: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def run_in_child(fn) -> None:
    """Run ``fn()`` in a forked child and wait for it.

    Whatever the child allocates is never part of this process's peak
    resident set.  Raises if the child fails.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fn()
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"child process {pid} failed with status {status}")


class ProductWorkload:
    """``rednets product`` on a column-reduced random net and a normal A."""

    def __init__(self, name, *, b, m, s, tau, w, algo, transform, binary):
        self.name = name
        self.b, self.m, self.s, self.tau, self.w = b, m, s, tau, w
        self.algo, self.transform, self.binary = algo, transform, binary

    def setup(self, rn, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        net_seed = int(rng.integers(1 << 32))
        a = rng.standard_normal((self.s, self.tau))
        self.sched = rn.cli.parse_schedule(self.w, self.s, self.b, self.m)
        net = rn.nets.random_net(self.b, self.m, self.s, net_seed)
        net = rn.nets.column_reduce(net, self.sched)
        self.net_path = workdir / "net.txt"
        self.a_path = workdir / "a.csv"
        self.out_path = workdir / ("p.bin" if self.binary else "p.csv")
        with open(self.net_path, "w") as fh:
            rn.nets.write_net(net, fh)
        self.a = a
        self.argv = ["product", "--net", str(self.net_path), "--a", str(self.a_path),
                     "--algo", self.algo, "--transform", self.transform, "--out", str(self.out_path)]
        if self.algo == "fast":
            self.argv += ["--w", self.w]
        if self.binary:
            self.argv.append("--bin")

    def write_inputs(self) -> None:
        write_matrix_csv(self.a, self.a_path)

    def prepare(self, rn, norm_inverse) -> None:
        """Reference product from the net file; ``norm_inverse`` is the
        library's transform, taken before any tracing.

        X and the reference are built in a child process and saved next to
        the inputs; only the reference (N x tau) is loaded here.
        """
        ref_dir = self.net_path.parent

        def build() -> None:
            base, m, mats = check.read_net_digits(self.net_path)
            x = check.point_numerators(base, m, mats) / float(base**m)
            if self.transform == "norminv":
                check.check_norm_inverse(norm_inverse)
                x = norm_inverse(x + float(base) ** -(m + 1))
            np.save(ref_dir / "x.npy", x)
            check.ProductReference.of(x, self.a).save(ref_dir)

        run_in_child(build)
        self.ref = check.ProductReference.load(ref_dir)
        self.ops = rn.product.op_count_model(self.m, self.sched, self.tau, self.s, base=self.b)

    def next_input(self) -> None:
        """Every job of a run has the same inputs."""

    def job(self, rn) -> None:
        if self.out_path.exists():
            self.out_path.unlink()
        rc = rn.cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"rednets product exited with {rc}")

    def check(self) -> str | None:
        try:
            if self.binary:
                p = check.read_product_bin(self.out_path)
            else:
                p = check.read_product_csv(self.out_path, self.tau)
        except (OSError, ValueError) as exc:
            return f"unreadable product: {exc}"
        return self.ref.compare(p)

    def blas_matmul_s(self, reps: int = 31) -> float:
        """Median time of ``X @ A`` with X already given: the BLAS baseline."""
        x = np.load(self.net_path.parent / "x.npy")
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            x @ self.a
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class QualityWorkload:
    """``rednets report`` on a small random net, then the exact star
    discrepancy of a fixed Pascal net's points over three coordinates."""

    name = "quality_exact"
    ops = None

    def setup(self, rn, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        q = QUALITY_NET
        self.net_seeds = [int(k) for k in rng.choice(QUALITY_POOL, QUALITY_PICK, replace=False)]
        self.net_paths = []
        for net_seed in self.net_seeds:
            path = workdir / f"q{net_seed}.txt"
            with open(path, "w") as fh:
                rn.nets.write_net(rn.nets.random_net(q["b"], q["m"], q["s"], net_seed), fh)
            self.net_paths.append(path)
        d = DISC_NET
        self.points = rn.nets.generate_points(rn.nets.pascal_net(d["b"], d["m"], d["s"]))
        self.count = 0

    def write_inputs(self) -> None:
        """All inputs are net files, written by the library during set-up."""

    def prepare(self, rn, norm_inverse) -> None:
        with open(EXPECTED_PATH) as fh:
            expected = json.load(fh)
        self.expected_reports = expected["reports"]
        self.expected_disc = expected["discrepancy"]

    def next_input(self) -> None:
        """Jobs cycle through the run's nets in the order the seed drew them."""
        self.k = self.count % len(self.net_seeds)
        self.count += 1

    def job(self, rn) -> None:
        k = self.k
        self.last = None
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = rn.cli.main(["report", "--net", str(self.net_paths[k]), "--w", QUALITY_NET["w"],
                              "--proj-cap", str(QUALITY_NET["proj_cap"])])
        if rc != 0:
            raise RuntimeError(f"rednets report exited with {rc}")
        disc = rn.exact_star_discrepancy(self.points, DISC_NET["u"])
        self.last = (self.net_seeds[k], buf.getvalue(), disc)

    def check(self) -> str | None:
        net_seed, report, disc = self.last
        return check.check_report(report, self.expected_reports[str(net_seed)]) or \
            check.check_discrepancy(disc, self.expected_disc)


WORKLOADS = {
    "paper_fast": lambda: ProductWorkload(
        "paper_fast", b=2, m=12, s=800, tau=20, w="log", algo="fast",
        transform="identity", binary=False),
    "paper_standard": lambda: ProductWorkload(
        "paper_standard", b=2, m=12, s=800, tau=20, w="log", algo="standard",
        transform="identity", binary=True),
    "base3_norminv": lambda: ProductWorkload(
        "base3_norminv", b=3, m=8, s=400, tau=20, w="sqrtlog", algo="fast",
        transform="norminv", binary=False),
    "quality_exact": QualityWorkload,
}
