"""Record the expected outputs of the quality_exact workload.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json: the ``rednets report`` JSON of every net in
the workload's pool and the exact star discrepancy of the Pascal net, both
computed by the library in this checkout.  These values are exact integers
and integer ratios; the file was recorded when the benchmark was defined and
later commits are checked against it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import workloads


def main() -> int:
    rn = run.import_rednets()
    q, d = workloads.QUALITY_NET, workloads.DISC_NET
    reports = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for net_seed in range(workloads.QUALITY_POOL):
            path = Path(tmp) / "net.txt"
            with open(path, "w") as fh:
                rn.write_net(rn.random_net(q["b"], q["m"], q["s"], net_seed), fh)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = rn.cli.main(["report", "--net", str(path), "--w", q["w"],
                                  "--proj-cap", str(q["proj_cap"])])
            if rc != 0:
                raise SystemExit(f"report failed for net seed {net_seed}")
            reports[str(net_seed)] = json.loads(buf.getvalue())
    points = rn.generate_points(rn.pascal_net(d["b"], d["m"], d["s"]))
    disc = Fraction(rn.exact_star_discrepancy(points, d["u"]))
    out = {
        "reports": reports,
        "report_net": q,
        "discrepancy": f"{disc.numerator}/{disc.denominator}",
        "discrepancy_net": {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()},
    }
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
