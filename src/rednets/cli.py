"""Command-line surface: net generation, reduction, quality reports,
products and discrepancy bounds.

Exit codes: 0 success, 2 parse/validation failure, 3 enumeration budget
exhausted.  The enumeration budget can be set with REDNETS_ENUM_BUDGET, the
only environment variable.  Every block the CLI allocates is checked
against one entry limit, 2^28 (``nets._MAX_ENTRIES``), before it is
allocated, and so is a net's b^m * s point block where no command builds it.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from . import __version__
from .nets import (
    EnumerationBudgetError,
    NetSpec,
    ReductionSchedule,
    _check_block,
    column_reduce,
    generate_points,
    pascal_net,
    random_net,
    read_net,
    row_reduce,
    write_net,
)
from .product import (
    Transform,
    fast_reduced_product,
    read_matrix_csv,
    standard_product,
    write_product_bin,
    write_product_csv,
)


def _budget() -> int:
    from .quality import DEFAULT_BUDGET  # not at module level: product needs no quality

    raw = os.environ.get("REDNETS_ENUM_BUDGET")
    if raw and not raw.strip().isdecimal():
        raise ValueError(f"REDNETS_ENUM_BUDGET must be a nonnegative integer, got {raw!r}")
    return int(raw) if raw else DEFAULT_BUDGET


@contextmanager
def _out_stream(path: str | None, binary: bool = False):
    if path is None or path == "-":
        yield sys.stdout.buffer if binary else sys.stdout
    else:
        with open(path, "wb" if binary else "w") as fh:
            yield fh


def _load_net(path: str) -> NetSpec:
    with open(path) as fh:
        return read_net(fh)


def parse_schedule(spec: str, s: int, base: int, m: int) -> ReductionSchedule:
    """Schedule specs: ``explicit:w1,w2,...``, ``log``, ``sqrtlog``."""
    if spec.startswith("explicit:"):
        w = [int(x) for x in spec[len("explicit:") :].split(",")]
        if len(w) != s:
            raise ValueError(f"schedule has {len(w)} entries, net dimension is {s}")
        return ReductionSchedule.explicit(w)
    if spec == "log":
        return ReductionSchedule.floor_log(s, base, m)
    if spec == "sqrtlog":
        return ReductionSchedule.floor_log(s, base, m, num=1, den=2)
    raise ValueError(f"unknown schedule spec {spec!r}")


def parse_subset(spec: str | None) -> tuple[int, ...] | None:
    if spec is None:
        return None
    return tuple(int(x) for x in spec.split(","))


def parse_transform(spec: str, base: int, m: int) -> Transform:
    if spec == "identity":
        return Transform.identity()
    if spec == "norminv":
        return Transform.normal_inverse_for(base, m)
    if spec.startswith("norminv:"):
        return Transform.normal_inverse(float(spec[len("norminv:") :]))
    raise ValueError(f"unknown transform {spec!r}")


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.source == "pascal":
        net = pascal_net(args.b, args.m, args.s)
    else:
        net = random_net(args.b, args.m, args.s, args.seed)
    with _out_stream(args.out) as fh:
        write_net(net, fh)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    net = _load_net(args.net)
    sched = parse_schedule(args.w, net.s, net.base, net.m)
    reduced = row_reduce(net, sched) if args.axis == "rows" else column_reduce(net, sched)
    with _out_stream(args.out) as fh:
        write_net(reduced, fh)
    return 0


def _cmd_points(args: argparse.Namespace) -> int:
    net = _load_net(args.net)
    block = generate_points(net, args.first_digits)
    with _out_stream(args.out) as fh:
        block.write_csv(fh)
    return 0


def _cmd_rho(args: argparse.Namespace) -> int:
    from .quality import rho

    net = _load_net(args.net)
    u = parse_subset(args.u)
    value = rho(net, u, budget=_budget())
    print(f"rho = {value}")
    return 0


def _cmd_tvalue(args: argparse.Namespace) -> int:
    from .quality import strict_t

    net = _load_net(args.net)
    u = parse_subset(args.u)
    budget = _budget()
    t = strict_t(generate_points(net), u, budget=budget)
    print(f"t = {t}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .quality import analyze

    net = _load_net(args.net)
    sched = parse_schedule(args.w, net.s, net.base, net.m)
    report = analyze(net, sched, proj_cap=args.proj_cap, budget=_budget())
    print(report.to_json())
    return 0


def _cmd_disc_bound(args: argparse.Namespace) -> int:
    from .discrepancy import WeightModel, global_disc_bound
    from .quality import _projection_t

    net = _load_net(args.net)
    sched = parse_schedule(args.w, net.s, net.base, net.m)
    weights = WeightModel.parse(args.weights)
    budget = _budget()
    _check_block(net.base, net.m, net.m, net.s)
    t_map = _projection_t(net, sched.s_star(net.m), args.proj_cap, budget)
    bound = global_disc_bound(
        t_map, sched, weights, net.base, net.m, net.s,
        proj_cap=args.proj_cap, budget=budget,
    )
    if bound.outside is not None:
        print(f"term_outside = {bound.outside!r}")
    print(f"term_singles = {bound.singles!r}")
    if bound.higher is not None:
        print(f"term_higher = {bound.higher!r}")
    print(f"bound = {bound.value!r}")
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    net = _load_net(args.net)
    with open(args.a) as fh:
        a = read_matrix_csv(fh)
    transform = parse_transform(args.transform, net.base, net.m)
    if args.algo == "fast":
        if args.w is None:
            raise ValueError("--algo fast requires --w")
        sched = parse_schedule(args.w, net.s, net.base, net.m)
        p = fast_reduced_product(net, sched, a, transform)
    else:
        if args.w is not None:
            raise ValueError("--algo standard takes no --w")
        p = standard_product(net, a, transform)
    write = write_product_bin if args.bin else write_product_csv
    with _out_stream(args.out, binary=args.bin) as fh:
        write(p, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rednets",
        description="Column-reduced digital nets: construction, quality, "
        "fast products, discrepancy bounds.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a net and write its matrix file")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--source", choices=("pascal", "random"), default="pascal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("reduce", help="zero trailing columns (or rows) per schedule")
    p.add_argument("--net", required=True)
    p.add_argument("--w", required=True, help="explicit:...,log,sqrtlog")
    p.add_argument("--axis", choices=("cols", "rows"), default="cols")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("points", help="write the point block as CSV")
    p.add_argument("--net", required=True)
    p.add_argument("--first-digits", type=int, default=None, dest="first_digits")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_points)

    p = sub.add_parser("rho", help="linear independence parameter")
    p.add_argument("--net", required=True)
    p.add_argument("--u", default=None, help="1-based subset, e.g. 1,2")
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("tvalue", help="exact quality parameter by brute force")
    p.add_argument("--net", required=True)
    p.add_argument("--u", default=None)
    p.set_defaults(fn=_cmd_tvalue)

    p = sub.add_parser("report", help="quality report (JSON) for a reduction")
    p.add_argument("--net", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--proj-cap", type=int, default=4, dest="proj_cap")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("disc-bound", help="weighted star discrepancy bound")
    p.add_argument("--net", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--weights", required=True, help="const:<c>, poly:<p>, or CSV")
    p.add_argument("--proj-cap", type=int, default=4, dest="proj_cap")
    p.set_defaults(fn=_cmd_disc_bound)

    p = sub.add_parser("product", help="compute X A for a net")
    p.add_argument("--net", required=True)
    p.add_argument("--a", required=True, help="A matrix CSV")
    p.add_argument("--algo", choices=("fast", "standard"), required=True)
    p.add_argument("--w", default=None)
    p.add_argument("--transform", default="identity")
    p.add_argument("--bin", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_product)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (EnumerationBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EnumerationBudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
