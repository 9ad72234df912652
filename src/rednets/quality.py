"""Exact quality analysis of digital nets.

Two independent routes, each the other's test oracle: ranks of stacked rows of
the generating matrices (the linear independence parameter rho) and counts of
points in elementary intervals (the quality parameter t of a point block).  A
shape's cells are balanced exactly when its rows have full rank (Niederreiter
1992), so t = m - rho for a digital net, and ``analyze`` works by rank alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .gfmat import _rank_form, _rank_rows
from .nets import (
    DEFAULT_BUDGET, EnumerationBudgetError, NetSpec, PointBlock, ReductionSchedule, _check_block,
    column_reduce,
)

__all__ = [
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "QualityReport",
    "TheoremBounds",
    "analyze",
    "rho",
    "strict_t",
    "theorem_bounds",
    "verify_tms_net",
    "verify_tmes_net",
]


def compositions(total: int, steps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All tuples c with sum ``total`` and each c_j a multiple of steps[j].

    Ascending lexicographic order (Knuth, TAOCP 4A, 7.2.1.3) puts the mass
    on the last coordinate first, which is where failures concentrate for
    reduced nets, so searches falsify early.  The walk is iterative, so any
    number of coordinates works, and it never enters a prefix that cannot
    be completed, so its work follows the number of tuples.
    """
    k = len(steps)
    fits = [0] * k + [1]  # bit v <= total of fits[i]: some c[i:] sums to v
    for i in range(k - 1, -1, -1):
        fits[i], v = fits[i + 1], steps[i]
        while v <= total:  # shifts by every multiple of steps[i] up to total
            fits[i] |= fits[i] << v
            v *= 2
    c = [0] * k
    i, rest = 0, total  # c[i:] must sum to rest; c[i] only grows until reset
    while True:
        if i < k - 1:
            while c[i] <= rest and not fits[i + 1] >> (rest - c[i]) & 1:
                c[i] += steps[i]
            if c[i] <= rest:
                rest -= c[i]
                i += 1
                continue
        elif fits[i] >> rest & 1:  # the last entry takes the rest
            c[i] = rest
            yield tuple(c)
        if i == 0:
            return
        c[i] = 0  # no value left for c[i]: reset it and grow c[i - 1]
        i -= 1
        rest += c[i]
        c[i] += steps[i]


def _n_compositions(total: int, steps: Sequence[int]) -> list[int]:
    """Number of :func:`compositions` of every sum 0..total, exactly."""
    ways = [1] + [0] * total
    for step in steps:
        for v in range(step, total + 1):
            ways[v] += ways[v - step]
    return ways


def _normalize_subset(u: Sequence[int] | None, s: int) -> tuple[int, ...]:
    if u is None:
        return tuple(range(1, s + 1))
    u = tuple(sorted(set(int(j) for j in u)))
    if not u:
        raise ValueError("subset must be nonempty")
    if u[0] < 1 or u[-1] > s:
        raise ValueError(f"subset indices must lie in [1, {s}]")
    return u


def rho(
    net: NetSpec,
    u: Sequence[int] | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Linear independence parameter of the matrices with indices in u.

    Largest r such that every choice of first-row counts d_1 + ... = r gives
    linearly independent rows; 0 if that already fails at r = 1.  Coordinate
    indices in u are 1-based and default to all of them.
    """
    u = _normalize_subset(u, net.s)
    m = net.m
    ones = (1,) * len(u)
    counts = _n_compositions(m, ones)
    work = sum(counts[r] * r * m for r in range(1, m + 1))
    if work > budget:
        raise EnumerationBudgetError(
            f"rho enumeration needs ~{work} work units, budget is {budget}"
        )
    cols = [j - 1 for j in u]
    independent = _rank_check(net, cols)
    for r in range(1, m + 1):
        if not independent(cols, compositions(r, ones), m - r):
            return r - 1
    return m


def _rank_check(net: NetSpec, cols: Iterable[int]) -> Callable[..., bool]:
    """The test ``(cols, shapes, t)`` of :func:`_cells_balanced` by rank: the
    cell of an index under depths d is the stacked first d_j rows of each C_j
    times its digits, a linear map, so the b^(m-t) cells hold b^t points each
    iff those m - t rows are independent (Dick-Pillichshammer 2010, ch. 4)."""
    base = net.base
    rows = {c: _rank_form(net.digits[c].tolist(), base) for c in cols}

    def independent(cols, shapes, t):
        stacks = ([r for c, d in zip(cols, ds) for r in rows[c][:d]] for ds in shapes)
        return all(_rank_rows(stack, base) == len(stack) for stack in stacks)

    return independent


@dataclass(frozen=True)
class TheoremBounds:
    """Bounds for a column-reduced net derived from a digital sequence.

    ``lower``/``upper`` sandwich the reduced linear independence parameter,
    ``t_upper`` bounds the reduced quality parameter, and ``strict_upper``
    replaces ``upper`` when the original net (projection) is strict.
    """

    lower: int
    upper: int
    t_upper: int
    strict_upper: int


def theorem_bounds(
    t: int,
    m: int,
    sched: ReductionSchedule,
    u: Sequence[int] | None = None,
) -> TheoremBounds:
    """Evaluate the reduced-net bounds for the projection onto u.

    ``t`` is the quality parameter of the unreduced net's projection onto u.
    Only the largest reduction index over u matters because the schedule is
    nondecreasing.
    """
    if not 0 <= t <= m:
        raise ValueError("need 0 <= t <= m")
    u = _normalize_subset(u, sched.s)
    w_bar = sched.w[max(u) - 1]
    return TheoremBounds(
        lower=max(0, m - w_bar - t),
        upper=max(0, m - w_bar),
        t_upper=min(m, w_bar + t),
        strict_upper=max(0, m - max(t, w_bar)),
    )


def _cells_balanced(
    points: PointBlock,
    cols: Sequence[int],
    shapes: Iterable[Sequence[int]],
    t: int,
    lead: dict[tuple[int, int], np.ndarray],
) -> bool:
    """Check that every cell of every depth shape holds exactly b^t points.

    A shape gives the digit depth of each column in ``cols``, summing to
    m - t; its cells are keyed by the leading digits of the columns.  The
    counts of a shape sum to b^m over b^(m-t) cells, so all equal b^t iff
    none exceeds it.  ``lead`` caches the leading-digit arrays by (column,
    depth) and may be shared by calls on the same block.  Consecutive
    shapes that agree on their first columns share those columns' keys.
    """
    b, m = points.base, points.m
    keys: list[np.ndarray | None] = [None] * len(cols)
    prev = None
    for depths in shapes:
        j = 0
        if prev is not None:
            while depths[j] == prev[j]:
                j += 1
        key = keys[j - 1] if j else None
        for j in range(j, len(cols)):
            dj = depths[j]
            if dj:
                digits = lead.get((cols[j], dj))
                if digits is None:
                    digits = points.numerators[:, cols[j]] // b ** (m - dj)
                    lead[cols[j], dj] = digits
                key = digits if key is None else key * b**dj + digits
            keys[j] = key
        if key is not None and np.bincount(key).max() > b**t:
            return False
        prev = depths
    return True


def _shapes(
    block: PointBlock | NetSpec, t: int, steps: Sequence[int], budget: int
) -> Iterator[tuple[int, ...]]:
    """The :func:`compositions` of m - t, after checking t and the full
    block or net and counting them against the budget before any is built."""
    m = block.m
    if not 0 <= t <= m:
        raise ValueError("need 0 <= t <= m")
    if block.n_points != block.base**m:
        raise ValueError("verification needs the full b^m-point block")
    n_shapes = _n_compositions(m - t, steps)[m - t]
    if n_shapes * block.n_points > budget:
        raise EnumerationBudgetError(
            f"{n_shapes} interval shapes x {block.n_points} points "
            f"exceeds budget {budget}"
        )
    return compositions(m - t, steps)


def _scan_t(
    block: PointBlock | NetSpec, cols: Sequence[int], lo: int, inner: bool,
    budget: int, balanced: Callable[..., bool],
) -> int:
    """Smallest t >= lo at which ``balanced(cols, shapes, t)`` holds.

    Only the largest shape count, at t = 0, meets the budget.  ``inner``
    checks only shapes with all depths >= 1: the others are shapes of
    proper subsets of ``cols``, which the caller has verified at some
    t <= lo, and a (t, m, s)-net is also a (t + 1, m, s)-net."""
    m, ones = block.m, (1,) * len(cols)
    _shapes(block, 0, ones, budget)  # the checks only
    for t in range(lo, m + 1):
        total = m - t - len(cols) * inner  # inner shapes: 1 + each composition
        shapes = (tuple(d + inner for d in c) for c in compositions(total, ones))
        if total < 0 or balanced(cols, shapes, t):
            return t
    raise AssertionError("t = m always verifies; unreachable")


def verify_tms_net(
    points: PointBlock,
    t: int,
    u: Sequence[int] | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Exhaustively test the net property at quality parameter t.

    True iff every elementary interval of volume b^(t-m) in the coordinates
    of u contains exactly b^t points.  Cell membership is decided on integer
    numerators, so the test is exact.
    """
    u = _normalize_subset(u, points.s)
    shapes = _shapes(points, t, (1,) * len(u), budget)
    return _cells_balanced(points, [j - 1 for j in u], shapes, t, {})


def strict_t(
    points: PointBlock,
    u: Sequence[int] | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Smallest t for which the net property holds (scan t = 0, 1, ..., m)."""
    u = _normalize_subset(u, points.s)
    balanced = partial(_cells_balanced, points, lead={})
    return _scan_t(points, [j - 1 for j in u], 0, False, budget, balanced)


def verify_tmes_net(
    points: PointBlock,
    t: int,
    e: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Net check restricted to interval shapes with per-axis depths e_j d_j.

    Only solutions of e_1 d_1 + ... + e_s d_s = m - t are admissible shapes;
    when no solution exists the check is vacuously true.
    """
    e = tuple(int(x) for x in e)
    if len(e) != points.s:
        raise ValueError("shape vector length must equal the dimension")
    if any(ej < 1 for ej in e):
        raise ValueError("shape entries must be >= 1")
    return _cells_balanced(points, range(points.s), _shapes(points, t, e, budget), t, {})


def _subsets(n: int, sizes: range, budget: int) -> Iterator[tuple[int, ...]]:
    """Subsets of 1..n with a size in ``sizes``, by size, each in lex order.

    Their number is compared with the budget when this is called, before
    any subset is made.
    """
    count = sum(math.comb(n, size) for size in sizes)
    if count > budget:
        raise EnumerationBudgetError(f"{count} projections exceed budget {budget}")
    return (u for size in sizes for u in combinations(range(1, n + 1), size))


def _projection_t(
    net: NetSpec, n_coords: int, cap: int, budget: int
) -> dict[tuple[int, ...], int]:
    """t of every subset of 1..n_coords with at most ``cap`` members, by rank.

    Subsets come by size.  t_v <= t_u for v in u (a projection of a
    (t, m, s)-net is a (t, m, |v|)-net), so the scan of u starts at the
    largest t of u minus one index and checks only all-positive shapes."""
    ts: dict[tuple[int, ...], int] = {}
    independent = _rank_check(net, range(n_coords))
    for u in _subsets(n_coords, range(1, min(cap, n_coords) + 1), budget):
        lo = max(ts.get(u[:i] + u[i + 1 :], 0) for i in range(len(u)))
        ts[u] = _scan_t(net, [j - 1 for j in u], lo, True, budget, independent)
    return ts


@dataclass(frozen=True)
class ProjectionQuality:
    rho: int
    t_exact: int
    t_upper: int


@dataclass(frozen=True)
class QualityReport:
    """Quality summary of a column-reduced net.

    ``rho`` and ``t_exact`` describe the reduced net over all coordinates;
    ``t_upper`` = min(m, w_s + t) on the unreduced net's t bounds ``t_exact``
    for nets from a digital sequence (:class:`TheoremBounds`), not for all.
    The projection table maps 1-based coordinate subsets (up to the
    configured size cap) to the same triple for the projected net.
    """

    base: int
    m: int
    s: int
    rho: int
    t_exact: int
    t_upper: int
    projections: dict[tuple[int, ...], ProjectionQuality]

    def to_json(self) -> str:
        """Stable JSON rendering; subset keys become comma-joined strings."""
        payload = asdict(self)
        projections = payload["projections"].items()
        payload["projections"] = {",".join(map(str, u)): q for u, q in projections}
        return json.dumps(payload, sort_keys=True, indent=2)


def analyze(
    net: NetSpec,
    sched: ReductionSchedule,
    *,
    proj_cap: int = 4,
    budget: int = DEFAULT_BUDGET,
) -> QualityReport:
    """Reduce the net and derive its quality report.

    The t-values of the unreduced net and of its projections come from rank
    scans, with no point block, and give each set's ``t_upper`` (a bound only
    under :class:`QualityReport`'s hypothesis).  The reduced net's t is
    m - rho, and each projection's rho is m - t.  Projections larger than
    ``proj_cap`` coordinates are skipped.
    """
    if proj_cap < 0:
        raise ValueError(f"proj_cap must be >= 0, got {proj_cap}")
    reduced = column_reduce(net, sched)
    # The rank scans stand for cell counts, so the point block's limits hold.
    _check_block(net.base, net.m, net.m, net.s)
    s, ones = net.s, (1,) * net.s
    # Budget errors come in a plain t = 0 scan's order (the reduced net's count is the same).
    _shapes(net, 0, ones, budget)
    rho_full = rho(reduced, budget=budget)
    base_t = _projection_t(net, s, proj_cap, budget)
    red_t = _projection_t(reduced, s, proj_cap, budget)
    t_full = base_t.get(tuple(range(1, s + 1)))
    if t_full is None:
        lo, inner = max(base_t.values(), default=0), proj_cap >= s - 1
        t_full = _scan_t(net, range(s), lo, inner, budget, _rank_check(net, range(s)))

    t_upper = {u: theorem_bounds(t_u, net.m, sched, u).t_upper for u, t_u in base_t.items()}
    projections = {u: ProjectionQuality(net.m - t, t, t_upper[u]) for u, t in red_t.items()}
    return QualityReport(
        base=net.base,
        m=net.m,
        s=net.s,
        rho=rho_full,
        t_exact=net.m - rho_full,
        t_upper=theorem_bounds(t_full, net.m, sched).t_upper,
        projections=projections,
    )
