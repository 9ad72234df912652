"""Weighted star discrepancy machinery.

Local discrepancy and an exact small-scale star discrepancy oracle work on
any point block; the bound side combines per-projection quality parameters,
the coefficient table of the general net discrepancy bound, and product
weights into a single global upper bound.  Reduction-index choosers invert
the bound: given weights, pick indices that keep the bound dimension-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .nets import DEFAULT_BUDGET, EnumerationBudgetError, PointBlock, ReductionSchedule
from .quality import _normalize_subset, _subsets, theorem_bounds

__all__ = [
    "GlobalBound",
    "WeightModel",
    "avb_coefficients",
    "choose_reduction_indices",
    "exact_star_discrepancy",
    "global_disc_bound",
    "local_discrepancy",
    "projection_disc_bound",
    "zeta_product_check",
    "zeta_value",
]


@dataclass(frozen=True)
class WeightModel:
    """Product weights gamma_j, nonincreasing and positive.

    kinds: ``const`` (gamma_j = param), ``poly`` (gamma_j = j^-param), or
    ``list`` (explicit values; anything past the list is an error).  kappa
    and decay_tau parameterize the two reduction-index choosers.
    """

    kind: str
    param: float = 1.0
    values: tuple[float, ...] = ()
    kappa: float | None = None
    decay_tau: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "const":
            if not 0 < self.param < math.inf:
                raise ValueError("constant weight must be positive and finite")
        elif self.kind == "poly":
            if not 0 <= self.param < math.inf:
                raise ValueError("polynomial decay exponent must be >= 0 and finite")
        elif self.kind == "list":
            if not self.values:
                raise ValueError("empty weight list")
            if any(not 0 < v < math.inf for v in self.values):
                raise ValueError("weights must be positive and finite")
            if any(a < b for a, b in zip(self.values, self.values[1:])):
                raise ValueError("weights must be nonincreasing")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.decay_tau is not None and not 1.0 < self.decay_tau < 2.0:
            raise ValueError("decay_tau must lie in (1, 2)")

    @classmethod
    def constant(cls, c: float, **kw) -> WeightModel:
        return cls("const", param=c, **kw)

    @classmethod
    def polynomial(cls, p: float, **kw) -> WeightModel:
        return cls("poly", param=p, **kw)

    @classmethod
    def explicit(cls, values: Sequence[float], **kw) -> WeightModel:
        return cls("list", values=tuple(float(v) for v in values), **kw)

    @classmethod
    def parse(cls, text: str, **kw) -> WeightModel:
        """Grammar: ``const:<c>`` | ``poly:<p>`` | comma-separated values."""
        if text.startswith("const:"):
            return cls.constant(float(text[6:]), **kw)
        if text.startswith("poly:"):
            return cls.polynomial(float(text[5:]), **kw)
        return cls.explicit([float(v) for v in text.split(",")], **kw)

    def gamma(self, j: int) -> float:
        """Weight of coordinate j, 1-based."""
        if j < 1:
            raise ValueError("coordinates are 1-based")
        if self.kind == "const":
            return self.param
        if self.kind == "poly":
            return float(j) ** -self.param
        if j > len(self.values):
            raise ValueError(f"weight list has only {len(self.values)} entries")
        return self.values[j - 1]

    def gammas(self, s: int) -> np.ndarray:
        """gamma(1), ..., gamma(s) as float64, bit for bit."""
        return np.array([self.gamma(j) for j in range(1, s + 1)], dtype=np.float64)

    def gamma_u(self, u: Sequence[int]) -> float:
        out = 1.0
        for j in u:
            out *= self.gamma(j)
        return out

    def j_zero(self, s: int) -> int:
        """Minimal j0 with gamma_j <= 1 for all j > j0 (0 if gamma_1 <= 1)."""
        g = self.gammas(s)
        above = np.nonzero(g > 1.0)[0]
        return int(above[-1]) + 1 if above.size else 0


def local_discrepancy(
    points: PointBlock, u: Sequence[int], x: Sequence[float]
) -> float:
    """Counting error of the anchored box [0, x) projected onto u.

    Counts points with y_j < x_j strictly for all j in u (1-based), exactly
    on the integer numerators, divides by b^m, and subtracts the box volume.
    """
    u = tuple(int(j) for j in u)
    if len(_normalize_subset(u, points.s)) != len(u):
        raise ValueError("subset indices must be distinct")
    if len(x) != len(u):
        raise ValueError("x must have one entry per coordinate in u")
    if any(not 0.0 < xj <= 1.0 for xj in x):
        raise ValueError("x must lie in (0, 1]^|u|")
    n = points.base**points.m
    mask = np.ones(points.n_points, dtype=bool)
    vol = 1.0
    for j, xj in zip(u, map(float, x)):
        mask &= points.numerators[:, j - 1] < math.ceil(Fraction(xj) * n)
        vol *= xj
    return int(mask.sum()) / n - vol


def _axis_grids(points: PointBlock, cols: Sequence[int]) -> list[np.ndarray]:
    full = points.base**points.m
    grids = []
    for c in cols:
        vals = np.unique(points.numerators[:, c])
        if vals.size == 0 or vals[-1] != full:
            vals = np.concatenate([vals, [full]])
        grids.append(vals.astype(np.int64))
    return grids


def exact_star_discrepancy(
    points: PointBlock,
    u: Sequence[int] | None = None,
    *,
    budget: int = 1 << 25,
) -> float:
    """Exact sup of |local discrepancy| over (0, 1]^|u|.

    The sup is attained in the limit at corners of the grid spanned by the
    distinct point coordinates and 1: at each corner both one-sided limits
    are evaluated (the strict inequality in the counting means the value
    from above uses closed counts, the value at the corner open counts).
    All comparisons are integer-exact; the budget counts grid corners,
    which grow as N^|u|, while memory grows as N^(|u|-1).  Each slice is
    evaluated only on the block its points changed (the critical-box
    pruning of Dobkin, Eppstein and Mitchell, ACM TOG 1996).
    """
    u = _normalize_subset(u, points.s)
    d = len(u)
    if d > 3:
        raise ValueError("exact star discrepancy supports 1 <= |u| <= 3")
    n_full = points.base**points.m
    if n_full > 4096:
        raise ValueError("exact star discrepancy supports b^m <= 4096")
    cols = [j - 1 for j in u]
    grids = _axis_grids(points, cols)
    n_cells = math.prod(g.size for g in grids)
    if n_cells > budget:
        raise EnumerationBudgetError(
            f"{n_cells} grid corners exceed budget {budget}"
        )

    # Walk the first axis in order, keeping one plane over the remaining
    # axes: after slice i it holds the closed counts #{y <= corner} of the
    # corners with first coordinate grids[0][i], scaled to the common
    # denominator b^(m d).  Memory is O(N^(d-1)), not O(N^d).  Counts reach
    # n_points b^(m (d-1)), volumes b^(m d), their differences the larger of
    # the two, so the planes are int32 when that is below 2^31, else int64.
    scale = n_full ** (d - 1)
    dtype = np.int32 if max(points.n_points, n_full) * scale < 2**31 else np.int64
    idx = [np.searchsorted(g, points.numerators[:, c]) for g, c in zip(grids, cols)]
    plane_idx = np.array(idx[1:], dtype=np.intp).reshape(d - 1, points.n_points)
    order = np.argsort(idx[0], kind="stable")
    starts = np.searchsorted(idx[0][order], np.arange(grids[0].size + 1))
    # plane_vol is the outer product of the plane axes' grid values.
    plane_axes = np.ix_(*(g.astype(dtype) for g in grids[1:]))
    plane_vol = math.prod(plane_axes, start=np.ones((), dtype=dtype))
    closed = np.zeros(plane_vol.shape, dtype=dtype)
    buf = np.empty(plane_vol.size, dtype=dtype)

    def deviation(lo: list[int], g0: int, closed_side: bool) -> int:
        """Largest closed - vol, or vol - open, over the corners above lo."""
        first, stop = (0, None) if closed_side else (1, -1)
        corners = tuple(slice(k + first, None) for k in lo) + (...,)
        counts = closed[tuple(slice(k, stop) for k in lo) + (...,)]
        out = buf[: counts.size].reshape(counts.shape)
        np.subtract(np.multiply(plane_vol[corners], g0, out=out), counts, out=out)
        return -int(out.min(initial=0)) if closed_side else int(out.max(initial=0))

    # Open counts #{y < corner} are the previous slice's closed counts one
    # grid step back along every plane axis (coordinates sit exactly on
    # grid values).  Corners on the low edge of the plane have none, so
    # their deviation is the volume, largest at b^m on every other axis.
    best = scale * max((int(g[0]) for g in grids[1:]), default=0)
    # A slice raises closed - vol only on the block its points update (above
    # their lowest corner lo), and vol - open is highest just before a point
    # enters the orthant one step below the corner (so above lo) or at the
    # last slice, which holds no point.  Trailing Ellipses keep 0-d views.
    for i in np.flatnonzero(np.diff(starts)).tolist():
        g0 = int(grids[0][i])
        at = plane_idx[:, order[starts[i] : starts[i + 1]]]
        lo = at.min(axis=1)
        best = max(best, deviation(lo.tolist(), g0, False))
        block = tuple(slice(k, None) for k in lo.tolist()) + (...,)
        if at.shape[1] == 1:
            # Distinct first coordinates, as in every full block of a net
            # with nonsingular matrices, give one point per slice; adding
            # to its orthant takes half the time of the histogram below.
            closed[block] += scale
        else:
            # Histogram the slice's points over the block above their lowest
            # corner and prefix-sum it along every axis.  The leading length-1
            # axis gives np.add.at an index array even for a 0-d plane.
            hist = np.zeros(closed[block].shape, dtype=dtype)
            cells = (np.zeros(at.shape[1], dtype=np.intp),) + tuple(at - lo[:, None])
            np.add.at(hist[None], cells, scale)
            for axis in range(d - 1):
                hist = np.cumsum(hist, axis=axis, dtype=dtype)
            closed[block] += hist
        best = max(best, deviation(lo.tolist(), g0, True))
    best = max(best, deviation([0] * (d - 1), n_full, False))
    return best / float(n_full**d)


def avb_coefficients(base: int, u_size: int) -> list[Fraction]:
    """Coefficients a_{v,b} of the m-polynomial in the projection bound.

    Exact rationals for v = 0, ..., u_size - 1; needs u_size >= 2.  The base
    cases split on the parity of the base.
    """
    if u_size < 2:
        raise ValueError("coefficients are defined for |u| >= 2")
    if base % 2 == 0:
        a0 = Fraction(base + 8, 4)
        a1 = Fraction(base * base, 4 * (base + 1))
    else:
        a0 = Fraction(base + 4, 2)
        a1 = Fraction(base - 1, 4)
    half_b2 = Fraction(base + 2, 2)
    out = []
    for v in range(u_size):
        first = (
            Fraction(math.comb(u_size - 2, v))
            * half_b2 ** (u_size - 2 - v)
            * Fraction((base - 1) ** v, 2**v * math.factorial(v))
            * (a0 + u_size * u_size - 4)
        )
        if v >= 1:
            second = (
                Fraction(math.comb(u_size - 2, v - 1))
                * half_b2 ** (u_size - 1 - v)
                * Fraction((base - 1) ** (v - 1), 2 ** (v - 1) * math.factorial(v))
                * a1
            )
        else:
            second = Fraction(0)
        out.append(first + second)
    return out


def projection_disc_bound(
    base: int, m: int, t_u_tilde: int, u_size: int, in_sstar: bool
) -> float:
    """Star discrepancy bound of one projection of a reduced net.

    Projections touching a fully reduced coordinate are only bounded by 1;
    others use b^t / b^m, with the m-polynomial factor for |u| >= 2.
    """
    if not 0 <= t_u_tilde <= m:
        raise ValueError("need 0 <= t <= m")
    if not in_sstar:
        return 1.0
    lead = Fraction(base**t_u_tilde, base**m)
    if u_size == 1:
        return float(lead)
    coeffs = avb_coefficients(base, u_size)
    poly = sum(c * m**v for v, c in enumerate(coeffs))
    return float(lead * poly)


@dataclass(frozen=True)
class GlobalBound:
    """Weighted star discrepancy bound, split into its three maxima.

    ``outside``: subsets touching a fully reduced coordinate (closed-form
    maximization over those subsets; None when s = s*).  ``singles``:
    one-coordinate projections.  ``higher``: projections of size 2 up to the
    cap.  ``value`` is the overall max.
    """

    outside: float | None
    singles: float
    higher: float | None
    value: float


def global_disc_bound(
    net_t_u: Mapping[tuple[int, ...], int],
    sched: ReductionSchedule,
    weights: WeightModel,
    base: int,
    m: int,
    s: int,
    proj_cap: int = 4,
    *,
    budget: int = DEFAULT_BUDGET,
) -> GlobalBound:
    """Upper bound on the weighted star discrepancy of the reduced net.

    ``net_t_u`` maps 1-based coordinate subsets of [s*] (up to proj_cap) to
    the quality parameter of the *unreduced* net's projection, in [0, m];
    every reduced projection, single coordinates included, is bounded
    through ``theorem_bounds(t_u, m, sched, u).t_upper`` = min(m, w_max(u) + t_u).
    A term that overflows float64 raises ValueError, naming the first of
    outside, singles and higher that is not finite.
    """
    if sched.s != s:
        raise ValueError("schedule length does not match s")
    if proj_cap < 1:
        raise ValueError(f"proj_cap must be >= 1, got {proj_cap}")
    s_star = sched.s_star(m)
    g = weights.gammas(s)
    bm = float(base) ** m

    outside: float | None = None
    if s_star < s:
        with np.errstate(over="ignore"):  # an overflow is reported below
            factors = g * (1.0 + np.power(float(base), np.array(sched.w, dtype=float)))
            # The maximizing subset takes every factor > 1 and, if none of the
            # fully reduced coordinates has one, the largest factor among them.
            prod = float(np.prod(np.maximum(1.0, factors)))
        tail = factors[s_star:]
        if not np.any(tail > 1.0):
            prod *= float(tail.max())
        outside = prod / bm

    def term(u: tuple[int, ...]) -> float:
        t_u = net_t_u.get(u)
        if t_u is None:
            raise ValueError(f"missing t value for projection {u}")
        t_red = theorem_bounds(t_u, m, sched, u).t_upper
        return weights.gamma_u(u) * base**t_red / bm

    singles = max((term((j,)) for j in range(1, s_star + 1)), default=0.0)
    sizes = range(2, min(proj_cap, s_star) + 1)
    subsets = _subsets(s_star, sizes, budget)
    polys = {
        size: float(sum(c * m**v for v, c in enumerate(avb_coefficients(base, size))))
        for size in sizes
    }
    higher = max((term(u) * polys[len(u)] for u in subsets), default=None)

    terms = {"outside": outside, "singles": singles, "higher": higher}
    for name, v in terms.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"term_{name} is not finite ({v!r}): the weights overflow float64")
    return GlobalBound(**terms, value=max(v for v in terms.values() if v is not None))


def choose_reduction_indices(
    weights: WeightModel,
    base: int,
    m: int,
    s: int,
    scheme: str,
) -> ReductionSchedule:
    """Reduction indices from the weights.

    ``kappa``: w_j = min(floor(log_b(((kappa / gamma_1^j0)^(1/s) - 1) / gamma_j)), m),
    keeping the product gamma_j (1 + b^w_j) below kappa.  ``zeta``: for
    gamma_j = j^-2 and decay exponent tau in (1, 2),
    w_j = min(floor(log_b(j^(2 - tau))), m), which is s-independent.
    Negative logarithms clamp to 0 and w_1 is forced to 0.  Both floors are
    exact: ``kappa`` decides b^(k+1) <= ((kappa / gamma_1^j0)^(1/s) - 1) / gamma_j
    as (gamma_j b^(k+1) + 1)^s gamma_1^j0 <= kappa in rationals, since every
    float is a dyadic, and ``zeta`` reads tau as the fraction p/q of its
    decimal form (q <= 100) and compares integer powers.
    """
    if scheme == "kappa":
        if weights.kappa is None:
            raise ValueError("kappa scheme needs weights.kappa")
        j0 = weights.j_zero(s)
        if not weights.kappa > weights.gamma(1) ** j0:
            raise ValueError("kappa must exceed gamma_1^j0")
        limit = Fraction(weights.kappa) / Fraction(weights.gamma(1)) ** j0
        w, k = [], 0
        for j in range(1, s + 1):
            # gamma_j never increases, so k never decreases: resume from j - 1
            gamma = Fraction(weights.gamma(j))
            while k < m and (gamma * base ** (k + 1) + 1) ** s <= limit:
                k += 1
            w.append(k)
    elif scheme == "zeta":
        if weights.decay_tau is None:
            raise ValueError("zeta scheme needs weights.decay_tau")
        if weights.kind != "poly" or weights.param != 2:
            raise ValueError("zeta scheme assumes weights poly:2")
        tau = Fraction(str(weights.decay_tau))
        p, q = tau.numerator, tau.denominator
        if q > 100:
            raise ValueError("zeta scheme needs decay_tau = p/q with q <= 100")
        return ReductionSchedule.floor_log(s, base, m, num=2 * q - p, den=q)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    w[0] = 0
    return ReductionSchedule(tuple(w))


def zeta_value(tau: float, *, terms: int = 1_000_000) -> float:
    """Riemann zeta at tau > 1 by partial sum plus a midpoint integral tail.

    The tail int_{M + 1/2}^inf x^-tau dx keeps the absolute error below
    1e-10 for tau >= 1.1 and the default number of terms.
    """
    if not tau > 1.0:
        raise ValueError("zeta_value needs tau > 1")
    js = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(js**-tau))
    tail = (terms + 0.5) ** (1.0 - tau) / (tau - 1.0)
    return partial + tail


def zeta_product_check(
    weights: WeightModel,
    sched: ReductionSchedule,
    base: int,
    s: int,
) -> tuple[float, float]:
    """Product prod_j (1 + gamma_j b^w_j) and its zeta-scheme bound exp(zeta(tau))."""
    if weights.decay_tau is None:
        raise ValueError("needs weights.decay_tau")
    if sched.s < s:
        raise ValueError("schedule shorter than s")
    g = weights.gammas(s)
    w = np.array(sched.w[:s], dtype=np.float64)
    product = float(np.prod(1.0 + g * np.power(float(base), w)))
    return product, math.exp(zeta_value(weights.decay_tau))
