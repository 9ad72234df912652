"""Span tracing from outside the library.

The tracer replaces every public function of the rednets modules (the names
in each module's ``__all__``, plus ``cli.main``) with a wrapper that records
a span.  A function is replaced at every module attribute of the package
that holds it, because modules call each other through the names they
imported (``cli.read_net``, ``product.coordinate_numerators``,
``quality.rank``, ...).  ``restore`` puts every original object back.

Spans are kept in memory as plain records and written out as JSON lines
when the run ends.  The load is one thread, so a span's parent is the span
open on the stack when it starts, and nothing ever waits in a queue.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

LAYERS = ("cli", "nets", "product", "quality", "gfmat", "discrepancy")


def _corners(args, kwargs, out):
    """Grid corners scanned by exact_star_discrepancy, counted exactly."""
    import numpy as np

    points = args[0]
    u = kwargs.get("u", args[1] if len(args) > 1 else None)
    if u is None:
        u = range(1, points.s + 1)
    full = points.base**points.m
    total = 1
    for j in sorted(set(u)):
        vals = np.unique(points.numerators[:, j - 1])
        total *= vals.size + (1 if vals.size == 0 or vals[-1] != full else 0)
    return total


# Work counted at the same boundary as the span: name -> (counter, f(args, kwargs, result)).
COUNTERS = {
    "nets.coordinate_numerators": ("rows", lambda a, k, out: len(out)),
    "nets.generate_points": ("entries", lambda a, k, out: out.numerators.size),
    "product.write_product_csv": ("bytes", lambda a, k, out: a[1].tell()),
    "discrepancy.exact_star_discrepancy": ("corners", _corners),
}


class Tracer:
    """Records spans ``[id, name, job, parent, start, end, failed, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, name, self.job, stack[-1] if stack else None, 0.0, 0.0, False, None]
            spans.append(rec)
            stack.append(sid)
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[7] = {counter[0]: counter[1](args, kwargs, out)}
            return out

        return traced

    def install(self, package: types.ModuleType) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [getattr(package, layer) for layer in LAYERS]
        holders = modules + [package]
        targets = [("cli", "main", package.cli.main)]
        for layer, mod in zip(LAYERS, modules):
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType):
                    targets.append((layer, attr, obj))
        for layer, attr, fn in targets:
            wrapped = self._wrap(f"{layer}.{attr}", fn)
            for holder in holders:
                if holder.__dict__.get(attr) is fn:
                    self._saved.append((holder, attr, fn))
                    setattr(holder, attr, wrapped)

    def restore(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        keys = ("id", "name", "job", "parent", "start", "end", "failed", "counts")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def summarize(spans: list[list], jobs: dict) -> dict[str, dict[str, float]]:
    """Totals per span name over the job ids that key ``jobs``.

    For each name: ``s`` (total duration), ``self_s`` (duration minus the
    time covered by direct child spans), ``calls``, ``errors`` and any
    counters recorded at the span.  Durations are divided by ``jobs[id]``,
    the host slowdown of that job (see hostspeed.py).
    """
    child_time: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[5] - rec[4]
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for rec in spans:
        if rec[2] not in jobs:
            continue
        scale = jobs[rec[2]]
        dur = rec[5] - rec[4]
        agg = out[rec[1]]
        agg["s"] += dur / scale
        agg["self_s"] += (dur - child_time[rec[0]]) / scale
        agg["calls"] += 1
        agg["errors"] += rec[6]
        for key, val in (rec[7] or {}).items():
            agg[key] += val
    return out
