"""How fast the host runs right now, relative to a fixed reference.

The benchmark was built on a shared 2-core virtual machine whose speed, for
every process on it at once, drops by up to about 1.7x in spells that last
from seconds to several minutes.  Such a spell moved the median job time of
whole 22-second runs by 0.4 of itself, so no statistic of raw job times is
steady there.  A fixed kernel timed right before each job measures the
spell: its time over REFERENCE_S is the host's slowdown ``f``, and a bounded
time is the wall time divided by ``f``.  The kernel mixes
pure-Python integer arithmetic with small numpy operations, as the jobs do.
It is benchmark code, so a change to rednets cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Best-of-three time of the kernel on that machine outside a slow spell.
REFERENCE_S = 2.6e-3


class HostSpeed:
    def __init__(self) -> None:
        self._x = np.random.default_rng(0).standard_normal((200, 200))

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        np.sort(self._x, axis=1)
        self._x.T @ self._x
        return time.perf_counter() - t0

    def slowdown(self) -> float:
        """Best of three kernel times over REFERENCE_S; about 1 on a quiet host."""
        return min(self._kernel() for _ in range(3)) / REFERENCE_S
