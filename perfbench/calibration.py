"""Machine-speed calibration for a shared host whose speed drifts.

A fixed kernel is timed between operations throughout a run: small
Cholesky solves plus a short interpreter loop, the same mix of LAPACK
calls and Python work as the solver.  Each operation's wall time is
rescaled by ``NOMINAL_S`` over the median of the kernel times taken just
before and just after it, so an operation timed while the host is slow
and one timed while it is idle report alike.
Reported times are therefore seconds at the speed where the kernel takes
``NOMINAL_S`` (about an idle core of a 2-core x86 sandbox); the raw wall
times are printed next to them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

NOMINAL_S = 0.010
#: kernel time spent after an operation, as a share of the operation's time
SHARE = 0.04
_ROUNDS = 400


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(36, 12))
        self._gram = a.T @ a
        self._rhs = a.T @ rng.normal(size=36)
        self.groups: list[list[float]] = []
        self._kernel()  # warm-up, not recorded

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(_ROUNDS):
            cho = scipy.linalg.cho_factor(self._gram, check_finite=False)
            sol = scipy.linalg.cho_solve(cho, self._rhs, check_finite=False)
            acc += float(np.max(np.abs(self._gram @ sol - self._rhs)))
            acc += sum(j * 0.5 for j in range(50))
        return acc

    def tick(self, after: float = 0.0) -> None:
        """Time the kernel once, or more often after a long operation, so
        every stretch of the run is sampled about equally."""
        group = []
        for _ in range(max(1, int(SHARE * after / NOMINAL_S))):
            start = time.perf_counter()
            self._kernel()
            group.append(time.perf_counter() - start)
        self.groups.append(group)

    def rescale(self, seconds: float) -> float:
        """Wall time of the operation between the last two ticks, at
        nominal speed."""
        return seconds * NOMINAL_S / statistics.median(self.groups[-2] + self.groups[-1])

    @property
    def ticks(self) -> list[float]:
        return [t for group in self.groups for t in group]
