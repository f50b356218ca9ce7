"""Host pace: a fixed unit of work timed beside every workload.

The benchmark runs on a VM that shares its cores with other tenants.
Their load changes how fast the same code runs, by up to 2.5x and from
one second to the next, with no CPU steal to show for it (the VM's
CPU time follows its wall time); over ten runs the same workload's
wall-clock medians spread 30-45%. The slowdown hits all code on the
core at once, so the benchmark times a fixed pace unit right beside
each timed interval and reports the interval at a fixed reference pace.

The pace unit is a 27-point sparse gather-reduce on a 16^3 grid, a few
strided updates and a short interpreter loop: the mix of numpy calls
and Python the workloads are made of. It is built from constants and
calls nothing under ``src/``, so a change to the program moves the
workload's times and never the pace. The closed loops run pace units
for ``SHARE`` of each timed interval's length right after it; the open
loop runs them in the generator's idle gaps. An interval ``[t0, t1]``
is reported as ``(t1 - t0) * factor(t0, t1)``, where the factor is
``REFERENCE_S`` over the mean time of the pace units that started
within ``MARGIN_S`` of the interval; the open loop's requests all
take the factor of their whole pass (``serve_open.pass_factor``). In a
four-minute trace of ``hpcg_mg`` solves on a loaded host, each solve's
time and that local pace correlated at 0.8, and the spread of 30-second
medians fell from 0.29 measured to 0.11 at the reference pace.
"""

from __future__ import annotations

import itertools

import numpy as np

from perfbench.common import clock

#: Mean time of one pace unit at the reference pace: times are reported
#: as if the host ran the pace unit in exactly this long. A round value
#: near its mean on the loaded 2-vCPU Xeon VM of ``RESULTS.md``; the
#: choice only scales every reported time by one constant.
REFERENCE_S = 1.0e-3
#: Pace time after each closed-loop interval, as a share of its length.
SHARE = 0.5
#: Pace units this close to an interval count towards its factor.
MARGIN_S = 1.0
NX = 16


class Pace:
    """Pace units with their start times; ``factor`` reads them."""

    def __init__(self):
        n = NX ** 3
        grid = np.arange(n).reshape(NX, NX, NX)
        self.cols = np.stack(
            [np.roll(grid, off, axis=(0, 1, 2)).ravel()
             for off in itertools.product((-1, 0, 1), repeat=3)],
            axis=1).ravel()
        self.ptr = np.arange(0, self.cols.size, 27)
        self.vals = np.where(np.arange(self.cols.size) % 27 == 13,
                             26.0, -1.0)
        self.x = np.linspace(-1.0, 1.0, n)
        self.strides = [slice(c, n, 8) for c in range(8)]
        self.starts: list[float] = []
        self.times: list[float] = []
        self._last = REFERENCE_S

    def unit(self) -> float:
        """One unit of work; returns its result so nothing is skipped."""
        y = self.x
        for _ in range(2):
            y = np.add.reduceat(self.vals * y[self.cols], self.ptr)
            for rows in self.strides:
                y[rows] += 0.5 * self.x[rows]
        s = 0
        for i in range(3000):
            s += i & 7
        return float(y[1]) + s

    def _timed_unit(self) -> None:
        t0 = clock()
        self.unit()
        self._last = clock() - t0
        self.starts.append(t0)
        self.times.append(self._last)

    def fill(self, seconds: float) -> None:
        """Run pace units for about ``seconds`` (at least one)."""
        end = clock() + seconds
        self._timed_unit()
        while clock() < end:
            self._timed_unit()

    def fill_until(self, deadline: float) -> None:
        """Run whole pace units that end before ``deadline``.

        A unit starts only if one more, at twice the last unit's time,
        would end in time, so an open loop's next request is not held
        up.
        """
        while clock() + 2.0 * self._last < deadline:
            self._timed_unit()

    def factor(self, t0: float, t1: float) -> float:
        """Reference pace over the pace measured around ``[t0, t1]``.

        Uses the units that started within ``MARGIN_S`` of the
        interval, or all units if none did; 1.0 if none ran.
        """
        if not self.times:
            return 1.0
        starts = np.asarray(self.starts)
        lo = np.searchsorted(starts, t0 - MARGIN_S, side="left")
        hi = np.searchsorted(starts, t1 + MARGIN_S, side="right")
        times = self.times[lo:hi] or self.times
        return REFERENCE_S * len(times) / sum(times)

    def scaled(self, intervals) -> list:
        """Lengths of ``(t0, t1)`` intervals at the reference pace."""
        return [(t1 - t0) * self.factor(t0, t1) for t0, t1 in intervals]
