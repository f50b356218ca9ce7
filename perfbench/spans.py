"""In-memory spans, self-time arithmetic and the summary statistics.

The benchmark records its own spans around every call it makes into a
layer of ``repro``; nothing inside the library is instrumented. A span
is a named interval with an optional parent. A span's *self time* is
its duration minus the part of its interval that its children cover
(overlapping children are counted once), so where siblings do not
overlap the self times of a tree sum to the root's duration.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
from contextlib import contextmanager

#: Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_MIN_BEYOND = 10


class Span:
    """One recorded interval (``perf_counter`` seconds)."""

    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id_: int, name: str, start: float, end: float,
                 parent: int | None, attrs: dict):
        self.id = id_
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; safe to use from several threads.

    Nesting is tracked per thread, so a span opened inside another on
    the same thread becomes its child. Spans measured elsewhere (for
    example an interval between two timestamps taken on different
    threads) enter through :meth:`record`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sp = Span(next(self._ids), name, self.clock(), math.nan,
                  stack[-1].id if stack else None, attrs)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, **attrs) -> Span:
        sp = Span(next(self._ids), name, start, end, parent, attrs)
        with self._lock:
            self.spans.append(sp)
        return sp

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Map span id -> duration minus the union of its children."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()),
                                       s.start, s.end)
            for s in spans}


def self_by_name(spans) -> dict:
    """Total self seconds per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


def unattributed_share(spans, root: str, layers) -> float:
    """Share of the ``root`` spans' time that no layer metric reports.

    ``layers`` names the spans whose self time the per-layer metrics
    report, between them splitting a root's time. Every other span
    under a root (the root itself, a wrapper, a call no metric covers)
    contributes its self time to the unattributed share.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    under: dict[int, bool] = {}

    def in_root(s) -> bool:
        if s.id not in under:
            parent = by_id.get(s.parent)
            under[s.id] = s.name == root or (
                parent is not None and in_root(parent))
        return under[s.id]

    total = sum(s.duration for s in spans if s.name == root)
    lost = sum(own[s.id] for s in spans
               if s.name not in layers and in_root(s))
    return lost / total if total > 0 else 0.0


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond.

    A run too short for any of them reports the median (50).
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        # Compared in hundredths so that 100 samples do reach p90.
        if n * (100.0 - p) >= 100.0 * TAIL_MIN_BEYOND - 1e-6:
            best = p
    return best


def nearest_rank(values, p: float) -> float:
    """The ``p``-th percentile by nearest rank (an observed value)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(xs) / 100.0 - 1e-9))
    return xs[rank - 1]


def tail(values) -> tuple:
    """``(percentile, value)`` of the tail metric for ``values``."""
    p = tail_percentile(len(values))
    if p == 50.0:
        return p, statistics.median(values)
    return p, nearest_rank(values, p)


def median(values) -> float:
    """The median, or 0 for no samples (a layer the workload never calls)."""
    return statistics.median(values) if values else 0.0
