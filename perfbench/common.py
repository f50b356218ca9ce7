"""Helpers the three workloads share: tallies, layer readings, wrappers."""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from perfbench.spans import SpanRecorder, median, tail

clock = time.perf_counter


class Tally:
    """Units of work attempted, the ones that failed, and why.

    A unit that failed without an answer (an error, an expired
    deadline) counts in ``failed``; a wrong answer or a failed check
    also makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.problems: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(why)

    def wrong(self, why: str) -> None:
        self.failed += 1
        self.check(False, why)

    def check(self, ok: bool, why: str) -> None:
        """Record a failed correctness check that costs no unit."""
        if not ok and len(self.problems) < 20:
            self.problems.append(why)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / max(1, self.attempted)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relres(A, x: np.ndarray, b: np.ndarray) -> float:
    """True relative residual ``||b - A x|| / ||b||``."""
    return float(np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b))


class TimedOperator:
    """An operator whose ``matvec`` runs inside a span."""

    def __init__(self, rec: SpanRecorder, A, name: str):
        self.rec, self.A, self.name = rec, A, name

    def matvec(self, x: np.ndarray) -> np.ndarray:
        with self.rec.span(self.name):
            return self.A.matvec(x)


def closed_loop_metrics(setups, times, iterations, flops, limit_s: float,
                        tally: Tally) -> dict:
    """End-to-end metrics of a closed loop: one unit = one solve.

    ``setups`` and ``times`` are at the reference pace.

    A caller waits for each solve, so latency is the solve time and the
    throughput is solves per second of solving (the window's whole
    solves, without the part of a solve cut off at its end).
    """
    p, tail_s = tail(times)
    return {
        "setup_s": median(setups),
        "solve_s": median(times),
        # A mean: the counts are small integers, and a median would
        # jump by a whole iteration between seeds.
        "iterations": statistics.fmean(iterations),
        # As HPCG rates a run: all credited flops over all solve seconds.
        # A rate of sums follows the host's speed linearly, where a
        # median of per-solve rates jumps between its fast and slow
        # spells.
        "gflops": sum(flops) / sum(times) / 1e9,
        "latency_p50_ms": 1e3 * median(times),
        "latency_tail_ms": 1e3 * tail_s,
        "throughput_rps": len(times) / sum(times),
        "slo_attainment": sum(t <= limit_s for t in times)
        / max(1, tally.attempted),
        "success_rate": tally.success_rate,
        "peak_rss_mb": peak_rss_mb(),
    }, p


#: How a metric's unit scales with the host's pace: times by the pace
#: factor, rates by its inverse; other units do not scale.
PACE_POWER = {"s": 1, "ms": 1, "GFLOP/s": -1, "GB/s": -1, "1/s": -1}


def at_pace(values: dict, factor: float) -> dict:
    """Per-layer readings at the reference pace (``perfbench/pace.py``).

    Spans are not scaled one by one: every time and rate of a traced
    run scales by one factor, the pace over its whole loop.
    """
    from perfbench.catalog import PER_LAYER

    power = {name: PACE_POWER.get(unit, 0) for name, unit, _ in PER_LAYER}
    return {name: v * factor ** power.get(name, 0)
            for name, v in values.items()}


def pace_note(label: str, raw: list, scaled: list, factor: float) -> str:
    """The measured median behind a paced one, for the log."""
    return (f"{label}: measured median {median(raw):.6g} s, at reference "
            f"pace {median(scaled):.6g} s; pace factor over the run "
            f"{factor:.4f}")


def batch_layer(rec: SpanRecorder) -> dict:
    """``serve.batch.<op>.k<k>`` readings from kernel spans.

    Every kernel span carries its column count ``k`` and the plan's
    closed-form op counts for that call, so bytes and flops over the
    measured seconds give the computed GB/s and GFLOP/s.
    """
    from perfbench.catalog import BATCH_KS, BATCH_OPS

    out = {}
    for op in BATCH_OPS:
        for k in BATCH_KS:
            stem = f"serve.batch.{op}.k{k}"
            spans = rec.named(stem)
            secs = sum(s.duration for s in spans)
            out[f"{stem}.s_per_col"] = median(
                [s.duration / k for s in spans])
            out[f"{stem}.gbps"] = (sum(s.attrs["bytes"] for s in spans)
                                   / secs / 1e9) if secs else 0.0
            out[f"{stem}.gflops"] = (sum(s.attrs["flops"] for s in spans)
                                     / secs / 1e9) if secs else 0.0
    return out


def counted(counter) -> dict:
    """Span attributes for a kernel call's closed-form op counts."""
    return {"bytes": counter.total_bytes, "flops": counter.flops()}


#: Times each set-up layer is repeated in isolation; the median is kept.
LAYER_REPEATS = 3


def setup_layers(items) -> tuple:
    """Set-up layers timed in isolation on the workload's structures.

    ``items`` are ``(grid, stencil, bsize, block_dims, n_tiles)``: the
    structure, the block geometry its set-up resolved, and the tile
    count that set-up produced. The same public calls the set-up makes
    (assembly, vectorized BMC reorder, DBSR conversion) are repeated
    here one at a time; the median of ``LAYER_REPEATS`` is kept. Returns
    the metrics and whether every tile count matched the set-up's.
    """
    from repro.formats.dbsr import DBSRMatrix
    from repro.grids.assembly import assemble_csr
    from repro.ordering.vbmc import build_vbmc

    t_asm = t_vbmc = t_conv = 0.0
    tiles = lanes = nnz = 0
    min_groups = None
    same = True
    for grid, stencil, bsize, block_dims, n_tiles in items:
        asm, vb, conv = [], [], []
        for _ in range(LAYER_REPEATS):
            t0 = clock()
            A = assemble_csr(grid, stencil)
            t1 = clock()
            ordering = build_vbmc(grid, stencil, block_dims, bsize)
            Ap = ordering.apply_matrix(A)
            t2 = clock()
            D = DBSRMatrix.from_csr(Ap, bsize)
            t3 = clock()
            asm.append(t1 - t0)
            vb.append(t2 - t1)
            conv.append(t3 - t2)
        t_asm += statistics.median(asm)
        t_vbmc += statistics.median(vb)
        t_conv += statistics.median(conv)
        same = same and D.n_tiles == n_tiles
        tiles += D.n_tiles
        lanes += D.n_tiles * bsize
        nnz += A.nnz
        groups = int(np.diff(ordering.schedule.color_group_ptr).min())
        min_groups = groups if min_groups is None \
            else min(min_groups, groups)
    return {
        "grids.assemble_s": t_asm,
        "ordering.vbmc_s": t_vbmc,
        "formats.dbsr_convert_s": t_conv,
        "formats.n_tiles": tiles,
        "formats.pad_ratio": lanes / nnz,
        "ordering.min_groups_per_color": min_groups,
    }, same


def cache_stats_metrics(stats: list) -> dict:
    """Summed ``PlanCache.stats()`` of one or more caches."""
    hits = sum(s["hits"] for s in stats)
    misses = sum(s["misses"] for s in stats)
    compiles = sum(s["compiles"] for s in stats)
    refreshes = sum(s["refreshes"] for s in stats)
    return {
        "serve.cache.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "serve.cache.lookups": hits + misses,
        "serve.cache.evictions": sum(s["evictions"] for s in stats),
        "serve.plan.compile_s": sum(s["compile_seconds"] for s in stats)
        / compiles if compiles else 0.0,
        "serve.plan.compiles": compiles,
        "serve.cache.repack_s": sum(s["refresh_seconds"] for s in stats)
        / refreshes if refreshes else 0.0,
    }

