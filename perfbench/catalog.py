"""Names, units and directions of every metric the benchmark prints.

``END_TO_END`` are printed by untraced runs (``--trace 0``) and
``PER_LAYER`` by traced runs (``--trace 1``); every workload prints
every metric of its mode, and a layer a workload never calls reads 0.
``BENCHMARK.json`` at the repository root lists the same names (the
benchmark's tests keep the two in step).
"""

from __future__ import annotations

#: (name, unit, better, bound) — what a user of the solver sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("iterations", "count", "lower", 0.1),
    ("gflops", "GFLOP/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("slo_attainment", "share", "higher", 0.1),
    ("success_rate", "share", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

BATCH_OPS = ("lower", "upper", "spmv", "symgs", "ilu_apply")
BATCH_KS = (1, 8)


def _batch_metrics():
    for op in BATCH_OPS:
        for k in BATCH_KS:
            stem = f"serve.batch.{op}.k{k}"
            yield (f"{stem}.s_per_col", "s", "lower")
            yield (f"{stem}.gbps", "GB/s", "higher")
            yield (f"{stem}.gflops", "GFLOP/s", "higher")


#: (name, unit, better) — one layer each, from the traced run.
PER_LAYER = tuple(_batch_metrics()) + (
    ("multigrid.smoother_s.L0", "s", "lower"),
    ("multigrid.smoother_s.L1", "s", "lower"),
    ("multigrid.smoother_s.L2", "s", "lower"),
    ("multigrid.transfer_s", "s", "lower"),
    ("multigrid.residual_s", "s", "lower"),
    ("multigrid.vcycle_s", "s", "lower"),
    ("solvers.spmv_s", "s", "lower"),
    ("solvers.precond_s", "s", "lower"),
    ("solvers.vector_s", "s", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("serve.cache.repack_s", "s", "lower"),
    ("ilu.replay_s", "s", "lower"),
    ("serve.cache.repack_over_cold", "ratio", "lower"),
    ("serve.cache.cold_compile_s", "s", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.lookups", "count", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("serve.plan.compile_s", "s", "lower"),
    ("serve.plan.compiles", "count", "lower"),
    ("grids.assemble_s", "s", "lower"),
    ("ordering.vbmc_s", "s", "lower"),
    ("formats.dbsr_convert_s", "s", "lower"),
    ("formats.n_tiles", "count", "lower"),
    ("formats.pad_ratio", "ratio", "lower"),
    ("ordering.min_groups_per_color", "count", "higher"),
    ("gateway.admit_s", "s", "lower"),
    ("gateway.queue_wait_s", "s", "lower"),
    ("gateway.delivery_s", "s", "lower"),
    ("gateway.rejected", "count", "lower"),
    ("serve.service.batch_width", "count", "higher"),
    ("serve.service.overhead_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.generator_lag_ms", "ms", "lower"),
    ("bench.pace_factor", "ratio", "higher"),
    ("bench.tail_percentile", "pct", "higher"),
    ("bench.samples", "count", "higher"),
    ("error_rate", "share", "lower"),
    ("ref.scipy.lower_s", "s", "lower"),
    ("ref.lower_ratio", "ratio", "lower"),
    ("ref.scipy.spmv_s", "s", "lower"),
    ("ref.spmv_ratio", "ratio", "lower"),
    ("ref.scipy.cg_s", "s", "lower"),
    ("ref.cg_ratio", "ratio", "lower"),
    ("ref.scipy.cg_iterations", "count", "lower"),
)

#: Gate of ROADMAP item 1 on the traced run.
MAX_UNATTRIBUTED = 0.10

WORKLOADS = ("hpcg_mg", "ilu_rotate", "serve_open")
