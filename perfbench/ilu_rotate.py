"""Workload ``ilu_rotate``: value-rotating ILU(0)-PCG, closed loop.

A time-stepping user's loop on one structure (27-point stencil,
nx=16). Set-up cold-compiles the ILU(0) plan through a ``PlanCache``;
each step then hands the cache a new seeded coefficient snapshot
(``get_or_compile_ilu(values=...)``, a structure hit that repacks the
values and replays the factorization schedule) and solves with
``ilu_pcg`` to 1e-8. It stresses the value-repack write path and the
``serve.batch`` ILU sweeps at k=1; multigrid and the gateway are never
called.
"""

from __future__ import annotations

import contextlib

import numpy as np

from perfbench.common import (TimedOperator, Tally, at_pace, batch_layer,
                              cache_stats_metrics, clock,
                              closed_loop_metrics, counted, pace_note,
                              relres, setup_layers)
from perfbench.pace import SHARE, Pace
from perfbench.spans import SpanRecorder, median, self_by_name, \
    unattributed_share

NX = 16
STENCIL = "box27_3d"
TOL = 1e-8
MAXITER = 1000
N_SNAPSHOTS = 16
SETUP_REPEATS = 7
#: Timed runs of scipy's CG and of ``ilu_pcg`` for the reference ratio.
REF_REPEATS = 3
#: Latency limit of one step (repack + solve): about twice the median
#: step on a 2-core x86_64 VM loaded by other tenants, five times
#: unloaded (Python 3.11, numpy 2.4).
LIMIT_S = 1.5
#: Diagonal-dominance margin of the snapshots: one value, so only the
#: seeded coefficient field varies and the iteration count stays level.
MARGIN = 0.01
#: Spans whose self times the per-layer metrics report: the cache
#: lookup that repacks (``serve.cache.repack_s``) and its schedule
#: replay, the ILU sweeps, SpMV and the vector work left in ``pcg``.
#: The self time of every other span under ``bench.step`` (the
#: permutation in and out of the plan's ordering, the preconditioner
#: wrapper) is unattributed.
LAYER_SPANS = frozenset(["serve.cache.lookup", "ilu.replay",
                         "serve.batch.ilu_apply.k1", "solvers.spmv",
                         "solvers.pcg"])


def structure():
    from repro.grids.grid import StructuredGrid
    from repro.grids.stencils import stencil_by_name
    from repro.serve import PlanConfig

    return (StructuredGrid((NX, NX, NX)), stencil_by_name(STENCIL),
            PlanConfig())


def snapshot(A, rng) -> np.ndarray:
    """Symmetric, strictly diagonally dominant coefficients of ``A``.

    Off-diagonal entry ``(i, j)`` is scaled by the mean of a seeded
    node field at ``i`` and ``j`` (so the matrix stays symmetric); each
    diagonal is its row's off-diagonal magnitude times ``1 + margin``.
    The result is SPD, so CG applies.
    """
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cols = A.indices
    field = rng.uniform(0.5, 1.5, n)
    off = rows != cols
    vals = A.data.astype(np.float64, copy=True)
    vals[off] = A.data[off] * 0.5 * (field[rows[off]] + field[cols[off]])
    rowsum = np.bincount(rows[off], weights=np.abs(vals[off]),
                         minlength=n)
    vals[~off] = rowsum[rows[~off]] * (1.0 + MARGIN)
    return vals


def make_inputs(seed: int) -> tuple:
    """``N_SNAPSHOTS`` snapshots, each with its operator and a RHS."""
    from repro.formats.csr import CSRMatrix
    from repro.grids.assembly import assemble_csr

    grid, stencil, _ = structure()
    A = assemble_csr(grid, stencil)
    rng = np.random.default_rng(seed)
    snaps, ops, rhs = [], [], []
    for _ in range(N_SNAPSHOTS):
        v = snapshot(A, rng)
        op = CSRMatrix(A.indptr, A.indices, v, A.shape)
        snaps.append(v)
        ops.append(op)
        rhs.append(op.matvec(rng.uniform(-1.0, 1.0, A.shape[0])))
    return snaps, ops, rhs


@contextlib.contextmanager
def replay_spans(rec: SpanRecorder):
    """Time the ILU schedule replay from outside for the traced steps.

    ``repack_ilu_plan`` reaches ``ilu0_refactorize_dbsr`` through the
    ``repro.serve.ilu_plan`` module namespace; the name is rebound to a
    span-recording wrapper and restored on exit.
    """
    import repro.serve.ilu_plan as ilu_plan

    inner = ilu_plan.ilu0_refactorize_dbsr

    def timed(*args, **kwargs):
        with rec.span("ilu.replay"):
            return inner(*args, **kwargs)

    ilu_plan.ilu0_refactorize_dbsr = timed
    try:
        yield
    finally:
        ilu_plan.ilu0_refactorize_dbsr = inner


def cold_cache():
    """A fresh ``PlanCache`` holding the cold-compiled plan."""
    from repro.serve import PlanCache

    grid, stencil, config = structure()
    cache = PlanCache()
    t0 = clock()
    plan, hit = cache.get_or_compile_ilu(grid, stencil, config)
    return cache, plan, hit, clock() - t0


def step(cache, v: np.ndarray):
    grid, stencil, config = structure()
    return cache.get_or_compile_ilu(grid, stencil, config, values=v)


def traced_step(rec: SpanRecorder, cache, v: np.ndarray, b: np.ndarray):
    """``step`` + ``ilu_pcg`` composed from the same public calls."""
    from repro.serve.batch import ilu_apply_dbsr_multi
    from repro.solvers import pcg

    with rec.span("bench.step"):
        with replay_spans(rec), rec.span("serve.cache.lookup"):
            plan, hit = step(cache, v)
        counts = counted(plan.op_counts("ilu_apply", 1))

        def precond(r):
            with rec.span("solvers.precond"), \
                    rec.span("serve.batch.ilu_apply.k1", **counts):
                return ilu_apply_dbsr_multi(plan.factors, r[:, None])[:, 0]

        with rec.span("serve.plan.extend"):
            bp = plan.extend(np.asarray(b, dtype=plan.config.np_dtype))
        A = TimedOperator(rec, plan.matrix, "solvers.spmv")
        with rec.span("solvers.pcg"):
            xp, hist = pcg(A, bp, precond, tol=TOL, maxiter=MAXITER)
        with rec.span("serve.plan.restrict"):
            x = plan.restrict(xp)
    return plan, hit, x, hist


def credited_flops(plan) -> int:
    """Flops of one ILU-PCG iteration: SpMV, one ILU(0) application,
    three dot products and three AXPYs (repack flops not credited)."""
    n = plan.n_padded
    return (2 * plan.matrix.nnz
            + plan.op_counts("ilu_apply", 1).flops() + 12 * n)


def scipy_reference(plan, b: np.ndarray) -> dict:
    """scipy CG with the plan's projected ILU factors, same operator."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator, cg, spsolve_triangular

    from repro.serve import ilu_pcg

    m = plan.matrix
    A = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    f = plan.factors.to_csr_factors()
    n = m.shape[0]
    L = sp.csr_matrix((f.lower.data, f.lower.indices, f.lower.indptr),
                      shape=f.lower.shape) + sp.identity(n, format="csr")
    U = sp.csr_matrix((f.upper.data, f.upper.indices, f.upper.indptr),
                      shape=f.upper.shape) + sp.diags(f.diag, format="csr")
    L, U = L.tocsr(), U.tocsr()

    def apply(r):
        y = spsolve_triangular(L, r, lower=True, unit_diagonal=True)
        return spsolve_triangular(U, y, lower=False)

    M = LinearOperator((n, n), matvec=apply, dtype=np.float64)
    bp = plan.extend(b)
    ref_t, ours_t = [], []
    for _ in range(REF_REPEATS):
        its = []
        t0 = clock()
        cg(A, bp, rtol=TOL, maxiter=MAXITER, M=M,
           callback=lambda xk: its.append(1))
        ref_t.append(clock() - t0)
        t0 = clock()
        _, hist = ilu_pcg(plan, b, tol=TOL, maxiter=MAXITER)
        ours_t.append(clock() - t0)
    return {
        "ref.scipy.cg_s": median(ref_t),
        "ref.cg_ratio": median(ours_t) / median(ref_t),
        "ref.scipy.cg_iterations": len(its),
    }, hist.iterations


def run(seed: int, seconds: float, traced: bool) -> tuple:
    from repro.serve import ilu_pcg, value_digest

    snaps, ops, rhs = make_inputs(seed)
    digests = [value_digest(v) for v in snaps]
    tally = Tally()
    pace = Pace()
    setups = []
    for _ in range(SETUP_REPEATS):
        cache, plan0, hit, secs = cold_cache()
        t1 = clock()
        setups.append((t1 - secs, t1))
        pace.fill(SHARE * secs)
        tally.check(not hit, "set-up compile was served from cache")
    if traced:
        traced_cache = cold_cache()[0]
    flops_per_it = credited_flops(plan0)
    rec = SpanRecorder()
    spans, traced_spans, iters, flops = [], [], [], []
    seen: dict = {}
    t_start = clock()
    i = 0
    while i == 0 or clock() - t_start < seconds:
        j = i % N_SNAPSHOTS
        v, b = snaps[j], rhs[j]
        tally.attempted += 1
        t0 = clock()
        plan, hit = step(cache, v)
        x, hist = ilu_pcg(plan, b, tol=TOL, maxiter=MAXITER)
        spans.append((t0, clock()))
        pace.fill(SHARE * (spans[-1][1] - t0))
        iters.append(hist.iterations)
        flops.append(flops_per_it * hist.iterations)
        rr = relres(ops[j], x, b)
        if not (hit and plan.value_digest == digests[j]
                and hist.converged and rr <= TOL):
            tally.wrong(f"step {i}: hit={hit} relres={rr:.3e}")
        first = seen.setdefault(j, hist.iterations)
        tally.check(first == hist.iterations,
                    f"snapshot {j}: iterations {hist.iterations} != "
                    f"{first} on an earlier step")
        if traced:
            t0 = clock()
            _, _, xt, ht = traced_step(rec, traced_cache, v, b)
            traced_spans.append((t0, clock()))
            pace.fill(SHARE * (traced_spans[-1][1] - t0))
            tally.check(np.array_equal(xt, x)
                        and ht.iterations == hist.iterations,
                        f"step {i}: traced result differs from untraced")
        i += 1
    times = pace.scaled(spans)
    factor = pace.factor(t_start, clock())
    e2e, pct = closed_loop_metrics(pace.scaled(setups), times, iters, flops,
                                   LIMIT_S, tally)
    notes = [f"ilu_rotate: {len(times)} steps, {median(iters):g} "
             f"iterations median, tail percentile p{pct:g}, bsize "
             f"{plan0.bsize}",
             pace_note("ilu_rotate: step", [t1 - t0 for t0, t1 in spans],
                       times, factor)]
    if not traced:
        return e2e, tally, notes

    n = len(traced_spans)
    own = self_by_name(rec.spans)
    # Measured, like the repack time it is the base of; both scale below.
    cold = median([t1 - t0 for t0, t1 in setups])
    layer = cache_stats_metrics([traced_cache.stats()])
    grid, stencil, _ = structure()
    setup, same = setup_layers([(grid, stencil, plan0.bsize,
                                 plan0.block_dims,
                                 plan0.factors.matrix.n_tiles)])
    tally.check(same, "isolated DBSR conversion disagrees with the "
                "plan's tile count")
    layer.update(setup)
    ref, ours_its = scipy_reference(plan, rhs[(i - 1) % N_SNAPSHOTS])
    tally.check(ref["ref.scipy.cg_iterations"] == ours_its,
                f"scipy CG took {ref['ref.scipy.cg_iterations']} "
                f"iterations, ilu_pcg {ours_its}")
    layer.update(ref)
    layer.update(batch_layer(rec))
    layer.update({
        "ilu.replay_s": median(
            [s.duration for s in rec.named("ilu.replay")]),
        "serve.cache.repack_over_cold":
            layer["serve.cache.repack_s"] / cold,
        "serve.cache.cold_compile_s": cold,
        "solvers.spmv_s": sum(
            s.duration for s in rec.named("solvers.spmv")) / n,
        "solvers.precond_s": sum(
            s.duration for s in rec.named("solvers.precond")) / n,
        "solvers.vector_s": own.get("solvers.pcg", 0.0) / n,
        "solvers.iterations": median(iters),
        "bench.trace_overhead": median(pace.scaled(traced_spans))
        / median(times[:n]) - 1.0,
        "bench.pace_factor": factor,
        "bench.unattributed_share": unattributed_share(
            rec.spans, "bench.step", LAYER_SPANS),
        "bench.tail_percentile": pct,
        "bench.samples": n,
    })
    notes.append(f"ilu_rotate: repack/cold base {cold:.4f} s; scipy CG "
                 f"base {ref['ref.scipy.cg_s']:.4f} s (measured)")
    return at_pace(layer, factor), tally, notes
