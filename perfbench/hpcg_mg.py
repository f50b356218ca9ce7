"""Workload ``hpcg_mg``: HPCG-style PCG + multigrid, closed loop.

One caller solves seeded right-hand sides one after another with
``pcg`` preconditioned by a 3-level geometric multigrid V-cycle whose
smoother is the paper's vectorized-BMC + DBSR SYMGS (the ``"dbsr"``
HPCG variant), on the 27-point operator at nx=16 — the same pieces
``run_hpcg(nx=16, variant="dbsr", n_levels=3)`` composes. The smoother
runs the single-RHS ``kernels.symgs`` path, so the serve tier, the
kernel backends and the gateway are never called.
"""

from __future__ import annotations

import numpy as np

from perfbench.common import (TimedOperator, Tally, at_pace, clock,
                              closed_loop_metrics, pace_note, relres,
                              setup_layers)
from perfbench.pace import SHARE, Pace
from perfbench.spans import SpanRecorder, median, self_by_name, \
    unattributed_share

NX = 16
LEVELS = 3
BSIZE = 4
N_WORKERS = 4
TOL = 1e-8
MAXITER = 200
N_INPUTS = 16
SETUP_REPEATS = 9
#: Latency limit of one solve: about twice the median solve time on a
#: 2-core x86_64 VM loaded by other tenants, five times unloaded
#: (Python 3.11, numpy 2.4).
LIMIT_S = 6.0
#: Spans whose self times the per-layer metrics report (smoother,
#: residual and transfer by level, SpMV, the vector work left in
#: ``pcg``); the self time of every other span under ``bench.solve``
#: is unattributed.
LAYER_SPANS = frozenset(
    [f"multigrid.smoother.L{d}" for d in range(LEVELS)]
    + ["multigrid.residual", "multigrid.transfer", "solvers.spmv",
       "solvers.pcg"])


def make_inputs(seed: int) -> list:
    """Seeded right-hand sides ``b = A x`` with ``x`` uniform in [-1, 1]."""
    from repro.grids.problems import hpcg_problem

    A = hpcg_problem(NX).matrix
    rng = np.random.default_rng(seed)
    return [A.matvec(rng.uniform(-1.0, 1.0, A.shape[0]))
            for _ in range(N_INPUTS)]


def _factory(grid, stencil, matrix):
    from repro.hpcg import get_variant
    from repro.multigrid import make_smoother

    return make_smoother(get_variant("dbsr").smoother_kind, grid, stencil,
                         matrix, bsize=BSIZE, n_workers=N_WORKERS)


def set_up() -> tuple:
    from repro.grids.problems import hpcg_problem
    from repro.multigrid import MGPreconditioner, build_hierarchy

    problem = hpcg_problem(NX)
    top = build_hierarchy(problem.grid, problem.stencil, _factory,
                          n_levels=LEVELS, matrix=problem.matrix)
    return problem, top, MGPreconditioner(top)


def traced_vcycle(rec: SpanRecorder, level, b: np.ndarray,
                  depth: int = 0) -> np.ndarray:
    """``mg_vcycle`` composed from the same public calls, with spans."""
    from repro.multigrid import prolong_add, restrict_inject

    x = np.zeros_like(b)
    smooth = f"multigrid.smoother.L{depth}"
    if level.coarse is None:
        with rec.span(smooth):
            level.smoother(x, b)
        return x
    with rec.span(smooth):
        level.smoother(x, b)
    with rec.span("multigrid.residual"):
        r = b - level.matrix.matvec(x)
    with rec.span("multigrid.transfer"):
        rc = restrict_inject(r, level.f2c)
    xc = traced_vcycle(rec, level.coarse, rc, depth + 1)
    with rec.span("multigrid.transfer"):
        prolong_add(x, xc, level.f2c)
    with rec.span(smooth):
        level.smoother(x, b)
    return x


def traced_solve(rec: SpanRecorder, problem, top, b: np.ndarray):
    from repro.solvers import pcg

    def precond(r):
        with rec.span("solvers.precond"), rec.span("multigrid.vcycle"):
            return traced_vcycle(rec, top, r)

    A = TimedOperator(rec, problem.matrix, "solvers.spmv")
    with rec.span("bench.solve"), rec.span("solvers.pcg"):
        return pcg(A, b, precond, tol=TOL, maxiter=MAXITER)


def _check(tally: Tally, problem, x, hist, b, i: int,
           seen: dict) -> None:
    rr = relres(problem.matrix, x, b)
    if not (hist.converged and rr <= TOL):
        tally.wrong(f"solve {i}: relres {rr:.3e} > tol {TOL:g}")
    first = seen.setdefault(i % N_INPUTS, hist.iterations)
    tally.check(first == hist.iterations,
                f"input {i % N_INPUTS}: iterations {hist.iterations} "
                f"!= {first} on an earlier solve of the same input")


def run(seed: int, seconds: float, traced: bool) -> tuple:
    from repro.hpcg import hpcg_flops_per_iteration
    from repro.solvers import pcg

    inputs = make_inputs(seed)
    tally = Tally()
    pace = Pace()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        problem, top, M = set_up()
        setups.append((t0, clock()))
        pace.fill(SHARE * (setups[-1][1] - t0))
    flops_per_it = hpcg_flops_per_iteration(problem.n, problem.matrix.nnz,
                                            LEVELS)
    rec = SpanRecorder()
    spans, traced_spans, iters, flops = [], [], [], []
    seen: dict = {}
    t_start = clock()
    i = 0
    while i == 0 or clock() - t_start < seconds:
        b = inputs[i % N_INPUTS]
        tally.attempted += 1
        t0 = clock()
        x, hist = pcg(problem.matrix, b, M, tol=TOL, maxiter=MAXITER)
        spans.append((t0, clock()))
        pace.fill(SHARE * (spans[-1][1] - t0))
        iters.append(hist.iterations)
        flops.append(flops_per_it * hist.iterations)
        _check(tally, problem, x, hist, b, i, seen)
        if traced:
            t0 = clock()
            xt, ht = traced_solve(rec, problem, top, b)
            traced_spans.append((t0, clock()))
            pace.fill(SHARE * (traced_spans[-1][1] - t0))
            tally.check(np.array_equal(xt, x)
                        and ht.iterations == hist.iterations,
                        f"solve {i}: traced result differs from untraced")
        i += 1
    times = pace.scaled(spans)
    factor = pace.factor(t_start, clock())
    e2e, pct = closed_loop_metrics(pace.scaled(setups), times, iters, flops,
                                   LIMIT_S, tally)
    notes = [f"hpcg_mg: {len(times)} solves, {median(iters):g} iterations"
             f" median, tail percentile p{pct:g}",
             pace_note("hpcg_mg: solve", [t1 - t0 for t0, t1 in spans],
                       times, factor)]
    if not traced:
        return e2e, tally, notes

    n = len(traced_spans)
    own = self_by_name(rec.spans)
    layer = {
        f"multigrid.smoother_s.L{d}":
            own.get(f"multigrid.smoother.L{d}", 0.0) / n
        for d in range(LEVELS)}
    levels = []
    lvl = top
    while lvl is not None:
        sm = lvl.smoother
        levels.append((lvl.grid, problem.stencil, BSIZE,
                       _block_dims(lvl.grid), sm.dbsr.n_tiles))
        lvl = lvl.coarse
    setup, same = setup_layers(levels)
    tally.check(same, "isolated DBSR conversion disagrees with the "
                "smoothers' tile counts")
    layer.update(setup)
    layer.update({
        "multigrid.transfer_s": own.get("multigrid.transfer", 0.0) / n,
        "multigrid.residual_s": own.get("multigrid.residual", 0.0) / n,
        "multigrid.vcycle_s": median(
            [s.duration for s in rec.named("multigrid.vcycle")]),
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
            rec.spans, "bench.solve", LAYER_SPANS),
        "bench.tail_percentile": pct,
        "bench.samples": n,
    })
    return at_pace(layer, factor), tally, notes


def _block_dims(grid):
    from repro.ordering.blocks import auto_block_dims

    return auto_block_dims(grid, N_WORKERS, bsize=BSIZE)
