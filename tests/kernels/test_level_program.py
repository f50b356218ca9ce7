"""Compiled level programs of the DBSR sweeps: layout invariants, live
values, concurrent calls on one plan, and typed ``diag`` errors."""

import sys
import threading
from functools import lru_cache

import numpy as np
import pytest

from repro.backends import resolve_backend
from repro.grids.grid import StructuredGrid
from repro.kernels.sptrsv_dbsr import (
    sptrsv_dbsr_lower,
    sptrsv_dbsr_lower_counted,
    sptrsv_dbsr_upper,
    sptrsv_dbsr_upper_counted,
)
from repro.kernels.symgs import symgs_dbsr
from repro.kernels.symgs_counted import symgs_dbsr_counted
from repro.serve.batch import (
    sptrsv_dbsr_lower_multi,
    sptrsv_dbsr_lower_multi_counted,
    sptrsv_dbsr_upper_multi,
    sptrsv_dbsr_upper_multi_counted,
    symgs_dbsr_multi,
    symgs_dbsr_multi_counted,
)
from repro.serve.ilu_plan import compile_ilu_plan
from repro.serve.plan import PLAN_OPS, PlanConfig, compile_plan
from repro.simd.engine import VectorEngine

BSIZES = (1, 2, 4, 8)


@lru_cache(maxsize=None)
def _plan(stencil: str, nx: int, bsize: int):
    return compile_plan(StructuredGrid((nx,) * 3), stencil,
                        PlanConfig(bsize=bsize))


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values, NaN positions and signs of zero (a NaN's sign bit
    is not part of the contract)."""
    real = ~np.isnan(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[real]), np.signbit(b[real])))


# Program invariants ---------------------------------------------------------

def _check_program(matrix, sched, table, first, last) -> None:
    """Every lane of every slot reads the ``x`` entry its tile names."""
    n, bs, T = matrix.n_rows, matrix.bsize, table.width
    assert table.gather.dtype == table.lanes.dtype == np.int32
    assert table.lanes.shape == (T * n,)
    assert np.all((table.lanes >= 0) & (table.lanes <= n))
    row_of = np.repeat(sched.order * bs, bs) + np.tile(np.arange(bs),
                                                       matrix.brow)
    anchors = matrix.anchors
    for xlo, xhi, a, b, lanes in table.steps:
        assert lanes.base is table.lanes or lanes.base is table.lanes.base
        w = xhi - xlo
        tiles = table.gather[a // bs:b // bs].reshape(T, w // bs)
        lanes = lanes.reshape(T, w // bs, bs)
        for t in range(T):
            for r in range(w // bs):
                tile = int(tiles[t, r])
                if tile == matrix.n_tiles:    # a pad hits the zero slot
                    assert np.all(lanes[t, r] == n)
                    continue
                brow = int(sched.order[xlo // bs + r])
                assert first[brow] <= tile < last[brow]
                cols = anchors[tile] + np.arange(bs)
                inside = (cols >= 0) & (cols < n)
                got = lanes[t, r]
                assert np.all(got[~inside] == n)
                assert np.array_equal(row_of[got[inside]], cols[inside])
    # The steps tile the buffer and the program without gaps, in order.
    assert [s[0] for s in table.steps][1:] == [s[1] for s in table.steps][:-1]
    assert table.steps[-1][1] == n and table.steps[-1][3] == T * n


@pytest.mark.parametrize("stencil", ("7pt", "27pt"))
@pytest.mark.parametrize("bsize", BSIZES)
def test_program_lanes_land_in_the_buffer(stencil, bsize):
    plan = _plan(stencil, 5, bsize)
    for m in (plan.dbsr, plan.lower, plan.upper):
        sched = m.sweep_schedule()
        _check_program(m, sched, sched.full, m.blk_ptr[:-1],
                       m.blk_ptr[1:])
    m = plan.dbsr
    factors = compile_ilu_plan(StructuredGrid((5,) * 3), stencil,
                               PlanConfig(bsize=bsize)).factors
    sched = factors.sweep_schedule()
    fm = factors.matrix
    _check_program(fm, sched, sched.lower, fm.blk_ptr[:-1], factors.dia_ptr)
    _check_program(fm, sched, sched.upper, factors.dia_ptr + 1,
                   fm.blk_ptr[1:])
    assert m.sweep_schedule().full.tiles.shape[1] == m.brow


# Values and diag are read live ----------------------------------------------

@pytest.mark.parametrize("op", PLAN_OPS)
def test_fast_execute_sees_values_and_diag_written_after_compile(op):
    """Corruption after compile changes the next fast execute exactly
    as it changes the counted twin's: nothing caches values."""
    plan = compile_plan(StructuredGrid((6,) * 3), "27pt",
                        PlanConfig(bsize=4))
    fast = resolve_backend("numpy-fast")
    counted = resolve_backend("numpy-counted")
    Bp = plan.extend(np.random.default_rng(7).standard_normal((plan.n, 2)))
    before = fast.run(plan, op, Bp)
    assert _bitwise(before, counted.run(plan, op, Bp))
    m = plan.dbsr
    mid = m.brow // 2
    m.values[m.dia_ptr[mid], 1] = np.nan           # the stored operator
    plan.diag[mid * m.bsize + 2] = np.nan         # and its diagonal
    after = fast.run(plan, op, Bp)
    assert _bitwise(after, counted.run(plan, op, Bp))
    assert not _bitwise(after, before)


def test_ilu_apply_sees_factor_values_written_after_compile():
    plan = compile_ilu_plan(StructuredGrid((6,) * 3), "27pt",
                            PlanConfig(bsize=4))
    B = np.random.default_rng(8).standard_normal((plan.n, 2))
    before = plan.apply(B)
    m = plan.factors.matrix
    m.values[plan.factors.dia_ptr[m.brow // 2], 0] = np.nan
    after = plan.apply(B)
    assert not _bitwise(after, before)
    assert np.isnan(after).any()


# Concurrent calls share only the read-only program --------------------------

def test_threaded_calls_on_one_plan_match_sequential():
    plan = compile_plan(StructuredGrid((8,) * 3), "27pt",
                        PlanConfig(bsize=4))
    ilu = compile_ilu_plan(StructuredGrid((8,) * 3), "27pt",
                           PlanConfig(bsize=4))
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal((plan.n, k)) for k in (1, 3, 8, 2)]

    def run(B):
        return (plan.execute("symgs", B), plan.execute("lower", B),
                ilu.apply(B))

    expected = [run(B) for B in inputs]
    n_threads, rounds = 4, 5
    results = [[None] * rounds for _ in range(n_threads)]
    errors = []
    barrier = threading.Barrier(n_threads)

    def worker(i):
        try:
            for r in range(rounds):
                barrier.wait()
                results[i][r] = run(inputs[i])
        except Exception as exc:  # surfaced below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-level, often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for i in range(n_threads):
        for got in results[i]:
            for g, e in zip(got, expected[i]):
                assert _bitwise(g, e)


# Typed diag errors ----------------------------------------------------------

def _diag_calls(plan, diag):
    """Every fast and counted DBSR kernel that takes a ``diag``."""
    n, bs = plan.n_padded, plan.bsize
    x, b = np.zeros(n), np.ones(n)
    X, B = np.zeros((n, 2)), np.ones((n, 2))
    engine = VectorEngine(bs)
    return [
        lambda: symgs_dbsr(plan.dbsr, diag, x.copy(), b),
        lambda: symgs_dbsr_multi(plan.dbsr, diag, X.copy(), B),
        lambda: symgs_dbsr_counted(plan.dbsr, diag, x.copy(), b, engine),
        lambda: symgs_dbsr_multi_counted(plan.dbsr, diag, X.copy(), B,
                                         engine),
        lambda: sptrsv_dbsr_lower(plan.lower, b, diag),
        lambda: sptrsv_dbsr_upper(plan.upper, b, diag),
        lambda: sptrsv_dbsr_lower_multi(plan.lower, B, diag),
        lambda: sptrsv_dbsr_upper_multi(plan.upper, B, diag),
        lambda: sptrsv_dbsr_lower_counted(plan.lower, b, engine, diag),
        lambda: sptrsv_dbsr_upper_counted(plan.upper, b, engine, diag),
        lambda: sptrsv_dbsr_lower_multi_counted(plan.lower, B, engine,
                                                diag),
        lambda: sptrsv_dbsr_upper_multi_counted(plan.upper, B, engine,
                                                diag),
    ]


@pytest.mark.parametrize("delta", (4, -4))
def test_wrong_length_diag_raises_value_error(delta):
    """A diag of length n + bsize used to be accepted silently, and one
    of length n - bsize raised a bare numpy IndexError."""
    plan = _plan("27pt", 4, 4)
    diag = np.ones(plan.n_padded + delta)
    for call in _diag_calls(plan, diag):
        with pytest.raises(ValueError, match="diag"):
            call()


def test_right_length_diag_still_accepted():
    plan = _plan("27pt", 4, 4)
    for call in _diag_calls(plan, plan.diag):
        call()
