"""Level-scheduled DBSR sweeps: differential suite and schedule invariants.

The ``numpy-counted`` twins (row-by-row Algorithm 2 through a
``VectorEngine``) are the oracle: every fast op must match them bit for
bit — including the sign of zero — on 7- and 27-point grids, every
bsize, f32/f64 and k in {1, 3, 8}, with ±0.0, inf and NaN inputs.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grids.grid import StructuredGrid
from repro.ilu.ilu0_dbsr import DBSRILUFactors
from repro.kernels.sptrsv_dbsr import sptrsv_dbsr_lower, sptrsv_dbsr_upper
from repro.kernels.sweep import build_sweep_schedule
from repro.kernels.symgs import gs_forward_dbsr, symgs_dbsr
from repro.serve.batch import (
    ilu_apply_dbsr_multi,
    ilu_apply_dbsr_multi_counted,
    spmv_dbsr_multi,
    spmv_dbsr_multi_counted,
    sptrsv_dbsr_lower_multi,
    sptrsv_dbsr_lower_multi_counted,
    sptrsv_dbsr_upper_multi,
    sptrsv_dbsr_upper_multi_counted,
    symgs_dbsr_multi,
    symgs_dbsr_multi_counted,
)
from repro.serve.plan import PlanConfig, compile_plan
from repro.simd.engine import VectorEngine

OPS = ("lower", "upper", "symgs", "spmv", "ilu_apply")
STENCILS = ("7pt", "27pt")
BSIZES = (1, 2, 4, 8)
DTYPES = ("f32", "f64")
#: Widths per grid size: every k in {1, 3, 8} runs, and the largest
#: grid (where the counted oracle is slowest) runs at k=1.
WIDTHS = {4: (1, 8), 6: (3,), 8: (1, 3), 12: (1,)}
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


@lru_cache(maxsize=None)
def _plan(stencil: str, nx: int, bsize: int, dtype: str):
    return compile_plan(StructuredGrid((nx,) * 3), stencil,
                        PlanConfig(bsize=bsize, dtype=dtype))


@lru_cache(maxsize=None)
def _factors(stencil: str, nx: int, bsize: int, dtype: str):
    """An ILU factor skeleton: the apply reads only the structure and
    the values, so the operator itself serves as the factored values."""
    m = _plan(stencil, nx, bsize, dtype).dbsr
    return DBSRILUFactors(matrix=m, dia_ptr=m.dia_ptr)


def _run(op: str, plan, factors, B: np.ndarray, X0: np.ndarray,
         counted: bool) -> np.ndarray:
    # inf/NaN inputs are deliberate; both sides must agree on them.
    with np.errstate(all="ignore"):
        return _run_op(op, plan, factors, B, X0, counted)


def _run_op(op, plan, factors, B, X0, counted) -> np.ndarray:
    engine = VectorEngine(plan.bsize)
    if op == "lower":
        return (sptrsv_dbsr_lower_multi_counted(plan.lower, B, engine,
                                                diag=plan.diag)
                if counted else
                sptrsv_dbsr_lower_multi(plan.lower, B, diag=plan.diag))
    if op == "upper":
        return (sptrsv_dbsr_upper_multi_counted(plan.upper, B, engine,
                                                diag=plan.diag)
                if counted else
                sptrsv_dbsr_upper_multi(plan.upper, B, diag=plan.diag))
    if op == "symgs":
        X = X0.copy()
        if counted:
            return symgs_dbsr_multi_counted(plan.dbsr, plan.diag, X, B,
                                            engine)
        return symgs_dbsr_multi(plan.dbsr, plan.diag, X, B)
    if op == "spmv":
        return (spmv_dbsr_multi_counted(plan.dbsr, B, engine) if counted
                else spmv_dbsr_multi(plan.dbsr, B))
    return (ilu_apply_dbsr_multi_counted(factors, B, engine) if counted
            else ilu_apply_dbsr_multi(factors, B))


def _assert_bitwise(got: np.ndarray, ref: np.ndarray) -> None:
    """Equal values, equal NaN positions and equal signs of zero."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    real = ~np.isnan(ref)
    assert np.array_equal(np.signbit(got[real]), np.signbit(ref[real]))


def _block(rng, n: int, k: int, dtype, specials: bool) -> np.ndarray:
    """Random ``(n, k)`` block sprinkled with ±0.0; with ``specials``,
    every column past the first also carries inf and NaN entries."""
    B = rng.standard_normal((n, k)).astype(dtype)
    B[rng.random((n, k)) < 0.1] = 0.0
    B[rng.random((n, k)) < 0.1] = -0.0
    if specials and k > 1:
        for j in range(1, k):
            hits = rng.choice(n, size=2, replace=False)
            B[hits, j] = rng.choice(SPECIALS[2:], size=2)
    return B


GRID = [(s, nx, b, d, k) for s in STENCILS for nx in WIDTHS
        for b in BSIZES for d in DTYPES for k in WIDTHS[nx]]


@pytest.mark.parametrize("stencil,nx,bsize,dtype,k", GRID)
def test_fast_ops_bitwise_equal_counted_twins(stencil, nx, bsize, dtype,
                                              k):
    plan = _plan(stencil, nx, bsize, dtype)
    factors = _factors(stencil, nx, bsize, dtype)
    rng = np.random.default_rng(nx * 1000 + bsize * 10 + k)
    np_dtype = plan.config.np_dtype
    B = _block(rng, plan.n_padded, k, np_dtype, specials=True)
    X0 = _block(rng, plan.n_padded, k, np_dtype, specials=False)
    for op in OPS:
        _assert_bitwise(_run(op, plan, factors, B, X0, counted=False),
                        _run(op, plan, factors, B, X0, counted=True))


@given(stencil=st.sampled_from(STENCILS), nx=st.sampled_from((4, 6)),
       bsize=st.sampled_from(BSIZES), dtype=st.sampled_from(DTYPES),
       k=st.sampled_from((1, 3, 8)), op=st.sampled_from(OPS),
       seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from(SPECIALS), count=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_fast_ops_bitwise_property(stencil, nx, bsize, dtype, k, op, seed,
                                   special, count):
    plan = _plan(stencil, nx, bsize, dtype)
    factors = _factors(stencil, nx, bsize, dtype)
    rng = np.random.default_rng(seed)
    np_dtype = plan.config.np_dtype
    B = _block(rng, plan.n_padded, k, np_dtype, specials=False)
    X0 = _block(rng, plan.n_padded, k, np_dtype, specials=False)
    hits = rng.integers(0, B.size, size=count)
    B.reshape(-1)[hits] = special
    X0.reshape(-1)[hits[::-1]] = special
    _assert_bitwise(_run(op, plan, factors, B, X0, counted=False),
                    _run(op, plan, factors, B, X0, counted=True))


@pytest.mark.parametrize("stencil", STENCILS)
def test_single_rhs_paths_are_the_k1_column(stencil):
    plan = _plan(stencil, 6, 4, "f64")
    rng = np.random.default_rng(3)
    b = _block(rng, plan.n_padded, 1, np.float64, specials=False)
    x0 = _block(rng, plan.n_padded, 1, np.float64, specials=False)
    _assert_bitwise(sptrsv_dbsr_lower(plan.lower, b[:, 0], plan.diag),
                    sptrsv_dbsr_lower_multi(plan.lower, b, plan.diag)[:, 0])
    _assert_bitwise(sptrsv_dbsr_upper(plan.upper, b[:, 0], plan.diag),
                    sptrsv_dbsr_upper_multi(plan.upper, b, plan.diag)[:, 0])
    x = x0[:, 0].copy()
    assert symgs_dbsr(plan.dbsr, plan.diag, x, b[:, 0]) is x
    _assert_bitwise(x, symgs_dbsr_multi(plan.dbsr, plan.diag, x0.copy(),
                                        b)[:, 0])


def test_gs_forward_dbsr_rejects_long_rhs():
    """A ``b`` longer than the matrix used to be silently truncated."""
    plan = _plan("27pt", 4, 4, "f64")
    n = plan.n_padded
    x = np.zeros(n)
    with pytest.raises(ValueError):
        gs_forward_dbsr(plan.dbsr, plan.diag, x, np.ones(n + 8))
    with pytest.raises(ValueError):
        symgs_dbsr(plan.dbsr, plan.diag, x, np.ones(n + 8))
    with pytest.raises(ValueError):
        sptrsv_dbsr_lower(plan.lower, np.ones(n + 8), plan.diag)


# Schedule invariants --------------------------------------------------------

def _window_rows(matrix, tiles: np.ndarray) -> set:
    """Block-rows the ``x`` windows of ``tiles`` overlap."""
    bs = matrix.bsize
    a = matrix.anchors[tiles]
    rows = np.concatenate((a // bs, (a + bs - 1) // bs))
    return set(rows[(rows >= 0) & (rows < matrix.brow)].tolist())


def _check_schedule(matrix, sched, tables) -> None:
    brow = matrix.brow
    assert sorted(sched.order.tolist()) == list(range(brow))
    assert sched.level_ptr[0] == 0 and sched.level_ptr[-1] == brow
    for lo, hi in sched.levels():
        level = set(sched.order[lo:hi].tolist())
        for i in level:
            own = np.arange(matrix.blk_ptr[i], matrix.blk_ptr[i + 1])
            assert not (_window_rows(matrix, own) - {i}) & level
    seen = np.concatenate([t.tiles.reshape(-1) for t in tables])
    real = np.sort(seen[seen < matrix.n_tiles])
    assert np.array_equal(real, np.unique(real))
    for t in tables:
        pads = t.lanes.reshape(-1, matrix.bsize)[t.gather == matrix.n_tiles]
        assert np.all(pads == matrix.n_rows)
        # Pads lead: once a row's real tiles start, none is a pad.
        pad = t.tiles == matrix.n_tiles
        assert np.all(pad[1:] <= pad[:-1])


@pytest.mark.parametrize("stencil", STENCILS)
@pytest.mark.parametrize("bsize", BSIZES)
def test_schedule_invariants(stencil, bsize):
    plan = _plan(stencil, 6, bsize, "f64")
    for m in (plan.dbsr, plan.lower, plan.upper):
        sched = m.sweep_schedule()
        _check_schedule(m, sched, [sched.full])
        assert sched.full.tiles[sched.full.tiles < m.n_tiles].size \
            == m.n_tiles
    m = plan.dbsr
    split = build_sweep_schedule(m, dia_ptr=m.dia_ptr)
    _check_schedule(m, split, [split.lower, split.upper])
    n_real = sum(int((t.tiles < m.n_tiles).sum())
                 for t in (split.lower, split.upper))
    assert n_real == m.n_tiles - m.brow   # every tile but the diagonals


def test_schedule_is_cached_and_built_at_set_up():
    plan = _plan("27pt", 6, 4, "f64")
    for m in (plan.dbsr, plan.lower, plan.upper):
        assert m._sweep is not None
        assert m.sweep_schedule() is m.sweep_schedule()


def test_repack_reuses_the_cold_plans_schedule():
    from repro.serve.ilu_plan import compile_ilu_plan, repack_ilu_plan

    grid = StructuredGrid((5, 5, 5))
    cold = compile_ilu_plan(grid, "27pt", PlanConfig(bsize=4))
    assert cold.factors.sweep is not None
    values = cold.values_src * 1.5
    fresh = repack_ilu_plan(cold, values)
    assert fresh.factors.sweep is cold.factors.sweep
    ref = compile_ilu_plan(grid, "27pt", PlanConfig(bsize=4),
                           values=values)
    B = np.random.default_rng(0).standard_normal((fresh.n, 3))
    _assert_bitwise(fresh.apply(B), ref.apply(B))
