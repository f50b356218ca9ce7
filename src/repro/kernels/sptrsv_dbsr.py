"""Vectorized DBSR sparse triangular solves — the paper's Algorithm 2.

Block-rows are processed in order (forward for lower, backward for
upper); each block-row update is a short sequence of *contiguous*
width-``bsize`` vector operations:

    vec_temp  = load(b + i*bsize)                  # line 5
    for each tile t of block-row i:
        vec_vals = load(values + t*bsize)          # line 9
        vec_x    = load(x + anchor[t])             # line 10  (no gather!)
        vec_temp -= vec_vals * vec_x               # line 11
    store(x + i*bsize, vec_temp)                   # line 13

The fast kernels run this sweep one dependency level at a time — every
block-row of a level at once (:mod:`repro.kernels.sweep`); the
instrumented ``*_counted`` twins below keep the row-by-row loop.

Correctness requires the vectorized-BMC property that no tile couples
lanes *within* its own block-row (same-color blocks are independent);
:func:`check_dbsr_triangular` verifies this. Vector loads may overrun
tile boundaries — the overrun lanes hold zero values, so the padded
``x`` buffer (:meth:`~repro.formats.dbsr.DBSRMatrix.pad_vector`)
absorbs them, the paper's "overstore is zero" rule (§III-C, Fig. 3).
"""

from __future__ import annotations

import numpy as np

from repro.formats.dbsr import DBSRMatrix
from repro.kernels.sweep import check_diag, sptrsv_sweep
from repro.simd.engine import VectorEngine
from repro.utils.validation import require


def check_dbsr_triangular(dbsr: DBSRMatrix, lower: bool) -> bool:
    """Check the matrix is strictly triangular with no intra-block-row
    coupling (the solvability precondition of Algorithm 2)."""
    b = dbsr.bsize
    anchors = dbsr.anchors
    for i in range(dbsr.brow):
        row_lo = i * b
        for t in range(dbsr.blk_ptr[i], dbsr.blk_ptr[i + 1]):
            lanes = np.flatnonzero(dbsr.values[t])
            if len(lanes) == 0:
                continue
            cols = anchors[t] + lanes
            rows = row_lo + lanes
            if lower:
                if not np.all(cols < rows):
                    return False
            else:
                if not np.all(cols > rows):
                    return False
            # No coupling into the own block-row.
            if np.any((cols >= row_lo) & (cols < row_lo + b)):
                return False
    return True


def sptrsv_dbsr_lower(lower: DBSRMatrix, b: np.ndarray,
                      diag: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(L + D) x = b`` (or ``(L + I) x = b``) in DBSR format.

    Parameters
    ----------
    lower:
        Strictly lower triangular DBSR matrix.
    b:
        Right-hand side (padded ordering, length ``n``).
    diag:
        Diagonal ``D``; ``None`` solves with a unit diagonal (ILU's
        ``L`` factor).
    """
    return _sptrsv_dbsr(lower, b, diag, forward=True)


def sptrsv_dbsr_upper(upper: DBSRMatrix, b: np.ndarray,
                      diag: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(D + U) x = b`` in DBSR format (backward sweep)."""
    return _sptrsv_dbsr(upper, b, diag, forward=False)


def _sptrsv_dbsr(matrix, b, diag, forward) -> np.ndarray:
    """The k=1 call of the level-scheduled sweep."""
    b = np.asarray(b)
    require(b.shape == (matrix.n_rows,), "b has wrong length")
    return sptrsv_sweep(matrix, b[:, None], diag, forward)[:, 0]


# Instrumented twins ------------------------------------------------------

def sptrsv_dbsr_lower_counted(lower: DBSRMatrix, b: np.ndarray,
                              engine: VectorEngine,
                              diag: np.ndarray | None = None) -> np.ndarray:
    """Algorithm 2 executed through the instrumented vector engine."""
    n = lower.n_rows
    bs = lower.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    xp = np.zeros(n + 2 * bs, dtype=np.result_type(lower.values, b))
    anchors = lower.anchors + bs
    vals_flat = lower.values.reshape(-1)
    dp = None if diag is None else check_diag(n, diag)
    engine.counter.bytes_index += lower.blk_ptr.itemsize
    for i in range(lower.brow):
        engine.counter.bytes_index += lower.blk_ptr.itemsize
        acc = engine.load(np.asarray(b), i * bs).astype(xp.dtype)
        for t in range(lower.blk_ptr[i], lower.blk_ptr[i + 1]):
            engine.counter.bytes_index += (
                lower.blk_ind.itemsize + lower.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            vec_x = engine.load(xp, int(anchors[t]))
            acc = engine.fnma(acc, vec_vals, vec_x)
        if dp is not None:
            acc = engine.div(acc, engine.load(dp, i * bs))
        engine.store(xp, bs + i * bs, acc)
    return xp[bs:bs + n].copy()


def sptrsv_dbsr_upper_counted(upper: DBSRMatrix, b: np.ndarray,
                              engine: VectorEngine,
                              diag: np.ndarray | None = None) -> np.ndarray:
    """Backward Algorithm 2 through the instrumented vector engine."""
    n = upper.n_rows
    bs = upper.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    xp = np.zeros(n + 2 * bs, dtype=np.result_type(upper.values, b))
    anchors = upper.anchors + bs
    vals_flat = upper.values.reshape(-1)
    dp = None if diag is None else check_diag(n, diag)
    engine.counter.bytes_index += upper.blk_ptr.itemsize
    for i in range(upper.brow - 1, -1, -1):
        engine.counter.bytes_index += upper.blk_ptr.itemsize
        acc = engine.load(np.asarray(b), i * bs).astype(xp.dtype)
        for t in range(upper.blk_ptr[i], upper.blk_ptr[i + 1]):
            engine.counter.bytes_index += (
                upper.blk_ind.itemsize + upper.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            vec_x = engine.load(xp, int(anchors[t]))
            acc = engine.fnma(acc, vec_vals, vec_x)
        if dp is not None:
            acc = engine.div(acc, engine.load(dp, i * bs))
        engine.store(xp, bs + i * bs, acc)
    return xp[bs:bs + n].copy()
