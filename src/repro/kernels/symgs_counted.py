"""Instrumented DBSR SYMGS twin.

Executes the same in-place Gauss–Seidel sweeps as
:func:`~repro.kernels.symgs.symgs_dbsr`, but through the
:class:`~repro.simd.engine.VectorEngine`, so every load/FMA/divide is
tallied; the result matches the closed form
:func:`~repro.kernels.counts.symgs_dbsr_counts` exactly (tested).

The in-place trick of the fused kernel: the diagonal tile's
contiguous ``x`` window *is* the block-row's own ``x`` slice, so the
add-back correction needs no extra load.
"""

from __future__ import annotations

import numpy as np

from repro.formats.dbsr import DBSRMatrix
from repro.kernels.sweep import check_diag
from repro.simd.engine import VectorEngine
from repro.utils.validation import require


def _sweep_counted(matrix: DBSRMatrix, diag: np.ndarray,
                   xp: np.ndarray, b: np.ndarray, forward: bool,
                   engine: VectorEngine) -> None:
    bs = matrix.bsize
    anchors = matrix.anchors + bs
    blk_ptr = matrix.blk_ptr
    vals_flat = matrix.values.reshape(-1)
    dia_ptr = matrix.dia_ptr
    rng = range(matrix.brow) if forward \
        else range(matrix.brow - 1, -1, -1)
    engine.counter.bytes_index += blk_ptr.itemsize
    for i in rng:
        engine.counter.bytes_index += blk_ptr.itemsize
        acc = engine.load(b, i * bs).astype(xp.dtype)
        xi = None
        for t in range(int(blk_ptr[i]), int(blk_ptr[i + 1])):
            engine.counter.bytes_index += (
                matrix.blk_ind.itemsize + matrix.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            vec_x = engine.load(xp, int(anchors[t]))
            if t == dia_ptr[i]:
                xi = vec_x.copy()  # the block-row's own x slice
            acc = engine.fnma(acc, vec_vals, vec_x)
        d = engine.load(diag, i * bs)
        corr = engine.div(acc, d)
        engine.store(xp, bs + i * bs, engine.add(xi, corr))


def symgs_dbsr_counted(matrix: DBSRMatrix, diag: np.ndarray,
                       x: np.ndarray, b: np.ndarray,
                       engine: VectorEngine) -> np.ndarray:
    """Instrumented SYMGS; updates and returns ``x`` like the fast
    twin."""
    n = matrix.n_rows
    bs = matrix.bsize
    require(x.shape == (n,) and b.shape == (n,), "vector length mismatch")
    require(engine.bsize == bs, "engine width must equal bsize")
    require(bool(np.all(matrix.dia_ptr >= 0)),
            "every block-row needs a diagonal tile")
    diag = check_diag(n, diag)
    xp = matrix.pad_vector(np.asarray(
        x, dtype=np.result_type(matrix.values, x)))
    _sweep_counted(matrix, diag, xp, np.asarray(b),
                   forward=True, engine=engine)
    _sweep_counted(matrix, diag, xp, np.asarray(b),
                   forward=False, engine=engine)
    x[:] = matrix.unpad_vector(xp)
    return x
