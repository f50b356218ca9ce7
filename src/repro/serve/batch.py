"""Multi-RHS batched DBSR kernels — amortizing matrix loads over k solves.

The SELL-C-σ line of work (Kreutzer et al.) and Bramas & Kus's
block-based AVX-512 SpMV both observe that wide-SIMD sparse formats pay
off most when the matrix *values* are loaded once and reused across
multiple right-hand sides. These kernels apply that to DBSR: each tile's
``bsize`` value vector is loaded once per sweep and FMA'd against all
``k`` columns of an ``(n, k)`` RHS block, so value-stream traffic per
solve drops as ``1/k`` while the vector-stream traffic stays linear.

Layout note: the public API accepts ``(n, k)`` blocks column-per-RHS,
matching how callers stack requests. The fast kernels are the compiled
level programs of :mod:`repro.kernels.sweep` (a few ``out=`` numpy
calls per dependency level over a sweep-ordered ``(n + 1, k)`` buffer);
the instrumented twins below keep Algorithm 2's contiguous loads over
RHS-major ``(k, n + 2*bsize)`` padded buffers, and the gather-lint
runs over this module.

Every kernel is bit-identical per column to its unbatched sweep twin in
:mod:`repro.kernels.sptrsv_dbsr` / :mod:`repro.kernels.symgs`:
batching reorders no floating-point operation within a column, and
every fast kernel matches its ``*_counted`` twin bit for bit, the sign
of zero included. SpMV accumulates each row's tiles as a *sequential*
chain from ``+0.0`` in storage order — the canonical backend-tier
rounding sequence. Only :meth:`~repro.formats.dbsr.DBSRMatrix.matvec`,
which sums with ``np.add.reduceat``, differs from it, by roundoff.
Instrumented ``*_counted`` twins execute through a
:class:`~repro.simd.engine.VectorEngine`; closed forms live in
:func:`repro.kernels.counts.sptrsv_dbsr_multi_counts`.
"""

from __future__ import annotations

import numpy as np

from repro.formats.dbsr import DBSRMatrix
from repro.kernels.sweep import (
    check_diag,
    check_rhs_block,
    ilu_apply_sweep,
    spmv_sweep,
    sptrsv_sweep,
    symgs_sweep,
)
from repro.simd.engine import VectorEngine
from repro.utils.validation import require


def sptrsv_dbsr_lower_multi(lower: DBSRMatrix, B: np.ndarray,
                            diag: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(L + D) X = B`` for an ``(n, k)`` RHS block.

    Column ``j`` of the result is bit-identical to
    ``sptrsv_dbsr_lower(lower, B[:, j], diag)``.
    """
    return sptrsv_sweep(lower, B, diag, forward=True)


def sptrsv_dbsr_upper_multi(upper: DBSRMatrix, B: np.ndarray,
                            diag: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(D + U) X = B`` for an ``(n, k)`` RHS block."""
    return sptrsv_sweep(upper, B, diag, forward=False)


def spmv_dbsr_multi(matrix: DBSRMatrix, X: np.ndarray) -> np.ndarray:
    """``Y = A X`` over an ``(n, k)`` block from the level program.

    Each output row is a *sequential* FMA chain from ``+0.0`` over its
    tiles in storage order — the same rounding sequence as Alg. 4's
    accumulator register and the ``numpy-counted`` twin, so every
    backend tier is bit-identical, the sign of zero included.
    :meth:`DBSRMatrix.matvec` sums with ``np.add.reduceat`` instead and
    matches to roundoff, not bitwise.
    """
    return spmv_sweep(matrix, X)


def symgs_dbsr_multi(matrix: DBSRMatrix, diag: np.ndarray,
                     X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """One SYMGS sweep (forward + backward GS) over ``(n, k)`` blocks.

    Updates ``X`` in place and returns it; column-identical to
    :func:`repro.kernels.symgs.symgs_dbsr` per RHS.
    """
    return symgs_sweep(matrix, diag, X, B)


def ilu_apply_dbsr_multi(factors, B: np.ndarray) -> np.ndarray:
    """Apply block ILU(0): solve ``L U Z = B`` over an ``(n, k)`` block.

    Two Algorithm-2 sweeps over the factored skeleton of a
    :class:`~repro.ilu.ilu0_dbsr.DBSRILUFactors` — a forward unit-lower
    solve over tiles before ``dia_ptr`` and a backward solve over the
    diagonal + upper tiles — with each tile's value vector loaded once
    per sweep and reused across all ``k`` columns. Column ``j`` of the
    result is bit-identical to
    ``ilu0_apply_dbsr(factors, B[:, j])``: batching reorders no
    floating-point operation within a column.
    """
    return ilu_apply_sweep(factors, B)


# Instrumented twins ------------------------------------------------------

def _sptrsv_multi_counted(matrix: DBSRMatrix, B: np.ndarray,
                          engine: VectorEngine,
                          diag: np.ndarray | None,
                          forward: bool) -> np.ndarray:
    """Multi-RHS Algorithm 2 through the instrumented vector engine.

    The op stream makes the amortization observable: per tile there is
    exactly **one** ``load_values`` (charged to ``bytes_values``) and
    ``k`` x-loads/FMAs, so the value-stream bytes of a sweep are
    independent of ``k`` while per-solve value bytes fall as ``1/k``.
    """
    B = check_rhs_block(matrix.n_rows, B)
    n, k = B.shape
    bs = matrix.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    dtype = np.result_type(matrix.values, B)
    Xp = np.zeros((k, n + 2 * bs), dtype=dtype)
    Bk = np.ascontiguousarray(B.T)
    anchors = matrix.anchors + bs
    vals_flat = matrix.values.reshape(-1)
    dp = None if diag is None else check_diag(n, diag)
    blk_ptr = matrix.blk_ptr
    engine.counter.bytes_index += blk_ptr.itemsize
    rng = range(matrix.brow) if forward \
        else range(matrix.brow - 1, -1, -1)
    for i in rng:
        engine.counter.bytes_index += blk_ptr.itemsize
        accs = [engine.load(Bk[j], i * bs).astype(dtype)
                for j in range(k)]
        for t in range(blk_ptr[i], blk_ptr[i + 1]):
            engine.counter.bytes_index += (
                matrix.blk_ind.itemsize + matrix.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            a = int(anchors[t])
            for j in range(k):
                vec_x = engine.load(Xp[j], a)
                accs[j] = engine.fnma(accs[j], vec_vals, vec_x)
        if dp is not None:
            vec_d = engine.load(dp, i * bs)
            accs = [engine.div(acc, vec_d) for acc in accs]
        for j in range(k):
            engine.store(Xp[j], bs + i * bs, accs[j])
    return np.ascontiguousarray(Xp[:, bs:bs + n].T)


def sptrsv_dbsr_lower_multi_counted(lower: DBSRMatrix, B: np.ndarray,
                                    engine: VectorEngine,
                                    diag: np.ndarray | None = None
                                    ) -> np.ndarray:
    """Instrumented multi-RHS forward solve (one value load per tile)."""
    return _sptrsv_multi_counted(lower, B, engine, diag, forward=True)


def sptrsv_dbsr_upper_multi_counted(upper: DBSRMatrix, B: np.ndarray,
                                    engine: VectorEngine,
                                    diag: np.ndarray | None = None
                                    ) -> np.ndarray:
    """Instrumented multi-RHS backward solve."""
    return _sptrsv_multi_counted(upper, B, engine, diag, forward=False)


def spmv_dbsr_multi_counted(matrix: DBSRMatrix, X: np.ndarray,
                            engine: VectorEngine) -> np.ndarray:
    """Instrumented multi-RHS DBSR SpMV twin of :func:`spmv_dbsr_multi`.

    Per tile one ``load_values`` serves all ``k`` columns; tallies match
    :func:`repro.kernels.counts.spmv_dbsr_multi_counts` exactly. The
    accumulator starts from an explicit zero register (the FMA chain of
    Algorithm 4), the very chain the fast kernel runs, so results are
    bitwise equal to :func:`spmv_dbsr_multi`, the sign of zero
    included.
    """
    X = np.asarray(X)
    require(X.ndim == 2 and X.shape[0] == matrix.n_cols,
            "X block must be (n_cols, k)")
    n, k = X.shape
    bs = matrix.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    dtype = np.result_type(matrix.values, X)
    Xp = np.zeros((k, matrix.n_cols + 2 * bs), dtype=X.dtype)
    Xp[:, bs:bs + matrix.n_cols] = X.T
    anchors = matrix.anchors + bs
    vals_flat = matrix.values.reshape(-1)
    blk_ptr = matrix.blk_ptr
    Yk = np.zeros((k, matrix.brow * bs), dtype=dtype)
    engine.counter.bytes_index += blk_ptr.itemsize
    for i in range(matrix.brow):
        engine.counter.bytes_index += blk_ptr.itemsize
        accs = [np.zeros(bs, dtype=dtype) for _ in range(k)]
        for t in range(blk_ptr[i], blk_ptr[i + 1]):
            engine.counter.bytes_index += (
                matrix.blk_ind.itemsize + matrix.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            a = int(anchors[t])
            for j in range(k):
                vec_x = engine.load(Xp[j], a)
                accs[j] = engine.fma(accs[j], vec_vals, vec_x)
        for j in range(k):
            engine.store(Yk[j], i * bs, accs[j])
    return np.ascontiguousarray(Yk[:, :matrix.n_rows].T)


def ilu_apply_dbsr_multi_counted(factors, B: np.ndarray,
                                 engine: VectorEngine) -> np.ndarray:
    """Instrumented multi-RHS ILU(0) application twin.

    Mirrors :func:`ilu_apply_dbsr_multi` operation for operation — one
    ``load_values`` per tile serves all ``k`` columns in each sweep,
    and the backward sweep charges the diagonal tile's value load
    before the ``k`` lane divisions — so results are **bitwise** equal
    and tallies match
    :func:`repro.kernels.counts.ilu_apply_dbsr_multi_counts` exactly.
    """
    m = factors.matrix
    B = check_rhs_block(m.n_rows, B)
    require(bool(np.all(factors.dia_ptr >= 0)),
            "every block-row needs a diagonal tile")
    n, k = B.shape
    bs = m.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    dtype = np.result_type(m.values, B)
    Bk = np.ascontiguousarray(B.T)
    vals_flat = m.values.reshape(-1)
    anchors = m.anchors + bs
    blk_ptr = m.blk_ptr
    dia_ptr = factors.dia_ptr

    # Forward: (L + I) Y = B.
    Yp = np.zeros((k, n + 2 * bs), dtype=dtype)
    engine.counter.bytes_index += blk_ptr.itemsize
    for i in range(m.brow):
        engine.counter.bytes_index += (
            blk_ptr.itemsize + dia_ptr.itemsize)
        accs = [engine.load(Bk[j], i * bs).astype(dtype)
                for j in range(k)]
        for t in range(int(blk_ptr[i]), int(dia_ptr[i])):
            engine.counter.bytes_index += (
                m.blk_ind.itemsize + m.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            a = int(anchors[t])
            for j in range(k):
                vec_y = engine.load(Yp[j], a)
                accs[j] = engine.fnma(accs[j], vec_vals, vec_y)
        for j in range(k):
            engine.store(Yp[j], bs + i * bs, accs[j])

    # Backward: (D + U) Z = Y.
    Zp = np.zeros((k, n + 2 * bs), dtype=dtype)
    engine.counter.bytes_index += blk_ptr.itemsize
    for i in range(m.brow - 1, -1, -1):
        engine.counter.bytes_index += (
            blk_ptr.itemsize + dia_ptr.itemsize)
        accs = [engine.load(Yp[j], bs + i * bs).astype(dtype)
                for j in range(k)]
        for t in range(int(dia_ptr[i]) + 1, int(blk_ptr[i + 1])):
            engine.counter.bytes_index += (
                m.blk_ind.itemsize + m.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            a = int(anchors[t])
            for j in range(k):
                vec_z = engine.load(Zp[j], a)
                accs[j] = engine.fnma(accs[j], vec_vals, vec_z)
        vec_d = engine.load_values(vals_flat, int(dia_ptr[i]) * bs)
        for j in range(k):
            accs[j] = engine.div(accs[j], vec_d)
            engine.store(Zp[j], bs + i * bs, accs[j])
    return np.ascontiguousarray(Zp[:, bs:bs + n].T)


def symgs_dbsr_multi_counted(matrix: DBSRMatrix, diag: np.ndarray,
                             X: np.ndarray, B: np.ndarray,
                             engine: VectorEngine) -> np.ndarray:
    """Instrumented multi-RHS SYMGS twin of :func:`symgs_dbsr_multi`.

    Mirrors the fast kernel's floating-point order exactly — the row
    sum accumulates through FMAs from a zero register and the update is
    ``x += (b - rowsum) / d`` — so batched results are **bitwise**
    equal to :func:`symgs_dbsr_multi`, and tallies match
    :func:`repro.kernels.counts.symgs_dbsr_multi_counts` exactly.

    Like :func:`repro.kernels.symgs_counted.symgs_dbsr_counted`, the
    diagonal tile's contiguous x window *is* the block-row's own x
    slice, so the add-back correction needs no extra load. The
    ``b - rowsum`` subtraction happens on register-resident operands
    (both were just produced by engine ops) and is deliberately left
    untallied, matching the closed form, which models the memory
    streams and the FMA/divide/add mix.
    """
    B = check_rhs_block(matrix.n_rows, B)
    require(X.shape == B.shape, "X/B block shape mismatch")
    require(bool(np.all(matrix.dia_ptr >= 0)),
            "every block-row needs a diagonal tile")
    n, k = B.shape
    bs = matrix.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    dtype = np.result_type(matrix.values, X)
    Xp = np.zeros((k, n + 2 * bs), dtype=dtype)
    Xp[:, bs:bs + n] = X.T
    Bk = np.ascontiguousarray(B.T)
    dp = check_diag(n, diag)
    anchors = matrix.anchors + bs
    vals_flat = matrix.values.reshape(-1)
    blk_ptr = matrix.blk_ptr
    dia_ptr = matrix.dia_ptr
    for forward in (True, False):
        rng = range(matrix.brow) if forward \
            else range(matrix.brow - 1, -1, -1)
        engine.counter.bytes_index += blk_ptr.itemsize
        for i in rng:
            engine.counter.bytes_index += blk_ptr.itemsize
            rowsums = [np.zeros(bs, dtype=dtype) for _ in range(k)]
            xi_vecs = [None] * k
            for t in range(int(blk_ptr[i]), int(blk_ptr[i + 1])):
                engine.counter.bytes_index += (
                    matrix.blk_ind.itemsize + matrix.blk_offset.itemsize)
                vec_vals = engine.load_values(vals_flat, t * bs)
                a = int(anchors[t])
                for j in range(k):
                    vec_x = engine.load(Xp[j], a)
                    if t == dia_ptr[i]:
                        xi_vecs[j] = vec_x.copy()
                    rowsums[j] = engine.fma(rowsums[j], vec_vals, vec_x)
            vec_d = engine.load(dp, i * bs)
            for j in range(k):
                bj = engine.load(Bk[j], i * bs)
                corr = engine.div(bj - rowsums[j], vec_d)
                engine.store(Xp[j], bs + i * bs,
                             engine.add(xi_vecs[j], corr))
    X[:] = Xp[:, bs:bs + n].T
    return X
