"""Gauss–Seidel and symmetric Gauss–Seidel (SYMGS) smoothers.

SYMGS is HPCG's smoother: one in-place forward GS sweep followed by one
backward sweep over the full matrix. The CSR version is the reference;
the DBSR version processes block-rows with the contiguous vector
operations of Algorithm 2, using the main-diagonal tile trick: the
row-sum accumulated over *all* tiles includes the diagonal
contribution, which is added back before dividing. Independent
block-rows run together, one dependency level at a time
(:mod:`repro.kernels.sweep`).
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.kernels.sweep import symgs_sweep
from repro.utils.validation import require


def gs_forward_csr(matrix: CSRMatrix, diag: np.ndarray, x: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """One in-place forward Gauss–Seidel sweep; returns updated ``x``."""
    n = matrix.n_rows
    require(x.shape == (n,) and b.shape == (n,), "vector length mismatch")
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        rowsum = data[lo:hi] @ x[indices[lo:hi]]
        x[i] += (b[i] - rowsum) / diag[i]
    return x


def gs_backward_csr(matrix: CSRMatrix, diag: np.ndarray, x: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """One in-place backward Gauss–Seidel sweep."""
    n = matrix.n_rows
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for i in range(n - 1, -1, -1):
        lo, hi = indptr[i], indptr[i + 1]
        rowsum = data[lo:hi] @ x[indices[lo:hi]]
        x[i] += (b[i] - rowsum) / diag[i]
    return x


def symgs_csr(matrix: CSRMatrix, diag: np.ndarray, x: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """HPCG's SYMGS: forward then backward GS sweep, in place."""
    gs_forward_csr(matrix, diag, x, b)
    gs_backward_csr(matrix, diag, x, b)
    return x


# DBSR ---------------------------------------------------------------------
#
# Both DBSR entry points are k=1 calls of the level-scheduled sweep
# (:func:`repro.kernels.sweep.symgs_sweep`), which updates ``x`` in
# place through its ``(n, 1)`` column view.

def symgs_dbsr(matrix: DBSRMatrix, diag: np.ndarray, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """SYMGS over a full (non-triangular) DBSR matrix.

    Produces the same iterates as :func:`symgs_csr` on the identically
    ordered matrix, because same-color blocks never couple: within a
    block-row the only self-reference is the main diagonal.
    """
    return _gs_dbsr(matrix, diag, x, b, (True, False))


def gs_forward_dbsr(matrix: DBSRMatrix, diag: np.ndarray, x: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """One forward GS sweep in DBSR format (in place on ``x``)."""
    return _gs_dbsr(matrix, diag, x, b, (True,))


def _gs_dbsr(matrix, diag, x, b, directions) -> np.ndarray:
    n = matrix.n_rows
    b = np.asarray(b)
    require(x.shape == (n,) and b.shape == (n,), "vector length mismatch")
    symgs_sweep(matrix, diag, x[:, None], b[:, None], directions)
    return x
