"""Level-scheduled DBSR sweeps — Algorithm 2's parallel-for, in numpy.

Algorithm 2 runs the block-rows of one color side by side. The fast
tier does the same with the block-row dependency DAG read straight off
the tile windows (the dependency-driven vectorization of Cetinic et
al.): block-rows that touch none of each other's ``x`` slots form one
*level*, and a whole level is one gather, one multiply and one
reduction instead of a Python loop over its rows and tiles.

The :class:`SweepSchedule` is structure-only and built once per
matrix (set-up cost, like the DBSR conversion itself):

* **Levels.** Block-row ``i`` touches every block-row its tile windows
  ``x[anchor : anchor + bsize]`` overlap — up to two, because padded
  lanes read ``x`` too. Edges are made symmetric (an in-place SYMGS
  row also reads rows *later* in the order before they are updated)
  and point from the lower to the higher row index; a row's level is
  one more than its deepest lower-index neighbour's. Rows of one level
  never touch each other's slots, and every coupled pair is ordered by
  index in both the forward levels and their reverse, so both sweep
  directions replay the sequential row order's reads exactly.
* **Order.** Block-rows sorted by level (stable, so ties keep index
  order); ``level_ptr`` delimits the levels.
* **Tile tables.** ``(T, brow)`` tile indices and ``x``-window starts
  per row in sweep order, ``T`` the longest row. Short rows are padded
  at the *front* with slots that point at an appended ``+0.0`` value
  and the always-zero head ``xp[0:bsize]`` of the padded buffer, so a
  pad contributes ``+0.0 * 0.0 = +0.0``.

Every sweep body then reduces the gathered products with
``np.subtract.reduce`` along the tile axis over ``[start, p0, p1,
...]`` — a strictly sequential chain (``subtract`` has no pairwise
reduction loop), in storage order, so each row performs exactly the
scalar ops of the ``numpy-counted`` twin. SpTRSV/ILU start from the
right-hand side (``b - p0 - p1 ...``). SYMGS and SpMV need the row
sum ``0 + p0 + p1 ...``; they run the same chain from ``+0.0`` over
products of the *negated* values, because ``s - (-v * x)`` is by IEEE
definition the very addition ``s + v * x`` (negating an operand of a
product is exact, and ``s - y`` is defined as ``s + (-y)``). Note that
negating the *result* instead would not be exact: ``-0.0 - (-0.0)`` is
``+0.0``, not ``-(0.0 + -0.0)``. Leading pads are exact for every
start, since the pad value stays ``+0.0`` in both tables:
``s - (+0.0) == s`` bit for bit, including ``-0.0``, ``inf`` and NaN.

NumPy fancy indexing here is host-language traffic over precomputed
index tables, not the modelled ISA gather: the counted twins remain
the gather-free instruction model, and each index site below carries a
``# gather-ok`` note saying what it moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.utils.validation import require


@dataclass(frozen=True)
class TileTable:
    """Padded per-row tile lists of one sweep, rows in sweep order.

    Attributes
    ----------
    tiles:
        ``(T, brow)`` tile index per slot (slot-major, so one level's
        products stack along the reduced axis); pads hold ``n_tiles``
        (the appended ``+0.0`` value row of :meth:`values`).
    starts:
        ``(T, brow)`` start of each slot's ``x`` window in the padded
        buffer (``anchor + bsize``); pads hold ``0``, the zero head.
    """

    tiles: np.ndarray
    starts: np.ndarray

    @property
    def width(self) -> int:
        return self.tiles.shape[0]

    def values(self, values: np.ndarray, negate: bool = False
               ) -> np.ndarray:
        """The ``(T, brow, bsize)`` value table in sweep order, or its
        negation; pads read ``+0.0`` either way."""
        ext = np.empty((len(values) + 1, values.shape[1]), values.dtype)
        if negate:
            np.negative(values, out=ext[:-1])
        else:
            ext[:-1] = values
        ext[-1] = 0.0
        return ext[self.tiles]  # gather-ok: one value pass per sweep


@dataclass(frozen=True)
class SweepSchedule:
    """Structure-only level schedule of one DBSR matrix.

    ``full`` lists every tile of a row (SpTRSV, SYMGS, SpMV); ILU
    factors instead carry ``lower`` (tiles before the diagonal tile)
    and ``upper`` (tiles after it) for their two triangular sweeps.
    """

    order: np.ndarray
    level_ptr: np.ndarray
    full: TileTable | None = None
    lower: TileTable | None = None
    upper: TileTable | None = None

    def levels(self, forward: bool = True):
        """``(lo, hi)`` position ranges of the levels in sweep order."""
        ptr = self.level_ptr.tolist()
        spans = list(zip(ptr[:-1], ptr[1:]))
        return spans if forward else spans[::-1]


def _levels(matrix) -> np.ndarray:
    """Wavefront level of every block-row (see module docstring)."""
    bs, brow = matrix.bsize, matrix.brow
    rows = np.repeat(np.arange(brow), np.diff(matrix.blk_ptr))
    anchors = matrix.anchors
    # The two block-rows a window can overlap (lane 0's and lane b-1's).
    touched = np.concatenate((anchors // bs, (anchors + bs - 1) // bs))
    rows = np.concatenate((rows, rows))
    keep = (touched >= 0) & (touched < brow) & (touched != rows)
    lo = np.minimum(rows[keep], touched[keep])
    hi = np.maximum(rows[keep], touched[keep])
    # Group the pairs by their higher row; repeats are harmless to max.
    hi, lo = np.divmod(np.sort(hi * brow + lo), brow)
    ptr = np.zeros(brow + 1, dtype=np.int64)
    np.cumsum(np.bincount(hi, minlength=brow), out=ptr[1:])
    # A memoryview yields Python ints one at a time, so the loop never
    # materializes a list of every edge.
    ptr, preds = ptr.tolist(), memoryview(lo)
    level = [0] * brow
    get = level.__getitem__
    for i in range(brow):
        a, b = ptr[i], ptr[i + 1]
        if a != b:
            level[i] = max(map(get, preds[a:b])) + 1
    return np.asarray(level, dtype=np.int64)


def _table(matrix, order: np.ndarray, first: np.ndarray,
           last: np.ndarray) -> TileTable:
    """Tile table over the tile ranges ``[first[i], last[i])``."""
    count = (last - first)[order]
    width = int(count.max(initial=0))
    # Slot p of a row holds its tile p - (width - count); earlier
    # slots are the leading pads.
    pos = np.arange(width)[:, None] - (width - count)
    tiles = np.where(pos >= 0, first[order] + pos, matrix.n_tiles)
    anchors = np.append(matrix.anchors + matrix.bsize, 0)
    starts = anchors[tiles]  # gather-ok: structure-only, built once
    # int32 halves the tables (build_sweep_schedule checks the range).
    return TileTable(tiles=tiles.astype(np.int32),
                     starts=starts.astype(np.int32))


def build_sweep_schedule(matrix, dia_ptr: np.ndarray | None = None
                         ) -> SweepSchedule:
    """Build the level schedule and tile tables of a DBSR matrix.

    With ``dia_ptr`` (ILU factors) the schedule carries the ``lower``
    and ``upper`` tables split at each row's diagonal tile; without it,
    the ``full`` table.
    """
    require(max(matrix.n_tiles, matrix.n_cols + 2 * matrix.bsize)
            < 2**31, "matrix too large for int32 sweep tables")
    level = _levels(matrix)
    order = np.argsort(level, kind="stable")
    level_ptr = np.zeros(int(level.max(initial=-1)) + 2, dtype=np.int64)
    np.cumsum(np.bincount(level, minlength=len(level_ptr) - 1),
              out=level_ptr[1:])
    blk_ptr = matrix.blk_ptr.astype(np.int64)
    if dia_ptr is None:
        return SweepSchedule(order=order, level_ptr=level_ptr,
                             full=_table(matrix, order, blk_ptr[:-1],
                                         blk_ptr[1:]))
    dia_ptr = np.asarray(dia_ptr, dtype=np.int64)
    require(bool(np.all(dia_ptr >= 0)),
            "every block-row needs a diagonal tile")
    return SweepSchedule(
        order=order, level_ptr=level_ptr,
        lower=_table(matrix, order, blk_ptr[:-1], dia_ptr),
        upper=_table(matrix, order, dia_ptr + 1, blk_ptr[1:]))


# Sweep bodies ---------------------------------------------------------------

#: Product-buffer elements per SpMV step (about 1 MB in float64).
_SPMV_CHUNK = 1 << 17


def _chain(vt, Xw, starts, lo, hi, start) -> np.ndarray:
    """``start - p0 - p1 - ...`` for the rows ``lo:hi`` as ``(k, r, b)``,
    with ``p_t = values * x-window`` of slot ``t``, in slot order."""
    k, bs = Xw.shape[0], Xw.shape[2]
    buf = np.empty((k, starts.shape[0] + 1, hi - lo, bs),
                   dtype=np.result_type(vt, Xw))
    buf[:, 0] = start
    # gather-ok: x windows of one level (host traffic, see module doc)
    np.multiply(vt[:, lo:hi], Xw[:, starts[:, lo:hi]], out=buf[:, 1:])
    return np.subtract.reduce(buf, axis=1)


def _solve(schedule, table, values, Xp, rhs, div, forward) -> None:
    """Triangular sweep into the padded ``(k, n + 2b)`` buffer ``Xp``.

    ``rhs`` is ``(k, brow, b)`` and ``div`` ``(brow, b)`` (or ``None``),
    both in sweep order; each level solves
    ``x_i = (rhs_i - p0 - p1 - ...) / div_i``.
    """
    bs = values.shape[1]
    k = Xp.shape[0]
    X3 = Xp[:, bs:Xp.shape[1] - bs].reshape(k, -1, bs)
    Xw = sliding_window_view(Xp, bs, axis=1)
    vt = table.values(values)
    order = schedule.order
    for lo, hi in schedule.levels(forward):
        acc = _chain(vt, Xw, table.starts, lo, hi, rhs[:, lo:hi])
        if div is not None:
            acc /= div[lo:hi]
        X3[:, order[lo:hi]] = acc


def check_rhs_block(n: int, B: np.ndarray) -> np.ndarray:
    """Validate an ``(n, k)`` right-hand-side block (``k >= 1``)."""
    B = np.asarray(B)
    require(B.ndim == 2, "RHS block must be (n, k)")
    require(B.shape[0] == n, "RHS block has wrong length")
    require(B.shape[1] >= 1, "RHS block must have at least one column")
    return B


def _in_order(schedule, A: np.ndarray, bs: int) -> np.ndarray:
    """An ``(n, k)`` block's rows as ``(k, brow, b)`` in sweep order."""
    A3 = np.ascontiguousarray(A.T).reshape(A.shape[1], -1, bs)
    return A3[:, schedule.order]  # gather-ok: one RHS pass per sweep


def sptrsv_sweep(matrix, B: np.ndarray, diag: np.ndarray | None,
                 forward: bool) -> np.ndarray:
    """Solve ``(L + D) X = B`` (forward) or ``(D + U) X = B`` over an
    ``(n, k)`` block; ``diag=None`` means a unit diagonal."""
    B = check_rhs_block(matrix.n_rows, B)
    n, k = B.shape
    bs = matrix.bsize
    sched = matrix.sweep_schedule()
    Xp = np.zeros((k, n + 2 * bs), dtype=np.result_type(matrix.values, B))
    div = None if diag is None else \
        np.asarray(diag).reshape(-1, bs)[sched.order]  # gather-ok: once
    _solve(sched, sched.full, matrix.values, Xp,
           _in_order(sched, B, bs), div, forward)
    return np.ascontiguousarray(Xp[:, bs:bs + n].T)


def ilu_apply_sweep(factors, B: np.ndarray) -> np.ndarray:
    """Solve ``L U Z = B`` over an ``(n, k)`` block: a forward unit-lower
    sweep over the ``lower`` table, then a backward sweep over the
    ``upper`` table dividing by each row's diagonal tile."""
    m = factors.matrix
    B = check_rhs_block(m.n_rows, B)
    n, k = B.shape
    bs = m.bsize
    sched = factors.sweep_schedule()
    dtype = np.result_type(m.values, B)
    Yp = np.zeros((k, n + 2 * bs), dtype=dtype)
    _solve(sched, sched.lower, m.values, Yp, _in_order(sched, B, bs),
           None, forward=True)
    Y3 = Yp[:, bs:bs + n].reshape(k, -1, bs)
    # gather-ok: diagonal tiles and y rows in sweep order, once each
    div = m.values[factors.dia_ptr[sched.order]]
    Zp = np.zeros((k, n + 2 * bs), dtype=dtype)
    _solve(sched, sched.upper, m.values, Zp,
           Y3[:, sched.order], div, forward=False)  # gather-ok: once
    return np.ascontiguousarray(Zp[:, bs:bs + n].T)


def symgs_sweep(matrix, diag: np.ndarray, X: np.ndarray, B: np.ndarray,
                directions: tuple = (True, False)) -> np.ndarray:
    """In-place Gauss–Seidel sweeps over ``(n, k)`` blocks.

    ``directions`` lists the sweeps (``True`` forward): ``(True,
    False)`` is SYMGS, ``(True,)`` one forward GS sweep. Each row does
    ``x_i += (b_i - rowsum_i) / d_i`` with ``rowsum`` the sequential sum
    over *all* its tiles (the diagonal tile included).
    """
    B = check_rhs_block(matrix.n_rows, B)
    require(X.shape == B.shape, "X/B block shape mismatch")
    n, k = B.shape
    bs = matrix.bsize
    sched = matrix.sweep_schedule()
    table = sched.full
    Xp = np.zeros((k, n + 2 * bs), dtype=np.result_type(matrix.values, X))
    Xp[:, bs:bs + n] = X.T
    X3 = Xp[:, bs:bs + n].reshape(k, -1, bs)
    Xw = sliding_window_view(Xp, bs, axis=1)
    vt = table.values(matrix.values, negate=True)
    order = sched.order
    Bo = _in_order(sched, B, bs)
    Do = np.asarray(diag).reshape(-1, bs)[order]  # gather-ok: once
    for forward in directions:
        for lo, hi in sched.levels(forward):
            rowsum = _chain(vt, Xw, table.starts, lo, hi, 0.0)
            rows = order[lo:hi]
            xi = X3[:, rows]  # gather-ok: the level's own x slots
            xi += (Bo[:, lo:hi] - rowsum) / Do[lo:hi]
            X3[:, rows] = xi
    X[:] = Xp[:, bs:bs + n].T
    return X


def spmv_sweep(matrix, X: np.ndarray) -> np.ndarray:
    """``Y = A X`` over an ``(n_cols, k)`` block from the tile table.

    SpMV has no dependencies, so rows ignore the levels and run in
    cache-sized chunks of the table; each row still sums its tiles as a
    sequential chain from ``+0.0``.
    """
    X = np.asarray(X)
    require(X.ndim == 2 and X.shape[0] == matrix.n_cols,
            "X block must be (n_cols, k)")
    k = X.shape[1]
    bs = matrix.bsize
    sched = matrix.sweep_schedule()
    table = sched.full
    Xp = np.zeros((k, matrix.n_cols + 2 * bs), dtype=X.dtype)
    Xp[:, bs:bs + matrix.n_cols] = X.T
    Xw = sliding_window_view(Xp, bs, axis=1)
    vt = table.values(matrix.values, negate=True)
    Y = np.empty((k, matrix.brow, bs), dtype=np.result_type(vt, Xp))
    step = max(1, _SPMV_CHUNK // (k * (table.width + 1) * bs))
    for lo in range(0, matrix.brow, step):
        hi = min(lo + step, matrix.brow)
        Y[:, sched.order[lo:hi]] = _chain(vt, Xw, table.starts, lo, hi,
                                          0.0)
    return np.ascontiguousarray(Y.reshape(k, -1).T)
