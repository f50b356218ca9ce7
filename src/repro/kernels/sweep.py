"""Level-scheduled DBSR sweeps — Algorithm 2's parallel-for, in numpy.

Algorithm 2 runs the block-rows of one color side by side. The fast
tier does the same with the block-row dependency DAG read straight off
the tile windows (the dependency-driven vectorization of Cetinic et
al.): block-rows that touch none of each other's ``x`` slots form one
*level*, and a whole level is a few numpy calls instead of a Python
loop over its rows and tiles.

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
  order); ``level_ptr`` delimits the levels. Every sweep works on
  vectors permuted into this *sweep order*, where a level's rows are
  one contiguous slice.
* **Level programs.** Each :class:`TileTable` is a compiled program
  over ``T`` slots per row (``T`` the longest row; shorter rows are
  padded at the *front*). Level-major — level ``L`` is one contiguous
  ``(T, w)`` block, ``w`` its lane count — it stores as int32 the
  tile each slot reads its values from (``gather``; pads read an
  appended ``+0.0`` value row) and, per slot lane, the position of its
  ``x`` entry in the sweep-ordered buffer (``lanes``). That buffer has
  one trailing ``+0.0`` row; pads and lanes whose column falls outside
  ``[0, n)`` point at it, so they contribute ``+0.0 * +0.0 = +0.0``.
  The level bounds are precomputed Python ints (``steps``).

A call permutes ``X``, ``B`` and the diagonal into sweep order once and
gathers the value table once. Each level is then a short run of
``out=`` calls over contiguous slices of per-call scratch:

1. ``np.take`` of the level's ``x`` lanes into a product buffer;
2. ``np.multiply`` by the level's value block;
3. ``np.subtract.reduce`` along the slot axis — a strictly sequential
   chain (``subtract`` has no pairwise reduction loop), in storage
   order, so each row performs exactly the scalar ops of the
   ``numpy-counted`` twin;
4. the divide (SpTRSV, ILU) or SYMGS's subtract/divide/add, written
   straight into the level's slice of the ``x`` buffer.

SpTRSV/ILU start the chain from the right-hand side: the product
buffer's head slot holds the level's RHS rows, giving
``b - p0 - p1 ...``. SYMGS and SpMV need the row sum
``0 + p0 + p1 ...``; they run the chain with ``initial=0.0`` over
products of the *negated* values, because ``s - (-v * x)`` is by IEEE
definition the very addition ``s + v * x`` (negating an operand of a
product is exact, and ``s - y`` is defined as ``s + (-y)``), and
``initial`` is the chain's first ``s``: ``0.0 - p0 - p1 ...``, the
chain of an explicit ``+0.0`` head slot. Negating the *result*
instead would not be exact: ``-0.0 - (-0.0)`` is ``+0.0``, not
``-(0.0 + -0.0)``. Leading pads are exact for every start, since the
pad value stays ``+0.0`` in both tables: ``s - (+0.0) == s`` bit for
bit, including ``-0.0``, ``inf`` and NaN.

Values and the diagonal are read live on every call — nothing caches
them — because fault injection corrupts them in place and the kernels
must see it. Scratch is allocated per call and freed on return, so
concurrent calls on one plan (gateway worker threads, hedged requests)
share only the read-only program.

NumPy ``take`` here is host-language traffic over precomputed index
tables, not the modelled ISA gather: the counted twins remain the
gather-free instruction model, and each index site below carries a
``# gather-ok`` note saying what it moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require


@dataclass(frozen=True)
class TileTable:
    """Compiled level program of one sweep table, rows in sweep order.

    Attributes
    ----------
    width:
        Slots per row, ``T`` (the longest row's tile count).
    gather:
        ``(T * brow,)`` int32 tile index per slot, level-major (level
        ``lo:hi`` is the ``(T, hi - lo)`` block at ``T*lo : T*hi``);
        pads hold ``n_tiles``, the appended ``+0.0`` value row.
    lanes:
        ``(T * n,)`` int32 position of each slot lane's ``x`` entry in
        the sweep-ordered buffer, laid out like ``gather`` with each
        slot expanded to its ``bsize`` lanes; pads and out-of-range
        lanes hold ``n``, the buffer's trailing ``+0.0`` row.
    steps:
        One ``(xlo, xhi, a, b, lanes[a:b])`` per level in forward
        order: the level's lane range ``xlo:xhi`` in the ``x`` buffer
        and its block ``a:b`` of ``lanes`` and of the value table.
    max_lanes:
        The widest level's lane count (sizes the per-call scratch).
    """

    width: int
    bsize: int
    gather: np.ndarray
    lanes: np.ndarray
    steps: tuple
    max_lanes: int

    @property
    def tiles(self) -> np.ndarray:
        """``(T, brow)`` tile index per slot and row in sweep order."""
        T, bs = self.width, self.bsize
        return np.concatenate(
            [self.gather[T * xlo // bs:T * xhi // bs]
             .reshape(T, (xhi - xlo) // bs) for xlo, xhi, *_ in self.steps],
            axis=1)

    def values(self, values: np.ndarray, negate: bool = False
               ) -> np.ndarray:
        """The ``(T * n, 1)`` level-major value table, or its negation;
        pads read ``+0.0`` either way."""
        ext = np.empty((len(values) + 1, values.shape[1]), values.dtype)
        if negate:
            np.negative(values, out=ext[:-1])
        else:
            ext[:-1] = values
        ext[-1] = 0.0
        # gather-ok: the tile values, one pass per call
        return np.take(ext, self.gather, axis=0).reshape(-1, 1)


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


def _table(matrix, order: np.ndarray, level_ptr: np.ndarray,
           first: np.ndarray, last: np.ndarray) -> TileTable:
    """Level program over the tile ranges ``[first[i], last[i])``."""
    bs, brow, n = matrix.bsize, matrix.brow, matrix.n_rows
    count = (last - first)[order]
    T = int(count.max(initial=0))
    # Slot p of a row holds its tile p - (T - count); earlier slots are
    # the leading pads.
    slot = np.arange(T)[:, None] - (T - count)
    tiles = np.where(slot >= 0, first[order] + slot, matrix.n_tiles)
    # Level-major: slot t of the row at sweep position p, in level
    # lo:hi, moves to T*lo + t*(hi - lo) + (p - lo).
    size = np.diff(level_ptr)
    lvl_lo = np.repeat(level_ptr[:-1], size)
    dest = (T * lvl_lo + np.arange(T)[:, None] * np.repeat(size, size)
            + (np.arange(brow) - lvl_lo))
    gather = np.empty(T * brow, dtype=np.int32)
    gather[dest] = tiles
    # Lane l of a slot reads column anchor + l, in [-bsize, n + bsize).
    # ``row_of`` holds, at index c + bsize, column c's row in the
    # sweep-ordered buffer, and the zero row n for columns outside
    # [0, n); pads get the anchor -bsize, so all their lanes read it.
    pos = np.empty(brow, dtype=np.int64)
    pos[order] = np.arange(brow)
    row_of = np.full(n + 2 * bs, n, dtype=np.int32)
    row_of[bs:bs + n] = (pos[:, None] * bs + np.arange(bs)).ravel()
    starts = np.append(matrix.anchors + bs, 0)
    # gather-ok: structure-only, built once
    lanes = row_of[starts[gather][:, None] + np.arange(bs)].ravel()
    steps = tuple((lo * bs, hi * bs, T * lo * bs, T * hi * bs,
                   lanes[T * lo * bs:T * hi * bs])
                  for lo, hi in zip(level_ptr[:-1].tolist(),
                                    level_ptr[1:].tolist()))
    return TileTable(width=T, bsize=bs, gather=gather, lanes=lanes,
                     steps=steps,
                     max_lanes=bs * int(size.max(initial=0)))


def build_sweep_schedule(matrix, dia_ptr: np.ndarray | None = None
                         ) -> SweepSchedule:
    """Build the level schedule and level programs of a DBSR matrix.

    With ``dia_ptr`` (ILU factors) the schedule carries the ``lower``
    and ``upper`` programs split at each row's diagonal tile; without
    it, the ``full`` program.
    """
    require(matrix.n_rows == matrix.n_cols,
            "sweep schedules need a square matrix")
    require(max(matrix.n_tiles, matrix.n_rows) < 2**31,
            "matrix too large for int32 sweep tables")
    level = _levels(matrix)
    order = np.argsort(level, kind="stable")
    level_ptr = np.zeros(int(level.max(initial=-1)) + 2, dtype=np.int64)
    np.cumsum(np.bincount(level, minlength=len(level_ptr) - 1),
              out=level_ptr[1:])
    blk_ptr = matrix.blk_ptr.astype(np.int64)
    if dia_ptr is None:
        return SweepSchedule(order=order, level_ptr=level_ptr,
                             full=_table(matrix, order, level_ptr,
                                         blk_ptr[:-1], blk_ptr[1:]))
    dia_ptr = np.asarray(dia_ptr, dtype=np.int64)
    require(bool(np.all(dia_ptr >= 0)),
            "every block-row needs a diagonal tile")
    return SweepSchedule(
        order=order, level_ptr=level_ptr,
        lower=_table(matrix, order, level_ptr, blk_ptr[:-1], dia_ptr),
        upper=_table(matrix, order, level_ptr, dia_ptr + 1, blk_ptr[1:]))


# Sweep bodies ---------------------------------------------------------------

def _solve(table, xs, vt, rhs, div, forward) -> None:
    """Triangular sweep into the sweep-ordered ``(n + 1, k)`` buffer.

    ``rhs`` is ``(n, k)`` and ``div`` ``(n, 1)`` (or ``None``), both in
    sweep order; each level solves
    ``x_i = (rhs_i - p0 - p1 - ...) / div_i``.
    """
    T, k = table.width, xs.shape[1]
    # Slot 0 of a level's buffer holds its RHS rows (the chain's start).
    buf = np.empty(((T + 1) * table.max_lanes, k), dtype=xs.dtype)
    take, mul, red = np.take, np.multiply, np.subtract.reduce
    for xlo, xhi, a, b, lanes in (table.steps if forward
                                  else reversed(table.steps)):
        w = xhi - xlo
        prod = buf[w:w + b - a]
        buf[:w] = rhs[xlo:xhi]
        # gather-ok: the level's x lanes
        take(xs, lanes, axis=0, out=prod, mode="clip")
        mul(vt[a:b], prod, out=prod)
        xl = xs[xlo:xhi]
        red(buf[:w + b - a].reshape(T + 1, w, k), axis=0, out=xl)
        if div is not None:
            np.divide(xl, div[xlo:xhi], out=xl)


def check_rhs_block(n: int, B: np.ndarray) -> np.ndarray:
    """Validate an ``(n, k)`` right-hand-side block (``k >= 1``)."""
    B = np.asarray(B)
    require(B.ndim == 2, "RHS block must be (n, k)")
    require(B.shape[0] == n, "RHS block has wrong length")
    require(B.shape[1] >= 1, "RHS block must have at least one column")
    return B


def check_diag(n: int, diag) -> np.ndarray:
    """Validate a length-``n`` diagonal (fast and counted sweeps)."""
    diag = np.asarray(diag)
    require(diag.shape == (n,), "diag must have length n")
    return diag


def _to_sweep(schedule, A: np.ndarray, bs: int, out: np.ndarray
              ) -> np.ndarray:
    """Copy an ``(n, k)`` block's rows into ``out`` in sweep order."""
    k = A.shape[1]
    A3, out3 = A.reshape(-1, bs, k), out.reshape(-1, bs, k)
    if A.dtype == out.dtype:
        # gather-ok: one pass per block per call
        np.take(A3, schedule.order, axis=0, out=out3, mode="clip")
    else:
        out3[:] = A3[schedule.order]  # gather-ok: one pass, with a cast
    return out


def _from_sweep(schedule, xs: np.ndarray, bs: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Scatter the sweep-ordered rows ``xs[:n]`` into the ``(n, k)``
    block ``out`` (a fresh one by default)."""
    n, k = xs.shape[0] - 1, xs.shape[1]
    if out is None:
        out = np.empty((n, k), dtype=xs.dtype)
    # One row scatter per call (the levels write slices of ``xs``).
    out.reshape(-1, bs, k)[schedule.order] = xs[:n].reshape(-1, bs, k)
    return out


def _x_buffer(schedule, n: int, bs: int, k: int, dtype,
              X: np.ndarray | None = None) -> np.ndarray:
    """A sweep-ordered ``(n + 1, k)`` buffer with its ``+0.0`` row."""
    if X is None:
        return np.zeros((n + 1, k), dtype=dtype)
    xs = np.empty((n + 1, k), dtype=dtype)
    xs[n] = 0.0
    _to_sweep(schedule, X, bs, xs[:n])
    return xs


def _diag_in_order(schedule, diag: np.ndarray, bs: int) -> np.ndarray:
    """The diagonal as an ``(n, 1)`` column in sweep order."""
    # gather-ok: the divisors, one pass per call
    return np.take(diag.reshape(-1, bs), schedule.order,
                   axis=0).reshape(-1, 1)


def sptrsv_sweep(matrix, B: np.ndarray, diag: np.ndarray | None,
                 forward: bool) -> np.ndarray:
    """Solve ``(L + D) X = B`` (forward) or ``(D + U) X = B`` over an
    ``(n, k)`` block; ``diag=None`` means a unit diagonal."""
    B = check_rhs_block(matrix.n_rows, B)
    n, k = B.shape
    bs = matrix.bsize
    sched = matrix.sweep_schedule()
    div = None if diag is None else \
        _diag_in_order(sched, check_diag(n, diag), bs)
    dtype = np.result_type(matrix.values, B)
    xs = _x_buffer(sched, n, bs, k, dtype)
    rhs = _to_sweep(sched, B, bs, np.empty((n, k), dtype=B.dtype))
    _solve(sched.full, xs, sched.full.values(matrix.values), rhs, div,
           forward)
    return _from_sweep(sched, xs, bs)


def ilu_apply_sweep(factors, B: np.ndarray) -> np.ndarray:
    """Solve ``L U Z = B`` over an ``(n, k)`` block: a forward unit-lower
    sweep over the ``lower`` program, then a backward sweep over the
    ``upper`` program dividing by each row's diagonal tile."""
    m = factors.matrix
    B = check_rhs_block(m.n_rows, B)
    n, k = B.shape
    bs = m.bsize
    sched = factors.sweep_schedule()
    dtype = np.result_type(m.values, B)
    ys = _x_buffer(sched, n, bs, k, dtype)
    rhs = _to_sweep(sched, B, bs, np.empty((n, k), dtype=B.dtype))
    _solve(sched.lower, ys, sched.lower.values(m.values), rhs, None,
           forward=True)
    # gather-ok: diagonal tiles in sweep order, once per call
    div = np.take(m.values, factors.dia_ptr[sched.order],
                  axis=0).reshape(-1, 1)
    zs = _x_buffer(sched, n, bs, k, dtype)
    _solve(sched.upper, zs, sched.upper.values(m.values), ys[:n], div,
           forward=False)
    return _from_sweep(sched, zs, bs)


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
    T = table.width
    Ds = _diag_in_order(sched, check_diag(n, diag), bs)
    xs = _x_buffer(sched, n, bs, k, np.result_type(matrix.values, X), X)
    Bs = _to_sweep(sched, B, bs, np.empty((n, k), dtype=B.dtype))
    vt = table.values(matrix.values, negate=True)
    wmax = table.max_lanes
    buf = np.empty((T * wmax, k), dtype=xs.dtype)
    acc = np.empty((wmax, k), dtype=xs.dtype)
    # The correction ``(b - rowsum) / d`` keeps the promoted dtype of
    # its operands until the add, as in the counted twin.
    cdt = np.result_type(Bs, xs, Ds)
    corr = acc if cdt == xs.dtype else np.empty((wmax, k), dtype=cdt)
    take, mul, red = np.take, np.multiply, np.subtract.reduce
    sub, div, add = np.subtract, np.divide, np.add
    for forward in directions:
        for xlo, xhi, a, b, lanes in (table.steps if forward
                                      else reversed(table.steps)):
            w = xhi - xlo
            prod = buf[:b - a]
            # gather-ok: the level's x lanes
            take(xs, lanes, axis=0, out=prod, mode="clip")
            mul(vt[a:b], prod, out=prod)
            r, c = acc[:w], corr[:w]
            red(prod.reshape(T, w, k), axis=0, out=r, initial=0.0)
            sub(Bs[xlo:xhi], r, out=c)
            div(c, Ds[xlo:xhi], out=c)
            xl = xs[xlo:xhi]
            add(xl, c, out=xl)
    _from_sweep(sched, xs, bs, X)
    return X


def spmv_sweep(matrix, X: np.ndarray) -> np.ndarray:
    """``Y = A X`` over an ``(n, k)`` block from the level program.

    SpMV has no dependencies; it still runs level by level over the
    sweep-ordered ``X`` (the program's only layout), each row summing
    its tiles as a sequential chain from ``+0.0``.
    """
    X = np.asarray(X)
    require(X.ndim == 2 and X.shape[0] == matrix.n_cols,
            "X block must be (n_cols, k)")
    n, k = X.shape
    bs = matrix.bsize
    sched = matrix.sweep_schedule()
    table = sched.full
    T = table.width
    vt = table.values(matrix.values, negate=True)
    # Widening X first is the cast the multiply would do anyway.
    xs = _x_buffer(sched, n, bs, k, np.result_type(vt, X), X)
    ys = np.empty((n + 1, k), dtype=xs.dtype)
    buf = np.empty((T * table.max_lanes, k), dtype=ys.dtype)
    take, mul, red = np.take, np.multiply, np.subtract.reduce
    for xlo, xhi, a, b, lanes in table.steps:
        prod = buf[:b - a]
        # gather-ok: the level's x lanes
        take(xs, lanes, axis=0, out=prod, mode="clip")
        mul(vt[a:b], prod, out=prod)
        red(prod.reshape(T, xhi - xlo, k), axis=0, out=ys[xlo:xhi],
            initial=0.0)
    return _from_sweep(sched, ys, bs)
