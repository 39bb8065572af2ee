"""Windowed spread/interp over a wrap-padded fine grid (the non-CSR fast path).

When the stencil cache holds no sparse operator -- the point set is over the
fusion budget -- the ``cached`` backend spreads and
interpolates here, whatever the plan's spreading method (a method's GPU cost
comes from its kernel profiles, not from this numpy loop).  The engine reads
only the per-dimension ``i0`` and ``vals`` that
:func:`~repro.core.stencil.build_stencil_cache` stores, and never
materializes wrapped indices.  The fine grid is padded by ``ceil(w/2)`` cells
before and ``w`` cells after along every axis, so every point's ``w^d``
window is one box of the padded grid, addressed without ``mod``.

Points take one of two regimes (d >= 2; 1D always scatters):

* **crowded windows: dense GEMM.**  Points are keyed by their axis-0 tile of
  ``_PENCIL_TILE`` padded cells and their window corner on axes 1..d-1; a
  *pencil* is the set of points sharing a key, whose windows share one
  ``w^(d-1)`` cross-section and lie within ``_PENCIL_TILE + w - 1`` cells
  along axis 0.  Pencils covering at least ``_PENCIL_MIN_ENTRIES`` window
  entries (points x ``w^d``) are spread by dense real products with the
  points as columns: ``R`` holds the outer product of each point's kernel
  values on axes 1..d-1, ``S`` its strengths times its axis-0 values, and
  every run of points with the same axis-0 offset adds one ``R @ S^T``
  (``w^(d-1) x w * B * 2``, all transforms at once) into the pencil's box,
  which is then added into the accumulator.  Interpolation is the transpose:
  each run multiplies the box's rows at its offset by ``R``, and each point
  dots its ``w`` results with its axis-0 values.
* **everything else: scatter / gather**, in chunks of the cache's last
  points, which keep their bin-sort order.  Spreading indexes each window
  cell as a per-point ``base`` plus a fixed offset table, builds the
  weights as a staged outer product with the strength folded into the
  axis-0 factor, and accumulates them with one unbuffered ``np.add.at`` per
  chunk; interpolation gathers each window through a
  :func:`numpy.lib.stride_tricks.sliding_window_view` and contracts it one
  axis at a time (``w^d -> w^(d-1) -> ... -> 1``).

The grouping depends only on the points, so
:func:`~repro.core.stencil.build_stencil_cache` makes it (:func:`group_pencils`)
before it evaluates any kernel value, and lists the points in *engine
order*: the crowded pencils' points first, pencil by pencil, then the rest
in bin-sort order.  The cache keeps every axis's values node-major,
``(w, M)``, so a pencil piece's factors are a column range of the cache's
own arrays, read in place, and the scattered points are one contiguous
tail.  :class:`Pencils` holds what else depends only on the points -- each
piece's box and runs of equal axis-0 offset -- and a plan keeps one per
point set (:meth:`~repro.core.pointset.PointSet.pencils`).  An execute
computes only what depends on the strengths; pencils too large for one
chunk are processed in pieces from one reused buffer, so the temporaries
stay bounded however the points cluster.

Spreading accumulates in complex128 and folds the periodic margins back onto
the interior in place at the end; interpolation wrap-pads the grid once per
execute and computes in the grid's own precision.  The spreading accumulator
is laid out with axis 0 fastest, the order the bin sort walks its bins in,
so a chunk of bin-sorted points writes a short span of it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["spread_windowed", "interp_windowed", "group_pencils", "Pencils"]

#: Window entries (points x w^d) per spreading / interpolation chunk; also
#: the entry bound of each dense-GEMM temporary.
_CHUNK_ENTRIES = 1 << 18
#: Axis-0 extent, in padded cells, of the tiles that key the pencils.
_PENCIL_TILE = 16
#: Window entries (points x w^d) a pencil needs to take the dense-GEMM path:
#: 96 points of a 3D width-7 window, 15 of width 13, 669 in 2D.  Below it, the
#: pencil's fixed cost (one small product per axis-0 offset) outweighs the
#: scatter / gather it saves.
_PENCIL_MIN_ENTRIES = 1 << 15


class _Piece(NamedTuple):
    """One pencil piece's point range and point-only box geometry."""

    #: The piece's points: the cache's points ``lo:hi``.
    lo: int
    hi: int
    #: The box's axis-0 start and extent, in padded cells.
    s0: int
    l0: int
    #: The box's corner on axes 1..d-1, in padded cells.
    corner: tuple
    #: ``(offset, lo, hi)`` per run of the piece's points ``lo:hi`` (relative
    #: to the piece) whose windows start ``offset`` cells past ``s0``.
    runs: tuple


def _padding(width):
    """Cells ``(before, after)`` added to every axis of the padded grid."""
    return -(-int(width) // 2), int(width)


def _check_windows(cache):
    """Raise unless every point's window lies inside the padded grid."""
    before, after = _padding(cache.width)
    for d, (i0, n) in enumerate(zip(cache.i0, cache.fine_shape)):
        if i0.size and (int(i0.min()) < -before or int(i0.max()) + cache.width > n + after):
            raise ValueError(
                f"stencil windows along axis {d} reach outside the padded grid "
                f"[{-before}, {n + after}): the cache does not match the fine "
                f"grid {cache.fine_shape}"
            )


def _step(entries_per_point):
    """Points per chunk (or pencil piece) of ``_CHUNK_ENTRIES`` entries."""
    return max(1, _CHUNK_ENTRIES // max(1, entries_per_point))


def group_pencils(i0, fine_shape, width):
    """The engine order of points whose windows start at ``i0``.

    Returns ``(order, starts)``: ``order`` lists the points of the crowded
    pencils, pencil by pencil, then every other point in input order
    (``None`` when no pencil is crowded, or in 1D: the input order);
    ``starts`` holds the ``n_pencils + 1`` boundaries of the crowded pencils
    in that order.  Points are sorted by window corner on axes 1..d-1, then
    by axis-0 start, so each pencil lists its points by axis-0 offset.
    Windows outside the padded grid give a meaningless grouping, which
    :func:`_check_windows` rejects before it is used.
    """
    m = i0[0].shape[0]
    ndim = len(fine_shape)
    before, after = _padding(width)
    no_pencils = (None, np.zeros(1, dtype=np.int64))
    if ndim == 1 or not m:
        return no_pencils
    corner = np.zeros(m, dtype=np.int64)
    for first, n in zip(i0[1:], fine_shape[1:]):
        corner = corner * (n + before + after) + (first + before)
    start0 = i0[0] + before
    extent0 = fine_shape[0] + before + after
    perm = np.argsort(corner * extent0 + start0, kind="stable")
    key = corner[perm] * extent0 + start0[perm] // _PENCIL_TILE
    bounds = np.flatnonzero(key[1:] != key[:-1]) + 1
    sizes = np.diff(np.concatenate(([0], bounds, [m])))
    crowded = sizes * width ** ndim >= _PENCIL_MIN_ENTRIES
    if not crowded.any():
        return no_pencils
    points = perm[np.repeat(crowded, sizes)]
    scatter = np.ones(m, dtype=bool)
    scatter[points] = False
    order = np.concatenate((points, np.flatnonzero(scatter)))
    return order, np.concatenate(([0], np.cumsum(sizes[crowded])))


class Pencils:
    """The engine layout of one cache, computed once per point set.

    Checks that every window lies inside the padded grid, and splits the
    cache's crowded pencils (``cache.pencil_starts``; none for a cache with a
    CSR operator, whose points all scatter) into near-equal pieces of at most
    ``step`` points with their point-only geometry, once per ``step``.
    """

    def __init__(self, cache):
        _check_windows(cache)
        self.cache = cache
        self.starts = (np.zeros(1, dtype=np.int64) if cache.pencil_starts is None
                       else cache.pencil_starts)
        self._pieces = {}

    @property
    def n_gemm(self):
        """Points on the dense-GEMM path: the cache's first ``n_gemm``."""
        return int(self.starts[-1])

    def pieces(self, step):
        """Every pencil's :class:`_Piece` list at ``<= step`` points each."""
        if step not in self._pieces:
            self._pieces[step] = [self._piece(lo, hi) for lo, hi in self._ranges(step)]
        return self._pieces[step]

    def _ranges(self, step):
        for lo, hi in zip(self.starts[:-1].tolist(), self.starts[1:].tolist()):
            pieces = -(-(hi - lo) // step)
            for k in range(pieces):
                yield lo + (hi - lo) * k // pieces, lo + (hi - lo) * (k + 1) // pieces

    def _piece(self, lo, hi):
        cache = self.cache
        before, _ = _padding(cache.width)
        start0 = cache.i0[0][lo:hi] + before
        s0 = int(start0[0])  # pencil points are sorted by axis-0 start
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(start0)) + 1, [hi - lo]))
        runs = tuple((int(start0[a]) - s0, int(a), int(b))
                     for a, b in zip(bounds[:-1], bounds[1:]))
        corner = tuple(int(cache.i0[d][lo]) + before for d in range(1, cache.ndim))
        return _Piece(lo, hi, s0, runs[-1][0] + cache.width, corner, runs)

    def scatter_chunks(self, entries_per_point):
        """The scattered points (the cache's last ones), in slices of ``_step``."""
        step = _step(entries_per_point)
        m = self.cache.n_points
        return [slice(lo, min(lo + step, m)) for lo in range(self.n_gemm, m, step)]


def _pencil_factors(cache, piece, axes, work):
    """One pencil piece's kernel factors, points as columns.

    Returns the ``(w, m)`` axis-0 kernel values, a view of ``cache.vals``,
    and ``rest``, the ``(w^(d-1), m)`` outer product of the other axes'
    values over ``axes`` (slowest first), written to the front of the flat
    buffer ``work`` in its dtype.
    """
    w = cache.width
    m = piece.hi - piece.lo
    vals0, *factors = (cache.vals[d][:, piece.lo:piece.hi] for d in (0, *axes))
    rest = work[:w ** len(factors) * m].reshape(-1, m)
    if len(factors) == 2:  # 3D (plans have at most three dimensions)
        np.multiply(factors[0][:, None], factors[1], out=rest.reshape(w, w, m))
    else:
        rest[...] = factors[0]
    return vals0, rest


def _fold_axis(a, axis, n, before):
    """Add a padded axis's periodic margins onto its ``n`` interior cells.

    Padded index ``p`` holds fine cell ``(p - before) mod n``.  Each margin is
    added in place one slab of at most ``n`` cells at a time, so margins wider
    than ``n`` fold correctly too.  Returns the interior view of ``a``.
    """
    def part(start, stop):
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, stop)
        return a[tuple(index)]

    stop = before  # leading margin, walking outwards from the interior
    while stop > 0:
        start = max(0, stop - n)
        dest = part(before + n - (stop - start), before + n)
        dest += part(start, stop)
        stop = start
    start = before + n  # trailing margin
    while start < a.shape[axis]:
        stop = min(a.shape[axis], start + n)
        dest = part(before, before + stop - start)
        dest += part(start, stop)
        start = stop
    return part(before, before + n)


def spread_windowed(strengths, cache, out, pencils=None):
    """Spread a complex ``(B, M)`` strength block into ``out`` of shape ``(B, *fine)``.

    The strengths follow the cache's point order, which is also the order
    the scattered points are accumulated in (bin-sorted points keep each
    chunk's span short; any order gives the same sum up to rounding).
    ``out`` may have any layout; it is returned.  ``pencils`` is the cache's
    :class:`Pencils`, computed here when omitted.
    """
    if pencils is None:
        pencils = Pencils(cache)
    fine_shape = cache.fine_shape
    ndim = len(fine_shape)
    w = cache.width
    before, after = _padding(w)
    padded = tuple(n + before + after for n in fine_shape)
    n_trans = strengths.shape[0]
    size = int(np.prod(padded))
    acc = np.zeros((n_trans, size), dtype=np.complex128)
    grid = acc.reshape((n_trans,) + padded[::-1])

    # Crowded windows: one dense product per pencil piece into its box.
    # Per point of a piece: its ``rest`` column and its ``scaled`` column.
    per_point = w ** (ndim - 1) + w * n_trans * 2
    step = _step(per_point)
    work = np.empty(step * per_point)  # reused by every piece
    # Each piece reads its strengths' columns through this real view (the
    # points' axis must be contiguous, as the backend's gathered block is).
    parts = strengths.view(np.finfo(strengths.dtype).dtype)
    for piece in pencils.pieces(step):
        vals0, rest = _pencil_factors(cache, piece, range(ndim - 1, 0, -1), work)
        m = piece.hi - piece.lo
        c = parts[:, 2 * piece.lo:2 * piece.hi].reshape(n_trans, m, 2)
        # Rows (r_0, t, re/im): strength t of each point times its axis-0 values.
        scaled = work[rest.size:rest.size + w * n_trans * 2 * m].reshape(-1, m)
        np.multiply(vals0[:, None, None, :], c.transpose(0, 2, 1),
                    out=scaled.reshape(w, n_trans, 2, m))
        block = np.zeros((w ** (ndim - 1), piece.l0, n_trans), dtype=np.complex128)
        for offset, lo, hi in piece.runs:
            block[:, offset:offset + w] += (rest[:, lo:hi] @ scaled[:, lo:hi].T).view(
                np.complex128).reshape(-1, w, n_trans)
        box = (slice(None),) + tuple(slice(i, i + w) for i in piece.corner[::-1])
        grid[box + (slice(piece.s0, piece.s0 + piece.l0),)] += block.reshape(
            (w,) * (ndim - 1) + (piece.l0, n_trans)).transpose(ndim, *range(ndim))

    # Everything else: chunked scatter.  Flat index of window cell
    # (r_0, ..., r_{d-1}) relative to the window's first cell, axis 0
    # fastest; the weights below share that entry order.
    strides = np.cumprod((1,) + padded[:-1])
    offsets = np.zeros((1,) * ndim, dtype=np.int64)
    for d in range(ndim):
        shape = [1] * ndim
        shape[ndim - 1 - d] = w
        offsets = offsets + (np.arange(w, dtype=np.int64) * strides[d]).reshape(shape)
    offsets = offsets.reshape(-1)
    for sel in pencils.scatter_chunks(w ** ndim):
        base = cache.i0[0][sel] + before
        m = base.shape[0]
        for d in range(1, ndim):
            base = base + (cache.i0[d][sel] + before) * strides[d]
        idx = (base[:, None] + offsets).reshape(-1)
        # Staged outer product of the axes 1.. factors (slowest first).
        rest = np.ones((m, 1))
        for d in range(ndim - 1, 0, -1):
            rest = (rest[:, :, None] * cache.vals[d][:, sel].T[:, None, :]).reshape(m, -1)
        v0 = cache.vals[0][:, sel].T
        for t in range(n_trans):
            # Strength folded into the axis-0 factor; the outer product runs
            # on the float64 view of the complex factor (no complex upcast).
            first = np.multiply(strengths[t, sel][:, None], v0, order="C")
            weights = np.einsum("ma,mbc->mabc", rest,
                                first.view(np.float64).reshape(m, w, 2))
            np.add.at(acc[t], idx, weights.view(np.complex128).reshape(-1))

    for d in range(ndim):
        grid = _fold_axis(grid, ndim - d, fine_shape[d], before)
    out[...] = grid.transpose((0,) + tuple(range(ndim, 0, -1)))
    return out


def interp_windowed(grids, cache, out, pencils=None):
    """Interpolate a ``(B, *fine)`` grid block into ``out`` of shape ``(B, M)``.

    ``out`` follows the cache's point order, which is also the order the
    gathered points are visited in.  Every product and contraction runs in
    the grid's precision; ``out`` may have any layout and is returned.
    ``pencils`` is as for :func:`spread_windowed`.
    """
    if pencils is None:
        pencils = Pencils(cache)
    fine_shape = cache.fine_shape
    ndim = len(fine_shape)
    w = cache.width
    before, after = _padding(w)
    n_trans = grids.shape[0]
    real_dtype = np.finfo(grids.dtype).dtype
    # C order whatever the input layout: the gathered windows must be
    # contiguous for their real view below.
    padded = np.ascontiguousarray(
        np.pad(grids, [(0, 0)] + [(before, after)] * ndim, mode="wrap"))

    # Crowded windows: the transposed product per pencil piece.
    # Per point of a piece: its ``rest`` column and its ``q`` column.
    rows = n_trans * 2
    per_point = w ** (ndim - 1) + w * rows
    step = _step(per_point)
    work = np.empty(step * per_point, dtype=real_dtype)  # reused by every piece
    for piece in pencils.pieces(step):
        vals0, rest = _pencil_factors(cache, piece, range(1, ndim), work)
        m, l0 = piece.hi - piece.lo, piece.l0
        box = padded[(slice(None), slice(piece.s0, piece.s0 + l0))
                     + tuple(slice(i, i + w) for i in piece.corner)].reshape(n_trans, l0, -1)
        # Rows (r_0, t, re/im), one column per cross-section cell.
        box = box.view(real_dtype).reshape(n_trans, l0, -1, 2).transpose(1, 0, 3, 2)
        box = np.ascontiguousarray(box).reshape(l0 * n_trans * 2, -1)
        q = work[rest.size:rest.size + w * rows * m].reshape(-1, m)
        for offset, lo, hi in piece.runs:
            q[:, lo:hi] = box[offset * rows:(offset + w) * rows] @ rest[:, lo:hi]
        values = np.einsum("ktcm,km->tcm", q.reshape(w, n_trans, 2, m),
                           vals0.astype(real_dtype, copy=False))
        out[:, piece.lo:piece.hi] = np.ascontiguousarray(values.transpose(0, 2, 1)).view(
            grids.dtype)[..., 0]

    # Everything else: chunked window gather.
    windows = sliding_window_view(padded, (w,) * ndim, axis=tuple(range(1, ndim + 1)))
    for sel in pencils.scatter_chunks(n_trans * w ** ndim):
        corner = tuple(cache.i0[d][sel] + before for d in range(ndim))
        gathered = windows[(slice(None),) + corner]  # (B, m, w, ..., w)
        # Contract axis 0 first on the real view (trailing re/im axis), so
        # every einsum sums contiguous slabs in the grid's own precision.
        acc = gathered.view(real_dtype).reshape(gathered.shape + (2,))
        for d in range(ndim):
            vals = cache.vals[d][:, sel].astype(real_dtype, copy=False)
            acc = np.einsum("tmk...,km->tm...", acc, vals)
        out[:, sel] = acc.view(grids.dtype)[..., 0]
    return out
