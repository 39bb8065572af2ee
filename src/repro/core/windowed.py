"""Windowed spread/interp over a wrap-padded fine grid (the non-CSR fast path).

When the stencil cache holds no sparse operator -- the point set is over the
fusion budget, or a one-shot simple call skips it -- the ``cached`` backend
spreads and interpolates here, whatever the plan's spreading method (a
method's GPU cost comes from its kernel profiles, not from this numpy loop).
The engine reads only the per-dimension ``i0`` and ``vals`` that
:func:`~repro.core.stencil.build_stencil_cache` stores, and never
materializes wrapped indices.  The fine grid is padded by ``ceil(w/2)`` cells
before and ``w`` cells after along every axis, so every point's ``w^d``
window is one box of the padded grid, addressed without ``mod``.

Points take one of two regimes (d >= 2; 1D scatters and gathers per point):

* **crowded windows: pencil GEMM.**  Points are keyed by their axis-0 tile
  of ``_PENCIL_TILE`` padded cells and their window corner on axes 1..d-1; a
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
* **everything else: tile GEMM** to spread, the host analogue of the paper's
  shared-memory subproblems.  The points are grouped by a tile of ``_TILE``
  padded cells on every axis, whose windows all lie in the tile's box of
  ``L = _TILE + w - 1`` cells per axis.  A box is one dense real product:
  ``R`` places each point's outer product of axes 1..d-1 values at its
  offset in the box's ``L^(d-1)`` cross-section, ``S`` its axis-0 values
  times its strengths at its axis-0 offset (``L * B * 2`` rows), and
  ``R @ S^T`` is the box, which one unbuffered ``np.add.at`` per transform
  overlap-adds into the accumulator.  Batches of tiles run as one stacked
  product from two reused buffers, in the strengths' precision (float32 for
  single-precision plans).  Interpolation gathers each window through a
  :func:`numpy.lib.stride_tricks.sliding_window_view` and contracts it one
  axis at a time (``w^d -> w^(d-1) -> ... -> 1``).

The grouping depends only on the points, so
:func:`~repro.core.stencil.build_stencil_cache` makes it (:func:`engine_order`)
before it evaluates any kernel value, and lists the points in *engine
order*: the crowded pencils' points first, pencil by pencil, then the rest
tile by tile.  The cache keeps every axis's values node-major, ``(w, M)``,
so a pencil piece's factors and a tile batch's values are column ranges of
the cache's own arrays, read in place.  :class:`Pencils` holds what else
depends only on the points -- each pencil piece's box and runs of equal
axis-0 offset, each tile piece's box -- and a plan keeps one per point set
(:meth:`~repro.core.pointset.PointSet.pencils`).  An execute computes only
what depends on the strengths; pencils and tiles too large for one chunk are
processed in pieces, so the temporaries stay bounded however the points
cluster.

Spreading accumulates in complex128 and folds the periodic margins back onto
the interior in place at the end; interpolation wrap-pads the grid once per
execute and computes in the grid's own precision.  The spreading accumulator
is laid out with axis 0 fastest, the order the tiles are listed in, so a
batch of tiles writes a short span of it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["spread_windowed", "interp_windowed", "engine_order", "tiles_pay", "Pencils"]

#: Window entries (points x w^d) per gather (and 1D scatter) chunk; also the
#: entry bound of each dense-GEMM temporary and of each tile batch.
_CHUNK_ENTRIES = 1 << 18
#: Axis-0 extent, in padded cells, of the tiles that key the pencils.
_PENCIL_TILE = 16
#: Window entries (points x w^d) a pencil needs to take the dense-GEMM path:
#: 96 points of a 3D width-7 window, 15 of width 13, 669 in 2D.  Below it, the
#: pencil's fixed cost (one small product per axis-0 offset) outweighs the
#: tile product it saves.
_PENCIL_MIN_ENTRIES = 1 << 15
#: Edge, in padded cells on every axis, of the tiles that group the other
#: points.  It divides ``_PENCIL_TILE``, so a pencil's points lie in
#: ``_PENCIL_TILE // _TILE`` tiles.
_TILE = 8
#: Points per tile piece: a fuller tile is split into near-equal pieces.
_TILE_POINTS = 256
#: How many times the points' window entries must cover the tiles' boxes
#: for the tile regime to beat an operator built for one spread (see
#: :func:`tiles_pay`).
_TILE_COVER = 4


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


def _check_windows(i0, fine_shape, width):
    """Raise unless every window starting at ``i0`` lies inside the padded grid."""
    before, after = _padding(width)
    for d, (first, n) in enumerate(zip(i0, fine_shape)):
        if first.size and (int(first.min()) < -before or int(first.max()) + width > n + after):
            raise ValueError(
                f"stencil windows along axis {d} reach outside the padded grid "
                f"[{-before}, {n + after}): the cache does not match the fine "
                f"grid {tuple(fine_shape)}"
            )


def _step(entries_per_point):
    """Points per chunk (or pencil piece) of ``_CHUNK_ENTRIES`` entries."""
    return max(1, _CHUNK_ENTRIES // max(1, entries_per_point))


def _tiles_per_axis(fine_shape, width):
    """Tiles per axis that hold every window inside the padded grid."""
    before, _ = _padding(width)
    return [(int(n) + before) // _TILE + 1 for n in fine_shape]


def tiles_pay(n_points, fine_shape, width):
    """Whether the tile regime spreads ``n_points`` points faster than a CSR
    operator built for one spread.

    Through the operator a point costs its ``w^d`` window entries, built
    once and read once; a tile piece costs its whole box of
    ``(_TILE + w - 1)^d`` cells however few points it holds.  The tiles pay
    once the points' window entries cover the boxes of all the grid's tiles
    ``_TILE_COVER`` times.  Clustering only helps: fewer tiles then hold
    points.  (1D has no tiles.)

    Examples
    --------
    >>> from repro.core.windowed import tiles_pay
    >>> tiles_pay(65536, (256, 256), 7)  # about 60 points a tile
    True
    >>> tiles_pay(4096, (512, 512), 7)  # about one
    False
    """
    ndim = len(fine_shape)
    if ndim == 1:
        return False
    tiles = int(np.prod(_tiles_per_axis(fine_shape, width)))
    return n_points * width ** ndim >= _TILE_COVER * tiles * (_TILE + width - 1) ** ndim


def _tile_keys(i0, fine_shape, width):
    """Each point's tile, as a flat index with axis 0 fastest.

    A window starting at padded cell ``s`` lies in tile ``s // _TILE`` (a
    shift: ``_TILE`` is a power of two).  The keys are 16-bit when at most
    2^16 tiles exist, where a stable sort of them is a radix sort.  The
    windows must lie inside the padded grid.
    """
    before, _ = _padding(width)
    shift = _TILE.bit_length() - 1
    per_axis = _tiles_per_axis(fine_shape, width)
    small = np.prod(per_axis) <= 1 << 16
    # In place, in the narrowest dtypes: fresh pages cost more than the passes.
    key = np.zeros(i0[0].shape[0], dtype=np.uint16 if small else np.int64)
    part = np.empty(key.shape[0], dtype=np.int32 if small else np.int64)
    for first, n in zip(i0[::-1], per_axis[::-1]):
        np.add(first, before, out=part, casting="unsafe")
        part >>= shift
        key *= n
        np.add(key, part, out=key, casting="unsafe")
    return key




def _crowded_pencils(i0, fine_shape, width):
    """The points of the crowded pencils, pencil by pencil, and their bounds.

    Points are sorted by window corner on axes 1..d-1, then by axis-0
    start, so each pencil lists its points by axis-0 offset.
    """
    m = i0[0].shape[0]
    ndim = len(fine_shape)
    before, after = _padding(width)
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
    return (perm[np.repeat(crowded, sizes)],
            np.concatenate(([0], np.cumsum(sizes[crowded]))))


def engine_order(i0, fine_shape, width):
    """The engine order of points whose windows start at ``i0``.

    Returns ``(order, starts, tile_starts, tile_keys)``: ``order`` lists the
    points of the crowded pencils, pencil by pencil, then every other point
    tile by tile (axis 0 fastest), in input order within a tile; ``starts``
    holds the ``n_pencils + 1`` boundaries of the crowded pencils in that
    order, ``tile_starts`` the ``n_runs + 1`` boundaries of the runs of
    other points in one tile, and ``tile_keys`` each run's tile.  In 1D, or
    without points, ``order`` and the tile runs are ``None``.  A crowded
    pencil's points lie in ``_PENCIL_TILE // _TILE`` tiles, so when no tile
    holds that share of a crowded pencil's points, none can exist and the
    pencil grouping (a sort of every point) is skipped.  Windows outside
    the padded grid have no tile: in d >= 2 they raise ``ValueError``.
    """
    starts = np.zeros(1, dtype=np.int64)
    if len(fine_shape) == 1 or not i0[0].shape[0]:
        return None, starts, None, None
    _check_windows(i0, fine_shape, width)
    key = _tile_keys(i0, fine_shape, width)
    most = int(np.bincount(key).max())
    points = None
    if (_PENCIL_TILE // _TILE) * most * width ** len(fine_shape) >= _PENCIL_MIN_ENTRIES:
        points, starts = _crowded_pencils(i0, fine_shape, width)
    if points is not None and points.size:
        rest = np.ones(key.shape[0], dtype=bool)
        rest[points] = False
        rest = np.flatnonzero(rest)
        rest = rest[np.argsort(key[rest], kind="stable")]
        order = np.concatenate((points, rest))
    else:
        rest = order = np.argsort(key, kind="stable")
    key = key[rest]
    first = np.ones(key.shape[0], dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    runs = np.flatnonzero(first)
    return (order, starts, np.append(runs, key.shape[0]) + starts[-1],
            key[runs].astype(np.int64))


class _Tiles(NamedTuple):
    """The tile pieces of a cache's non-pencil points (d >= 2)."""

    #: The ``n_pieces + 1`` piece boundaries, in cache point indices.
    bounds: np.ndarray
    #: Flat accumulator index of each piece's box corner.
    base: np.ndarray
    #: The accumulator's extent per axis: the padded grid's, grown to hold
    #: the box of every tile.
    extent: tuple


class Pencils:
    """The engine layout of one cache, computed once per point set.

    Checks that every window lies inside the padded grid, and splits the
    cache's crowded pencils (``cache.pencil_starts``; none for a cache with a
    CSR operator) into near-equal pieces of at most ``step`` points with
    their point-only geometry, once per ``step``.  In d >= 2 the other points
    are split into tile pieces (:meth:`tiles`) along the cache's tile runs.
    """

    def __init__(self, cache):
        _check_windows(cache.i0, cache.fine_shape, cache.width)
        self.cache = cache
        self.starts = (np.zeros(1, dtype=np.int64) if cache.pencil_starts is None
                       else cache.pencil_starts)
        self._pieces = {}
        self._tiles = None
        self._batches = {}

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
        """The non-pencil points (the cache's last ones), in slices of ``_step``."""
        step = _step(entries_per_point)
        m = self.cache.n_points
        return [slice(lo, min(lo + step, m)) for lo in range(self.n_gemm, m, step)]

    def tiles(self):
        """The :class:`_Tiles` of the non-pencil points.

        A piece is a run of consecutive points in one tile, at most
        ``_TILE_POINTS`` of them: a longer run is split into near-equal
        pieces.
        """
        if self._tiles is None:
            cache = self.cache
            bounds = cache.tile_starts
            sizes = np.diff(bounds)
            pieces = -(-sizes // _TILE_POINTS)
            k = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
            starts = (np.repeat(bounds[:-1], pieces)
                      + np.repeat(sizes, pieces) * k // np.repeat(pieces, pieces))
            per_axis = _tiles_per_axis(cache.fine_shape, cache.width)
            extent = tuple(n * _TILE + cache.width - 1 for n in per_axis)
            tile = np.repeat(cache.tile_keys, pieces)
            base, stride = np.zeros(starts.shape[0], np.int64), 1
            for n, e in zip(per_axis, extent):
                base += tile % n * _TILE * stride
                tile = tile // n
                stride *= e
            self._tiles = _Tiles(np.append(starts, bounds[-1]), base, extent)
        return self._tiles

    def tile_batches(self, per_point, per_piece):
        """Consecutive tile pieces ``(a, b, slots)`` to multiply as one batch.

        Each piece of a batch takes ``slots`` (its largest piece's size)
        columns of ``per_point`` entries, plus ``per_piece`` entries of box;
        a batch holds as many pieces as fit ``_CHUNK_ENTRIES``, and at least
        one.
        """
        if (per_point, per_piece) not in self._batches:
            sizes = np.diff(self.tiles().bounds)
            most = max(1, _CHUNK_ENTRIES // per_piece)
            batches, a = [], 0
            while a < sizes.shape[0]:
                ahead = sizes[a:a + most]
                cost = ((np.maximum.accumulate(ahead) * per_point + per_piece)
                        * np.arange(1, ahead.shape[0] + 1))
                b = a + max(1, int(np.searchsorted(cost, _CHUNK_ENTRIES, side="right")))
                batches.append((a, b, int(sizes[a:b].max())))
                a = b
            self._batches[per_point, per_piece] = batches
        return self._batches[per_point, per_piece]


def _pencil_factors(cache, lo, hi, axes, work):
    """The kernel factors of the cache's points ``lo:hi``, points as columns.

    Returns the ``(w, m)`` axis-0 kernel values, a view of ``cache.vals``,
    and ``rest``, the ``(w^(d-1), m)`` outer product of the other axes'
    values over ``axes`` (slowest first), written to the front of the flat
    buffer ``work`` in its dtype.
    """
    w = cache.width
    m = hi - lo
    vals0, *factors = (cache.vals[d][:, lo:hi] for d in (0, *axes))
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

    ``cache`` is one built without the CSR operator, which carries the
    engine layout (:func:`engine_order`); the strengths follow its point
    order, the order the tiles are accumulated in.  ``out`` may have any
    layout; it is returned.  ``pencils`` is the cache's :class:`Pencils`,
    computed here when omitted.
    """
    if pencils is None:
        pencils = Pencils(cache)
    fine_shape = cache.fine_shape
    ndim = len(fine_shape)
    w = cache.width
    before, after = _padding(w)
    padded = tuple(n + before + after for n in fine_shape)
    tiles = ndim > 1 and pencils.n_gemm < cache.n_points
    if tiles:
        padded = pencils.tiles().extent
    n_trans = strengths.shape[0]
    acc = np.zeros((n_trans, int(np.prod(padded))), dtype=np.complex128)
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
        vals0, rest = _pencil_factors(cache, piece.lo, piece.hi, range(ndim - 1, 0, -1),
                                      work)
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

    if tiles:
        _spread_tiles(parts.reshape(n_trans, -1, 2), cache, pencils, acc)
    elif ndim == 1:
        # Per-point scatter: each window is ``w`` consecutive cells.
        offsets = np.arange(w)
        for sel in pencils.scatter_chunks(w):
            idx = (cache.i0[0][sel] + before)[:, None] + offsets
            v0 = cache.vals[0][:, sel].T
            for t in range(n_trans):
                np.add.at(acc[t], idx.reshape(-1),
                          np.multiply(strengths[t, sel][:, None], v0).reshape(-1))

    for d in range(ndim):
        grid = _fold_axis(grid, ndim - d, fine_shape[d], before)
    out[...] = grid.transpose((0,) + tuple(range(ndim, 0, -1)))
    return out


def _spread_tiles(parts, cache, pencils, acc):
    """Add the tile pieces' boxes into the flat ``(B, cells)`` accumulator ``acc``.

    ``parts`` is the real ``(B, M, 2)`` view of the strengths, whose dtype
    every product runs in.  A batch of ``n`` pieces gives each piece
    ``slots`` columns of ``R`` (``L^(d-1)`` rows) and ``S`` (``L * B * 2``
    rows, ``(l_0, t, re/im)``): a piece's ``j``-th point fills column ``j``
    of both, ``R`` with the outer product of its axes 1..d-1 values at its
    offsets in the box cross-section, ``S`` with its strengths times its
    axis-0 values at its axis-0 offset, and every other entry is zero.
    ``R @ S^T`` over a piece's columns is its box.
    """
    w, ndim = cache.width, cache.ndim
    n_trans = parts.shape[0]
    real = parts.dtype
    before, _ = _padding(w)
    side = _TILE + w - 1
    cross = side ** (ndim - 1)
    tiles = pencils.tiles()
    batches = pencils.tile_batches(cross + side * n_trans * 2, cross * side * n_trans * 2)
    # Flat offsets of the box cells in the accumulator.
    cells, stride = np.zeros(1, dtype=np.int64), np.cumprod((1,) + tiles.extent[:-1])
    for d in range(ndim - 1, -1, -1):
        cells = (cells[:, None] + np.arange(side) * stride[d]).reshape(-1)

    # Buffers of the widest batch; a batch uses their first ``n * slots``
    # columns, and each point writes its windows through window views.
    columns = max((b - a) * slots for a, b, slots in batches)
    r = np.empty((side,) * (ndim - 1) + (columns,), dtype=real)
    s = np.empty((side, n_trans * 2, columns), dtype=real)
    r_windows = sliding_window_view(r, (w,) * (ndim - 1), axis=tuple(range(ndim - 1)),
                                    writeable=True)
    s_windows = sliding_window_view(s, w, axis=0, writeable=True)
    points = int(np.diff(tiles.bounds[[a for a, _, _ in batches] + [len(tiles.base)]]).max())
    work = np.empty(points * w * (1 + n_trans * 2 + (ndim - 2) * w), dtype=real)
    for a, b, slots in batches:
        n, cols = b - a, (b - a) * slots
        lo, hi = int(tiles.bounds[a]), int(tiles.bounds[b])
        m = hi - lo
        # Each point's column: its piece's first plus its rank in the piece.
        col = np.arange(lo, hi) - np.repeat(tiles.bounds[a:b] - np.arange(0, cols, slots),
                                            np.diff(tiles.bounds[a:b + 1]))
        # Each point's window start in its tile's box, per axis, slowest
        # first (``_TILE`` is a power of two).
        offset = [(cache.i0[d][lo:hi] + before) & (_TILE - 1) for d in range(ndim - 1, -1, -1)]

        r[..., :cols] = 0
        s[..., :cols] = 0
        # Axis-0 values in the buffers' dtype, and each S window's rows
        # (r_0, t, re/im): the strengths times them.
        v0 = work[:w * m].reshape(w, m)
        v0[...] = cache.vals[0][:, lo:hi]
        scaled = work[w * m:w * m * (1 + n_trans * 2)].reshape(w, n_trans * 2, m)
        np.multiply(v0[:, None, :],
                    np.ascontiguousarray(parts[:, lo:hi].transpose(0, 2, 1)).reshape(-1, m),
                    out=scaled)
        s_windows[offset[-1], :, col] = scaled.transpose(2, 1, 0)
        if ndim == 2:  # the axis-1 values, read in place
            rest = cache.vals[1][:, lo:hi]
        else:
            _, rest = _pencil_factors(cache, lo, hi, (2, 1), work[scaled.size + v0.size:])
        r_windows[(*offset[:-1], col)] = np.moveaxis(
            rest.reshape((w,) * (ndim - 1) + (m,)), -1, 0)
        # Piece k's columns of R and S, as stacked matrices.
        box = np.matmul(r.reshape(cross, columns)[:, :cols].reshape(cross, n, slots)
                        .transpose(1, 0, 2),
                        s.reshape(-1, columns)[:, :cols].reshape(-1, n, slots)
                        .transpose(1, 2, 0))
        box = box.reshape(n, cross * side, n_trans, 2)
        at = (tiles.base[a:b, None] + cells).reshape(-1)
        for t in range(n_trans):
            np.add.at(acc[t], at, np.ascontiguousarray(box[:, :, t], dtype=np.float64)
                      .view(np.complex128).reshape(-1))


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
        vals0, rest = _pencil_factors(cache, piece.lo, piece.hi, range(1, ndim), work)
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
