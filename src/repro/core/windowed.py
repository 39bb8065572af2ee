"""Windowed spread/interp over a wrap-padded fine grid (the non-CSR fast path).

When the stencil cache holds no sparse operator -- the point set is over the
fusion budget, or scipy is missing -- the ``cached`` backend spreads and
interpolates here, whatever the plan's spreading method (a method's GPU cost
comes from its kernel profiles, not from this numpy loop).  The engine reads
only the per-dimension ``i0`` and ``vals`` that
:func:`~repro.core.stencil.build_stencil_cache` stores, and never
materializes wrapped indices:

* the fine grid is padded by ``ceil(w/2)`` cells before and ``w`` cells after
  along every axis, so every point's ``w^d`` window is one box of the padded
  grid, addressed without ``mod``;
* **interpolation** wrap-pads the grid once per execute, gathers each point's
  window through a :func:`numpy.lib.stride_tricks.sliding_window_view` and
  contracts it one axis at a time against the per-dimension kernel values
  (``w^d -> w^(d-1) -> ... -> 1``), in the grid's own precision;
* **spreading** (the adjoint) processes points in bin-sorted chunks: the
  index of each window cell is a per-point ``base`` plus a fixed offset table,
  the weights are a staged outer product with the strength folded into the
  axis-0 factor, and one unbuffered ``np.add.at`` per chunk accumulates them
  into a complex128 padded grid.  The periodic margins are folded back once
  at the end.

The spreading accumulator is laid out with axis 0 fastest, the order the bin
sort walks its bins in, so a chunk of bin-sorted points writes a short span
of it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["spread_windowed", "interp_windowed"]

#: Window entries (points x w^d) per spreading / interpolation chunk.
_CHUNK_ENTRIES = 1 << 18


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


def _chunks(n_points, entries_per_point):
    step = max(1, _CHUNK_ENTRIES // max(1, entries_per_point))
    return range(0, n_points, step), step


def _fold_axis(a, axis, n, before):
    """Sum a padded axis back onto its ``n`` periodic cells.

    Padded index ``p`` holds fine cell ``(p - before) mod n``.  Shifting by
    ``(-before) mod n`` and zero-filling to a multiple of ``n`` turns that
    map into a reshape, so margins wider than ``n`` fold correctly too.
    """
    shift = (-before) % n
    length = a.shape[axis] + shift
    blocks = -(-length // n)
    shape = list(a.shape)
    shape[axis] = blocks * n
    full = np.zeros(shape, dtype=a.dtype)
    dest = [slice(None)] * a.ndim
    dest[axis] = slice(shift, length)
    full[tuple(dest)] = a
    shape[axis:axis + 1] = [blocks, n]
    return full.reshape(shape).sum(axis=axis)


def spread_windowed(strengths, cache, order, out):
    """Spread a ``(B, M)`` strength block into ``out`` of shape ``(B, *fine)``.

    ``order`` lists the points in the sequence to accumulate them (the bin
    sort permutation keeps each chunk's span short; any order gives the same
    sum up to rounding).  ``out`` may have any layout; it is returned.
    """
    _check_windows(cache)
    fine_shape = cache.fine_shape
    ndim = len(fine_shape)
    w = cache.width
    before, after = _padding(w)
    padded = tuple(n + before + after for n in fine_shape)
    n_trans = strengths.shape[0]

    # Flat index of window cell (r_0, ..., r_{d-1}) relative to the window's
    # first cell, axis 0 fastest; the weights below share that entry order.
    strides = np.cumprod((1,) + padded[:-1])
    offsets = np.zeros((1,) * ndim, dtype=np.int64)
    for d in range(ndim):
        shape = [1] * ndim
        shape[ndim - 1 - d] = w
        offsets = offsets + (np.arange(w, dtype=np.int64) * strides[d]).reshape(shape)
    offsets = offsets.reshape(-1)

    size = int(np.prod(padded))
    acc = np.zeros((n_trans, size), dtype=np.complex128)
    starts, step = _chunks(order.shape[0], w ** ndim)
    for start in starts:
        sel = order[start:start + step]
        m = sel.shape[0]
        base = cache.i0[0][sel] + before
        for d in range(1, ndim):
            base = base + (cache.i0[d][sel] + before) * strides[d]
        idx = (base[:, None] + offsets).reshape(-1)
        # Staged outer product of the axes 1.. factors (slowest first).
        rest = np.ones((m, 1))
        for d in range(ndim - 1, 0, -1):
            rest = (rest[:, :, None] * cache.vals[d][sel][:, None, :]).reshape(m, -1)
        v0 = cache.vals[0][sel]
        for t in range(n_trans):
            # Strength folded into the axis-0 factor; the outer product runs
            # on the float64 view of the complex factor (no complex upcast).
            first = (strengths[t, sel][:, None] * v0).view(np.float64)
            weights = np.einsum("ma,mbc->mabc", rest, first.reshape(m, w, 2))
            np.add.at(acc[t], idx, weights.view(np.complex128).reshape(-1))

    grid = acc.reshape((n_trans,) + padded[::-1])
    for d in range(ndim):
        grid = _fold_axis(grid, ndim - d, fine_shape[d], before)
    out[...] = grid.transpose((0,) + tuple(range(ndim, 0, -1)))
    return out


def interp_windowed(grids, cache, order, out):
    """Interpolate a ``(B, *fine)`` grid block into ``out`` of shape ``(B, M)``.

    ``order`` lists the points in the sequence to visit them.  The window
    gather and every contraction run in the grid's precision; ``out`` may
    have any layout and is returned.
    """
    _check_windows(cache)
    fine_shape = cache.fine_shape
    ndim = len(fine_shape)
    w = cache.width
    before, after = _padding(w)
    real_dtype = np.finfo(grids.dtype).dtype
    # C order whatever the input layout: the gathered windows must be
    # contiguous for their real view below.
    padded = np.ascontiguousarray(
        np.pad(grids, [(0, 0)] + [(before, after)] * ndim, mode="wrap"))
    windows = sliding_window_view(padded, (w,) * ndim, axis=tuple(range(1, ndim + 1)))

    starts, step = _chunks(order.shape[0], grids.shape[0] * w ** ndim)
    for start in starts:
        sel = order[start:start + step]
        corner = tuple(cache.i0[d][sel] + before for d in range(ndim))
        gathered = windows[(slice(None),) + corner]  # (B, m, w, ..., w)
        # Contract axis 0 first on the real view (trailing re/im axis), so
        # every einsum sums contiguous slabs in the grid's own precision.
        acc = gathered.view(real_dtype).reshape(gathered.shape + (2,))
        for d in range(ndim):
            vals = cache.vals[d][sel].astype(real_dtype, copy=False)
            acc = np.einsum("tmk...,mk->tm...", acc, vals)
        out[:, sel] = acc.view(grids.dtype)[..., 0]
    return out
