"""Slab decomposition of the fine grid for distributed spreading/interpolation.

The multi-node NUFFT (:mod:`repro.cluster.distributed`) partitions the fine
grid into contiguous *slabs* along axis 0, one per rank.  Each rank owns the
nonuniform points whose axis-0 grid cell falls inside its slab, spreads them
onto a *padded* local slab (the kernel of width ``w`` reaches at most
``w//2`` rows below and ``(w+1)//2`` rows above a point's cell), and the pad
rows -- contributions that belong to neighbouring slabs, with periodic wrap
-- are what the halo exchange ships.

This module holds the rank-agnostic geometry and the exact halo accounting,
in plain host-side NumPy.  The ranks spread and interpolate through the
single-node plan engine, each over a :class:`~repro.core.pointset.PointSet`
on its padded slab (:meth:`repro.cluster.DistributedPlan.set_pts`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "slab_partition",
    "slab_owner",
    "halo_pads",
    "padded_slab_shape",
    "partition_points_by_slab",
    "halo_row_map",
    "analytic_halo_bytes",
]


def slab_partition(n, n_ranks):
    """Balanced contiguous partition of ``n`` rows into ``n_ranks`` slabs.

    Returns a list of ``(start, stop)`` half-open row ranges, the first
    ``n % n_ranks`` slabs one row taller.  Slabs may be empty (``start ==
    stop``) when ``n_ranks > n``; empty slabs own no rows and no points.
    """
    n = int(n)
    n_ranks = int(n_ranks)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    base, rem = divmod(n, n_ranks)
    slabs = []
    start = 0
    for r in range(n_ranks):
        height = base + (1 if r < rem else 0)
        slabs.append((start, start + height))
        start += height
    return slabs


def slab_owner(row, slabs):
    """Rank owning global row ``row`` under the ``slabs`` partition."""
    for r, (start, stop) in enumerate(slabs):
        if start <= row < stop:
            return r
    raise ValueError(f"row {row} outside the partitioned range")


def halo_pads(width):
    """Rows of halo padding ``(pad_lo, pad_hi)`` for a kernel of width ``w``.

    A point in cell ``i`` touches rows ``ceil(g - w/2) .. ceil(g - w/2)+w-1``
    with ``g in [i, i+1)``, i.e. at most ``w//2`` rows below the slab start
    and ``(w+1)//2 - 1`` rows past its last row -- the exact extents, so the
    halo volume formula is tight, not an upper bound.
    """
    width = int(width)
    if width < 1:
        raise ValueError(f"kernel width must be >= 1, got {width}")
    return width // 2, (width + 1) // 2


def padded_slab_shape(fine_shape, slab, width, n_trans=1):
    """Shape of one rank's padded local slab block, ``n_trans`` leading."""
    start, stop = slab
    pad_lo, pad_hi = halo_pads(width)
    return (int(n_trans), pad_lo + (stop - start) + pad_hi) + tuple(fine_shape[1:])


def partition_points_by_slab(grid_coords, fine_shape, slabs):
    """Index arrays of the points each slab owns (by axis-0 grid cell).

    Ownership follows the bin-sort convention: the cell of a point is
    ``floor(g0)`` clipped into ``[0, n0 - 1]``, so points exactly on a slab
    boundary belong to the slab *starting* there, deterministically.
    Returns a list of int64 index arrays, one per slab, preserving the
    original point order within each slab (concatenating them is a
    permutation of ``arange(M)``).
    """
    n0 = int(fine_shape[0])
    cell = np.floor(np.asarray(grid_coords[0], dtype=np.float64)).astype(np.int64)
    np.clip(cell, 0, n0 - 1, out=cell)
    owners = np.empty(cell.shape[0], dtype=np.int64)
    owners.fill(-1)
    for r, (start, stop) in enumerate(slabs):
        if start < stop:
            owners[(cell >= start) & (cell < stop)] = r
    if np.any(owners < 0):
        raise AssertionError("a point's grid cell fell outside every slab")
    return [np.nonzero(owners == r)[0] for r in range(len(slabs))]


def halo_row_map(fine_shape, slabs, rank, width):
    """Destination of every padded row of ``rank``'s slab block.

    Returns ``(global_rows, owners)``: for padded row ``i`` of the rank's
    block, ``global_rows[i]`` is the fine-grid row it aliases (periodic
    wrap) and ``owners[i]`` the rank owning that row.  Rows owned by
    ``rank`` itself (the slab interior, plus wrapped pads on small rank
    counts) never travel over the interconnect.
    """
    n0 = int(fine_shape[0])
    start, stop = slabs[rank]
    pad_lo, pad_hi = halo_pads(width)
    height = pad_lo + (stop - start) + pad_hi
    global_rows = np.mod(np.arange(start - pad_lo, start - pad_lo + height,
                                   dtype=np.int64), n0)
    owners = np.array([slab_owner(int(g), slabs) for g in global_rows],
                      dtype=np.int64)
    return global_rows, owners


def analytic_halo_bytes(fine_shape, n_ranks, width, itemsize, n_trans=1):
    """Exact bytes one halo exchange moves between *distinct* ranks.

    Every non-empty slab exports each padded row whose owning rank differs
    from itself -- ``pad_lo + pad_hi = width`` rows per rank, minus the rows
    the periodic wrap maps back onto the exporter (all of them when
    ``n_ranks == 1``).  One row is ``prod(fine_shape[1:]) * n_trans *
    itemsize`` bytes.  This is the formula the accounting tests pin the
    measured :attr:`~repro.cluster.distributed.DistributedPlan.halo_bytes`
    against, exactly.
    """
    slabs = slab_partition(fine_shape[0], n_ranks)
    row_bytes = int(np.prod(fine_shape[1:], dtype=np.int64)) * int(n_trans) * int(itemsize)
    total = 0
    for r, (start, stop) in enumerate(slabs):
        if start == stop:
            continue
        _rows, owners = halo_row_map(fine_shape, slabs, r, width)
        total += int(np.count_nonzero(owners != r)) * row_bytes
    return total
