"""Bin-sorting of nonuniform points and subproblem construction.

This module implements the precomputation shared by the GM-sort and SM
methods (paper Sec. III-A):

1. fold each nonuniform coordinate into the periodic box and convert to
   fine-grid units;
2. assign each point to a rectangular/cuboid *bin* of the fine grid
   (default 32x32 in 2D, 16x16x2 in 3D), bins ordered with the x axis fast;
3. build the permutation ``t`` that lists the points of bin 0, then bin 1,
   etc. (a counting sort);
4. for the SM method, split every bin's point list into *subproblems* of at
   most ``Msub`` points (blocked input-driven load balancing).

The functions also produce :class:`~repro.gpu.profiler.KernelProfile` records
for the setup kernels so the cost model can price the "total" vs "exec"
difference the paper reports; :func:`setup_kernel_profiles` is the one list
of them that executed plans and the paper-scale model both record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.profiler import KernelProfile
from .options import SpreadMethod

__all__ = [
    "fold_coordinates",
    "to_grid_coordinates",
    "compute_bin_index",
    "BinSort",
    "bin_sort",
    "SpreadStats",
    "Subproblems",
    "make_subproblems",
    "estimate_subproblem_count",
    "binsort_kernel_profiles",
    "setup_kernel_profiles",
]

TWO_PI = 2.0 * np.pi


def fold_coordinates(x):
    """Fold coordinates into ``[0, 2*pi)``.

    Input points live in ``[-pi, pi)`` by the paper's convention, but any real
    values are accepted (the transform is 2*pi-periodic).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and -np.pi <= x.min() and x.max() < np.pi:
        # The convention's range, where ``np.mod`` adds 2*pi to the negatives
        # and keeps the rest, turning ``-0.0`` into ``+0.0``: adding 2*pi or
        # 0.0 does exactly that, bit for bit, without ``np.mod``'s division
        # or a data-dependent branch per point (about 20x faster).
        folded = np.multiply(x < 0.0, TWO_PI)
        folded += x
    else:
        folded = np.mod(x, TWO_PI)
    # Guard against folded == 2*pi from roundoff of tiny negative values.
    folded[folded >= TWO_PI] = 0.0
    return folded


def to_grid_coordinates(x, n_fine):
    """Convert periodic coordinates to fine-grid units in ``[0, n_fine)``."""
    if n_fine < 1:
        raise ValueError(f"n_fine must be >= 1, got {n_fine}")
    gx = fold_coordinates(x) * (n_fine / TWO_PI)
    # Roundoff can produce gx == n_fine; wrap it.
    gx[gx >= n_fine] = 0.0
    return gx


def _bin_index_and_cells(grid_coords, fine_shape, bin_shape):
    """:func:`compute_bin_index`, plus each point's fine-grid cell per
    dimension (floored, clipped to the grid), which the occupied-cell count
    of :func:`bin_sort` reuses."""
    ndim = len(fine_shape)
    if len(grid_coords) != ndim or len(bin_shape) != ndim:
        raise ValueError("grid_coords, fine_shape and bin_shape must have equal length")
    bins_per_dim = tuple(-(-int(n) // int(m)) for n, m in zip(fine_shape, bin_shape))

    cells = []
    bin_index = None
    stride = 1
    for d in range(ndim):
        cell = np.floor(grid_coords[d]).astype(np.int64)
        np.clip(cell, 0, fine_shape[d] - 1, out=cell)
        cells.append(cell)
        b = cell // int(bin_shape[d])
        contribution = b * stride
        bin_index = contribution if bin_index is None else bin_index + contribution
        stride *= bins_per_dim[d]
    return bin_index, bins_per_dim, cells


def compute_bin_index(grid_coords, fine_shape, bin_shape):
    """Bin index of each point, with the x axis fastest (paper Sec. III-A).

    Parameters
    ----------
    grid_coords : sequence of ndarray
        Per-dimension fine-grid coordinates (each shape ``(M,)``), ordered
        ``(x, y)`` or ``(x, y, z)``.
    fine_shape : tuple of int
        Fine grid sizes ``(n1, n2[, n3])`` in the same order.
    bin_shape : tuple of int
        Bin sizes ``(m1, m2[, m3])``.

    Returns
    -------
    bin_index : ndarray of int64, shape (M,)
    bins_per_dim : tuple of int
        Number of bins along each dimension (``ceil(n_i / m_i)``).
    """
    bin_index, bins_per_dim, _ = _bin_index_and_cells(grid_coords, fine_shape, bin_shape)
    return bin_index, bins_per_dim


@dataclass
class BinSort:
    """Result of bin-sorting the nonuniform points.

    Attributes
    ----------
    permutation : ndarray of int64, shape (M,)
        The paper's bijection ``t``: ``permutation[0:counts[0]]`` are the
        indices of the points in bin 0, and so on.
    bin_index : ndarray of int64, shape (M,)
        Bin id of each (original-order) point.
    bin_counts : ndarray of int64, shape (n_bins,)
        Points per bin ``M_i``.
    bin_starts : ndarray of int64, shape (n_bins,)
        Exclusive prefix sum of ``bin_counts``: offset of each bin's segment
        in the permuted ordering.
    bins_per_dim : tuple of int
        Bin-grid dimensions.
    bin_shape : tuple of int
        Bin size in fine-grid cells.
    fine_shape : tuple of int
        Fine-grid dimensions.
    n_occupied_cells : int
        Number of distinct fine-grid cells containing at least one point
        (input to the atomic-contention model).
    """

    permutation: np.ndarray
    bin_index: np.ndarray
    bin_counts: np.ndarray
    bin_starts: np.ndarray
    bins_per_dim: tuple
    bin_shape: tuple
    fine_shape: tuple
    n_occupied_cells: int = 1

    @property
    def n_points(self):
        return self.permutation.shape[0]

    @property
    def n_bins(self):
        return self.bin_counts.shape[0]

    @property
    def n_nonempty_bins(self):
        return int(np.count_nonzero(self.bin_counts))

    def bin_slice(self, i):
        """Slice of the permuted ordering holding bin ``i``'s points."""
        start = int(self.bin_starts[i])
        return slice(start, start + int(self.bin_counts[i]))


def bin_sort(grid_coords, fine_shape, bin_shape):
    """Bin-sort the nonuniform points (counting sort on bin index).

    See :class:`BinSort` for the returned fields.  The sort is stable within
    a bin (points keep their original relative order), matching the
    "record the bin index of each point, read out this list in bin ordering"
    construction in the paper.
    """
    m = grid_coords[0].shape[0]
    bin_index, bins_per_dim, cells = _bin_index_and_cells(grid_coords, fine_shape, bin_shape)
    n_bins = int(np.prod(bins_per_dim))
    bin_counts = np.bincount(bin_index, minlength=n_bins).astype(np.int64)
    bin_starts = np.zeros(n_bins, dtype=np.int64)
    np.cumsum(bin_counts[:-1], out=bin_starts[1:])
    # Stable counting sort: argsort with a stable algorithm on the bin index.
    # numpy's stable sort of integers of at most 16 bits is a radix sort, so
    # the keys are narrowed when the bin count allows (same permutation).
    keys = bin_index.astype(np.uint16) if n_bins <= 1 << 16 else bin_index
    permutation = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    if permutation.shape[0] != m:
        raise AssertionError("permutation length mismatch")

    # Distinct fine-grid cells containing points (for the contention model).
    cell_index = None
    stride = 1
    for cell, n in zip(cells, fine_shape):
        cell_index = cell * stride if cell_index is None else cell_index + cell * stride
        stride *= int(n)
    # An occupancy mask is one byte per cell, under 1/8 of the fine grid the
    # plan allocates anyway, and avoids sorting the M cell indices.
    occupied = np.zeros(stride, dtype=bool)
    occupied[cell_index] = True
    n_occupied_cells = int(np.count_nonzero(occupied))

    return BinSort(
        permutation=permutation,
        bin_index=bin_index,
        bin_counts=bin_counts,
        bin_starts=bin_starts,
        bins_per_dim=bins_per_dim,
        bin_shape=tuple(int(b) for b in bin_shape),
        fine_shape=tuple(int(n) for n in fine_shape),
        n_occupied_cells=n_occupied_cells,
    )


@dataclass
class SpreadStats:
    """Occupancy statistics of a point set, decoupled from the actual points.

    The spreading/interpolation *cost* estimators only need these aggregate
    quantities (they duck-type against :class:`BinSort`).  A ``SpreadStats``
    can therefore describe a paper-scale problem (hundreds of millions of
    points) that was *sampled* at a smaller size and rescaled -- this is how
    the benchmark harness models Table-I-sized problems without materializing
    them (see :mod:`repro.metrics.modeling`).
    """

    n_points: int
    bin_counts: np.ndarray
    bins_per_dim: tuple
    bin_shape: tuple
    fine_shape: tuple
    n_occupied_cells: int = 1

    @property
    def n_bins(self):
        return int(np.prod(self.bins_per_dim))

    @property
    def n_nonempty_bins(self):
        return int(np.count_nonzero(self.bin_counts))

    @classmethod
    def from_binsort(cls, sort):
        return cls(
            n_points=sort.n_points,
            bin_counts=np.asarray(sort.bin_counts, dtype=np.float64),
            bins_per_dim=sort.bins_per_dim,
            bin_shape=sort.bin_shape,
            fine_shape=sort.fine_shape,
            n_occupied_cells=getattr(sort, "n_occupied_cells", 1),
        )

    def scaled(self, target_points):
        """Rescale the statistics to describe ``target_points`` points.

        Bin counts scale proportionally, which preserves the occupancy
        *pattern* (which bins are populated and in what ratios) while the
        totals match the target problem size.
        """
        target_points = int(target_points)
        if target_points < 1:
            raise ValueError("target_points must be >= 1")
        if self.n_points < 1:
            raise ValueError("cannot scale empty statistics")
        factor = target_points / float(self.n_points)
        # The occupied-cell count is kept from the sample: scaling it up would
        # only matter when it is already large enough that contention is nil.
        return SpreadStats(
            n_points=target_points,
            bin_counts=np.asarray(self.bin_counts, dtype=np.float64) * factor,
            bins_per_dim=self.bins_per_dim,
            bin_shape=self.bin_shape,
            fine_shape=self.fine_shape,
            n_occupied_cells=self.n_occupied_cells,
        )


def estimate_subproblem_count(bin_counts, max_subproblem_size):
    """Number of SM subproblems implied by a bin histogram (real or scaled)."""
    if max_subproblem_size <= 0:
        raise ValueError("max_subproblem_size must be positive")
    counts = np.asarray(bin_counts, dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size == 0:
        return 0
    return int(np.sum(np.ceil(counts / float(max_subproblem_size))))


@dataclass
class Subproblems:
    """SM-method subproblem decomposition (paper Sec. III-A Step 1).

    Each subproblem ``k`` covers the points
    ``sort.permutation[offsets[k] : offsets[k] + counts[k]]`` and is
    associated with bin ``bin_ids[k]`` (all of its points lie in that bin).
    """

    bin_ids: np.ndarray     # (n_sub,)
    offsets: np.ndarray     # (n_sub,) offsets into the *sorted* point order
    counts: np.ndarray      # (n_sub,)
    max_size: int

    @property
    def n_subproblems(self):
        return self.bin_ids.shape[0]


def make_subproblems(sort, max_subproblem_size):
    """Split every nonempty bin's point segment into blocks of <= Msub points."""
    if max_subproblem_size <= 0:
        raise ValueError("max_subproblem_size must be positive")
    bin_ids = []
    offsets = []
    counts = []
    nonempty = np.nonzero(sort.bin_counts)[0]
    for b in nonempty:
        count = int(sort.bin_counts[b])
        start = int(sort.bin_starts[b])
        n_blocks = -(-count // max_subproblem_size)
        for j in range(n_blocks):
            block_start = start + j * max_subproblem_size
            block_count = min(max_subproblem_size, start + count - block_start)
            bin_ids.append(int(b))
            offsets.append(block_start)
            counts.append(block_count)
    return Subproblems(
        bin_ids=np.asarray(bin_ids, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        max_size=int(max_subproblem_size),
    )


def binsort_kernel_profiles(n_points, n_bins, ndim, real_itemsize, threads_per_block=128):
    """Setup-phase kernel profiles for the bin sort.

    The CUDA implementation uses a handful of kernels: compute bin index
    (stream the coordinates), histogram the bins (atomics over ``n_bins``
    addresses), exclusive scan of the histogram, and scatter of the point
    indices into the permuted order.  We price each as a streaming pass with
    the appropriate atomic/scatter behaviour.
    """
    profiles = []
    coord_bytes = n_points * ndim * real_itemsize
    index_bytes = n_points * 8  # int64 bin index / permutation entries

    profiles.append(
        KernelProfile(
            name="binsort_compute_index",
            grid_blocks=max(1.0, n_points / threads_per_block),
            block_threads=threads_per_block,
            flops=6.0 * ndim * n_points,
            stream_bytes=coord_bytes + index_bytes,
        )
    )
    profiles.append(
        KernelProfile(
            name="binsort_histogram",
            grid_blocks=max(1.0, n_points / threads_per_block),
            block_threads=threads_per_block,
            stream_bytes=index_bytes,
            global_atomic_ops=float(n_points),
            global_atomic_sector_ops=float(n_points),
            global_atomic_distinct_addresses=max(1.0, float(n_bins)),
            global_atomic_miss_fraction=0.0,
        )
    )
    profiles.append(
        KernelProfile(
            name="binsort_scan",
            grid_blocks=max(1.0, n_bins / threads_per_block),
            block_threads=threads_per_block,
            stream_bytes=4.0 * n_bins * 8.0,
            flops=2.0 * n_bins,
        )
    )
    profiles.append(
        KernelProfile(
            name="binsort_scatter_permutation",
            grid_blocks=max(1.0, n_points / threads_per_block),
            block_threads=threads_per_block,
            stream_bytes=index_bytes,
            gather_sector_ops=float(n_points),
            gather_miss_fraction=0.3,
        )
    )
    return profiles


def _subproblem_setup_profile(n_bins, n_subproblems):
    """Setup-phase cost of building the subproblem lists (SM step 1)."""
    return KernelProfile(
        name="sm_subproblem_setup",
        grid_blocks=max(1.0, n_bins / 128.0),
        block_threads=128.0,
        flops=4.0 * n_bins,
        stream_bytes=8.0 * (n_bins + 3.0 * n_subproblems),
    )


def setup_kernel_profiles(method, sort, precision, opts, spreads):
    """Setup-phase kernels of one point set: the bin sort, then SM step 1.

    GM launches none.  GM-sort and SM sort the points (unless
    ``opts.sort_points`` is off); an SM spread (``spreads``: types 1 and 3)
    also builds its subproblem lists at ``opts.max_subproblem_size``.
    ``sort`` is a :class:`BinSort` or a (scaled) :class:`SpreadStats`.
    """
    if method not in (SpreadMethod.GM_SORT, SpreadMethod.SM) or not opts.sort_points:
        return []
    profiles = binsort_kernel_profiles(
        sort.n_points, sort.n_bins, len(sort.fine_shape), precision.real_itemsize,
        opts.threads_per_block,
    )
    if method is SpreadMethod.SM and spreads:
        n_sub = estimate_subproblem_count(sort.bin_counts, opts.max_subproblem_size)
        profiles.append(_subproblem_setup_profile(sort.n_bins, n_sub))
    return profiles
