"""Spreading (type-1 step 1): the numerics and the GM, GM-sort and SM profiles.

All three of the paper's spreading methods compute the same fine-grid array

.. math::

    b_{l} = \\sum_{j=1}^{M} c_j\\, \\psi_{per}(l h - x_j)

(paper Eq. (7)); they differ only in *how* the work is organized on the GPU,
which is what the cost profiles capture:

``GM``
    one thread per point in user order, atomic adds straight to global memory
    (scattered, uncoalesced, collision-prone for clustered points);
``GM-sort``
    same, but points are processed in bin-sorted order so a warp's writes form
    localized, cache-resident, partially coalesced runs;
``SM``
    bin-sorted points are split into subproblems of at most ``Msub`` points;
    each subproblem accumulates into a *padded bin* copy in shared memory and
    then adds that copy back to global memory once (paper Fig. 1).

So the method reaches only :func:`spread_kernel_profiles`.  The numerics have
one cache-free path, :func:`spread_direct` (exact kernel values evaluated on
the fly, points in user order), run by the ``reference`` backend and the
CUNFFT / gpuNUFFT baselines; and one cached path, :func:`spread_cached`, the
CSR operator of a point set's stencil cache, in the set's precision.
:meth:`~repro.core.pointset.PointSet.spread` takes the windowed engine of
:mod:`repro.core.windowed` when the cache holds no operator.
"""

from __future__ import annotations

import numpy as np

from ..gpu.atomics import dilated_occupied_cells, occupied_cells_estimate
from ..gpu.device import V100_SPEC
from ..gpu.profiler import KernelProfile
from ..gpu.threadblock import check_shared_memory_fit, padded_bin_shape
from ..gpu.transactions import (
    l2_miss_fraction_localized,
    l2_miss_fraction_random,
    localized_sector_ops,
    scattered_sector_ops,
    sectors_for_contiguous_run,
)
from .binsort import estimate_subproblem_count
from .options import SpreadMethod
from .stencil import _tensor_stencil

__all__ = [
    "compute_kernel_stencil",
    "spread_cached",
    "spread_direct",
    "spread_kernel_profiles",
]

#: Stencil entries (points x w^d x n_trans) per accumulation chunk: keeps the
#: fused index/weight temporaries comfortably in memory for any width.
_CHUNK_ENTRIES = 1 << 22

#: Approximate flop cost of one ES kernel evaluation (sqrt + exp + mults).
_FLOPS_PER_KERNEL_EVAL = 12.0


# --------------------------------------------------------------------------- #
# kernel stencil evaluation
# --------------------------------------------------------------------------- #
def compute_kernel_stencil(grid_coords_d, n_fine_d, kernel):
    """Per-dimension stencil: first grid index and kernel values for each point.

    For fine-grid coordinate ``g`` (in ``[0, n)``), the kernel of width ``w``
    touches the ``w`` consecutive grid nodes starting at
    ``i0 = ceil(g - w/2)``; node ``i0 + r`` lies at distance ``g - (i0 + r)``
    from the point.

    Returns
    -------
    i0 : ndarray of int64, shape (M,)
        First grid node index (may be negative / >= n; callers wrap mod n).
    vals : ndarray, shape (M, w)
        Kernel values at the ``w`` nodes.
    """
    g = np.asarray(grid_coords_d, dtype=np.float64)
    w = kernel.width
    i0 = np.ceil(g - 0.5 * w).astype(np.int64)
    vals = kernel.evaluate_offsets(g - i0)
    return i0, vals


def _as_strength_batch(strengths):
    """View strengths as a ``(n_trans, M)`` complex block; flag if batched.

    Complex inputs keep their dtype (and their strides -- no copy), so
    single-precision batches flow through spreading without a complex128
    round-trip; real-valued inputs are promoted to complex128.
    """
    strengths = np.asarray(strengths)
    batched = strengths.ndim == 2
    block = strengths if batched else strengths[None, :]
    if not np.iscomplexobj(block):
        block = block.astype(np.complex128)
    return block, batched


def _point_chunk(n_trans, entries_per_point):
    """Points per accumulation chunk given the per-point fused entry count."""
    return max(256, _CHUNK_ENTRIES // max(1, n_trans * entries_per_point))


def _chunk_stencil(grid_coords, fine_shape, kernel, sel):
    """Fused ``(flat_idx, weights)`` of shape (m, w^d) for the selected points.

    Evaluates the exact stencils on the fly (the seed behaviour) and wraps
    the indices periodically.
    """
    starts, vals_per_dim = [], []
    for d in range(len(fine_shape)):
        i0, vals = compute_kernel_stencil(grid_coords[d][sel], fine_shape[d], kernel)
        starts.append(i0)
        vals_per_dim.append(np.ascontiguousarray(vals.T))  # node-major
    return _tensor_stencil(starts, vals_per_dim, fine_shape)


def _accumulate_chunk(grid_real, grid_imag, flat_idx, weights_real, weights_imag):
    """Accumulate one chunk's weights into preallocated real/imag grid views.

    ``grid_real`` / ``grid_imag`` are float64 views of the (possibly batched)
    complex grid; the ``bincount`` results are added into them in place, so no
    complex full-grid temporary is materialized per chunk.  ``bincount`` is
    far faster than ``np.add.at`` for large update counts and numerically
    equivalent up to summation order.
    """
    size = grid_real.size
    idx = flat_idx.ravel()
    wr = np.bincount(idx, weights=weights_real.ravel(), minlength=size)
    wi = np.bincount(idx, weights=weights_imag.ravel(), minlength=size)
    grid_real += wr.reshape(grid_real.shape)
    grid_imag += wi.reshape(grid_imag.shape)


def _grid_views(grids):
    """Real and imaginary in-place views of a complex grid block.

    Works for both precisions (``.real``/``.imag`` of a complex array are
    writable views); ``bincount`` increments are float64 either way and are
    rounded into the grid's native precision on accumulation.
    """
    flat = grids.reshape(grids.shape[0], -1)
    return flat.real, flat.imag


def _spread_points(grids, grid_coords, strengths, kernel):
    """Spread every point, in user order, in contiguous chunks.

    ``grids`` has shape ``(n_trans, *fine_shape)`` and ``strengths`` shape
    ``(n_trans, M)``; all transforms are accumulated in one fused
    ``bincount`` pass per chunk (the indices of transform ``t`` are offset by
    ``t * n_fine``), so the Python-level loop over transforms disappears.
    """
    ndim = len(grid_coords)
    fine_shape = grids.shape[1:]
    n_trans = grids.shape[0]
    size = int(np.prod(fine_shape))
    grid_real, grid_imag = _grid_views(grids)
    k_entries = kernel.width ** ndim
    chunk = _point_chunk(n_trans, k_entries)
    t_offsets = (np.arange(n_trans, dtype=np.int64) * size)[:, None, None]

    for start in range(0, strengths.shape[1], chunk):
        sel = slice(start, start + chunk)
        flat_idx, wprod = _chunk_stencil(grid_coords, fine_shape, kernel, sel)
        cw = strengths[:, sel]
        if n_trans == 1:
            weights_real = cw.real[0, :, None] * wprod
            weights_imag = cw.imag[0, :, None] * wprod
            _accumulate_chunk(grid_real, grid_imag, flat_idx,
                              weights_real, weights_imag)
        else:
            big_idx = flat_idx[None, :, :] + t_offsets
            weights_real = cw.real[:, :, None] * wprod[None, :, :]
            weights_imag = cw.imag[:, :, None] * wprod[None, :, :]
            _accumulate_chunk(grid_real, grid_imag, big_idx,
                              weights_real, weights_imag)
    return grids


# --------------------------------------------------------------------------- #
# numeric spreaders
# --------------------------------------------------------------------------- #
def spread_cached(strengths, points, dtype=np.complex64, out=None):
    """Spread via the cached sparse operator (one pass over all transforms).

    Requires a :class:`~repro.core.pointset.PointSet` whose stencil cache
    carries the CSR interpolation matrix, whose transpose *is* the spreading
    operator; the strengths follow the cache's point order.  The operator is
    in the set's precision (float32 weights for a single-precision set), and
    the products run in it: real and imaginary parts share the real-valued
    weights, so a ``(n_trans, M)`` block with ``n_trans > 1`` is spread by
    one real sparse product over its complex transpose viewed as
    ``(M, 2 * n_trans)`` reals, and scipy never upcasts (copies) the
    operator.  A single transform takes two products, one per part, written
    straight into the output's real and imaginary views (the two-column
    product is not reliably faster there).  Column for column, the two forms
    give bit-identical sums.  ``out``, when given, must be a
    ``(n_trans, *fine_shape)`` array of any layout; the result is written
    into it and it is returned.
    """
    cache = points.stencil
    if cache is None or cache.interp_matrix is None:
        raise ValueError("spread_cached needs a point set with a sparse operator")
    block, batched = _as_strength_batch(strengths)
    n_trans = block.shape[0]
    result = out
    if result is None:
        result = np.empty((n_trans,) + cache.fine_shape, dtype=dtype)
    spread_op = points.spread_operator()  # (n_fine, M), CSC view: no copy
    if n_trans > 1:
        pairs = np.empty((block.shape[1], n_trans),
                         dtype=np.result_type(block.dtype, spread_op.dtype))
        pairs[...] = block.T
        grids = (spread_op @ pairs.view(pairs.real.dtype)).view(pairs.dtype)
        # Splitting the flat axis is a view whatever ``grids.T``'s strides.
        result[...] = grids.T.reshape(result.shape)
    else:
        result.real[...] = (spread_op @ block[0].real).reshape(result.shape)
        result.imag[...] = (spread_op @ block[0].imag).reshape(result.shape)
    if out is not None or batched:
        return result
    return result[0]


def spread_direct(fine_shape, grid_coords, strengths, kernel, dtype):
    """Cache-free spreading: exact kernel values, points in user order.

    Evaluates every point's stencil on the fly (no plan-level cache), so it
    serves any geometry -- the ``reference`` backend and the CUNFFT /
    gpuNUFFT baselines.  ``strengths`` may be ``(M,)`` or a stacked
    ``(n_trans, M)`` block; the output gains a matching leading axis.
    """
    block, batched = _as_strength_batch(strengths)
    grids = np.zeros((block.shape[0],) + tuple(fine_shape), dtype=dtype)
    _spread_points(grids, grid_coords, block, kernel)
    return grids if batched else grids[0]


# --------------------------------------------------------------------------- #
# cost profiles
# --------------------------------------------------------------------------- #
def _point_read_bytes(n_points, ndim, real_itemsize, complex_itemsize, with_index=False):
    bytes_per_point = ndim * real_itemsize + complex_itemsize
    if with_index:
        bytes_per_point += 4  # sorted-index array entry (int32 in CUDA code)
    return float(n_points) * bytes_per_point


def _spread_flops(n_points, width, ndim):
    evals = ndim * width * _FLOPS_PER_KERNEL_EVAL
    accum = (width ** ndim) * (2.0 * ndim + 2.0)
    return float(n_points) * (evals + accum)


def _occupancy_stats(sort, kernel_width, complex_itemsize):
    """Distinct-cell and footprint estimates shared by the profile builders.

    ``sort`` may be a :class:`~repro.core.binsort.BinSort` or a
    :class:`~repro.core.binsort.SpreadStats`; the preferred contention input
    is the exact occupied-cell count, with the bin-histogram estimate as a
    fallback for objects that do not carry it.
    """
    ndim = len(sort.fine_shape)
    total_cells = float(np.prod(sort.fine_shape))
    n_point_cells = getattr(sort, "n_occupied_cells", 0)
    if n_point_cells and n_point_cells > 0:
        occupied = dilated_occupied_cells(n_point_cells, kernel_width, ndim, total_cells)
    else:
        cells_per_bin = float(np.prod(sort.bin_shape))
        occupied = occupied_cells_estimate(
            sort.bin_counts, cells_per_bin, kernel_width, ndim
        )
    occupied = min(occupied, total_cells)
    grid_bytes = total_cells * complex_itemsize
    occupied_bytes = occupied * complex_itemsize
    return occupied, grid_bytes, occupied_bytes


def spread_kernel_profiles(method, sort, kernel, precision, threads_per_block=128,
                           spec=None, n_subproblems=None):
    """Exec-phase kernel profiles for one spreading pass.

    This is the one dispatch from a spreading method to what it costs.
    Executed plans and :mod:`repro.metrics.modeling` reach it through
    :func:`repro.backends.device_sim.stage_profiles`, and so do the ranks of
    a distributed plan; the CUNFFT baseline calls it directly.

    Parameters
    ----------
    method : SpreadMethod
        GM, GM_SORT or SM (AUTO must be resolved by the caller).
    sort : BinSort or SpreadStats
        Bin statistics of the nonuniform points (computed for every method --
        GM does not *use* the permutation, but its contention estimate needs
        the occupancy histogram).
    kernel : ESKernel or compatible
        Spreading kernel (only ``width`` matters here).
    precision : Precision
        Determines item sizes.
    threads_per_block : int
        Launch geometry for the cost model.
    spec : DeviceSpec, optional
        Device whose L2 size and SM count the estimates use (the V100 when
        omitted); the SM method also validates its shared-memory fit on it.
    n_subproblems : int, optional
        Number of SM subproblems (:func:`~repro.core.binsort.estimate_subproblem_count`
        of the histogram at the plan's ``Msub``).  Defaults to the count at
        ``Msub = 1024``, paper Remark 1's value.  Ignored by GM and GM-sort.

    Returns
    -------
    list of KernelProfile
    """
    method = SpreadMethod.parse(method)
    ndim = len(sort.fine_shape)
    w = kernel.width
    m = sort.n_points
    real_sz = precision.real_itemsize
    cplx_sz = precision.complex_itemsize
    occupied, grid_bytes, occupied_bytes = _occupancy_stats(sort, w, cplx_sz)
    ops = float(m) * (w ** ndim)

    if method is SpreadMethod.GM:
        working_set = min(grid_bytes, occupied_bytes)
        profile = KernelProfile(
            name=f"spread_{ndim}d_gm",
            grid_blocks=max(1.0, m / threads_per_block),
            block_threads=threads_per_block,
            flops=_spread_flops(m, w, ndim),
            stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz),
            global_atomic_ops=ops,
            global_atomic_sector_ops=scattered_sector_ops(ops, min(cplx_sz, 16)),
            global_atomic_distinct_addresses=occupied,
            global_atomic_miss_fraction=l2_miss_fraction_random(working_set, _l2(spec)),
        )
        return [profile]

    if method is SpreadMethod.GM_SORT:
        # Localized writes: each point writes w^(d-1) contiguous rows of w cells.
        rows = float(m) * (w ** (ndim - 1))
        sector_ops = localized_sector_ops(rows, w, cplx_sz, reuse_factor=1.5)
        footprint = _gmsort_footprint(sort, w, cplx_sz, spec)
        profile = KernelProfile(
            name=f"spread_{ndim}d_gmsort",
            grid_blocks=max(1.0, m / threads_per_block),
            block_threads=threads_per_block,
            flops=_spread_flops(m, w, ndim),
            stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz, with_index=True),
            gather_sector_ops=2.0 * m,  # indirect (permuted) point loads
            gather_miss_fraction=0.2,
            global_atomic_ops=ops,
            global_atomic_sector_ops=sector_ops,
            global_atomic_distinct_addresses=occupied,
            global_atomic_miss_fraction=l2_miss_fraction_localized(footprint, _l2(spec)),
        )
        return [profile]

    if method is SpreadMethod.SM:
        if n_subproblems is None:
            n_subproblems = estimate_subproblem_count(sort.bin_counts, 1024)
        return _sm_kernel_profiles(
            sort, kernel, precision, n_subproblems, threads_per_block, spec
        )

    raise ValueError(f"cannot profile method {method!r}")


def _sm_kernel_profiles(sort, kernel, precision, n_subproblems, threads_per_block,
                        spec):
    """Exec-phase profiles of the SM spreader for a given subproblem split."""
    ndim = len(sort.fine_shape)
    w = kernel.width
    m = sort.n_points
    real_sz = precision.real_itemsize
    cplx_sz = precision.complex_itemsize
    occupied, grid_bytes, occupied_bytes = _occupancy_stats(sort, w, cplx_sz)

    if spec is not None:
        check_shared_memory_fit(sort.bin_shape, w, cplx_sz, spec)

    local_shape = padded_bin_shape(sort.bin_shape, w)
    padded_cells = float(np.prod(local_shape))
    n_sub = max(1, n_subproblems)
    ops = float(m) * (w ** ndim)

    # Shared-memory contention: distinct addresses a subproblem's points hit.
    # A subproblem of P points whose point cells span ``point_cells`` distinct
    # cells writes a region of the padded bin that is that set dilated by the
    # kernel width; intra-block serialization only matters when the resulting
    # region is much smaller than the number of active lanes.
    avg_points_per_sub = m / n_sub if n_sub else 0.0
    n_point_cells = getattr(sort, "n_occupied_cells", 0) or 1
    point_cells_per_sub = min(
        max(1.0, avg_points_per_sub),
        max(1.0, n_point_cells / max(1, sort.n_nonempty_bins)),
    )
    cells_per_sub = dilated_occupied_cells(point_cells_per_sub, w, ndim, padded_cells)
    cells_per_sub = max(1.0, cells_per_sub)

    spread_profile = KernelProfile(
        name=f"spread_{ndim}d_sm",
        grid_blocks=float(n_sub),
        block_threads=threads_per_block,
        flops=_spread_flops(m, w, ndim),
        stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz, with_index=True),
        shared_atomic_ops=ops,
        shared_atomic_distinct_addresses=cells_per_sub,
        shared_mem_per_block=padded_cells * cplx_sz,
    )

    # Step 3: write the padded bins back to global memory with coalesced atomics.
    writeback_ops = float(n_sub) * padded_cells
    rows = float(n_sub) * padded_cells / local_shape[-1]
    writeback_sectors = rows * sectors_for_contiguous_run(local_shape[-1] * cplx_sz)
    writeback_profile = KernelProfile(
        name=f"spread_{ndim}d_sm_writeback",
        grid_blocks=float(n_sub),
        block_threads=threads_per_block,
        flops=2.0 * writeback_ops,
        global_atomic_ops=writeback_ops,
        global_atomic_sector_ops=writeback_sectors,
        global_atomic_distinct_addresses=max(padded_cells, occupied),
        global_atomic_miss_fraction=l2_miss_fraction_random(
            min(grid_bytes, occupied_bytes), _l2(spec)
        ),
        shared_mem_per_block=padded_cells * cplx_sz,
    )
    return [spread_profile, writeback_profile]


def _device_spec(spec):
    """The given device spec, defaulting to the V100."""
    return spec if spec is not None else V100_SPEC


def _l2(spec):
    """L2 size of the given spec, defaulting to the V100."""
    return _device_spec(spec).l2_cache_bytes


def _gmsort_footprint(sort, kernel_width, complex_itemsize, spec):
    """L2 footprint of the padded bins GM-sort blocks in flight touch.

    Two resident blocks per SM work on distinct nonempty bins at a time;
    GM-sort spreading and interpolation share this estimate.
    """
    active_bins = min(sort.n_nonempty_bins, 2 * _device_spec(spec).sm_count)
    padded_cells = float(np.prod(padded_bin_shape(sort.bin_shape, kernel_width)))
    return active_bins * padded_cells * complex_itemsize
