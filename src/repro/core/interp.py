"""Interpolation (type-2 step 3): the numerics and the GM / GM-sort profiles.

Interpolation evaluates, at every nonuniform target point, the kernel-weighted
sum of the ``w^d`` fine-grid values around it (paper Sec. II-B step 3).  On
the GPU the only algorithmic lever is the *order* in which threads visit the
points: unsorted (GM) threads in a warp read scattered grid regions, while
bin-sorted (GM-sort) threads read localized, cache-friendly regions.  There
are no write conflicts (each thread owns its output ``c_j``), which is why the
paper applies no SM-style scheme to interpolation.

The visiting order reaches only :func:`interp_kernel_profiles`.  The numerics
have one cache-free path, :func:`interp_direct` (exact kernel values evaluated
on the fly, points in user order), run by the ``reference`` backend and the
CUNFFT / gpuNUFFT baselines; and one cached path, :func:`interp_cached`, the
CSR operator of a point set's stencil cache, in the set's precision.
:meth:`~repro.core.pointset.PointSet.interp` takes the windowed engine of
:mod:`repro.core.windowed` when the cache holds no operator.
"""

from __future__ import annotations

import numpy as np

from ..gpu.profiler import KernelProfile
from ..gpu.transactions import (
    l2_miss_fraction_localized,
    l2_miss_fraction_random,
    localized_sector_ops,
    scattered_sector_ops,
)
from .options import SpreadMethod
from .spread import (
    _chunk_stencil,
    _gmsort_footprint,
    _l2,
    _point_chunk,
    _point_read_bytes,
    _spread_flops,
)

__all__ = [
    "interp_cached",
    "interp_direct",
    "interp_kernel_profiles",
]


def _as_grid_batch(grid, ndim):
    """View the fine grid as a ``(n_trans, *fine_shape)`` block; flag batched.

    Complex grids keep their dtype (no complex128 round-trip, no copy for
    strided views); real-valued inputs are promoted to complex128.
    """
    grid = np.asarray(grid)
    if not np.iscomplexobj(grid):
        grid = grid.astype(np.complex128)
    batched = grid.ndim == ndim + 1
    return (grid if batched else grid[None]), batched


def _interp_points(grids, grid_coords, kernel, out):
    """Interpolate every point, in user order, in contiguous chunks.

    ``grids`` has shape ``(n_trans, *fine_shape)`` and ``out`` shape
    ``(n_trans, M)``; each chunk gathers the fine-grid values of all
    transforms at once and contracts them against the shared kernel weights.
    """
    ndim = len(grid_coords)
    fine_shape = grids.shape[1:]
    n_trans = grids.shape[0]
    flat = grids.reshape(n_trans, -1)
    chunk = _point_chunk(n_trans, kernel.width ** ndim)

    for start in range(0, out.shape[1], chunk):
        sel = slice(start, start + chunk)
        flat_idx, wprod = _chunk_stencil(grid_coords, fine_shape, kernel, sel)
        gathered = flat[:, flat_idx]  # (n_trans, m, w^d)
        out[:, sel] = np.einsum("tmk,mk->tm", gathered, wprod)
    return out


def interp_cached(grid, points, dtype=np.complex64, out=None):
    """Interpolate via the cached sparse operator (one pass over all transforms).

    ``interp_matrix @ grid`` of the :class:`~repro.core.pointset.PointSet`'s
    stencil cache performs the kernel-weighted gather for every
    transform at once, in the cache's point order.  The operator is in the
    set's precision (float32 weights for a single-precision set) and real,
    so it is never upcast (and copied) to complex: with ``n_trans > 1`` the
    grids are contracted by one real product over their complex transpose
    viewed as ``(n_fine, 2 * n_trans)`` reals; a single grid takes one
    product per real and imaginary part (faster there than the two-column
    product).  ``out``, when given, must be a ``(n_trans, M)`` array; the
    result is written into it and it is returned.
    """
    cache = points.stencil
    if cache is None or cache.interp_matrix is None:
        raise ValueError("interp_cached needs a point set with a sparse operator")
    grids, batched = _as_grid_batch(grid, cache.ndim)
    n_trans = grids.shape[0]
    matrix = cache.interp_matrix
    result = out
    if result is None:
        result = np.empty((n_trans, matrix.shape[0]), dtype=dtype)
    if n_trans > 1:
        pairs = np.empty((matrix.shape[1], n_trans),
                         dtype=np.result_type(grids.dtype, matrix.dtype))
        pairs.T.reshape(grids.shape)[...] = grids
        result[...] = (matrix @ pairs.view(pairs.real.dtype)).view(pairs.dtype).T
    else:
        flat = grids[0].reshape(-1)
        result[0].real[...] = matrix @ flat.real
        result[0].imag[...] = matrix @ flat.imag
    if out is not None or batched:
        return result
    return result[0]


def interp_direct(grid, grid_coords, kernel, dtype):
    """Cache-free interpolation: exact kernel values, points in user order.

    The transpose of :func:`~repro.core.spread.spread_direct`.  ``grid`` may
    be ``(*fine_shape)`` or a stacked ``(n_trans, *fine_shape)`` block; the
    output gains a matching leading axis.
    """
    ndim = len(grid_coords)
    grids, batched = _as_grid_batch(grid, ndim)
    values = np.empty((grids.shape[0], grid_coords[0].shape[0]), dtype=dtype)
    _interp_points(grids, grid_coords, kernel, values)
    return values if batched else values[0]


def interp_kernel_profiles(method, sort, kernel, precision, threads_per_block=128,
                           spec=None):
    """Exec-phase kernel profiles for one interpolation pass.

    The interpolation counterpart of
    :func:`~repro.core.spread.spread_kernel_profiles`; an SM request is
    priced as GM-sort, since the paper applies no SM scheme to interpolation.
    """
    method = SpreadMethod.parse(method)
    if method is SpreadMethod.SM:
        method = SpreadMethod.GM_SORT
    ndim = len(sort.fine_shape)
    w = kernel.width
    m = sort.n_points
    real_sz = precision.real_itemsize
    cplx_sz = precision.complex_itemsize
    grid_bytes = float(np.prod(sort.fine_shape)) * cplx_sz
    reads = float(m) * (w ** ndim)
    l2 = _l2(spec)

    if method is SpreadMethod.GM:
        profile = KernelProfile(
            name=f"interp_{ndim}d_gm",
            grid_blocks=max(1.0, m / threads_per_block),
            block_threads=threads_per_block,
            flops=_spread_flops(m, w, ndim),
            stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz),
            gather_sector_ops=scattered_sector_ops(reads, min(cplx_sz, 16)),
            gather_miss_fraction=l2_miss_fraction_random(grid_bytes, l2),
        )
        return [profile]

    rows = float(m) * (w ** (ndim - 1))
    sector_ops = localized_sector_ops(rows, w, cplx_sz, reuse_factor=1.5)
    footprint = _gmsort_footprint(sort, w, cplx_sz, spec)
    profile = KernelProfile(
        name=f"interp_{ndim}d_gmsort",
        grid_blocks=max(1.0, m / threads_per_block),
        block_threads=threads_per_block,
        flops=_spread_flops(m, w, ndim),
        stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz, with_index=True),
        gather_sector_ops=sector_ops + 2.0 * m,
        gather_miss_fraction=l2_miss_fraction_localized(footprint, l2),
    )
    return [profile]
