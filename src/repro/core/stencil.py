"""Plan-level stencil cache: precomputed spreading geometry for one point set.

The paper's plan / set_pts / execute separation (Sec. V-A) exists so that the
per-point work that depends only on the *points* -- not on the strengths -- is
paid once and amortized over many ``execute`` calls (the MTIP use case, where
the same nonuniform points are reused across ``n_trans`` strength vectors and
across solver iterations).

At ``set_pts`` time we therefore precompute and store, per dimension:

* ``i0``      -- the first fine-grid node each point touches (unwrapped),
* ``vals``    -- the ``w`` kernel values per point, node-major: one
  ``(w, M)`` array per dimension (Horner-evaluated by default, see
  :func:`repro.kernels.es_kernel.horner_coefficients`),

and, when the footprint ``M * w^d`` fits a memory budget, the *fused* form:

* ``interp_matrix`` -- the ``w^d`` wrapped flat fine-grid indices and
  tensor-product kernel values of every point as a ``(M, n_fine)`` CSR sparse
  matrix, whose transpose is the spreading operator.

Both are built with numpy passes over long runs of points, never over one
point's ``w`` nodes: the Horner evaluation runs node-major (``(w, points)``
blocks, see :meth:`~repro.kernels.es_kernel.ESKernel.evaluate_offsets_horner`)
straight into the stored layout, and the operator is assembled in
cache-sized point blocks, each built node-major (``(w^d, points)``, indices
wrapped through a per-axis lookup table) and transposed into its CSR rows
(:func:`_tensor_stencil`).  The outputs are bit-identical to point-major
evaluation and assembly.

``execute`` then never calls ``evaluate_offsets`` again: spreading becomes a
single sparse mat-mat over the ``(n_trans, M)`` strength block and
interpolation the transposed gather; without the operator, the windowed
engine (:mod:`repro.core.windowed`) works from ``i0`` and ``vals`` alone.
The cache is tied to one point set; ``Plan.set_pts`` rebuilds it, which is
exactly the invalidation the paper's interface implies.

A cache with the CSR operator lists the points in the order of the
coordinates it was built from.  ``Plan`` builds it from the bin-sorted
coordinates (the GM-sort order of paper Sec. III-A), so consecutive points
-- and CSR rows -- touch nearby fine-grid memory.  A cache without it lists
them in the windowed engine's order instead
(:func:`~repro.core.windowed.engine_order`): the points of the crowded
pencils first, pencil by pencil, then the others tile by tile, in build
order within a tile; ``order`` maps each listed point to its build index,
``pencil_starts`` bounds the pencils, and ``tile_starts`` / ``tile_keys``
the runs of points in one tile and their tiles.  Every pencil piece and every
batch of tiles is then a column range of ``vals``, which the engine reads in
place.  The backend permutes strengths into the cache's
order and scatters outputs back to the caller's point indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sparse

from .windowed import engine_order

__all__ = [
    "StencilCache",
    "build_stencil_cache",
    "stencil_cache_arrays",
    "stencil_cache_from_arrays",
    "stencil_cache_key",
    "DEFAULT_FUSE_BUDGET",
]

#: Maximum number of fused stencil entries (``M * w^d``) materialized by the
#: cache; above this only the per-dimension arrays are kept.  32M entries is
#: ~128 MB of int32 indices (int64, ~256 MB, only once the grid size or the
#: entry count passes 2^31) plus ~256 MB of float64 weights.
DEFAULT_FUSE_BUDGET = 1 << 25

#: Stencil entries per assembly block: the block's node-major index and
#: weight tensors (~0.8 MB at int32 indices) stay in cache while built.
_BLOCK_ENTRIES = 1 << 16


@dataclass
class StencilCache:
    """Precomputed per-point spreading geometry (see module docstring).

    Attributes
    ----------
    fine_shape : tuple of int
        Fine-grid dimensions the indices refer to.
    width : int
        Kernel width ``w``.
    i0 : list of ndarray, each (M,)
        Unwrapped first node per dimension, in the cache's point order (the
        windowed engine addresses each point's window in a padded grid from
        it).
    vals : list of ndarray, each (w, M)
        Kernel values per dimension, node-major: ``vals[d][r, j]`` is the
        value at node ``i0[d][j] + r`` of the cache's ``j``-th point.
    interp_matrix : scipy.sparse.csr_matrix (M, prod(fine_shape)) or None
        Row ``j`` holds the stencil of the build's ``j``-th point;
        ``interp_matrix @ grid`` is interpolation and ``interp_matrix.T @ c``
        is spreading.
    kernel_eval : str
        Which kernel evaluation built the values ("horner" or "exact").
    order : ndarray of int64, shape (M,), or None
        Build index of each listed point; ``None`` when the cache keeps the
        build's order (always, with ``interp_matrix``).
    pencil_starts : ndarray of int64 or None
        Without ``interp_matrix``: the boundaries of the windowed engine's
        GEMM pencils, which come first; the points from ``pencil_starts[-1]``
        on are listed tile by tile (d >= 2).  ``None`` with ``interp_matrix``.
    tile_starts, tile_keys : ndarray of int64 or None
        Without ``interp_matrix``, in d >= 2: the boundaries of the runs of
        points from ``pencil_starts[-1]`` on that share a tile, and each
        run's tile (:func:`~repro.core.windowed.engine_order`).  ``None``
        otherwise.
    """

    fine_shape: tuple
    width: int
    i0: list
    vals: list
    interp_matrix: object = None
    kernel_eval: str = "horner"
    order: object = None
    pencil_starts: object = None
    tile_starts: object = None
    tile_keys: object = None

    @property
    def n_points(self):
        return self.i0[0].shape[0]

    @property
    def ndim(self):
        return len(self.fine_shape)

    def nbytes(self):
        """Host memory held by the cache (for reporting)."""
        total = sum(a.nbytes for a in self.i0)
        total += sum(a.nbytes for a in self.vals)
        total += sum(a.nbytes for a in (self.order, self.pencil_starts, self.tile_starts,
                                        self.tile_keys) if a is not None)
        if self.interp_matrix is not None:
            total += (self.interp_matrix.data.nbytes
                      + self.interp_matrix.indices.nbytes
                      + self.interp_matrix.indptr.nbytes)
        return int(total)


def _tensor_stencil(starts, vals_per_dim, shape, index_dtype=np.int64, out=None,
                    weight_dtype=None):
    """Flat indices and tensor-product weights of every point's ``w^d`` stencil.

    Point ``j`` covers the nodes ``starts[d][j] + r`` (``0 <= r < w``) of
    axis ``d``, wrapped periodically onto ``shape``, with kernel values
    ``vals_per_dim[d][:, j]`` (node-major ``(w, M)`` arrays).  Returns
    ``(flat_idx, weights)`` of shape ``(M, w^d)``, the last axis's node
    fastest: ``flat_idx`` (of ``index_dtype``) indexes the flattened grid and
    ``weights`` holds the products ``vals[0][r0, j] * vals[1][r1, j] * ...``
    taken in axis order, in the kernel values' precision, and rounded once
    to ``weight_dtype`` (default: that precision) when stored.

    Points are assembled in blocks of about ``_BLOCK_ENTRIES`` entries.  A
    block is built node-major, ``(w^d, points)``, so every numpy pass runs
    over the block's points rather than over one point's ``w`` nodes, and is
    then transposed into its rows of the output: fresh arrays, or the ``out``
    pair of contiguous ``M * w^d`` buffers.  No temporary grows with ``M``:
    at ``M * w^d`` entries the outputs are the largest allocations of a
    ``set_pts``, and every new page costs a fault.
    """
    ndim = len(shape)
    m = starts[0].shape[0]
    w = vals_per_dim[0].shape[0]
    k = w ** ndim
    if out is not None:
        flat_idx, weights = (a.reshape(m, k) for a in out)
    else:
        flat_idx = np.empty((m, k), dtype=index_dtype)
        weights = np.empty((m, k), dtype=weight_dtype or np.result_type(*vals_per_dim))
    # Per axis, the wrapped and stride-scaled index of every node the points
    # reach: one table lookup replaces a modulo per (point, node) pair.
    strides = np.cumprod((1,) + tuple(int(n) for n in shape[:0:-1]))[::-1]
    tables, node_offsets = [], []
    for s0, n, st in zip(starts, shape, strides):
        lo = int(s0.min(initial=0))
        nodes = np.arange(lo, int(s0.max(initial=0)) + w, dtype=np.int64)
        tables.append((nodes % int(n) * int(st)).astype(index_dtype))
        node_offsets.append(np.arange(w, dtype=np.int64)[:, None] - lo)

    block = max(1, _BLOCK_ENTRIES // k)
    value_dtype = np.result_type(*vals_per_dim)
    idx_block = np.empty((k, min(m, block)), dtype=index_dtype)
    wt_block = np.empty((k, min(m, block)), dtype=value_dtype)
    for start in range(0, m, block):
        rows = slice(start, min(m, start + block))
        b = rows.stop - start
        # ``idx`` / ``wt``: the stencil over the axes combined so far,
        # node-major, as the kernel values are.
        idx = np.take(tables[0], starts[0][rows] + node_offsets[0])
        wt = vals_per_dim[0][:, rows]
        for d in range(1, ndim):
            if d == ndim - 1:
                idx_next, wt_next = idx_block[:, :b], wt_block[:, :b]
            else:
                idx_next = np.empty((idx.shape[0] * w, b), dtype=index_dtype)
                wt_next = np.empty((idx.shape[0] * w, b), dtype=value_dtype)
            np.add(idx[:, None, :],
                   np.take(tables[d], starts[d][rows] + node_offsets[d])[None],
                   out=idx_next.reshape(-1, w, b))
            np.multiply(wt[:, None, :], vals_per_dim[d][None, :, rows],
                        out=wt_next.reshape(-1, w, b))
            idx, wt = idx_next, wt_next
        flat_idx[rows] = idx.T
        weights[rows] = wt.T
    return flat_idx, weights


def build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval="horner",
                        fuse_budget=DEFAULT_FUSE_BUDGET, build_matrix=True,
                        store=None, points_digest=None, bin_shape=None, recycle=None,
                        weight_dtype=np.float64):
    """Build the stencil cache for one point set.

    Parameters
    ----------
    grid_coords : sequence of ndarray
        Per-dimension fine-grid coordinates in ``[0, n_d)``, in the order
        a cache with the CSR operator lists the points in; without it, the
        cache lists them in the windowed engine's order (``order``).
    fine_shape : tuple of int
    kernel : ESKernel or compatible
        Must provide ``width`` and ``evaluate_offsets``; the Horner fast path
        additionally needs ``evaluate_offsets_horner`` (ES kernel only) and
        silently falls back to the exact form otherwise.
    kernel_eval : {"horner", "exact"}
    fuse_budget : int
        Maximum fused entry count ``M * w^d`` (see :data:`DEFAULT_FUSE_BUDGET`).
    build_matrix : bool
        Whether to assemble the CSR operator (requires ``M * w^d`` within
        ``fuse_budget``).
    store : ArtifactStore, optional
        Warm-state store (kind ``"stencil"``).  With ``points_digest`` also
        given, the cache is served from the store when present and persisted
        (single-flight) when built, keyed by the digest plus every kernel
        parameter above -- a restarted process with the same points skips the
        whole build.
    points_digest : str, optional
        Content digest of the nonuniform points (e.g.
        :meth:`repro.service.TransformRequest.points_key`).  Required for
        store participation: the grid coordinates themselves are too large to
        key on.
    bin_shape : tuple of int, optional
        The bin shape ``grid_coords`` were bin-sorted by, when
        ``points_digest`` is of the points in the caller's order; part of
        the key, since the cache's point order depends on it.
    recycle : StencilCache, optional
        A cache the caller discards (the plan's previous point set).  When
        its CSR operator has the new one's size, the new operator is written
        into its arrays instead of fresh memory, which would page-fault on
        first touch; ``recycle`` must not be used afterwards.  Ignored when
        the store participates, whose entries may be shared.
    weight_dtype : numpy dtype
        Precision of the CSR operator's weights: ``float32`` for a
        single-precision point set, whose products then run in float32
        throughout, ``float64`` (the default) otherwise.  Each weight is the
        float64 product of the per-axis values, rounded once.  The
        per-dimension values stay float64.
    """
    if kernel_eval not in ("horner", "exact"):
        raise ValueError(f"kernel_eval must be 'horner' or 'exact', got {kernel_eval!r}")
    if store is not None and points_digest is not None:
        key = stencil_cache_key(points_digest, fine_shape, kernel, kernel_eval,
                                fuse_budget, build_matrix, bin_shape, weight_dtype)
        return stencil_cache_from_arrays(store.get_or_build(
            "stencil", key,
            lambda: stencil_cache_arrays(_build_stencil_cache(
                grid_coords, fine_shape, kernel, kernel_eval, fuse_budget,
                build_matrix, store=store, weight_dtype=weight_dtype,
            )),
        ))
    return _build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval,
                                fuse_budget, build_matrix, store=store, recycle=recycle,
                                weight_dtype=weight_dtype)


def _recyclable_operator(recycle, nnz, index_dtype, weight_dtype):
    """``recycle``'s CSR operator when its arrays fit ``nnz`` entries of
    ``weight_dtype`` weights."""
    old = getattr(recycle, "interp_matrix", None)
    if (old is None or old.data.shape != (nnz,) or old.data.dtype != weight_dtype
            or old.indices.dtype != index_dtype):
        return None
    return old


def _build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval,
                         fuse_budget, build_matrix, store=None, recycle=None,
                         weight_dtype=np.float64):
    """The actual build (no store lookup); see :func:`build_stencil_cache`."""
    ndim = len(fine_shape)
    w = kernel.width
    use_horner = kernel_eval == "horner" and hasattr(kernel, "evaluate_offsets_horner")

    coords = [np.asarray(g, dtype=np.float64) for g in grid_coords]
    i0_list = [np.ceil(g - 0.5 * w).astype(np.int64) for g in coords]
    m = i0_list[0].shape[0]
    k = w ** ndim
    with_matrix = build_matrix and m * k <= fuse_budget
    order = pencil_starts = tile_starts = tile_keys = None
    if not with_matrix:
        # The windowed engine's order, before any value is evaluated.
        order, pencil_starts, tile_starts, tile_keys = engine_order(i0_list, fine_shape, w)
        if order is not None:
            coords = [g[order] for g in coords]
            i0_list = [i0[order] for i0 in i0_list]

    vals_list = []
    for g, i0 in zip(coords, i0_list):
        frac = g - i0
        if use_horner:
            vals_list.append(kernel.evaluate_offsets_horner(frac, store=store).T)
        else:
            vals_list.append(np.ascontiguousarray(kernel.evaluate_offsets(frac).T))

    matrix = None
    if with_matrix:
        # The index dtype scipy would pick anyway, so it keeps the arrays
        # instead of converting (copying) them.
        n_fine = int(np.prod(fine_shape))
        index_dtype = (np.int32 if max(n_fine, m * k) <= np.iinfo(np.int32).max
                       else np.int64)
        old = _recyclable_operator(recycle, m * k, index_dtype, weight_dtype)
        flat_idx, weights = _tensor_stencil(
            i0_list, vals_list, fine_shape, index_dtype,
            out=None if old is None else (old.indices, old.data),
            weight_dtype=weight_dtype)
        # Every row holds k entries, so an operator of equal size has this
        # very indptr.
        indptr = (np.arange(0, (m + 1) * k, k, dtype=index_dtype) if old is None
                  else old.indptr)
        matrix = _sparse.csr_matrix(
            (weights.reshape(-1), flat_idx.reshape(-1), indptr),
            shape=(m, int(np.prod(fine_shape))),
        )
    return StencilCache(
        fine_shape=tuple(int(n) for n in fine_shape),
        width=int(w),
        i0=i0_list,
        vals=vals_list,
        interp_matrix=matrix,
        kernel_eval="horner" if use_horner else "exact",
        order=order,
        pencil_starts=pencil_starts,
        tile_starts=tile_starts,
        tile_keys=tile_keys,
    )


# --------------------------------------------------------------------------- #
# artifact-store serialization
# --------------------------------------------------------------------------- #
#: The optional arrays of the windowed engine's layout.
_ENGINE_LAYOUT = ("order", "pencil_starts", "tile_starts", "tile_keys")


def stencil_cache_key(points_digest, fine_shape, kernel, kernel_eval,
                      fuse_budget, build_matrix, bin_shape=None,
                      weight_dtype=np.float64):
    """The artifact key one stencil cache is stored under.

    Every input that shapes the cache's contents participates: the points
    digest, the fine-grid geometry, the kernel parameters, the evaluation
    mode, the fusion knobs, the bin shape that sets the point order
    (``None``: the digested order) and the operator's weight dtype.  Two
    processes computing the same key are guaranteed bit-identical caches
    (the build is deterministic).
    """
    grid = "x".join(str(int(n)) for n in fine_shape)
    bins = "none" if bin_shape is None else "x".join(str(int(n)) for n in bin_shape)
    return (f"pts={points_digest}.grid={grid}.w={int(kernel.width)}"
            f".beta={float(kernel.beta):.9g}.eval={kernel_eval}"
            f".budget={int(fuse_budget)}.matrix={int(bool(build_matrix))}"
            f".bins={bins}.weights={np.dtype(weight_dtype).name}")


def stencil_cache_arrays(cache):
    """Flatten a :class:`StencilCache` into a ``{name: ndarray}`` payload.

    The per-dimension lists are stacked into single ``(ndim, ...)`` members:
    npz access cost is dominated by fixed per-member overhead (header parse,
    CRC, allocation), so fewer, larger members load measurably faster --
    that load is the warm path's floor.
    """
    arrays = {
        "fine_shape": np.asarray(cache.fine_shape, dtype=np.int64),
        "width": np.asarray(cache.width, dtype=np.int64),
        "kernel_eval": np.asarray(cache.kernel_eval),
        "i0": np.stack(cache.i0),
        "vals": np.stack(cache.vals),
    }
    if cache.interp_matrix is not None:
        arrays["csr_data"] = cache.interp_matrix.data
        arrays["csr_indices"] = cache.interp_matrix.indices
        arrays["csr_indptr"] = cache.interp_matrix.indptr
    for name in _ENGINE_LAYOUT:
        if getattr(cache, name) is not None:
            arrays[name] = getattr(cache, name)
    return arrays


def stencil_cache_from_arrays(arrays):
    """Rebuild a :class:`StencilCache` from :func:`stencil_cache_arrays`."""
    fine_shape = tuple(int(n) for n in np.asarray(arrays["fine_shape"]))
    ndim = len(fine_shape)
    matrix = None
    if "csr_data" in arrays:
        m = int(arrays["i0"].shape[1])
        matrix = _sparse.csr_matrix(
            (arrays["csr_data"], arrays["csr_indices"], arrays["csr_indptr"]),
            shape=(m, int(np.prod(fine_shape))),
        )
    return StencilCache(
        fine_shape=fine_shape,
        width=int(arrays["width"]),
        i0=[arrays["i0"][d] for d in range(ndim)],
        vals=[arrays["vals"][d] for d in range(ndim)],
        interp_matrix=matrix,
        kernel_eval=str(arrays["kernel_eval"]),
        **{name: arrays.get(name) for name in _ENGINE_LAYOUT},
    )
