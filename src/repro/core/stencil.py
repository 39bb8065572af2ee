"""Plan-level stencil cache: precomputed spreading geometry for one point set.

The paper's plan / set_pts / execute separation (Sec. V-A) exists so that the
per-point work that depends only on the *points* -- not on the strengths -- is
paid once and amortized over many ``execute`` calls (the MTIP use case, where
the same nonuniform points are reused across ``n_trans`` strength vectors and
across solver iterations).

At ``set_pts`` time we therefore precompute and store, per dimension:

* ``i0``      -- the first fine-grid node each point touches (unwrapped),
* ``vals``    -- the ``w`` kernel values per point (Horner-evaluated by
  default, see :func:`repro.kernels.es_kernel.horner_coefficients`),

and, when the footprint ``M * w^d`` fits a memory budget and scipy is
available, the *fused* form:

* ``interp_matrix`` -- the ``w^d`` wrapped flat fine-grid indices and
  tensor-product kernel values of every point as a ``(M, n_fine)`` CSR sparse
  matrix, whose transpose is the spreading operator.

``execute`` then never calls ``evaluate_offsets`` again: spreading becomes a
single sparse mat-mat over the ``(n_trans, M)`` strength block and
interpolation the transposed gather; without the operator, the windowed
engine (:mod:`repro.core.windowed`) works from ``i0`` and ``vals`` alone.
The cache is tied to one point set; ``Plan.set_pts`` rebuilds it, which is
exactly the invalidation the paper's interface implies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
#: ~256 MB for the int64 indices plus ~256 MB for the float64 weights.
DEFAULT_FUSE_BUDGET = 1 << 25

try:  # pragma: no cover - exercised indirectly everywhere scipy exists
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - offline images always ship scipy
    _sparse = None


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
        Unwrapped first node per dimension (the windowed engine addresses
        each point's window in a padded grid from it).
    vals : list of ndarray, each (M, w)
        Kernel values per dimension.
    interp_matrix : scipy.sparse.csr_matrix (M, prod(fine_shape)) or None
        Row ``j`` holds point ``j``'s stencil; ``interp_matrix @ grid`` is
        interpolation and ``interp_matrix.T @ c`` is spreading.
    kernel_eval : str
        Which kernel evaluation built the values ("horner" or "exact").
    pencils : object or None
        The windowed engine's crowded-window grouping of the points, filled
        in on first use (:mod:`repro.core.windowed`); never persisted.
    """

    fine_shape: tuple
    width: int
    i0: list
    vals: list
    interp_matrix: object = None
    kernel_eval: str = "horner"
    pencils: object = field(default=None, repr=False, compare=False)

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
        if self.interp_matrix is not None:
            total += (self.interp_matrix.data.nbytes
                      + self.interp_matrix.indices.nbytes
                      + self.interp_matrix.indptr.nbytes)
        return int(total)


def _tensor_stencil(idx_per_dim, vals_per_dim, fine_shape):
    """Fuse per-dimension stencils into flat indices and product weights.

    Returns ``(flat_idx, weights)`` of shape ``(M, w^d)`` where ``flat_idx``
    indexes the flattened fine grid and ``weights`` holds the separable kernel
    tensor product.
    """
    ndim = len(fine_shape)
    m = idx_per_dim[0].shape[0]
    if ndim == 1:
        return idx_per_dim[0].reshape(m, -1), vals_per_dim[0].reshape(m, -1)
    if ndim == 2:
        n2 = fine_shape[1]
        flat_idx = idx_per_dim[0][:, :, None] * n2 + idx_per_dim[1][:, None, :]
        weights = vals_per_dim[0][:, :, None] * vals_per_dim[1][:, None, :]
    else:
        n2, n3 = fine_shape[1], fine_shape[2]
        flat_idx = (
            idx_per_dim[0][:, :, None, None] * (n2 * n3)
            + idx_per_dim[1][:, None, :, None] * n3
            + idx_per_dim[2][:, None, None, :]
        )
        weights = (
            vals_per_dim[0][:, :, None, None]
            * vals_per_dim[1][:, None, :, None]
            * vals_per_dim[2][:, None, None, :]
        )
    return flat_idx.reshape(m, -1), weights.reshape(m, -1)


def build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval="horner",
                        fuse_budget=DEFAULT_FUSE_BUDGET, build_matrix=True,
                        store=None, points_digest=None):
    """Build the stencil cache for one point set.

    Parameters
    ----------
    grid_coords : sequence of ndarray
        Per-dimension fine-grid coordinates in ``[0, n_d)``.
    fine_shape : tuple of int
    kernel : ESKernel or compatible
        Must provide ``width`` and ``evaluate_offsets``; the Horner fast path
        additionally needs ``evaluate_offsets_horner`` (ES kernel only) and
        silently falls back to the exact form otherwise.
    kernel_eval : {"horner", "exact"}
    fuse_budget : int
        Maximum fused entry count ``M * w^d`` (see :data:`DEFAULT_FUSE_BUDGET`).
    build_matrix : bool
        Whether to assemble the CSR operator (requires scipy and ``M * w^d``
        within ``fuse_budget``).
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
    """
    if kernel_eval not in ("horner", "exact"):
        raise ValueError(f"kernel_eval must be 'horner' or 'exact', got {kernel_eval!r}")
    if store is not None and points_digest is not None:
        key = stencil_cache_key(points_digest, fine_shape, kernel, kernel_eval,
                                fuse_budget, build_matrix)
        arrays = store.get_or_build(
            "stencil", key,
            lambda: stencil_cache_arrays(_build_stencil_cache(
                grid_coords, fine_shape, kernel, kernel_eval, fuse_budget,
                build_matrix, store=store,
            )),
        )
        cache = stencil_cache_from_arrays(arrays)
        if cache is not None:
            return cache
        # Deserialization impossible (e.g. a matrix-bearing entry without
        # scipy): fall through to a fresh build.
    return _build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval,
                                fuse_budget, build_matrix, store=store)


def _build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval,
                         fuse_budget, build_matrix, store=None):
    """The actual build (no store lookup); see :func:`build_stencil_cache`."""
    ndim = len(fine_shape)
    w = kernel.width
    use_horner = kernel_eval == "horner" and hasattr(kernel, "evaluate_offsets_horner")

    i0_list, vals_list = [], []
    for d in range(ndim):
        g = np.asarray(grid_coords[d], dtype=np.float64)
        i0 = np.ceil(g - 0.5 * w).astype(np.int64)
        frac = g - i0
        if use_horner:
            vals = kernel.evaluate_offsets_horner(frac, store=store)
        else:
            vals = kernel.evaluate_offsets(frac)
        i0_list.append(i0)
        vals_list.append(vals)

    m = i0_list[0].shape[0]
    matrix = None
    if build_matrix and _sparse is not None and m * (w ** ndim) <= fuse_budget:
        offsets = np.arange(w, dtype=np.int64)
        idx_list = [np.mod(i0[:, None] + offsets, n) for i0, n in zip(i0_list, fine_shape)]
        flat_idx, weights = _tensor_stencil(idx_list, vals_list, fine_shape)
        k = flat_idx.shape[1]
        indptr = np.arange(0, (m + 1) * k, k, dtype=np.int64)
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
    )


# --------------------------------------------------------------------------- #
# artifact-store serialization
# --------------------------------------------------------------------------- #
def stencil_cache_key(points_digest, fine_shape, kernel, kernel_eval,
                      fuse_budget, build_matrix):
    """The artifact key one stencil cache is stored under.

    Every input that shapes the cache's contents participates: the points
    digest, the fine-grid geometry, the kernel parameters, the evaluation
    mode and the fusion knobs.  Two processes computing the same key are
    guaranteed bit-identical caches (the build is deterministic).
    """
    grid = "x".join(str(int(n)) for n in fine_shape)
    return (f"pts={points_digest}.grid={grid}.w={int(kernel.width)}"
            f".beta={float(kernel.beta):.9g}.eval={kernel_eval}"
            f".budget={int(fuse_budget)}.matrix={int(bool(build_matrix))}")


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
    return arrays


def stencil_cache_from_arrays(arrays):
    """Rebuild a :class:`StencilCache` from :func:`stencil_cache_arrays`.

    Returns ``None`` when the payload cannot be realized in this process
    (a CSR-bearing entry without scipy available) -- the caller then falls
    back to a fresh build.
    """
    fine_shape = tuple(int(n) for n in np.asarray(arrays["fine_shape"]))
    ndim = len(fine_shape)
    has_matrix = "csr_data" in arrays
    if has_matrix and _sparse is None:  # pragma: no cover - images ship scipy
        return None
    matrix = None
    if has_matrix:
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
    )
