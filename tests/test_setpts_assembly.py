"""``set_pts`` kernel evaluation, stencil assembly and bin sort: bit-identity.

The Horner evaluation runs node-major in point blocks, the CSR operator is
assembled in node-major point blocks with table-driven index wrapping, and
the bin sort narrows its keys to 16 bits when it can.  None of that may move
a bit: every output is compared with ``np.array_equal`` (and its dtype)
against an in-test copy of the point-major formulas these replaced -- the
broadcasting Horner loop, the whole-array ``(M, w, 1) x (M, 1, w)`` tensor
product and the ``np.mod`` index wrap.  A memory check bounds what the
blocked build holds beyond the cache it returns.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import stencil
from repro.core.binsort import bin_sort, compute_bin_index
from repro.core.stencil import DEFAULT_FUSE_BUDGET, build_stencil_cache
from repro.kernels import ESKernel, es_kernel
from repro.kernels.es_kernel import horner_coefficients

#: Small fine grids, so stencils wrap around (more than once for w=13).
_FINE = {1: (40,), 2: (24, 20), 3: (12, 10, 14)}


# --------------------------------------------------------------------------- #
# reference formulas (the point-major build, copied)
# --------------------------------------------------------------------------- #
def _reference_horner(kernel, frac):
    coeffs = horner_coefficients(kernel.width, kernel.beta)
    u = (2.0 * frac - (kernel.width - 1.0))[:, None]
    out = np.broadcast_to(coeffs[:, -1], (frac.shape[0], kernel.width)).copy()
    for k in range(coeffs.shape[1] - 2, -1, -1):
        out *= u
        out += coeffs[:, k]
    return out


def _reference_tensor(idx_per_dim, vals_per_dim, fine_shape, index_dtype):
    ndim = len(fine_shape)
    m = idx_per_dim[0].shape[0]
    if ndim == 1:
        return (idx_per_dim[0].astype(index_dtype, copy=False).reshape(m, -1),
                vals_per_dim[0].reshape(m, -1))
    strides = np.cumprod((1,) + tuple(int(n) for n in fine_shape[:0:-1]))[::-1]

    def along(a, d):
        view = [m] + [1] * ndim
        view[d + 1] = a.shape[1]
        return a.reshape(view)

    scaled = [(idx * int(st)).astype(index_dtype, copy=False)
              for idx, st in zip(idx_per_dim, strides)]
    flat_idx = along(scaled[0], 0) + along(scaled[1], 1)
    weights = along(vals_per_dim[0], 0) * along(vals_per_dim[1], 1)
    for d in range(2, ndim):
        flat_idx = flat_idx + along(scaled[d], d)
        weights = weights * along(vals_per_dim[d], d)
    return flat_idx.reshape(m, -1), weights.reshape(m, -1)


def _reference_build(grid_coords, fine_shape, kernel, kernel_eval,
                     fuse_budget=DEFAULT_FUSE_BUDGET):
    """``(i0, vals, csr)`` of the point-major build; ``csr`` None past budget."""
    w = kernel.width
    ndim = len(fine_shape)
    i0_list, vals_list = [], []
    for g in grid_coords:
        i0 = np.ceil(g - 0.5 * w).astype(np.int64)
        frac = g - i0
        vals = (_reference_horner(kernel, frac) if kernel_eval == "horner"
                else kernel.evaluate_offsets(frac))
        i0_list.append(i0)
        vals_list.append(vals)
    m = i0_list[0].shape[0]
    k = w ** ndim
    if m * k > fuse_budget:
        return i0_list, vals_list, None
    offsets = np.arange(w, dtype=np.int64)
    idx_list = [np.mod(i0[:, None] + offsets, n) for i0, n in zip(i0_list, fine_shape)]
    n_fine = int(np.prod(fine_shape))
    index_dtype = (np.int32 if max(n_fine, m * k) <= np.iinfo(np.int32).max
                   else np.int64)
    flat_idx, weights = _reference_tensor(idx_list, vals_list, fine_shape, index_dtype)
    indptr = np.arange(0, (m + 1) * k, k, dtype=index_dtype)
    return i0_list, vals_list, (weights.reshape(-1), flat_idx.reshape(-1), indptr)


def _assert_same(cache, expected):
    """The cache holds the reference arrays: in its own point order (the
    windowed engine's, past budget) and with node-major ``(w, M)`` values."""
    i0_list, vals_list, csr = expected
    m = i0_list[0].shape[0]
    order = np.arange(m) if cache.order is None else cache.order
    assert np.array_equal(np.sort(order), np.arange(m))
    for got, want in zip(cache.i0, i0_list):
        assert got.dtype == want.dtype and np.array_equal(got, want[order])
    for got, want in zip(cache.vals, vals_list):
        assert got.dtype == want.dtype and np.array_equal(got, want[order].T)
        assert got.flags.c_contiguous
    if csr is None:
        assert cache.interp_matrix is None and cache.pencil_starts is not None
        return
    assert cache.order is None
    mat = cache.interp_matrix
    for got, want in zip((mat.data, mat.indices, mat.indptr), csr):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _coords(rng, m, fine_shape):
    return [rng.random(m) * n for n in fine_shape]


def _block_points(ndim, width):
    """Points per stencil assembly block (a block of one more point splits)."""
    return max(1, stencil._BLOCK_ENTRIES // width ** ndim)


# --------------------------------------------------------------------------- #
# bit-identity of the stencil cache
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel_eval", ["horner", "exact"])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-12])
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("size", ["one", "777", "block+1", "2^14"])
def test_stencil_cache_matches_point_major_build(ndim, eps, kernel_eval, size):
    kernel = ESKernel.from_tolerance(eps)
    fine = _FINE[ndim]
    m = {"one": 1, "777": 777, "block+1": _block_points(ndim, kernel.width) + 1,
         "2^14": 1 << 14}[size]
    rng = np.random.default_rng([ndim, kernel.width, m])
    coords = _coords(rng, m, fine)
    expected = _reference_build(coords, fine, kernel, kernel_eval)
    fresh = build_stencil_cache(coords, fine, kernel, kernel_eval=kernel_eval)
    _assert_same(fresh, expected)

    # A re-point of equal size writes into the previous operator's arrays.
    other = _coords(rng, m, fine)
    expected = _reference_build(other, fine, kernel, kernel_eval)
    previous = fresh.interp_matrix
    repointed = build_stencil_cache(other, fine, kernel, kernel_eval=kernel_eval,
                                    recycle=fresh)
    _assert_same(repointed, expected)
    if previous is not None:
        assert np.shares_memory(repointed.interp_matrix.data, previous.data)
        assert np.shares_memory(repointed.interp_matrix.indices, previous.indices)


def test_horner_block_boundary_is_bit_identical():
    """One point past a Horner evaluation block, against the broadcasting loop."""
    kernel = ESKernel.from_tolerance(1e-6)
    m = es_kernel._HORNER_BLOCK_VALUES // kernel.width + 1
    lo = kernel.width / 2.0 - 1.0
    frac = lo + np.random.default_rng(5).random(m) * (1.0 - 1e-12) + 1e-12
    got = kernel.evaluate_offsets_horner(frac)
    assert got.T.flags.c_contiguous  # node-major storage, (M, w) view
    assert np.array_equal(got, _reference_horner(kernel, frac))


@pytest.mark.parametrize("eps", [1e-3, 1e-12])
def test_int64_indices_match_point_major_build(eps):
    """A 2^16 x 2^16 fine grid passes 2^31 cells: the operator takes int64
    indices (no grid is allocated to build it)."""
    kernel = ESKernel.from_tolerance(eps)
    fine = (1 << 16, 1 << 16)
    rng = np.random.default_rng(7)
    coords = _coords(rng, 999, fine)
    # Wrap both ends of both axes.
    coords[0][:2] = (0.1, fine[0] - 0.1)
    coords[1][:2] = (fine[1] - 0.2, 0.3)
    expected = _reference_build(coords, fine, kernel, "horner")
    cache = build_stencil_cache(coords, fine, kernel)
    assert cache.interp_matrix.indices.dtype == np.int64
    _assert_same(cache, expected)


# --------------------------------------------------------------------------- #
# bin sort
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("fine,bins", [
    ((256, 256), (32, 32)),        # 64 bins: 16-bit keys
    ((1024, 1024), (4, 4)),        # exactly 2^16 bins: still 16-bit keys
    ((1024, 1024), (2, 2)),        # 2^18 bins: int64 keys
    ((64, 64, 64), (16, 16, 2)),
])
def test_bin_sort_matches_stable_argsort(fine, bins):
    rng = np.random.default_rng(11)
    coords = _coords(rng, 20000, fine)
    coords[0][:3] = (0.0, fine[0] - 1e-9, fine[0] * (1 - 1e-16))
    sort = bin_sort(coords, fine, bins)
    bin_index, bins_per_dim = compute_bin_index(coords, fine, bins)
    n_bins = int(np.prod(bins_per_dim))
    assert sort.bin_index.dtype == np.int64
    assert np.array_equal(sort.bin_index, bin_index)
    assert sort.permutation.dtype == np.int64
    assert np.array_equal(sort.permutation, np.argsort(bin_index, kind="stable"))
    assert np.array_equal(sort.bin_counts, np.bincount(bin_index, minlength=n_bins))
    cells = [np.clip(np.floor(g).astype(np.int64), 0, n - 1) for g, n in zip(coords, fine)]
    flat = np.ravel_multi_index(cells[::-1], fine[::-1])
    assert sort.n_occupied_cells == np.unique(flat).shape[0]


# --------------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------------- #
def _build_overshoot(coords, fine, kernel):
    """Traced peak of one build minus the bytes of the cache it returns."""
    build_stencil_cache(coords, fine, kernel)  # Horner fit, imports
    tracemalloc.start()
    try:
        cache = build_stencil_cache(coords, fine, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return cache, peak - cache.nbytes()


@pytest.mark.parametrize("ndim,m,fine", [
    (2, 1 << 16, (256, 256)),       # oneshot-2d1 scale, with operator
    (3, 1 << 17, (64, 64, 64)),     # large-3d-cluster scale, past the budget
])
def test_build_holds_one_values_array_beyond_the_cache(ndim, m, fine):
    """The build may hold one ``(M, w)`` float64 array (per-axis temporaries)
    plus fixed block scratch beyond what it returns; whole-array node-major
    copies or ``(M, w)`` index arrays per axis would exceed it."""
    kernel = ESKernel.from_tolerance(1e-6)
    coords = _coords(np.random.default_rng(13), m, fine)
    cache, overshoot = _build_overshoot(coords, fine, kernel)
    assert (cache.interp_matrix is not None) == (ndim == 2)
    # Assembly block: index and weight tensors, the intermediate of the
    # axes before the last, and per-axis node-major inputs; Horner block:
    # the (w, points) chain and its abscissae.
    block_scratch = (4 * stencil._BLOCK_ENTRIES * 8
                     + 2 * es_kernel._HORNER_BLOCK_VALUES * 8)
    assert overshoot <= m * kernel.width * 8 + block_scratch
