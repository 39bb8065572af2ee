"""The windowed spread/interp engine against the CSR operator.

Plans with ``stencil_budget=0`` hold no sparse operator, so the ``cached``
numerics (and ``device_sim``, which delegates to them) spread and interpolate
through :mod:`repro.core.windowed`; default plans at these sizes use the CSR
operator.  Both engines run the same stencils and differ only in summation
order, so they must agree within the ``eps / 10`` backend-equivalence bound
of ``tests/test_property_equivalence.py``.
"""

import numpy as np
import pytest

from repro import Plan
from repro.core.binsort import bin_sort, to_grid_coordinates
from repro.core.interp import interp_cached
from repro.core.spread import spread_cached
from repro.core.stencil import build_stencil_cache
from repro.core.windowed import interp_windowed, spread_windowed
from repro.kernels import ESKernel
from repro.workloads.distributions import cluster_points

_EPS = {"single": 1e-4, "double": 1e-9}
_TOL = {p: eps / 10.0 for p, eps in _EPS.items()}
_MODES = {1: (30,), 2: (12, 10), 3: (8, 6, 7)}
#: Coordinates at the period edge: -1e-12 folds to just below 2*pi, the
#: highest first-node index ``i0``; -pi and 0 sit exactly on grid nodes.
_EDGE = (-1e-12, -np.pi, 0.0)


def _points(rng, ndim, dist, m, fine_shape):
    if dist == "cluster":
        pts = cluster_points(m, fine_shape, rng)
    else:
        pts = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    return [np.concatenate([p, _EDGE]) for p in pts]


def _random(rng, shape, dtype):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def _run(nufft_type, ndim, precision, n_trans, pts, targets, data, out=None, **opts):
    modes = ndim if nufft_type == 3 else _MODES[ndim]
    with Plan(nufft_type, modes, n_trans=n_trans, eps=_EPS[precision],
              precision=precision, **opts) as plan:
        if nufft_type == 3:
            plan.set_pts(*pts, *([None] * (3 - ndim)), *targets)
        else:
            plan.set_pts(*pts)
        inner = plan._t3_inner if nufft_type == 3 else plan
        operators = (plan._stencil.interp_matrix is not None,
                     inner._stencil.interp_matrix is not None)
        return plan.execute(data, out=out), operators


def _error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("dist", ["rand", "cluster"])
@pytest.mark.parametrize("n_trans", [1, 3])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("nufft_type", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_windowed_matches_csr(ndim, nufft_type, precision, n_trans, dist):
    rng = np.random.default_rng([ndim, nufft_type, n_trans, len(dist)])
    with Plan(1, _MODES[ndim], eps=_EPS[precision], precision=precision) as probe:
        fine_shape = probe.fine_shape
        dtype = probe.precision.complex_dtype
    pts = _points(rng, ndim, dist, 300, fine_shape)
    m = pts[0].shape[0]
    targets = [rng.uniform(-10.0, 10.0, 60) for _ in range(ndim)]
    shape = _MODES[ndim] if nufft_type == 2 else (m,)
    data = _random(rng, (n_trans,) + shape if n_trans > 1 else shape, dtype)
    args = (nufft_type, ndim, precision, n_trans, pts, targets, data)

    csr, csr_ops = _run(*args)
    windowed, windowed_ops = _run(*args, stencil_budget=0)
    assert csr_ops == (True, True) and windowed_ops == (False, False)
    assert windowed.shape == csr.shape and windowed.dtype == csr.dtype
    assert _error(windowed, csr) <= _TOL[precision]


@pytest.mark.parametrize("layout", ["strided", "fortran"])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_windowed_writes_any_out_layout(layout, precision):
    rng = np.random.default_rng(7)
    pts = _points(rng, 2, "rand", 400, None)
    m = pts[0].shape[0]
    with Plan(1, _MODES[2], eps=_EPS[precision], precision=precision) as probe:
        fine_shape = probe.fine_shape
        dtype = probe.precision.complex_dtype

    def out_like(shape):
        if layout == "fortran":
            return np.zeros(shape, dtype=dtype, order="F")
        return np.zeros(shape[:-1] + (2 * shape[-1],), dtype=dtype)[..., ::2]

    # Type 2: interpolation writes straight into ``out``.
    modes = _random(rng, (3,) + _MODES[2], dtype)
    ref, _ = _run(2, 2, precision, 3, pts, None, modes)
    out = out_like((3, m))
    got, _ = _run(2, 2, precision, 3, pts, None, modes, out=out, stencil_budget=0)
    assert got is out and _error(out, ref) <= _TOL[precision]

    # Spread-only type 1: spreading writes straight into ``out``.
    c = _random(rng, (3, m), dtype)
    ref, _ = _run(1, 2, precision, 3, pts, None, c, spread_only=True)
    out = out_like((3,) + fine_shape)
    got, _ = _run(1, 2, precision, 3, pts, None, c, out=out, spread_only=True,
                  stencil_budget=0)
    assert got is out and _error(out, ref) <= _TOL[precision]

    # Spread-only type 2 from a strided fine-grid block.
    grid = out_like((3,) + fine_shape)
    grid[...] = _random(rng, (3,) + fine_shape, dtype)
    ref, _ = _run(2, 2, precision, 3, pts, None, grid, spread_only=True)
    got, _ = _run(2, 2, precision, 3, pts, None, grid, spread_only=True,
                  stencil_budget=0)
    assert _error(got, ref) <= _TOL[precision]


# --------------------------------------------------------------------------- #
# engine level: grids narrower than the kernel, adjointness, bad windows
# --------------------------------------------------------------------------- #
def _engine_setup(rng, fine_shape, eps, m=200):
    kernel = ESKernel.from_tolerance(eps)
    coords = [np.concatenate([rng.uniform(-np.pi, np.pi, m), _EDGE])
              for _ in fine_shape]
    grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine_shape)]
    cache = build_stencil_cache(grid_coords, fine_shape, kernel)
    sort = bin_sort(grid_coords, fine_shape, (4,) * len(fine_shape))
    return grid_coords, cache, sort.permutation


@pytest.mark.parametrize("fine_shape", [(3,), (5,), (5, 4), (2, 7), (4, 3, 5)])
def test_margins_wider_than_grid(fine_shape):
    # Width-13 kernel on grids of 2..7 cells: every margin wraps several times.
    rng = np.random.default_rng(sum(fine_shape))
    grid_coords, cache, order = _engine_setup(rng, fine_shape, 1e-12)
    assert cache.width > max(fine_shape)
    m = cache.n_points
    c = _random(rng, (2, m), np.complex128)
    spread = spread_windowed(c, cache, order, np.zeros((2,) + fine_shape, complex))
    expected = spread_cached(fine_shape, c, cache, np.complex128)
    np.testing.assert_allclose(spread, expected, rtol=1e-12, atol=1e-12)

    grid = _random(rng, (2,) + fine_shape, np.complex128)
    values = interp_windowed(grid, cache, order, np.zeros((2, m), complex))
    expected = interp_cached(grid, grid_coords, cache, np.complex128)
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fine_shape", [(40,), (24, 18), (12, 10, 14), (3, 4, 5)])
def test_spread_is_adjoint_of_interp(fine_shape):
    """<spread(c), g> == <c, interp(g)> to double-precision roundoff."""
    rng = np.random.default_rng(len(fine_shape))
    _, cache, order = _engine_setup(rng, fine_shape, 1e-9)
    c = _random(rng, (1, cache.n_points), np.complex128)
    g = _random(rng, (1,) + fine_shape, np.complex128)
    spread = spread_windowed(c, cache, order, np.zeros_like(g))
    values = interp_windowed(g, cache, order, np.zeros_like(c))
    lhs = np.vdot(g, spread)  # sum of spread * conj(g)
    rhs = np.vdot(values, c)  # sum of c * conj(interp(g))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_windows_outside_padded_grid_raise():
    rng = np.random.default_rng(3)
    _, cache, order = _engine_setup(rng, (16, 16), 1e-6)
    cache.i0[1][5] = 16 + cache.width  # a window past the trailing margin
    c = np.ones((1, cache.n_points), complex)
    with pytest.raises(ValueError, match="axis 1"):
        spread_windowed(c, cache, order, np.zeros((1, 16, 16), complex))
    with pytest.raises(ValueError, match="padded grid"):
        interp_windowed(np.ones((1, 16, 16), complex), cache, order, c.copy())
