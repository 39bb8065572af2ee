"""The windowed spread/interp engine against the CSR operator.

Plans with ``stencil_budget=0`` hold no sparse operator, so the ``cached``
numerics (and ``device_sim``, which delegates to them) spread and interpolate
through :mod:`repro.core.windowed`; default plans at these sizes use the CSR
operator.  Both engines run the same stencils and differ only in summation
order, so they must agree within the ``eps / 10`` backend-equivalence bound
of ``tests/test_property_equivalence.py``.  The same bound holds between the
windowed engine's two regimes (dense GEMM per crowded pencil; for the rest,
the tile GEMM to spread and the window gather to interpolate), which the
tests below force by patching the pencil threshold, and between either
engine over a plan's bin-sorted stencil cache and a CSR operator built in the
caller's point order.  One-shot 2D/3D simple calls run on the windowed
engine (they build no CSR operator); 1D ones keep the operator.
"""

import tracemalloc

import numpy as np
import pytest

from repro import Plan, nudft_type1, nudft_type2, nudft_type3
from repro.backends import get_backend
from repro.core import windowed
from repro.core.binsort import bin_sort, to_grid_coordinates
from repro.core.interp import interp_cached
from repro.core.pointset import PointSet
from repro.core.spread import spread_cached
from repro.core.stencil import build_stencil_cache
from repro.core.windowed import interp_windowed, spread_windowed
from repro.kernels import ESKernel
from repro.workloads.distributions import cluster_points, mixture_points

_EPS = {"single": 1e-4, "double": 1e-9}
_TOL = {p: eps / 10.0 for p, eps in _EPS.items()}
#: Delivered error may exceed the requested eps by this factor against the
#: exact sums (the library-wide contract of ``tests/test_accuracy.py``).
_SAFETY = 12.0
_MODES = {1: (30,), 2: (12, 10), 3: (8, 6, 7)}
#: Coordinates at the period edge: -1e-12 folds to just below 2*pi, the
#: highest first-node index ``i0``; -pi and 0 sit exactly on grid nodes.
_EDGE = (-1e-12, -np.pi, 0.0)


def _points(rng, ndim, dist, m, fine_shape):
    if dist == "cluster":
        pts = cluster_points(m, fine_shape, rng)
    elif dist == "mixture":
        pts = mixture_points(m, ndim, rng)
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
        operators = (plan.point_set.stencil.interp_matrix is not None,
                     inner.point_set.stencil.interp_matrix is not None)
        return plan.execute(data, out=out), operators


def _out_like(shape, dtype, layout):
    if layout == "C":
        return np.zeros(shape, dtype=dtype)
    if layout == "fortran":
        return np.zeros(shape, dtype=dtype, order="F")
    return np.zeros(shape[:-1] + (2 * shape[-1],), dtype=dtype)[..., ::2]


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

    # Type 2: interpolation writes straight into ``out``.
    modes = _random(rng, (3,) + _MODES[2], dtype)
    ref, _ = _run(2, 2, precision, 3, pts, None, modes)
    out = _out_like((3, m), dtype, layout)
    got, _ = _run(2, 2, precision, 3, pts, None, modes, out=out, stencil_budget=0)
    assert got is out and _error(out, ref) <= _TOL[precision]

    # Spread-only type 1: spreading writes straight into ``out``.
    c = _random(rng, (3, m), dtype)
    ref, _ = _run(1, 2, precision, 3, pts, None, c, spread_only=True)
    out = _out_like((3,) + fine_shape, dtype, layout)
    got, _ = _run(1, 2, precision, 3, pts, None, c, out=out, spread_only=True,
                  stencil_budget=0)
    assert got is out and _error(out, ref) <= _TOL[precision]

    # Spread-only type 2 from a strided fine-grid block.
    grid = _out_like((3,) + fine_shape, dtype, layout)
    grid[...] = _random(rng, (3,) + fine_shape, dtype)
    ref, _ = _run(2, 2, precision, 3, pts, None, grid, spread_only=True)
    got, _ = _run(2, 2, precision, 3, pts, None, grid, spread_only=True,
                  stencil_budget=0)
    assert _error(got, ref) <= _TOL[precision]


# --------------------------------------------------------------------------- #
# bin-sort point order: both engines against a user-order operator
# --------------------------------------------------------------------------- #
def _check_stage(plan, spreads, rng, layout):
    """One stage of ``plan``, run by the cached backend into an ``out`` of
    ``layout``, against a CSR operator built in the caller's point order
    (its row ``j`` is the caller's point ``j``)."""
    user = build_stencil_cache(plan.point_set.grid_coords, plan.fine_shape, plan.kernel,
                               kernel_eval=plan.opts.kernel_eval)
    cached = get_backend("cached")
    dtype = plan.precision.complex_dtype
    batch = (plan.n_trans,)
    if spreads:
        c = _random(rng, batch + (plan.n_points,), dtype)
        out = _out_like(batch + plan.fine_shape, dtype, layout)
        assert cached.spread(plan, c, None, out=out) is out
        expected = spread_cached(c, PointSet(plan.point_set.grid_coords, stencil=user),
                                 np.complex128)
    else:
        grid = _random(rng, batch + plan.fine_shape, dtype)
        out = _out_like(batch + (plan.n_points,), dtype, layout)
        assert cached.interp(plan, grid, None, out=out) is out
        expected = interp_cached(grid, PointSet(plan.point_set.grid_coords, stencil=user),
                                 np.complex128)
    assert _error(out, expected) <= _TOL[plan.precision.value]


@pytest.mark.parametrize("layout", ["C", "fortran", "strided"])
@pytest.mark.parametrize("n_trans", [1, 3])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("nufft_type", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_bin_ordered_plan_matches_user_order(ndim, nufft_type, precision, n_trans,
                                             layout):
    """Each stage of a plan (type 3: the outer spread and the inner type-2
    interp) matches a user-order operator through either engine, and every
    end-to-end output lands at the caller's index (checked against the
    exact sums)."""
    rng = np.random.default_rng([ndim, nufft_type, n_trans, len(layout)])
    pts = _points(rng, ndim, "rand", 300, None)
    m = pts[0].shape[0]
    targets = [rng.uniform(-10.0, 10.0, 60) for _ in range(ndim)]
    modes = ndim if nufft_type == 3 else _MODES[ndim]
    shape = _MODES[ndim] if nufft_type == 2 else (m,)
    out_shape = {1: _MODES[ndim], 2: (m,), 3: (60,)}[nufft_type]
    # Bins far smaller than the defaults, so these small fine grids hold many
    # and the bin sort reorders the points.
    bins = (4,) * ndim
    for budget in (None, 0):  # the CSR operator, then the windowed engine
        opts = {} if budget is None else {"stencil_budget": budget}
        with Plan(nufft_type, modes, n_trans=n_trans, eps=_EPS[precision],
                  precision=precision, bin_shape=bins, **opts) as plan:
            if nufft_type == 3:
                plan.set_pts(*pts, *([None] * (3 - ndim)), *targets)
            else:
                plan.set_pts(*pts)
            perm = plan.point_set.sort.permutation
            assert not np.array_equal(perm, np.arange(m))
            assert (plan.point_set.stencil.interp_matrix is None) == (budget == 0)
            _check_stage(plan, nufft_type != 2, rng, layout)
            if nufft_type == 3:
                _check_stage(plan._t3_inner, False, rng, layout)

            data = _random(rng, (n_trans,) + shape, plan.precision.complex_dtype)
            out = _out_like((n_trans,) + out_shape, data.dtype, layout)
            block, target = (data, out) if n_trans > 1 else (data[0], out[0])
            assert plan.execute(block, out=target) is target
        for t in range(n_trans):
            if nufft_type == 1:
                exact = nudft_type1(pts, data[t], _MODES[ndim])
            elif nufft_type == 2:
                exact = nudft_type2(pts, data[t])
            else:
                exact = nudft_type3(pts, data[t], targets)
            assert _error(out[t], exact) <= _SAFETY * _EPS[precision]


# --------------------------------------------------------------------------- #
# engine level: grids narrower than the kernel, adjointness, bad windows
# --------------------------------------------------------------------------- #
def _engine_setup(rng, fine_shape, eps, m=200, dist="rand"):
    """The windowed stencil cache of bin-sorted points, as a plan builds it
    without the CSR operator, and the points' grid coordinates in the
    cache's (engine) order."""
    kernel = ESKernel.from_tolerance(eps)
    coords = _points(rng, len(fine_shape), dist, m, fine_shape)
    grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine_shape)]
    sort = bin_sort(grid_coords, fine_shape, (4,) * len(fine_shape))
    grid_coords = [g[sort.permutation] for g in grid_coords]
    cache = build_stencil_cache(grid_coords, fine_shape, kernel, build_matrix=False)
    if cache.order is not None:
        grid_coords = [g[cache.order] for g in grid_coords]
    return grid_coords, cache


@pytest.mark.parametrize("fine_shape", [(3,), (5,), (5, 4), (2, 7), (4, 3, 5)])
def test_margins_wider_than_grid(fine_shape):
    # Width-13 kernel on grids of 2..7 cells: every margin wraps several times.
    rng = np.random.default_rng(sum(fine_shape))
    grid_coords, cache = _engine_setup(rng, fine_shape, 1e-12)
    assert cache.width > max(fine_shape)
    operator = PointSet(grid_coords, stencil=build_stencil_cache(
        grid_coords, fine_shape, ESKernel.from_tolerance(1e-12)))
    m = cache.n_points
    c = _random(rng, (2, m), np.complex128)
    spread = spread_windowed(c, cache, np.zeros((2,) + fine_shape, complex))
    expected = spread_cached(c, operator, np.complex128)
    np.testing.assert_allclose(spread, expected, rtol=1e-12, atol=1e-12)

    grid = _random(rng, (2,) + fine_shape, np.complex128)
    values = interp_windowed(grid, cache, np.zeros((2, m), complex))
    expected = interp_cached(grid, operator, np.complex128)
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fine_shape", [(40,), (24, 18), (12, 10, 14), (3, 4, 5)])
def test_spread_is_adjoint_of_interp(fine_shape):
    """<spread(c), g> == <c, interp(g)> to double-precision roundoff."""
    rng = np.random.default_rng(len(fine_shape))
    _, cache = _engine_setup(rng, fine_shape, 1e-9)
    c = _random(rng, (1, cache.n_points), np.complex128)
    g = _random(rng, (1,) + fine_shape, np.complex128)
    spread = spread_windowed(c, cache, np.zeros_like(g))
    values = interp_windowed(g, cache, np.zeros_like(c))
    lhs = np.vdot(g, spread)  # sum of spread * conj(g)
    rhs = np.vdot(values, c)  # sum of c * conj(interp(g))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_windows_outside_padded_grid_raise():
    rng = np.random.default_rng(3)
    _, cache = _engine_setup(rng, (16, 16), 1e-6)
    cache.i0[1][5] = 16 + cache.width  # a window past the trailing margin
    c = np.ones((1, cache.n_points), complex)
    with pytest.raises(ValueError, match="axis 1"):
        spread_windowed(c, cache, np.zeros((1, 16, 16), complex))
    with pytest.raises(ValueError, match="padded grid"):
        interp_windowed(np.ones((1, 16, 16), complex), cache, c.copy())


# --------------------------------------------------------------------------- #
# the two regimes: dense GEMM per crowded pencil; otherwise tiles to spread,
# window gather to interpolate (the "scatter" regime below)
# --------------------------------------------------------------------------- #
#: Pencil thresholds (window entries) that send every point to one regime.
_ALL_GEMM, _ALL_SCATTER = 1, 1 << 62


def _run_windowed(nufft_type, ndim, precision, n_trans, pts, data, out=None):
    with Plan(nufft_type, _MODES[ndim], n_trans=n_trans, eps=_EPS[precision],
              precision=precision, stencil_budget=0) as plan:
        plan.set_pts(*pts)
        return plan.execute(data, out=out), plan.point_set


@pytest.mark.parametrize("dist", ["rand", "cluster", "mixture"])
@pytest.mark.parametrize("regime", ["gemm", "scatter", "mixed"])
@pytest.mark.parametrize("n_trans", [1, 3])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("nufft_type", [1, 2])
@pytest.mark.parametrize("ndim", [2, 3])
def test_pencil_regimes_agree(ndim, nufft_type, precision, n_trans, regime, dist,
                              monkeypatch):
    rng = np.random.default_rng([ndim, nufft_type, n_trans, len(regime), len(dist)])
    with Plan(1, _MODES[ndim], eps=_EPS[precision], precision=precision) as probe:
        fine_shape = probe.fine_shape
        dtype = probe.precision.complex_dtype
    pts = _points(rng, ndim, dist, 300, fine_shape)
    m = pts[0].shape[0]
    shape = _MODES[ndim] if nufft_type == 2 else (m,)
    batch = (n_trans,) if n_trans > 1 else ()
    data = _random(rng, batch + shape, dtype)
    args = (nufft_type, ndim, precision, n_trans, pts, data)

    monkeypatch.setattr(windowed, "_PENCIL_MIN_ENTRIES", _ALL_SCATTER)
    scattered, _ = _run_windowed(*args)
    monkeypatch.setattr(windowed, "_PENCIL_MIN_ENTRIES", _ALL_GEMM)
    _, points = _run_windowed(*args)
    # Mixed: only the largest pencils (the edge points make small ones).
    largest = int(np.diff(points.pencils().starts).max()) * points.stencil.width ** ndim
    threshold = {"gemm": _ALL_GEMM, "scatter": _ALL_SCATTER, "mixed": largest}[regime]
    monkeypatch.setattr(windowed, "_PENCIL_MIN_ENTRIES", threshold)
    out_shape = batch + ((m,) if nufft_type == 2 else _MODES[ndim])
    out = _out_like(out_shape, dtype, "strided" if n_trans > 1 else "fortran")
    got, points = _run_windowed(*args, out=out)
    n_gemm = points.pencils().n_gemm
    assert {"gemm": n_gemm == m, "scatter": n_gemm == 0, "mixed": 0 < n_gemm < m}[regime]
    if regime != "gemm":  # the other points spread by tiles
        assert points.pencils().tiles().bounds[[0, -1]].tolist() == [n_gemm, m]
    assert got is out

    csr, operators = _run(nufft_type, ndim, precision, n_trans, pts, None, data)
    assert operators == (True, True)
    assert _error(got, scattered) <= _TOL[precision]
    assert _error(got, csr) <= _TOL[precision]
    rows = data.reshape((n_trans,) + shape)
    if nufft_type == 1:
        exact = [nudft_type1(pts, c, _MODES[ndim]) for c in rows]
    else:
        exact = [nudft_type2(pts, f) for f in rows]
    exact = np.stack(exact).reshape(out_shape)
    assert _error(got, exact) <= _SAFETY * _EPS[precision]


@pytest.mark.parametrize("regime", ["gemm", "mixed", "tiles"])
@pytest.mark.parametrize("fine_shape", [(24, 18), (12, 10, 14), (3, 4, 5)])
def test_gemm_spread_is_adjoint_of_gemm_interp(fine_shape, regime, monkeypatch):
    """<spread(c), g> == <c, interp(g)> with crowded pencils on the pencil
    GEMM path, the rest on the tile GEMM path (pieces of at most 16 points,
    so crowded tiles split)."""
    rng = np.random.default_rng(len(fine_shape))
    width = ESKernel.from_tolerance(1e-9).width
    threshold = {"gemm": _ALL_GEMM, "mixed": 8 * width ** len(fine_shape),
                 "tiles": _ALL_SCATTER}[regime]
    monkeypatch.setattr(windowed, "_PENCIL_MIN_ENTRIES", threshold)
    monkeypatch.setattr(windowed, "_TILE_POINTS", 16)
    _, cache = _engine_setup(rng, fine_shape, 1e-9, m=400, dist="cluster")
    c = _random(rng, (2, cache.n_points), np.complex128)
    g = _random(rng, (2,) + fine_shape, np.complex128)
    spread = spread_windowed(c, cache, np.zeros_like(g))
    values = interp_windowed(g, cache, np.zeros_like(c))
    pencils = windowed.Pencils(cache)
    n_gemm, m = pencils.n_gemm, cache.n_points
    assert {"gemm": n_gemm == m, "mixed": 0 < n_gemm < m, "tiles": n_gemm == 0}[regime]
    if regime != "gemm":
        assert pencils.tiles().bounds[[0, -1]].tolist() == [n_gemm, m]
    lhs = np.vdot(g, spread)
    rhs = np.vdot(values, c)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_pencil_split_assigns_every_point_once():
    """Engine order: the pieces tile the pencils, which come first, and the
    scatter chunks tile the rest, which keeps the bin-sort order."""
    rng = np.random.default_rng(11)
    fine_shape = (40, 36, 32)
    _, cache = _engine_setup(rng, fine_shape, 1e-6, m=3000, dist="mixture")
    pencils = windowed.Pencils(cache)
    m, n_gemm = cache.n_points, pencils.n_gemm
    step = 10  # splits the crowded pencils into several pieces
    pieces = pencils.pieces(step)
    assert 0 < n_gemm < m and len(pieces) > len(pencils.starts) - 1
    assert pieces[0].lo == 0 and pieces[-1].hi == n_gemm
    assert all(a.hi == b.lo for a, b in zip(pieces, pieces[1:]))
    assert set(pencils.starts.tolist()) <= {p.lo for p in pieces} | {n_gemm}
    per_point = windowed._CHUNK_ENTRIES // 100  # scatter chunks of 100 points
    chunks = pencils.scatter_chunks(per_point)
    assert chunks[0].start == n_gemm and chunks[-1].stop == m
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
    assert len(chunks) > 1 and all(0 < c.stop - c.start <= 100 for c in chunks)
    assert np.array_equal(np.sort(cache.order), np.arange(m))
    # The rest is listed tile by tile, in build order within a tile; the
    # cache's tile runs are its runs of one tile, and the tile pieces tile
    # the rest: each piece in one tile, none over the cap.
    key = windowed._tile_keys([a[n_gemm:] for a in cache.i0], fine_shape, cache.width)
    key = key.astype(np.int64)
    assert np.all(np.diff(key) >= 0)
    assert np.all(np.diff(cache.order[n_gemm:])[np.diff(key) == 0] > 0)
    runs = np.unique(key, return_index=True)
    assert np.array_equal(cache.tile_keys, runs[0])
    assert np.array_equal(cache.tile_starts, np.append(runs[1], m - n_gemm) + n_gemm)
    bounds = pencils.tiles().bounds
    assert bounds[0] == n_gemm and bounds[-1] == m and np.all(np.diff(bounds) > 0)
    assert np.diff(bounds).max() <= windowed._TILE_POINTS
    assert all(np.unique(key[a - n_gemm:b - n_gemm]).size == 1
               for a, b in zip(bounds[:-1], bounds[1:]))

    before, _ = windowed._padding(cache.width)
    for piece in pieces:
        assert 0 < piece.hi - piece.lo <= step
        start0 = cache.i0[0][piece.lo:piece.hi] + before
        assert np.unique(start0 // windowed._PENCIL_TILE).size == 1
        for d in range(1, 3):
            corner = np.unique(cache.i0[d][piece.lo:piece.hi] + before)
            assert corner.tolist() == [piece.corner[d - 1]]
        # The runs tile the piece by axis-0 offset into its box.
        assert piece.runs[0][1] == 0 and piece.runs[-1][2] == piece.hi - piece.lo
        assert all(a[2] == b[1] and a[0] < b[0] for a, b in zip(piece.runs, piece.runs[1:]))
        for offset, lo, hi in piece.runs:
            assert np.all(start0[lo:hi] == piece.s0 + offset)
        assert piece.l0 == piece.runs[-1][0] + cache.width


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("nufft_type", [1, 2])
def test_pencils_read_in_place(nufft_type, precision, monkeypatch):
    """Every pencil piece's axis-0 kernel values are a view of the point
    set's own arrays, on the first execute and on a warm one: no execute
    copies values."""
    factors = []

    def recording(*args):
        result = pencil_factors(*args)
        factors.append(result[-2])  # the axis-0 values
        return result

    pencil_factors = windowed._pencil_factors
    monkeypatch.setattr(windowed, "_pencil_factors", recording)
    rng = np.random.default_rng(nufft_type)
    with Plan(1, _MODES[3], eps=_EPS[precision], precision=precision) as probe:
        fine_shape = probe.fine_shape
        dtype = probe.precision.complex_dtype
    pts = cluster_points(20_000, fine_shape, rng)
    shape = (2,) + (_MODES[3] if nufft_type == 2 else (20_000,))
    with Plan(nufft_type, _MODES[3], n_trans=2, eps=_EPS[precision],
              precision=precision, stencil_budget=0) as plan:
        plan.set_pts(*pts)
        stencil = plan.point_set.stencil
        assert stencil.interp_matrix is None
        for _ in range(2):
            factors.clear()
            plan.execute(_random(rng, shape, dtype))
            assert factors and all(np.shares_memory(v, stencil.vals[0]) for v in factors)


def test_pencil_temporaries_stay_flat(monkeypatch):
    """One pencil holding every point: host peak is flat in M.

    Spreading and interpolating ``M`` points that all share one window
    cross-section stays within 3x the padded complex128 grid of host memory
    (traced by ``tracemalloc``), whether ``M`` is 20k or 80k.
    """
    monkeypatch.setattr(windowed, "_CHUNK_ENTRIES", 1 << 12)
    fine_shape = (64, 64)
    kernel = ESKernel.from_tolerance(1e-6)
    before, after = windowed._padding(kernel.width)
    padded_bytes = 16 * int(np.prod([n + before + after for n in fine_shape]))
    peaks = []
    for m in (20_000, 80_000):
        rng = np.random.default_rng(m)
        grid_coords = [rng.uniform(30.6, 30.9, m) for _ in fine_shape]
        cache = build_stencil_cache(grid_coords, fine_shape, kernel, build_matrix=False)
        c = _random(rng, (1, m), np.complex128)
        g = _random(rng, (1,) + fine_shape, np.complex128)
        spread, values = np.zeros_like(g), np.zeros_like(c)
        pencils = windowed.Pencils(cache)
        assert pencils.starts.tolist() == [0, m]
        # The first pass builds the set's piece geometry, kept for the
        # following ones; the traced pass holds only temporaries.
        spread_windowed(c, cache, spread, pencils)
        interp_windowed(g, cache, values, pencils)
        tracemalloc.start()
        try:
            spread_windowed(c, cache, spread, pencils)
            interp_windowed(g, cache, values, pencils)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 3 * padded_bytes, (peaks, padded_bytes)
    assert peaks[1] <= 1.1 * peaks[0], peaks


# --------------------------------------------------------------------------- #
# the tile regime: the spread of every point no crowded pencil takes (d >= 2)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("eps", [1e-6, 1e-12])
@pytest.mark.parametrize("fine_shape", [(32, 24), (6, 5), (16, 12, 20), (4, 3, 5)])
def test_tiles_on_periodic_margins(fine_shape, eps, monkeypatch):
    """Points hugging the period edges put their windows in the padded
    margins (and past them, on grids narrower than the kernel): the tile
    boxes there fold back onto the grid as the CSR operator wraps them."""
    monkeypatch.setattr(windowed, "_PENCIL_MIN_ENTRIES", _ALL_SCATTER)
    rng = np.random.default_rng([len(fine_shape), sum(fine_shape)])
    kernel = ESKernel.from_tolerance(eps)
    m = 600
    # Half the points within a cell of 0, half within a cell of the far edge.
    grid_coords = [np.where(rng.random(m) < 0.5, rng.uniform(0, 1, m),
                            rng.uniform(n - 1, n, m) % n) for n in fine_shape]
    cache = build_stencil_cache(grid_coords, fine_shape, kernel, build_matrix=False)
    assert windowed.Pencils(cache).tiles().bounds[[0, -1]].tolist() == [0, m]
    operator = build_stencil_cache([g[cache.order] for g in grid_coords], fine_shape,
                                   kernel)
    c = _random(rng, (2, m), np.complex128)
    spread = spread_windowed(c, cache, np.zeros((2,) + fine_shape, complex))
    expected = spread_cached(c, PointSet(grid_coords, stencil=operator), np.complex128)
    np.testing.assert_allclose(spread, expected, rtol=1e-12, atol=1e-12)


def test_tile_temporaries_stay_flat(monkeypatch):
    """One tile holding every point: host peak is flat in M.

    With no pencil taking them, ``M`` points inside one tile are spread by
    pieces of at most ``_TILE_POINTS``, batched within ``_CHUNK_ENTRIES``, so
    the spread stays within 3x the padded complex128 grid plus four float64
    buffers of ``_CHUNK_ENTRIES`` of host memory (traced by ``tracemalloc``),
    whether ``M`` is 20k or 80k.
    """
    monkeypatch.setattr(windowed, "_PENCIL_MIN_ENTRIES", _ALL_SCATTER)
    monkeypatch.setattr(windowed, "_CHUNK_ENTRIES", 1 << 15)
    fine_shape = (64, 64)
    kernel = ESKernel.from_tolerance(1e-6)
    before, after = windowed._padding(kernel.width)
    padded_bytes = 16 * int(np.prod([n + before + after for n in fine_shape]))
    peaks = []
    for m in (20_000, 80_000):
        rng = np.random.default_rng(m)
        grid_coords = [rng.uniform(30.6, 31.9, m) for _ in fine_shape]
        cache = build_stencil_cache(grid_coords, fine_shape, kernel, build_matrix=False)
        pencils = windowed.Pencils(cache)
        assert pencils.n_gemm == 0
        assert np.unique(windowed._tile_keys(cache.i0, fine_shape, cache.width)).size == 1
        c = _random(rng, (1, m), np.complex128)
        spread = np.zeros((1,) + fine_shape, complex)
        # The first pass lays out the set's tile pieces and batches, kept for
        # the following ones; the traced pass holds only temporaries.
        spread_windowed(c, cache, spread, pencils)
        tracemalloc.start()
        try:
            spread_windowed(c, cache, spread, pencils)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    bound = 3 * padded_bytes + 4 * 8 * windowed._CHUNK_ENTRIES
    assert max(peaks) <= bound, (peaks, bound)
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_tiles_pay_at_four_covers():
    """The tile regime pays once the points' window entries cover the boxes
    of all the grid's tiles ``_TILE_COVER`` times; 1D has no tiles."""
    assert windowed._TILE_COVER == 4
    # (24, 20) cells, width 7: 4 x 4 tiles of 14^2 cells, 49 entries a point.
    assert windowed._tiles_per_axis((24, 20), 7) == [4, 4]
    assert windowed.tiles_pay(256, (24, 20), 7)  # 256 * 49 == 4 * 16 * 196
    assert not windowed.tiles_pay(255, (24, 20), 7)
    assert not windowed.tiles_pay(1 << 20, (64,), 7)


def test_simple_calls_skip_the_operator_where_the_engine_pays(monkeypatch):
    """A 2D/3D simple call reads its points once: a type-2 call builds no CSR
    operator, and a type-1 or type-3 call (the inner type-2 plan included)
    builds none when its points fill the grid densely enough for tiles.  A
    sparse type-1/3 call, a 1D call, or one that passes ``stencil_budget``
    or ``opts`` keeps it."""
    import repro.core.pointset as pointset
    from repro import Opts, nufft1d1, nufft2d1, nufft2d3, nufft3d1, nufft3d2
    from repro.core.simple import skips_operator

    built = []

    def recording(*args, **kwargs):
        cache = build(*args, **kwargs)
        built.append(cache.interp_matrix is not None)
        return cache

    build = pointset.build_stencil_cache
    monkeypatch.setattr(pointset, "build_stencil_cache", recording)
    rng = np.random.default_rng(12)
    x, y, z = (rng.uniform(-np.pi, np.pi, 300) for _ in range(3))
    c = _random(rng, 300, np.complex128)
    f = _random(rng, (6, 8, 6), np.complex128)
    # Fine grids at eps 1e-6 (width 7): (24, 20) for (12, 10) modes, 4 x 4
    # tiles, dense from 256 points; (15, 16, 15) for (6, 8, 6), 27 tiles of
    # 14^3 cells, dense from 864; the type-3 grid is (16, 16) for targets
    # within pi/2, 9 tiles, and (48, 48) within 3 pi, 49 tiles.
    calls = {  # name: (call, builds the operator by default)
        "1d1": (lambda **kw: nufft1d1(x, c, 20, **kw), True),
        "2d1": (lambda **kw: nufft2d1(x, y, c, (12, 10), **kw), False),
        "2d1-sparse": (lambda **kw: nufft2d1(x[:100], y[:100], c[:100], (12, 10), **kw),
                       True),
        "2d3": (lambda **kw: nufft2d3(x, y, c, x[:50] / 2, y[:50] / 2, **kw), False),
        "2d3-sparse": (lambda **kw: nufft2d3(x, y, c, x[:50] * 3, y[:50] * 3, **kw), True),
        "3d1-sparse": (lambda **kw: nufft3d1(x, y, z, c, (6, 8, 6), **kw), True),
        "3d2-sparse": (lambda **kw: nufft3d2(x, y, z, f, **kw), False),
    }
    assert skips_operator(1, (x, y), (), (12, 10), 1e-6)
    assert not skips_operator(1, (x[:100], y[:100]), (), (12, 10), 1e-6)
    assert skips_operator(3, (x, y), (x[:50] / 2, y[:50] / 2), 2, 1e-6)
    assert not skips_operator(3, (x, y), (x[:50] * 3, y[:50] * 3), 2, 1e-6)
    for name, (call, default) in calls.items():
        for kwargs, operator in (({}, default),
                                 ({"stencil_budget": 1 << 25}, True),
                                 ({"opts": Opts()}, True)):
            built.clear()
            call(**kwargs)
            assert built and all(b == operator for b in built), (name, kwargs, built)
