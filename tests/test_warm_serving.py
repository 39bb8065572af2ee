"""A warm pooled request costs its execute.

Single-precision point sets keep their CSR operator in float32, so plans of
the two precisions never share a set and a fused ``n_trans`` block gives the
bytes per-transform executes give.  The service finds a pooled plan holding
a request's points by a cheap checksum and confirms it by comparing the
coordinates value for value, so a checksum collision, a caller array changed
in place, or equal checksums over unequal queued points fall back to
``set_pts`` (and never fuse).  ``ServiceStats.pool_by_signature`` stays
bounded however many fresh point sets arrive.
"""

import numpy as np
import pytest

from repro import Plan, nudft_type1, nudft_type2, nudft_type3, relative_l2_error
from repro.core import plan as plan_module
from repro.service import TransformRequest, TransformService
from repro.service import service as service_module
from repro.service.request import plan_key_for

_MODES = {1: (24,), 2: (12, 10), 3: (6, 8, 6)}
_EPS = {"single": 1e-5, "double": 1e-9}
#: Delivered error may exceed the requested eps by this factor against the
#: exact sums (the library-wide contract of ``tests/test_accuracy.py``).
_SAFETY = 12.0


def _points(rng, ndim, m):
    return [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]


def _complex(rng, shape, dtype=np.complex128):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


# --------------------------------------------------------------------------- #
# the operator in the set's precision
# --------------------------------------------------------------------------- #
def test_single_and_double_plans_on_equal_points_hold_different_sets():
    rng = np.random.default_rng(1)
    pts = _points(rng, 2, 500)
    with Plan(1, (16, 16), eps=1e-6, precision="single") as single, \
            Plan(1, (16, 16), eps=1e-6, precision="double") as double:
        single.set_pts(*pts)
        double.set_pts(*pts)
        assert single.point_set is not double.point_set
        assert single.point_set.key.mismatch(double.point_set.key) == "weights"
        assert single.point_set.stencil.interp_matrix.dtype == np.float32
        assert double.point_set.stencil.interp_matrix.dtype == np.float64


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("nufft_type", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_csr_output_meets_the_tolerance(ndim, nufft_type, precision):
    rng = np.random.default_rng([ndim, nufft_type])
    eps = _EPS[precision]
    pts = _points(rng, ndim, 400)
    modes = ndim if nufft_type == 3 else _MODES[ndim]
    with Plan(nufft_type, modes, eps=eps, precision=precision) as plan:
        if nufft_type == 3:
            targets = [rng.uniform(-12.0, 12.0, 50) for _ in range(ndim)]
            plan.set_pts(*pts, *([None] * (3 - ndim)), *targets)
            operator = plan._t3_inner.point_set.stencil.interp_matrix
        else:
            plan.set_pts(*pts)
            operator = plan.point_set.stencil.interp_matrix
        assert operator.dtype == plan.precision.real_dtype
        if nufft_type == 2:
            data = _complex(rng, _MODES[ndim])
            exact = nudft_type2(pts, data)
        else:
            data = _complex(rng, 400)
            exact = (nudft_type1(pts, data, _MODES[ndim]) if nufft_type == 1
                     else nudft_type3(pts, data, targets))
        assert relative_l2_error(plan.execute(data), exact) < _SAFETY * eps


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("nufft_type", [1, 2])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_fused_block_is_bit_identical_to_single_executes(ndim, nufft_type, precision):
    """The n_trans > 1 product over the block's real view and the two
    per-part products of a single transform give the same bytes."""
    rng = np.random.default_rng([ndim, nufft_type, 7])
    pts = _points(rng, ndim, 300)
    shape = _MODES[ndim] if nufft_type == 2 else (300,)
    with Plan(nufft_type, _MODES[ndim], n_trans=4, eps=_EPS[precision],
              precision=precision) as batched, \
            Plan(nufft_type, _MODES[ndim], eps=_EPS[precision],
                 precision=precision) as single:
        batched.set_pts(*pts)
        single.set_pts(*pts)
        block = _complex(rng, (4,) + shape, batched.precision.complex_dtype)
        fused = batched.execute(block)
        for k in range(4):
            assert np.array_equal(fused[k], single.execute(block[k]))


# --------------------------------------------------------------------------- #
# the content-checked point lookup
# --------------------------------------------------------------------------- #
def _serve(service, x, y, c):
    service.submit(nufft_type=1, n_modes=(16, 16), data=c, x=x, y=y)
    (result,) = service.flush()
    assert result.error is None
    return result


def _assert_exact(result, x, y, c):
    exact = nudft_type1([x, y], c, (16, 16))
    assert relative_l2_error(result.output, exact) < _SAFETY * 1e-6


def test_equal_points_in_another_array_hit_the_pooled_plan():
    rng = np.random.default_rng(2)
    x, y = _points(rng, 2, 300)
    c = _complex(rng, 300)
    with TransformService() as service:
        assert not _serve(service, x, y, c).setpts_reused
        warm = _serve(service, x.copy(), y.copy(), c)
        assert warm.setpts_reused
        _assert_exact(warm, x, y, c)


def test_checksum_collision_runs_set_pts(monkeypatch):
    monkeypatch.setattr(TransformRequest, "points_key", lambda self: 7)
    rng = np.random.default_rng(3)
    first, second = _points(rng, 2, 300), _points(rng, 2, 300)
    c = _complex(rng, 300)
    with TransformService() as service:
        _serve(service, *first, c)
        result = _serve(service, *second, c)
        assert not result.setpts_reused
        assert service.stats.setpts_executed == 2
        _assert_exact(result, *second, c)


def test_points_changed_in_place_run_set_pts():
    rng = np.random.default_rng(4)
    x, y = _points(rng, 2, 300)
    c = _complex(rng, 300)
    with TransformService() as service:
        before = TransformRequest(1, (16, 16), c, x=x, y=y).points_key()
        _serve(service, x, y, c)
        # Swapping two coordinates keeps the checksum: only the comparison
        # with the entry's own copy of the points sees the change.
        x[[0, 1]] = x[[1, 0]]
        assert TransformRequest(1, (16, 16), c, x=x, y=y).points_key() == before
        result = _serve(service, x, y, c)
        assert not result.setpts_reused
        _assert_exact(result, x, y, c)
        # The entry keeps its own copy: the mutated points now hit.
        assert _serve(service, x, y, c).setpts_reused


def test_equal_checksums_over_unequal_points_are_not_fused(monkeypatch):
    monkeypatch.setattr(TransformRequest, "points_key", lambda self: 7)
    rng = np.random.default_rng(5)
    sets = [_points(rng, 2, 300) for _ in range(2)]
    datas = [_complex(rng, 300) for _ in range(4)]
    with TransformService() as service:
        for k, c in enumerate(datas):
            service.submit(nufft_type=1, n_modes=(16, 16), data=c,
                           x=sets[k % 2][0], y=sets[k % 2][1])
        results = service.flush()
    assert [r.block_size for r in results] == [2, 2, 2, 2]
    for k, (result, c) in enumerate(zip(results, datas)):
        _assert_exact(result, *sets[k % 2], c)


# --------------------------------------------------------------------------- #
# bounded per-signature pool counts
# --------------------------------------------------------------------------- #
def test_pool_by_signature_is_bounded_and_keeps_totals():
    stats = service_module.ServiceStats()
    rng = np.random.default_rng(6)
    n = 10_000
    for i in range(n):
        request = TransformRequest(nufft_type=1, n_modes=(8,), data=np.ones(4),
                                   x=rng.uniform(-np.pi, np.pi, 4))
        stats.record_pool_event(request.signature(), hit=i % 3 == 0)
        if i % 5 == 0:
            stats.record_setpts_skip(request.signature())
    table = stats.pool_by_signature
    assert len(table) <= service_module.MAX_SIGNATURES + 1
    assert service_module.OTHER_SIGNATURE in table
    hits = (n + 2) // 3
    assert sum(e["hits"] for e in table.values()) == stats.plan_cache_hits == hits
    assert sum(e["misses"] for e in table.values()) == stats.plan_cache_misses == n - hits
    assert sum(e["setpts_skipped"] for e in table.values()) == stats.setpts_skipped
    assert stats.setpts_skipped == (n + 4) // 5


def test_service_pool_counts_fold_quietest_signatures(monkeypatch):
    monkeypatch.setattr(service_module, "MAX_SIGNATURES", 3)
    rng = np.random.default_rng(8)
    hot = _points(rng, 2, 200)
    c = _complex(rng, 200)
    with TransformService() as service:
        for i in range(12):
            pts = hot if i % 2 == 0 else _points(rng, 2, 200)
            _serve(service, *pts, c)
        table = service.stats.pool_by_signature
        assert len(table) <= 4
        hot_label = TransformRequest(1, (16, 16), c, x=hot[0], y=hot[1]).signature_label()
        assert table[hot_label]["setpts_skipped"] == 5
        assert sum(e["hits"] + e["misses"] for e in table.values()) == 12


# --------------------------------------------------------------------------- #
# memoized plan keys and the type-3 one-shot grid
# --------------------------------------------------------------------------- #
def test_memoized_plan_key_validates_every_call():
    key = plan_key_for(1, (16, 16), 1e-6, "single", "auto", "auto")
    assert plan_key_for(1, [16, 16], 1e-6, "single", "auto", "auto") == key
    assert plan_key_for(1, (16.0, 16), 1e-6, "single", "auto", "auto") == key
    for _ in range(2):
        with pytest.raises(ValueError):
            plan_key_for(1, (16.5, 16), 1e-6, "single", "auto", "auto")
        with pytest.raises(ValueError):
            plan_key_for(1, (16, 16), 1e-6, "half", "auto", "auto")
        with pytest.raises(ValueError):
            plan_key_for(1, (16, 16), 1e-6, "single", "auto", "auto", isign=2)


def test_type3_one_shot_derives_its_grid_once(monkeypatch):
    from repro import nufft2d3

    calls = []
    axis = plan_module.type3_axis

    def counting(*args, **kwargs):
        calls.append(1)
        return axis(*args, **kwargs)

    monkeypatch.setattr(plan_module, "type3_axis", counting)
    rng = np.random.default_rng(9)
    x, y = _points(rng, 2, 300)
    s, t = (p[:50] / 2 for p in _points(rng, 2, 300))
    c = _complex(rng, 300)
    got = nufft2d3(x, y, c, s, t)
    assert len(calls) == 2
    with Plan(3, 2, precision="double", stencil_budget=0) as plan:
        plan.set_pts(x, y, None, s, t)
        assert plan.point_set.stencil.interp_matrix is None
        assert np.array_equal(got, plan.execute(c))
