"""Values a plan and its point set fix are computed once and dropped together.

A warm execute reuses the modelled kernel profiles, the service's price of
the execute, the CSC spreading view and the correction-factor index built by
the first execute on the same points.  These tests pin that reuse to today's
results: a warm execute equals a fresh plan on the same points bit for bit
(outputs, ``Plan.timings()``, the service's ``modelled_seconds``); a re-point
(the equal-size ``recycle`` path included) keeps nothing from the old points;
and every warm launch still passes the device's fault gate.
"""

import numpy as np
import pytest

from repro import Plan
from repro.faults import FaultInjector, FaultSpec, TransientKernelError
from repro.service import TransformService
from repro.service.service import _engine_seconds

MODES = (20, 16)
M = 400
N_TARGETS = 60


def _points(rng, clustered=False):
    if clustered:
        return tuple(rng.normal(0.0, 0.3, M) for _ in range(2))
    return tuple(rng.uniform(-np.pi, np.pi, M) for _ in range(2))


def _targets(rng):
    return {"s": rng.uniform(-25, 25, N_TARGETS), "t": rng.uniform(-25, 25, N_TARGETS)}


def _plan(nufft_type, n_trans, **kw):
    modes = 2 if nufft_type == 3 else MODES
    return Plan(nufft_type, modes, n_trans=n_trans, eps=1e-6,
                precision="single", **kw)


def _data(rng, nufft_type, n_trans):
    shape = (n_trans,) + (MODES if nufft_type == 2 else (M,))
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64)


def _seconds(result):
    return {k: result.modelled_seconds[k] for k in ("h2d", "exec", "d2h")}


@pytest.mark.parametrize("n_trans", [1, 4])
@pytest.mark.parametrize("nufft_type", [1, 2, 3])
def test_warm_execute_matches_fresh_plan(nufft_type, n_trans):
    rng = np.random.default_rng(7 + nufft_type)
    pts = _points(rng)
    targets = _targets(rng) if nufft_type == 3 else {}
    data = _data(rng, nufft_type, n_trans)

    plan = _plan(nufft_type, n_trans)
    plan.set_pts(*pts, **targets)
    plan.execute(data)
    warm = plan.execute(data)
    fresh = _plan(nufft_type, n_trans)
    fresh.set_pts(*pts, **targets)
    ref = fresh.execute(data)
    assert np.array_equal(warm, ref)
    assert plan.timings() == fresh.timings()
    assert plan._exec_pipeline.kernels == fresh._exec_pipeline.kernels

    # Service: the second block on the same points skips set_pts and is
    # priced from the first execute's cached price.
    kwargs = dict(nufft_type=nufft_type, n_modes=2 if nufft_type == 3 else MODES,
                  x=pts[0], y=pts[1], **targets)
    with TransformService() as service:
        blocks = []
        for _ in range(2):
            for row in data:
                service.submit(data=row, **kwargs)
            blocks.append(service.flush())
        cold, warm_results = blocks
    assert all(r.block_size == n_trans for r in cold + warm_results)
    assert not any(r.setpts_reused for r in cold)
    assert all(r.setpts_reused for r in warm_results)
    expected = _engine_seconds(fresh, fresh._exec_pipeline)
    for r in warm_results:
        assert _seconds(r) == expected
        assert r.modelled_seconds["plan_setup"] == 0.0
    assert np.array_equal(np.stack([r.output for r in warm_results]), ref)


@pytest.mark.parametrize("equal_size", [True, False])
def test_repoint_keeps_nothing_from_old_points(equal_size):
    rng = np.random.default_rng(3)
    old_pts = _points(rng)
    new_pts = _points(rng, clustered=True)
    if not equal_size:
        new_pts = tuple(p[:M - 50] for p in new_pts)
    c_old = _data(rng, 1, 1)[0]
    c_new = c_old[:new_pts[0].shape[0]]

    plan = _plan(1, 1, method="SM")
    plan.set_pts(*old_pts)
    plan.execute(c_old)
    plan.execute(c_old)
    old_kernels = plan._exec_pipeline.kernels
    old_data = plan._stencil.interp_matrix.data
    old_view = plan._stencil.spread_operator()

    plan.set_pts(*new_pts)
    assert plan._derived == {}
    # The equal-size re-point writes the new operator into the old arrays.
    assert np.shares_memory(plan._stencil.interp_matrix.data, old_data) == equal_size
    out = plan.execute(c_new)

    fresh = _plan(1, 1, method="SM")
    fresh.set_pts(*new_pts)
    ref = fresh.execute(c_new)
    assert np.array_equal(out, ref)
    assert plan.timings() == fresh.timings()
    assert plan._exec_pipeline.kernels == fresh._exec_pipeline.kernels
    assert plan._exec_pipeline.kernels != old_kernels  # the points matter
    view = plan._stencil.spread_operator()
    assert view is not old_view
    expected = fresh._stencil.interp_matrix.T
    assert view.shape == expected.shape and (view != expected).nnz == 0


def test_pool_repoint_reprices():
    rng = np.random.default_rng(5)
    sets = [_points(rng), _points(rng, clustered=True)]
    c = _data(rng, 1, 1)[0]
    prices = []
    # One pooled plan: the second point set re-points it at equal size.
    with TransformService(max_plans=1) as service:
        for pts in sets:
            for _ in range(2):
                service.submit(nufft_type=1, n_modes=MODES, data=c, method="GM_sort",
                               x=pts[0], y=pts[1])
                (result,) = service.flush()
                prices.append((result.setpts_reused, _seconds(result)))
        assert service.stats.plans_created == 1
    assert [reused for reused, _ in prices] == [False, True, False, True]
    for pts, (_, price) in zip(sets, prices[1::2]):
        fresh = _plan(1, 1, method="GM_sort")
        fresh.set_pts(*pts)
        fresh.execute(c)
        assert price == _engine_seconds(fresh, fresh._exec_pipeline)
    assert prices[1][1]["exec"] != prices[3][1]["exec"]


#: Fault-gate events per execute: one per recorded exec kernel, as before the
#: caches (SM spreads with two kernels, interp has no SM variant, and type 3
#: adds the inner type-2 plan's launches to its own spread).
LAUNCHES = {
    (1, "GM"): 3, (1, "GM_sort"): 3, (1, "SM"): 4,
    (2, "GM"): 3, (2, "GM_sort"): 3, (2, "SM"): 3,
    (3, "GM"): 4, (3, "GM_sort"): 4, (3, "SM"): 5,
}


@pytest.mark.parametrize("n_trans", [1, 4])
@pytest.mark.parametrize("nufft_type,method", sorted(LAUNCHES))
def test_every_warm_launch_passes_the_fault_gate(nufft_type, method, n_trans):
    rng = np.random.default_rng(11)
    plan = _plan(nufft_type, n_trans, method=method)
    injector = FaultInjector([])
    injector.attach([plan.device])
    plan.set_pts(*_points(rng), **(_targets(rng) if nufft_type == 3 else {}))
    data = _data(rng, nufft_type, n_trans)
    counts = []
    for _ in range(3):
        before = injector.stats.events
        plan.execute(data)
        counts.append(injector.stats.events - before)
    expected = LAUNCHES[(nufft_type, method)]
    assert counts == [expected] * 3
    assert len(plan._exec_pipeline.exec_kernels()) == expected


def test_fault_fires_on_a_warm_execute():
    rng = np.random.default_rng(13)
    plan = _plan(1, 1, method="GM_sort")
    plan.set_pts(*_points(rng))
    c = _data(rng, 1, 1)[0]
    plan.execute(c)
    plan.execute(c)
    # The third launch of the next execute (the deconvolve) fails.
    FaultInjector([FaultSpec("transient", rate=1.0, after_events=2)]).attach(
        [plan.device])
    with pytest.raises(TransientKernelError, match="deconvolve"):
        plan.execute(c)
