"""Values a plan and its point set fix are computed once and dropped together.

A warm execute reuses the modelled kernel profiles, the service's price of
the execute, the CSC spreading view and the correction-factor index built by
the first execute on the same points.  These tests pin that reuse to today's
results: a warm execute equals a fresh plan on the same points bit for bit
(outputs, ``Plan.timings()``, the service's ``modelled_seconds``); a re-point
(the equal-size ``recycle`` path included) keeps nothing from the old points;
and every warm launch still passes the device's fault gate.

Plans on the same points can share one ``PointSet`` (``set_pts(points=...)``):
a shared pair equals two ``set_pts`` calls bit for bit, its holders stay
independent, mismatched keys are refused, and plan-side values (profiles,
prices) stay per plan.
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
    old_data = plan.point_set.stencil.interp_matrix.data
    old_view = plan.point_set.spread_operator()

    plan.set_pts(*new_pts)
    assert plan._derived == {}
    # The equal-size re-point writes the new operator into the old arrays.
    assert (np.shares_memory(plan.point_set.stencil.interp_matrix.data, old_data)
            == equal_size)
    out = plan.execute(c_new)

    fresh = _plan(1, 1, method="SM")
    fresh.set_pts(*new_pts)
    ref = fresh.execute(c_new)
    assert np.array_equal(out, ref)
    assert plan.timings() == fresh.timings()
    assert plan._exec_pipeline.kernels == fresh._exec_pipeline.kernels
    assert plan._exec_pipeline.kernels != old_kernels  # the points matter
    view = plan.point_set.spread_operator()
    assert view is not old_view
    expected = fresh.point_set.stencil.interp_matrix.T
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


# --------------------------------------------------------------------------- #
# one point set shared by several plans (``set_pts(points=...)``)
# --------------------------------------------------------------------------- #
#: (n_modes, precision, M): 2D single and 3D double, both at eps=1e-12 (w=13).
SHARED_CASES = {"2d-single": ((24, 20), "single", 500),
                "3d-double": ((8, 10, 6), "double", 300)}


def _shared_case(name, nufft_type, n_trans, **kw):
    modes, precision, _ = SHARED_CASES[name]
    return Plan(nufft_type, modes, n_trans=n_trans, eps=1e-12,
                precision=precision, **kw)


def _case_data(rng, plan, m):
    shape = (plan.n_trans,) + (plan.n_modes if plan.nufft_type == 2 else (m,))
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        plan.precision.complex_dtype)


def _operator_data(points):
    return points.stencil.interp_matrix.data


@pytest.mark.parametrize("n_trans", [1, 4])
@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_shared_pair_matches_two_set_pts_calls(case, n_trans):
    rng = np.random.default_rng([n_trans, len(case)])
    ndim, m = len(SHARED_CASES[case][0]), SHARED_CASES[case][2]
    pts = tuple(rng.uniform(-np.pi, np.pi, m) for _ in range(ndim))
    # The plans apart run (and are destroyed) first: while they hold their
    # set, set_pts on equal points would share it.
    datas, expected = [], []
    for t in (1, 2):
        with _shared_case(case, t, n_trans) as b:
            b.set_pts(*pts)
            data = _case_data(rng, b, m)
            out = np.empty_like(b.execute(data))
            b.execute(data, out=out)
            datas.append(data)
            expected.append((out, b.timings(), b.gpu_ram_mb(), b.last_allocs))
    shared = [_shared_case(case, t, n_trans) for t in (1, 2)]
    assert shared[0].kernel.width == 13
    shared[0].set_pts(*pts)
    shared[1].set_pts(points=shared[0].point_set)
    assert shared[1].point_set is shared[0].point_set
    assert shared[0].point_set.holders == 2
    assert np.shares_memory(_operator_data(shared[0].point_set),
                            _operator_data(shared[1].point_set))
    for a, data, (out, timings, ram, allocs) in zip(shared, datas, expected):
        got = np.empty_like(out)
        assert a.execute(data, out=got) is got
        assert np.array_equal(got, out)
        assert a.timings() == timings
        assert a.gpu_ram_mb() == ram
        assert a.last_allocs == allocs


def test_holders_stay_independent():
    rng = np.random.default_rng(17)
    pts, new_a, new_b = (_points(rng) for _ in range(3))
    a, b, c = _plan(1, 1), _plan(2, 1), _plan(2, 1)
    a.set_pts(*pts)
    b.set_pts(points=a.point_set)
    shared = a.point_set
    f = _data(rng, 2, 1)[0]
    before = b.execute(f)

    # A re-point of one holder leaves the shared arrays to the other.
    a.set_pts(*new_a)
    assert shared.holders == 1
    assert not np.shares_memory(_operator_data(a.point_set), _operator_data(shared))
    assert np.array_equal(b.execute(f), before)

    # Destroying a holder leaves the others working.
    c.set_pts(points=shared)
    c.destroy()
    assert c.point_set is None and shared.holders == 1
    assert np.array_equal(b.execute(f), before)

    # Once the set has a single holder, its re-point recycles the arrays.
    old = _operator_data(shared)
    b.set_pts(*new_b)
    assert np.shares_memory(_operator_data(b.point_set), old)
    fresh = _plan(2, 1)
    fresh.set_pts(*new_b)
    assert np.array_equal(b.execute(f), fresh.execute(f))
    with pytest.raises(ValueError, match="no longer held"):
        fresh.set_pts(points=shared)


def test_store_served_set_is_never_recycled(tmp_path):
    from repro.artifacts import ArtifactStore

    rng = np.random.default_rng(19)
    pts, new = _points(rng), _points(rng)
    store = ArtifactStore(root=tmp_path)
    stored = _plan(1, 1, artifact_store=store)
    stored.set_pts(*pts)
    plain = _plan(1, 1)
    plain.set_pts(points=stored.point_set)
    old = _operator_data(stored.point_set)
    saved = old.copy()
    stored.destroy()
    plain.set_pts(*new)
    assert not np.shares_memory(_operator_data(plain.point_set), old)
    assert np.array_equal(old, saved)


def test_attach_mismatches_raise():
    from repro.core.pointset import PointSet

    rng = np.random.default_rng(23)
    pts = _points(rng)
    source = _plan(1, 1)
    source.set_pts(*pts)
    ps = source.point_set
    cases = {
        "fine_shape": Plan(2, (30, 16), eps=1e-6, precision="single"),
        "width": Plan(2, MODES, eps=1e-9, precision="single"),
        "kernel_eval": _plan(2, 1, kernel_eval="exact"),
        "stencil_budget": _plan(2, 1, stencil_budget=0),
        "bin_shape": _plan(2, 1, bin_shape=(4, 4)),
        "stencils": _plan(2, 1, backend="reference"),
    }
    for field, plan in cases.items():
        plan.set_pts(*pts)
        own = plan.point_set
        assert not plan.can_attach(ps)
        with pytest.raises(ValueError, match=field):
            plan.set_pts(points=ps)
        assert plan.point_set is own  # a failed attach keeps the old points
        plan.execute(np.ones(plan.n_modes, np.complex64))
    # beta differs only with the upsampling factor, which Opts pins to 2.0.
    other_beta = PointSet(ps.grid_coords, ps.sort, ps.stencil,
                          ps.key._replace(beta=ps.key.beta + 1.0))
    other_beta.holders = 1
    with pytest.raises(ValueError, match="beta"):
        _plan(2, 1).set_pts(points=other_beta)
    with pytest.raises(ValueError, match="type-3"):
        _plan(3, 1).set_pts(points=ps)
    with pytest.raises(ValueError, match="tuned"):
        _plan(2, 1, tune="model").set_pts(points=ps)
    with pytest.raises(ValueError, match="not both"):
        _plan(2, 1).set_pts(*pts, points=ps)
    with pytest.raises(TypeError, match="takes a PointSet"):
        _plan(2, 1).set_pts(points=pts[0])
    assert ps.holders == 1


def test_plan_side_values_stay_per_plan():
    rng = np.random.default_rng(29)
    pts = _points(rng, clustered=True)
    c = _data(rng, 1, 1)[0]
    gm_sort, sm = _plan(1, 1, method="GM_sort"), _plan(1, 1, method="SM")
    gm_sort.set_pts(*pts)
    sm.set_pts(points=gm_sort.point_set)
    for plan in (gm_sort, sm, gm_sort):
        plan.execute(c)
    for plan, method in ((gm_sort, "GM_sort"), (sm, "SM")):
        fresh = _plan(1, 1, method=method)
        fresh.set_pts(*pts)
        fresh.execute(c)
        assert plan._exec_pipeline.kernels == fresh._exec_pipeline.kernels
        assert plan.timings() == fresh.timings()
    assert gm_sort._exec_pipeline.kernels != sm._exec_pipeline.kernels
