"""Plans given equal points share one ``PointSet`` without being asked.

``Plan.set_pts`` looks up a set a live plan already holds under the same
``PointSetKey`` for equal grid coordinates (``core.pointset.live_point_set``)
and builds one only on a miss.  These tests pin when a set is shared and
when it is not, that the index never hands out a released or recycled set
and empties with its holders, and that a plan sharing a set reports exactly
what a plan that built its own reports: outputs, ``timings()``,
``gpu_ram_mb()`` and ``last_allocs``.
"""

import gc

import numpy as np
import pytest

from repro import Plan
from repro.core import pointset

MODES = (20, 16)
M = 400


def _points(rng, m=M):
    return tuple(rng.uniform(-np.pi, np.pi, m) for _ in range(2))


def _targets(rng):
    return dict(zip("st", (rng.uniform(-25, 25, 60) for _ in range(2))))


def _plan(nufft_type, **kw):
    modes = 2 if nufft_type == 3 else MODES
    kw.setdefault("precision", "single")
    return Plan(nufft_type, modes, eps=kw.pop("eps", 1e-6), **kw)


def _set(plan, pts, targets):
    if plan.nufft_type == 3:
        return plan.set_pts(*pts, **targets)
    return plan.set_pts(*pts)


def _data(rng, plan):
    shape = (plan.n_trans,) + (plan.n_modes if plan.nufft_type == 2
                               else (plan.n_points,))
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        plan.precision.complex_dtype)


def _operator_data(points):
    return points.stencil.interp_matrix.data


def test_equal_coordinates_in_other_arrays_share_one_set():
    rng = np.random.default_rng(1)
    pts = _points(rng)
    t1, t2 = _plan(1), _plan(2)
    t1.set_pts(*pts)
    t2.set_pts(*(p.copy() for p in pts))
    assert t2.point_set is t1.point_set
    assert t1.point_set.holders == 2
    assert pointset.live_point_set(t1.point_set.grid_coords, t1.point_set.key) \
        is t1.point_set
    for plan in (t1, t2):
        plan.destroy()


def test_points_changed_in_place_build_a_new_set():
    rng = np.random.default_rng(2)
    x, y = _points(rng)
    first = _plan(1)
    first.set_pts(x, y)
    # Same count, first and last coordinate: the index entry matches, the
    # coordinate comparison does not.
    x[M // 2] = -x[M // 2]
    second = _plan(2)
    second.set_pts(x, y)
    assert second.point_set is not first.point_set
    f = _data(rng, second)
    out = second.execute(f)
    for plan in (first, second):
        plan.destroy()
    with _plan(2) as alone:
        assert np.array_equal(alone.set_pts(x, y).execute(f), out)


def test_key_mismatch_builds_separate_sets():
    rng = np.random.default_rng(3)
    pts = _points(rng)
    source = _plan(1)
    source.set_pts(*pts)
    ps = source.point_set
    cases = {
        "fine_shape": Plan(2, (30, 16), eps=1e-6, precision="single"),
        "width": _plan(2, eps=1e-9),
        "kernel_eval": _plan(2, kernel_eval="exact"),
        "stencil_budget": _plan(2, stencil_budget=0),
        "bin_shape": _plan(2, bin_shape=(4, 4)),
        "stencils": _plan(2, backend="reference"),
    }
    for field, plan in cases.items():
        plan.set_pts(*pts)
        assert plan.point_set is not ps, field
        assert plan.point_set.key.mismatch(ps.key) == field
    # beta differs only with the upsampling factor, which Opts pins to 2.0.
    other_beta = ps.key._replace(beta=ps.key.beta + 1.0)
    assert pointset.live_point_set(ps.grid_coords, other_beta) is None
    assert ps.holders == 1


def test_resetting_own_points_keeps_the_set():
    rng = np.random.default_rng(4)
    pts = _points(rng)
    plan = _plan(1)
    plan.set_pts(*pts)
    own = plan.point_set
    plan.set_pts(*(p.copy() for p in pts))
    assert plan.point_set is own and own.holders == 1
    assert pointset.live_point_set(own.grid_coords, own.key) is own


def test_resetting_own_type3_points_keeps_both_sets():
    rng = np.random.default_rng(8)
    pts, targets = _points(rng), _targets(rng)
    c = (rng.standard_normal(M) + 1j * rng.standard_normal(M)).astype(np.complex64)
    plan = _plan(3)
    plan.set_pts(*pts, **targets)
    outer, inner = plan.point_set, plan._t3_inner.point_set
    expected = plan.execute(c)
    plan.set_pts(*(p.copy() for p in pts), **{k: v.copy() for k, v in targets.items()})
    assert plan.point_set is outer and plan._t3_inner.point_set is inner
    assert outer.holders == inner.holders == 1
    assert np.array_equal(plan.execute(c), expected)
    # Other targets give the inner plan a new set and let the old one go.
    plan.set_pts(*pts, **_targets(rng))
    assert plan._t3_inner.point_set is not inner
    assert inner.holders == 0
    assert pointset.live_point_set(inner.grid_coords, inner.key) is None
    plan.destroy()


def test_type3_plan_frees_its_inner_set_before_building_another(monkeypatch):
    """Re-set to other targets, a type-3 plan lets its inner set go before
    it builds the new one: the old set is not held across the build."""
    import repro.core.plan as plan_module

    rng = np.random.default_rng(9)
    pts, targets = _points(rng), _targets(rng)
    plan = _plan(3)
    plan.set_pts(*pts, **targets)
    held = []
    build = plan_module.build_point_set

    def recording(*args, **kwargs):
        held.append(inner.holders)
        return build(*args, **kwargs)

    monkeypatch.setattr(plan_module, "build_point_set", recording)
    # Equal ends and extents (so an equal grid), then other targets.
    shuffled = {k: np.concatenate(([v[0]], rng.permutation(v[1:-1]), [v[-1]]))
                for k, v in targets.items()}
    for new in (shuffled, _targets(rng)):
        inner = plan._t3_inner.point_set
        held.clear()
        plan.set_pts(*pts, **new)
        assert held and held[-1] == 0 and set(held) == {0}, held
        assert plan._t3_inner.point_set is not inner and inner.holders == 0
    plan.destroy()


def test_recycled_set_is_never_returned():
    rng = np.random.default_rng(5)
    pts, new = _points(rng), _points(rng)
    plan = _plan(2)
    plan.set_pts(*pts)
    f = _data(rng, plan)
    expected = plan.execute(f)
    old = plan.point_set
    old_data = _operator_data(old)
    plan.set_pts(*new)  # equal size, sole holder: recycles the old arrays
    assert np.shares_memory(_operator_data(plan.point_set), old_data)
    assert old.holders == 0
    assert pointset.live_point_set(old.grid_coords, old.key) is None
    other = _plan(2)
    other.set_pts(*pts)
    assert other.point_set is not old
    assert np.array_equal(other.execute(f), expected)


def test_index_empties_when_every_plan_is_destroyed():
    gc.collect()
    before = len(pointset._LIVE)
    rng = np.random.default_rng(6)
    pts, other = _points(rng), _points(rng, m=M // 2)
    plans = [_plan(1), _plan(2), _plan(2), _plan(3)]
    plans[0].set_pts(*pts)
    plans[1].set_pts(*pts)
    plans[2].set_pts(*other)
    plans[3].set_pts(*pts, **_targets(rng))
    held = {id(p.point_set): p.point_set for p in plans}
    held[id(plans[3]._t3_inner.point_set)] = plans[3]._t3_inner.point_set
    assert len(held) == 4
    assert len(pointset._LIVE) == before + 4
    plans[2].set_pts(*pts)  # a re-point onto a held set drops its own set
    assert len(pointset._LIVE) == before + 3
    for plan in plans:
        plan.destroy()
    assert all(ps.holders == 0 for ps in held.values())
    assert not any(ps is ref() for ps in held.values()
                   for ref in pointset._LIVE.values())
    assert len(pointset._LIVE) == before


def test_type3_pair_shares_outer_and_inner_sets():
    rng = np.random.default_rng(7)
    pts, targets = _points(rng), _targets(rng)
    c = (rng.standard_normal(M) + 1j * rng.standard_normal(M)).astype(np.complex64)
    with _plan(3) as alone:
        alone.set_pts(*pts, **targets)
        expected = alone.execute(c)
    a, b = _plan(3), _plan(3)
    a.set_pts(*pts, **targets)
    b.set_pts(*(p.copy() for p in pts), **{k: v.copy() for k, v in targets.items()})
    assert b.point_set is a.point_set
    assert b._t3_inner.point_set is a._t3_inner.point_set
    assert a.point_set.holders == a._t3_inner.point_set.holders == 2
    for plan in (a, b):
        assert np.array_equal(plan.execute(c), expected)
        plan.destroy()


CONFIGS = {
    "device_sim": {},
    "cached": {"backend": "cached"},
    "reference": {"backend": "reference"},
    "windowed": {"stencil_budget": 0},
    "sm": {"method": "SM"},
    "double-n_trans-3": {"precision": "double", "n_trans": 3},
}


@pytest.mark.parametrize("nufft_type", [1, 2, 3])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_shared_plan_reports_what_an_unshared_one_does(nufft_type, config):
    rng = np.random.default_rng([nufft_type, len(config)])
    pts, targets = _points(rng), _targets(rng)
    opts = CONFIGS[config]

    def run(plan, data):
        out = np.empty_like(plan.execute(data))
        assert plan.execute(data, out=out) is out
        return out, plan.timings(), plan.gpu_ram_mb(), plan.last_allocs

    # The unshared reference runs, and lets its set go, first.
    with _set(_plan(nufft_type, **opts), pts, targets) as alone:
        data = _data(rng, alone)
        expected = run(alone, data)
    first, second = _plan(nufft_type, **opts), _plan(nufft_type, **opts)
    _set(first, pts, targets)
    _set(second, [p.copy() for p in pts], {k: v.copy() for k, v in targets.items()})
    assert second.point_set is first.point_set
    for plan in (first, second):
        out, timings, ram, allocs = run(plan, data)
        assert out.tobytes() == expected[0].tobytes()
        assert timings == expected[1]
        assert ram == expected[2]
        assert allocs == expected[3]
        plan.destroy()
