"""Tests of the serving layer: streams, device fleet, plan pool and the
TransformService (pooling, coalescing, sharding, MTIP routing)."""

import numpy as np
import pytest

from repro import Plan
from repro.cluster import DeviceFleet, run_weak_scaling_fleet
from repro.cluster.node import CORI_GPU_NODE
from repro.gpu import Device
from repro.mtip import MTIPConfig, MTIPReconstruction
from repro.mtip.merging import MergingOperator
from repro.mtip.slicing import SlicingOperator
from repro.service import (
    AsyncFrontend,
    FairShedPolicy,
    PlanPool,
    RetryPolicy,
    TransformRequest,
    TransformService,
)
from repro.service.request import plan_key_for


# --------------------------------------------------------------------------- #
# streams / events
# --------------------------------------------------------------------------- #
class TestStreams:
    def test_double_buffering_overlap(self):
        dev = Device()
        s0, s1 = dev.create_stream(), dev.create_stream()
        for s in (s0, s1):
            s.enqueue("h2d", 1.0)
            s.enqueue("exec", 2.0)
            s.enqueue("d2h", 0.5)
        # Serial would be 7.0 s; with s1's h2d hidden under s0's exec the
        # makespan is 1 (h2d) + 2 + 2 (exec serializes) + 0.5 = 5.5 s.
        assert dev.timeline_makespan() == pytest.approx(5.5)
        assert dev.busy_seconds["exec"] == pytest.approx(4.0)
        assert 0.7 < dev.utilization("exec") < 0.75

    def test_in_stream_ordering_and_events(self):
        dev = Device()
        s0, s1 = dev.create_stream(), dev.create_stream()
        ev = s0.enqueue("exec", 1.0)
        assert ev.time == pytest.approx(1.0)
        s1.wait_event(ev)
        done = s1.enqueue("d2h", 0.5)
        assert done.time == pytest.approx(1.5)
        assert s1.synchronize() == pytest.approx(1.5)

    def test_engine_validation_and_reset(self):
        dev = Device()
        s = dev.create_stream()
        with pytest.raises(ValueError):
            s.enqueue("compute", 1.0)
        with pytest.raises(ValueError):
            s.enqueue("exec", -1.0)
        s.enqueue("exec", 1.0)
        dev.reset_timeline()
        assert dev.timeline_makespan() == 0.0
        assert dev.streams == [s] and len(s.ops) == 0


class TestDeviceFleet:
    def test_least_loaded_round_robins(self):
        fleet = DeviceFleet(n_devices=3)
        picked = []
        for _ in range(3):
            dev = fleet.least_loaded()
            fleet.next_stream(dev).enqueue("exec", 1.0)
            picked.append(dev.device_id)
        assert picked == [0, 1, 2]
        assert fleet.makespan() == pytest.approx(1.0)
        assert fleet.utilization() == pytest.approx([1.0, 1.0, 1.0])

    def test_from_node_and_reset(self):
        fleet = DeviceFleet.from_node(CORI_GPU_NODE)
        assert fleet.n_devices == 8
        fleet.next_stream(fleet.device(0)).enqueue("h2d", 1.0)
        fleet.reset()
        assert fleet.makespan() == 0.0
        assert all(len(d.streams) == fleet.streams_per_device for d in fleet.devices)
        with pytest.raises(ValueError):
            DeviceFleet(n_devices=0)


# --------------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------------- #
class TestTransformRequest:
    def test_front_door_validation(self):
        good = dict(nufft_type=1, n_modes=(16,), data=np.ones(4, complex),
                    x=np.array([0.1, 0.2, 0.3, 0.4]))
        TransformRequest(**good)
        with pytest.raises(ValueError):
            TransformRequest(**{**good, "x": np.array([0.1, np.nan, 0.3, 0.4])})
        with pytest.raises(ValueError):
            TransformRequest(**{**good, "data": np.ones(5, complex)})
        with pytest.raises(ValueError):
            TransformRequest(**{**good, "eps": 0.0})
        with pytest.raises(ValueError):  # 1D request must not pass y
            TransformRequest(**{**good, "y": np.ones(4)})
        with pytest.raises(ValueError):  # targets only for type 3
            TransformRequest(**{**good, "s": np.ones(4)})
        with pytest.raises(ValueError):  # type 3 requires targets
            TransformRequest(nufft_type=3, n_modes=1, data=np.ones(4, complex),
                             x=np.array([0.1, 0.2, 0.3, 0.4]))

    def test_complex_points_and_targets_rejected(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(TypeError, match="^x is complex"):
            TransformRequest(nufft_type=1, n_modes=(16,),
                             data=np.ones(4, complex), x=x + 0.5j)
        with pytest.raises(TypeError, match="^t is complex"):
            TransformRequest(nufft_type=3, n_modes=2, data=np.ones(4, complex),
                             x=x, y=x, s=x, t=x.astype(complex))

    def test_non_integral_mode_counts_rejected(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="integral"):
            TransformRequest(nufft_type=2, n_modes=(16.7, 16),
                             data=np.ones((16, 16), complex), x=x, y=x)
        with pytest.raises(ValueError, match="integral"):
            plan_key_for(1, (16.7, 16), 1e-6, "single", "auto", "auto")
        with TransformService() as service, pytest.raises(ValueError,
                                                          match="integral"):
            service.lease_plan(1, (16.5,))
        # An integral float is the same geometry as the int.
        assert (plan_key_for(1, (16.0, 16), 1e-6, "single", "auto", "auto")
                == plan_key_for(1, (16, 16), 1e-6, "single", "auto", "auto"))

    def test_unknown_backend_rejected_at_the_front_door(self):
        # Rejected at construction, before a request can be queued.
        with pytest.raises(ValueError, match="available: reference"):
            TransformRequest(nufft_type=1, n_modes=(16,), data=np.ones(4, complex),
                             x=np.array([0.1, 0.2, 0.3, 0.4]), backend="bogus")
        with TransformService() as service, pytest.raises(ValueError,
                                                          match="bogus"):
            service.lease_plan(1, (16,), backend="bogus")
        # "auto" stays unresolved in the key; names are case-insensitive.
        assert plan_key_for(1, (16,), 1e-6, "single", "auto", " AUTO ").backend == "auto"

    def test_grouping_keys(self):
        x = np.array([0.1, 0.2, 0.3])
        a = TransformRequest(1, (16,), np.ones(3, complex), x=x)
        b = TransformRequest(1, (16,), 2 * np.ones(3, complex), x=x.copy())
        c = TransformRequest(1, (16,), np.ones(3, complex), x=x + 0.1)
        d = TransformRequest(1, (32,), np.ones(3, complex), x=x)
        assert a.plan_key() == b.plan_key() == c.plan_key()
        assert a.points_key() == b.points_key()
        assert a.points_key() != c.points_key()
        assert a.plan_key() != d.plan_key()


_COUNT_BUILDERS = {
    "n_devices": lambda v: TransformService(n_devices=v),
    "max_plans": lambda v: TransformService(max_plans=v),
    "max_queue_depth": lambda v: TransformService(max_queue_depth=v),
    "distributed_threshold_points":
        lambda v: TransformService(distributed_threshold_points=v),
    "streams_per_device": lambda v: DeviceFleet(streams_per_device=v),
    "failure_threshold": lambda v: DeviceFleet(failure_threshold=v),
    "n_trans": lambda v: Plan(1, (16,), n_trans=v),
    "max_attempts": lambda v: RetryPolicy(max_attempts=v),
    "max_pending": lambda v: FairShedPolicy(max_pending=v),
    "max_batch": lambda v: AsyncFrontend(TransformService(), max_batch=v),
}


@pytest.mark.parametrize("field", sorted(_COUNT_BUILDERS))
def test_non_integral_counts_rejected(field):
    # Rejected by name, never truncated (n_devices=1.5 is not one device).
    with pytest.raises(ValueError, match=f"^{field} must be an integral count"):
        _COUNT_BUILDERS[field](1.5)


# --------------------------------------------------------------------------- #
# plan pool
# --------------------------------------------------------------------------- #
class TestPlanPool:
    def test_lru_eviction_destroys(self):
        pool = PlanPool(max_plans=2)
        plans = [Plan(1, (16,)) for _ in range(3)]
        entries = [pool.make_entry(p, ("k", i)) for i, p in enumerate(plans)]
        for e in entries:
            pool.release(e)
        assert pool.n_idle == 2
        assert plans[0]._destroyed  # oldest evicted
        assert not plans[1]._destroyed and not plans[2]._destroyed
        pool.clear()
        assert all(p._destroyed for p in plans)

    def test_zero_capacity_pools_nothing(self):
        pool = PlanPool(max_plans=0)
        plan = Plan(1, (16,))
        pool.release(pool.make_entry(plan, ("k",)))
        assert plan._destroyed
        assert pool.lease(("k",)) is None

    @staticmethod
    def _points(points_key):
        return (np.array([float(ord(ch)) for ch in points_key]),)

    @classmethod
    def _released(cls, pool, points_keys, key=("k",)):
        """Release one entry per points key, in order, each pointed at
        ``_points(points_key)`` (unpointed for ``None``); returns the entries."""
        entries = []
        for points_key in points_keys:
            entry = pool.make_entry(Plan(1, (16,)), key)
            if points_key is not None:
                entry.point_at(points_key, cls._points(points_key))
            pool.release(entry)
            entries.append(entry)
        return entries

    def test_lease_without_points_key_takes_earliest_released(self):
        pool = PlanPool(max_plans=4)
        entries = self._released(pool, ["a", "b", "c"])
        assert pool.lease(("k",)) is entries[0]
        assert pool.lease(("k",)) is entries[1]
        pool.release(entries[0])
        assert pool.lease(("k",)) is entries[2]
        pool.clear()

    def test_points_key_hit_wins_over_lru_order(self):
        pool = PlanPool(max_plans=4)
        entries = self._released(pool, ["a", "b", "c"])
        assert pool.lease_points(("k",), "c", self._points("c")) is entries[2]
        # A points key the pool does not hold, or one it holds for other
        # points, misses; the caller then takes the LRU plan.
        assert pool.lease_points(("k",), "zzz", self._points("zzz")) is None
        assert pool.lease_points(("k",), "a", self._points("b")) is None
        assert pool.lease(("k",)) is entries[0]
        pool.clear()

    def test_lease_unpointed_unchanged(self):
        pool = PlanPool(max_plans=4)
        entries = self._released(pool, ["a", None, "c", None])
        assert pool.lease_unpointed(("k",)) is entries[1]
        assert pool.lease_unpointed(("k",)) is entries[3]
        assert pool.lease_unpointed(("k",)) is None
        assert pool.lease_unpointed(("other",)) is None
        assert pool.n_idle == 2
        pool.clear()

    def test_lru_key_compares_buckets(self):
        pool = PlanPool(max_plans=4)
        self._released(pool, ["a"], key=("k", 1))
        self._released(pool, ["b"], key=("k", 0))
        assert pool.lru_key([("k", 0), ("k", 1)]) == ("k", 1)
        assert pool.lru_key([("k", 0), ("k", 2)]) == ("k", 0)
        assert pool.lru_key([("k", 2)]) is None
        pool.clear()


# --------------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------------- #
@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _submit_mix(service, coords, datas, n_modes=(24, 24), tag_prefix=""):
    x, y = coords
    for i, c in enumerate(datas):
        service.submit(nufft_type=1, n_modes=n_modes, data=c, x=x, y=y,
                       tag=f"{tag_prefix}{i}")


class TestTransformService:
    def test_coalescing_matches_sequential(self, rng):
        m = 600
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        datas = [rng.standard_normal(m) + 1j * rng.standard_normal(m)
                 for _ in range(6)]
        with Plan(1, (24, 24), eps=1e-6) as plan:
            plan.set_pts(x, y)
            refs = [plan.execute(c.astype(np.complex64)) for c in datas]

        with TransformService(n_devices=1) as service:
            _submit_mix(service, (x, y), datas)
            results = service.flush()
            assert all(r.error is None for r in results)
            assert [r.tag for r in results] == [str(i) for i in range(6)]
            for r, ref in zip(results, refs):
                np.testing.assert_allclose(r.output, ref, rtol=1e-5, atol=1e-6)
            assert results[0].block_size == 6
            assert service.stats.blocks_executed == 1

    def test_type2_and_mixed_geometries_coalesce_separately(self, rng):
        m = 400
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        modes = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        with TransformService() as service:
            service.submit(nufft_type=2, n_modes=(24, 24), data=modes, x=x, y=y)
            service.submit(nufft_type=1, n_modes=(24, 24),
                           data=np.ones(m, complex), x=x, y=y)
            service.submit(nufft_type=2, n_modes=(24, 24), data=2 * modes, x=x, y=y)
            results = service.flush()
            assert all(r.error is None for r in results)
            # the two type-2 requests fuse; the type-1 is its own block
            assert results[0].block_size == 2 and results[2].block_size == 2
            assert results[1].block_size == 1
            np.testing.assert_allclose(results[2].output, 2 * results[0].output,
                                       rtol=1e-5)

    def test_plan_cache_hit_miss_and_setpts_reuse(self, rng):
        m = 300
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        data = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        with TransformService() as service:
            service.submit(nufft_type=1, n_modes=(16, 16), data=data, x=x, y=y)
            service.flush()
            assert service.stats.plan_cache_misses == 1
            assert service.stats.plan_cache_hits == 0

            service.submit(nufft_type=1, n_modes=(16, 16), data=data, x=x, y=y)
            r2 = service.flush()[0]
            assert r2.plan_reused and r2.setpts_reused
            assert service.stats.plan_cache_hits == 1
            assert service.stats.setpts_skipped == 1

            # different geometry -> miss
            service.submit(nufft_type=1, n_modes=(32, 32), data=data, x=x, y=y)
            r3 = service.flush()[0]
            assert not r3.plan_reused
            assert service.stats.plan_cache_misses == 2

    def test_fleet_sharding_matches_single_device(self, rng):
        m = 500
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        datas = [rng.standard_normal(m) + 1j * rng.standard_normal(m)
                 for _ in range(16)]

        with TransformService(n_devices=1) as single:
            _submit_mix(single, (x, y), datas)
            seq = single.flush()
        with TransformService(n_devices=4) as fleet:
            _submit_mix(fleet, (x, y), datas)
            sharded = fleet.flush()
            devices_used = {r.device_id for r in sharded}
            assert len(devices_used) == 4
            assert fleet.stats.shards_executed == 4
            for a, b in zip(seq, sharded):
                np.testing.assert_allclose(b.output, a.output, rtol=1e-5, atol=1e-6)

    def test_unpooled_baseline_replans_every_request(self, rng):
        m = 200
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        datas = [np.ones(m, complex) for _ in range(4)]
        with TransformService(pool_plans=False, coalesce=False) as service:
            _submit_mix(service, (x, y), datas)
            results = service.flush()
            assert all(r.block_size == 1 for r in results)
            assert service.stats.plans_created == 4
            assert service.stats.plan_cache_hits == 0

    def test_pooling_beats_unpooled_modelled_throughput(self, rng):
        m = 400
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        datas = [rng.standard_normal(m) + 1j * rng.standard_normal(m)
                 for _ in range(8)]
        throughput = {}
        for name, kwargs in (("unpooled", dict(pool_plans=False, coalesce=False)),
                             ("pooled", dict(pool_plans=True, coalesce=True))):
            with TransformService(**kwargs) as service:
                _submit_mix(service, (x, y), datas)
                service.flush()
                service.reset_metrics()
                _submit_mix(service, (x, y), datas)
                service.flush()
                throughput[name] = service.throughput_rps()
        # the acceptance threshold of the serving layer: >= 2x from plan
        # reuse + coalescing over per-request planning
        assert throughput["pooled"] >= 2.0 * throughput["unpooled"]

    def test_failure_isolation(self, rng, monkeypatch):
        m = 100
        x = rng.uniform(-np.pi, np.pi, m)
        with TransformService() as service:
            real_new = service._new_entry

            def exploding_new(plan_key, n_trans, device):
                if plan_key.modes == (8,):
                    raise RuntimeError("boom")
                return real_new(plan_key, n_trans, device)

            monkeypatch.setattr(service, "_new_entry", exploding_new)
            service.submit(nufft_type=1, n_modes=(8,), data=np.ones(m, complex), x=x)
            service.submit(nufft_type=1, n_modes=(16,), data=np.ones(m, complex), x=x)
            bad, good = service.flush()
            assert isinstance(bad.error, RuntimeError) and bad.output is None
            assert good.error is None and good.output.shape == (16,)
            assert service.stats.requests_failed == 1
            assert service.stats.requests_served == 1

    def test_submit_validates_eagerly(self):
        with TransformService() as service:
            with pytest.raises(ValueError):
                service.submit(nufft_type=1, n_modes=(16,),
                               data=np.ones(3, complex),
                               x=np.array([0.1, np.inf, 0.2]))
            assert service.stats.requests_submitted == 0
            assert service.flush() == []

    def test_lease_release_lifecycle(self):
        service = TransformService()
        plan = service.lease_plan(2, (16, 16), eps=1e-6, precision="double")
        assert service.stats.lease_misses == 1
        with pytest.raises(RuntimeError):
            service.close()  # outstanding lease
        service.release_plan(plan)
        plan2 = service.lease_plan(2, (16, 16), eps=1e-6, precision="double")
        assert plan2 is plan
        assert service.stats.lease_hits == 1
        with pytest.raises(ValueError):
            service.release_plan(Plan(1, (16,)))
        service.release_plan(plan2)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(nufft_type=1, n_modes=(16,), data=np.ones(1, complex),
                           x=np.array([0.1]))

    def test_reset_metrics_keeps_pool_warm(self, rng):
        m = 200
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        with TransformService() as service:
            _submit_mix(service, (x, y), [np.ones(m, complex)])
            service.flush()
            service.reset_metrics()
            assert service.makespan() == 0.0
            _submit_mix(service, (x, y), [np.ones(m, complex)])
            r = service.flush()[0]
            assert r.plan_reused and r.setpts_reused


class TestPoolAtCapacity:
    """A pool with room for k hot point sets plus spares keeps them warm."""

    n_hot = 4
    m = 200

    def _serve(self, service, x, y, data):
        service.submit(nufft_type=1, n_modes=(16, 16), data=data, x=x, y=y)
        (result,) = service.flush()
        assert result.error is None
        return result

    def _run(self, rng, n_devices, rounds=6):
        hot = [rng.uniform(-np.pi, np.pi, (2, self.m)) for _ in range(self.n_hot)]
        data = np.ones(self.m, complex)
        victims = []
        with TransformService(n_devices=n_devices, max_plans=self.n_hot + 3) as service:
            # Warm-up fills the pool: three spare plans, then one per hot set.
            for x, y in [rng.uniform(-np.pi, np.pi, (2, self.m)) for _ in range(3)] + hot:
                self._serve(service, x, y, data)
            assert service.pool.n_idle == service.pool.max_plans
            executed = service.stats.setpts_executed
            n_fresh = 0
            for _ in range(rounds):
                for i, (x, y) in enumerate(hot):
                    assert self._serve(service, x, y, data).setpts_reused
                    if i % 2:
                        idle = [e for bucket in service.pool._idle.values() for e in bucket]
                        victim = min(idle, key=lambda e: e.last_used)
                        x_new, y_new = rng.uniform(-np.pi, np.pi, (2, self.m))
                        result = self._serve(service, x_new, y_new, data)
                        n_fresh += 1
                        assert not result.setpts_reused and result.plan_reused
                        assert result.device_id == victim.device_id
                        assert victim.points_key == TransformRequest(
                            1, (16, 16), data, x=x_new, y=y_new).points_key()
                        victims.append(victim.device_id)
            assert service.stats.setpts_executed - executed == n_fresh
            assert service.pool.n_idle == service.pool.max_plans
        return victims

    def test_fresh_points_never_evict_hot_sets(self, rng):
        self._run(rng, n_devices=1)

    def test_two_devices_repoint_pool_wide_lru(self, rng):
        victims = self._run(rng, n_devices=2)
        assert set(victims) == {0, 1}

    def test_lessee_below_capacity_takes_least_loaded_device(self, rng):
        data = np.ones(self.m, complex)
        with TransformService(n_devices=2) as service:
            for _ in range(3):
                self._serve(service, *rng.uniform(-np.pi, np.pi, (2, self.m)), data)
            assert service.pool.n_idle < service.pool.max_plans
            keys = list(service.pool._idle)
            least_loaded = service.fleet.ranked()[0].device_id
            # The pool-wide LRU plan sits on the busier device.
            assert service.pool.lru_key(keys)[-1] != least_loaded
            plan = service.lease_plan(1, (16, 16), precision="single")
            assert service.stats.lease_hits == 1
            assert plan.device.device_id == least_loaded
            service.release_plan(plan)


class TestFusedLaunchModel:
    def test_batched_exec_cheaper_than_looped(self, rng):
        """A fused n_trans block models below n_trans x the single cost
        (single launch, single fused pass) but above the single cost."""
        m = 4000
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        c = rng.standard_normal((8, m)) + 1j * rng.standard_normal((8, m))
        with Plan(1, (32, 32), eps=1e-6) as single, \
                Plan(1, (32, 32), n_trans=8, eps=1e-6) as batched:
            single.set_pts(x, y)
            batched.set_pts(x, y)
            single.execute(c[0].astype(np.complex64))
            t1 = single.timings()["exec"]
            batched.execute(c.astype(np.complex64))
            t8 = batched.timings()["exec"]
        assert t8 > t1             # the work still scales with the batch
        assert t8 < 8.0 * t1       # but the launches do not


# --------------------------------------------------------------------------- #
# fleet weak scaling + MTIP routing
# --------------------------------------------------------------------------- #
class TestFleetWeakScaling:
    def test_near_linear_efficiency(self):
        result = run_weak_scaling_fleet(
            nufft_type=2, n_modes=(20, 20, 20), n_points_per_rank=4000,
            requests_per_device=3, max_devices=4, precision="double",
        )
        eff = result.efficiency()
        assert eff[0] == pytest.approx(1.0)
        assert all(e >= 0.7 for e in eff)          # near-linear
        assert all(e1 >= e2 for e1, e2 in zip(eff, eff[1:]))  # monotone bend
        rows = result.rows()
        assert [r[0] for r in rows] == [1, 2, 3, 4]
        assert rows[-1][1] == 4 * 2 * 3  # devices x rounds x requests/device


class TestMTIPThroughService:
    def test_equivalent_and_pool_shared(self):
        cfg = MTIPConfig(n_modes=8, n_pix=6, n_images=4, n_candidates=6,
                         phasing_iterations=8)
        plain, _ = MTIPReconstruction(cfg).run(n_iterations=1)
        with TransformService(n_devices=2) as service:
            with MTIPReconstruction(cfg, service=service) as recon:
                served, _ = recon.run(n_iterations=1)
            first_misses = service.stats.lease_misses
            with MTIPReconstruction(cfg, service=service) as recon2:
                recon2.run(n_iterations=1)
            assert service.stats.lease_misses == first_misses  # all pool hits
            assert service.stats.lease_hits >= 3
        np.testing.assert_allclose(served, plain, rtol=1e-10, atol=1e-12)

    def test_device_and_service_mutually_exclusive(self):
        with TransformService() as service:
            with pytest.raises(ValueError):
                MTIPReconstruction(MTIPConfig(), device=Device(), service=service)

    @pytest.mark.parametrize("operator, nufft_type",
                             [(SlicingOperator, 2), (MergingOperator, 1)])
    @pytest.mark.parametrize("points", [np.full((10, 3), np.nan),
                                        np.zeros((10, 2))],
                             ids=["nan", "two-columns"])
    def test_failed_operator_keeps_no_lease(self, operator, nufft_type, points):
        key = dict(eps=1e-6, precision="double")
        with TransformService() as service:
            pooled = service.lease_plan(nufft_type, (8, 8, 8), **key)
            service.release_plan(pooled)
            with pytest.raises(ValueError):
                operator((8, 8, 8), points, eps=1e-6, service=service)
            again = service.lease_plan(nufft_type, (8, 8, 8), **key)
            service.release_plan(again)
            assert again is pooled
            assert service.stats.lease_hits == 1


class TestReviewRegressions:
    """Pins for review findings: request identity comparison, close() not
    dropping queued work, type-3 fleet scaling, shared plan-key builder."""

    def test_requests_compare_by_identity(self):
        x = np.array([0.1, 0.2, 0.3])
        a = TransformRequest(1, (16,), np.ones(3, complex), x=x)
        b = TransformRequest(1, (16,), np.ones(3, complex), x=x)
        assert a == a and a != b          # no element-wise ValueError
        assert a in [a, b]

    def test_close_refuses_to_drop_queued_requests(self):
        service = TransformService()
        service.submit(nufft_type=1, n_modes=(16,), data=np.ones(2, complex),
                       x=np.array([0.1, 0.2]))
        with pytest.raises(RuntimeError, match="not served"):
            service.close()
        service.flush()
        service.close()

    def test_fleet_scaling_supports_type3(self):
        result = run_weak_scaling_fleet(
            nufft_type=3, n_modes=(32,), n_points_per_rank=400,
            requests_per_device=2, max_devices=2, precision="double",
        )
        assert len(result.points) == 2
        assert result.points[1].n_requests == 2 * 2 * 2

    def test_lease_and_request_paths_share_pool_keys(self, rng):
        m = 150
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        with TransformService() as service:
            plan = service.lease_plan(1, (16, 16), eps=1e-6, precision="single")
            service.release_plan(plan)
            # a coalesced request with the same geometry must hit that plan
            service.submit(nufft_type=1, n_modes=(16, 16),
                           data=np.ones(m, complex), x=x, y=y,
                           eps=1e-6, precision="single")
            result = service.flush()[0]
            assert result.plan_reused
            assert service.stats.plan_cache_hits == 1

    def test_release_of_destroyed_leased_plan_not_pooled(self, rng):
        # A lessee may drive the plan as a context manager; releasing the
        # destroyed plan must not poison the pool for the next request.
        m = 120
        x, y = rng.uniform(-np.pi, np.pi, (2, m))
        with TransformService() as service:
            plan = service.lease_plan(1, (16, 16), eps=1e-6, precision="single")
            plan.destroy()
            service.release_plan(plan)
            assert service.pool.n_idle == 0
            service.submit(nufft_type=1, n_modes=(16, 16),
                           data=np.ones(m, complex), x=x, y=y,
                           eps=1e-6, precision="single")
            result = service.flush()[0]
            assert result.error is None and not result.plan_reused

    def test_stream_op_log_is_bounded(self):
        from repro.gpu.device import Stream
        dev = Device()
        s = dev.create_stream()
        for _ in range(Stream.MAX_OPS_LOGGED + 50):
            s.enqueue("exec", 1e-9)
        assert len(s.ops) == Stream.MAX_OPS_LOGGED
