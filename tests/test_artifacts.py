"""Tests of the unified warm-state artifact store (:mod:`repro.artifacts`).

Pins the PR 10 contract end to end:

* store semantics -- atomic disk round-trips across instances, per-kind
  schema versioning (stale entries skipped individually), corrupt/truncated
  entries counted and rebuilt instead of raising, tolerant record tables;
* concurrency -- single-flight builds (one builder invocation under races)
  and no torn reads while a writer rewrites an entry;
* producer round-trips -- Horner fits, stencil caches, Toeplitz PSF kernels
  and tuning wisdom all reload bit-identically from a shared store root;
* warm == cold -- a plan executed against a warmed store recomputes nothing
  (``builds == 0``) and its output is bit-identical to the cold run, across
  dimensions, transform types and precisions;
* service integration -- a restarted :class:`~repro.service.TransformService`
  pre-warms pooled plans from persisted signatures and serves its first
  request with zero artifact builds;
* :class:`~repro.service.PlanPool` hardening -- eviction, purge and clear
  always reclaim simulated device memory (RAM-flatness regression) and the
  ``on_evict`` callback never breaks reclamation.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.artifacts import ARRAY_KINDS, ArtifactStore, default_store, reset_default_store
from repro.core.plan import Plan
from repro.core.stencil import build_stencil_cache, stencil_cache_key
from repro.gpu.device import Device
from repro.kernels.es_kernel import ESKernel, horner_coefficients
from repro.service import TransformService
from repro.service.pool import PlanPool
from repro.solve import ToeplitzNormalOperator
from repro.tuning import TuningCache
from repro.workloads.distributions import cluster_points
from tests.conftest import make_points_2d


# --------------------------------------------------------------------------- #
# store semantics: array kinds
# --------------------------------------------------------------------------- #
class TestArrayKinds:
    def test_memory_only_roundtrip(self):
        store = ArtifactStore()
        store.save_arrays("horner", "k", {"a": np.arange(4.0)})
        out = store.load_arrays("horner", "k")
        assert np.array_equal(out["a"], np.arange(4.0))
        assert store.load_arrays("horner", "missing") is None
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_disk_roundtrip_across_instances(self, tmp_path):
        writer = ArtifactStore(root=tmp_path)
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.ones(3) * 0.5}
        writer.save_arrays("stencil", "pts=abc.grid=8", arrays)

        reader = ArtifactStore(root=tmp_path)
        out = reader.load_arrays("stencil", "pts=abc.grid=8")
        assert set(out) == {"a", "b"}
        assert np.array_equal(out["a"], arrays["a"])
        assert np.array_equal(out["b"], arrays["b"])
        assert reader.stats.hits == 1 and reader.stats.builds == 0

    def test_loaded_arrays_are_read_only(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.save_arrays("psf", "k", {"a": np.zeros(3)})
        out = ArtifactStore(root=tmp_path).load_arrays("psf", "k")
        with pytest.raises(ValueError):
            out["a"][0] = 1.0

    def test_meta_member_name_is_reserved(self):
        store = ArtifactStore()
        with pytest.raises(ValueError, match="reserved"):
            store.save_arrays("horner", "k", {"__meta__": np.zeros(1)})

    def test_unregistered_kind_raises(self):
        store = ArtifactStore()
        with pytest.raises(KeyError, match="unregistered"):
            store.load_arrays("no-such-kind", "k")

    def test_stale_version_skipped_and_rebuilt(self, tmp_path):
        old = ArtifactStore(root=tmp_path, kinds=False)
        old.register_array_kind("custom", version=1)
        old.save_arrays("custom", "k", {"a": np.zeros(2)})

        new = ArtifactStore(root=tmp_path, kinds=False)
        new.register_array_kind("custom", version=2)
        assert new.load_arrays("custom", "k") is None
        assert new.stats.stale == 1 and new.stats.misses == 1

        # get_or_build recomputes and the rebuilt entry serves version 2.
        built = new.get_or_build("custom", "k", lambda: {"a": np.ones(2)})
        assert np.array_equal(built["a"], np.ones(2))
        assert new.stats.builds == 1
        again = ArtifactStore(root=tmp_path, kinds=False)
        again.register_array_kind("custom", version=2)
        assert np.array_equal(again.load_arrays("custom", "k")["a"], np.ones(2))

    @pytest.mark.parametrize("mangle", ["truncate", "garbage", "empty"])
    def test_corrupt_entry_counted_and_rebuilt(self, tmp_path, mangle):
        store = ArtifactStore(root=tmp_path)
        store.save_arrays("horner", "k", {"a": np.arange(64.0)})
        path = store._entry_path("horner", "k")
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            if mangle == "truncate":
                fh.write(blob[: len(blob) // 2])
            elif mangle == "garbage":
                fh.write(b"not a zip archive at all")
            # "empty": leave the file zero bytes

        fresh = ArtifactStore(root=tmp_path)
        assert fresh.load_arrays("horner", "k") is None
        assert fresh.stats.corrupt == 1
        rebuilt = fresh.get_or_build("horner", "k", lambda: {"a": np.ones(4)})
        assert np.array_equal(rebuilt["a"], np.ones(4))
        assert fresh.stats.builds == 1

    def test_memory_lru_bounded(self, tmp_path):
        store = ArtifactStore(root=tmp_path, kinds=False)
        store.register_array_kind("custom", 1, max_memory=2)
        for i in range(5):
            store.save_arrays("custom", f"k{i}", {"a": np.full(2, float(i))})
        assert len(store._array_kinds["custom"].memory) == 2
        # Evicted-from-memory entries still load from the disk tier.
        assert np.array_equal(store.load_arrays("custom", "k0")["a"],
                              np.zeros(2))

    def test_get_or_build_returns_stored_copy(self):
        store = ArtifactStore()
        src = np.arange(3.0)
        out = store.get_or_build("horner", "k", lambda: {"a": src})
        assert np.array_equal(out["a"], src)
        # Second call hits the cache: the builder must not run again.
        out2 = store.get_or_build(
            "horner", "k",
            lambda: (_ for _ in ()).throw(AssertionError("rebuilt")))
        assert np.array_equal(out2["a"], src)
        assert store.stats.builds == 1


# --------------------------------------------------------------------------- #
# store semantics: record kinds
# --------------------------------------------------------------------------- #
class TestRecordKinds:
    def test_roundtrip_across_instances(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        rec = {"version": 1, "nufft_type": 1, "modes": [32, 32]}
        store.put_record("plans", "t1.k", rec)

        fresh = ArtifactStore(root=tmp_path)
        assert fresh.get_record("plans", "t1.k") == rec
        assert fresh.record_keys("plans") == ["t1.k"]
        assert fresh.record_count("plans") == 1

    def test_malformed_record_rejected(self):
        store = ArtifactStore()
        with pytest.raises(ValueError, match="malformed"):
            store.put_record("plans", "k", {"version": 99})

    def test_corrupt_table_falls_back_empty(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{ torn mid-wri")
        store = ArtifactStore(root=tmp_path)
        assert store.record_count("plans") == 0
        assert store.record_load_error("plans") is not None
        # The next put rewrites the table wholesale and recovers it.
        store.put_record("plans", "k", {"version": 1})
        fresh = ArtifactStore(root=tmp_path)
        assert fresh.record_load_error("plans") is None
        assert fresh.get_record("plans", "k") == {"version": 1}

    def test_wrong_schema_entries_skipped_individually(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({
            "schema": 1,
            "entries": {
                "good": {"version": 1, "nufft_type": 2},
                "bad-version": {"version": 99},
                "bad-shape": "not-a-dict",
            },
        }))
        store = ArtifactStore(root=tmp_path)
        assert store.record_count("plans") == 1
        assert store.record_skipped("plans") == 2
        assert store.get_record("plans", "good")["nufft_type"] == 2
        assert store.get_record("plans", "bad-version") is None

    def test_clear_records_rewrites_table(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.put_record("plans", "k", {"version": 1})
        store.clear_records("plans")
        assert ArtifactStore(root=tmp_path).record_count("plans") == 0


# --------------------------------------------------------------------------- #
# stats and the default store
# --------------------------------------------------------------------------- #
class TestStatsAndDefaults:
    def test_snapshot_and_by_kind(self):
        store = ArtifactStore()
        store.get_or_build("horner", "k", lambda: {"a": np.zeros(1)})
        store.load_arrays("horner", "k")
        snap = store.stats.snapshot()
        assert snap == {"hits": 1, "misses": 1, "stale": 0, "corrupt": 0,
                        "builds": 1}
        assert store.stats.by_kind["horner"]["builds"] == 1

    def test_describe_mentions_root(self, tmp_path):
        assert "in-memory" in ArtifactStore().describe()
        assert str(tmp_path) in ArtifactStore(root=tmp_path).describe()

    def test_default_store_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_STORE", str(tmp_path))
        reset_default_store()
        try:
            store = default_store()
            assert store.root == str(tmp_path)
            assert default_store() is store  # process-wide singleton
        finally:
            monkeypatch.delenv("REPRO_ARTIFACT_STORE")
            reset_default_store()


class TestEnvRegistry:
    def test_readme_documents_every_env_var(self):
        from repro.core.env import ENV_VARS

        readme = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        for name in ENV_VARS:
            assert f"`{name}`" in text, f"{name} missing from README table"

    def test_blank_value_counts_as_unset(self, monkeypatch):
        from repro.core import env

        monkeypatch.setenv("REPRO_ARTIFACT_STORE", "   ")
        assert env.artifact_store_path() is None
        monkeypatch.setenv("REPRO_FAULT_SEED", "")
        assert env.fault_seed() == 0
        monkeypatch.setenv("REPRO_FAULT_SEED", "not-an-int")
        with pytest.raises(ValueError):
            env.fault_seed()


# --------------------------------------------------------------------------- #
# concurrency
# --------------------------------------------------------------------------- #
class TestConcurrency:
    def test_single_flight_build(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        n_threads = 8
        builds = []
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def builder():
            builds.append(1)
            return {"a": np.arange(16.0)}

        def worker(i):
            barrier.wait()
            results[i] = store.get_or_build("stencil", "contended", builder)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert store.stats.builds == 1
        for out in results:
            assert np.array_equal(out["a"], np.arange(16.0))

    def test_no_torn_reads_under_rewrites(self, tmp_path):
        # A writer rewrites the same entry with internally consistent
        # payloads; readers (forced to the disk tier via fresh instances)
        # must only ever observe a complete payload from one write.
        root = str(tmp_path)
        writer_store = ArtifactStore(root=root)
        writer_store.save_arrays("psf", "k", {"tag": np.full(8, 0.0),
                                              "check": np.full(3, 0.0)})
        stop = threading.Event()
        bad = []

        def writer():
            k = 1.0
            while not stop.is_set():
                writer_store.save_arrays(
                    "psf", "k",
                    {"tag": np.full(8, k), "check": np.full(3, k)})
                k += 1.0

        def reader():
            for _ in range(40):
                out = ArtifactStore(root=root).load_arrays("psf", "k")
                if out is None:
                    bad.append("miss")
                elif out["tag"][0] != out["check"][0]:
                    bad.append("torn")

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        w.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        w.join()
        assert not bad


# --------------------------------------------------------------------------- #
# producer round-trips over one shared store root
# --------------------------------------------------------------------------- #
class TestProducerRoundtrips:
    def test_horner_fit_roundtrip(self, tmp_path):
        cold = ArtifactStore(root=tmp_path)
        c1 = horner_coefficients(6, 2.3 * 6, store=cold)
        assert cold.stats.builds == 1
        assert not c1.flags.writeable

        warm = ArtifactStore(root=tmp_path)
        c2 = horner_coefficients(6, 2.3 * 6, store=warm)
        assert warm.stats.builds == 0
        assert np.array_equal(c1, c2)

    def test_stencil_cache_roundtrip(self, tmp_path, rng):
        x, y, _ = make_points_2d(rng, m=300)
        kernel = ESKernel.from_tolerance(1e-6)
        fine = (48, 48)
        coords = (x, y)
        digest = "deadbeef" * 4

        cold = ArtifactStore(root=tmp_path)
        c1 = build_stencil_cache(coords, fine, kernel, store=cold,
                                 points_digest=digest)
        assert cold.stats.by_kind["stencil"]["builds"] == 1

        warm = ArtifactStore(root=tmp_path)
        c2 = build_stencil_cache(coords, fine, kernel, store=warm,
                                 points_digest=digest)
        assert warm.stats.by_kind["stencil"]["builds"] == 0
        assert warm.stats.by_kind["stencil"]["hits"] >= 1
        for d in range(2):
            assert np.array_equal(c1.i0[d], c2.i0[d])
            assert np.array_equal(c1.vals[d], c2.vals[d])
        if c1.interp_matrix is not None:
            assert np.array_equal(c1.interp_matrix.data, c2.interp_matrix.data)
            assert np.array_equal(c1.interp_matrix.indices,
                                  c2.interp_matrix.indices)

        # An over-budget set is stored in the windowed engine's order: a warm
        # plan loads that order, builds no stencil and repeats the cold output.
        m, modes = 5000, (8, 6, 7)
        with Plan(1, modes, eps=1e-6) as probe:
            pts = cluster_points(m, probe.fine_shape, rng)
        c = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        root = tmp_path / "windowed"
        outputs, orders = [], []
        for phase in ("cold", "warm"):
            store = ArtifactStore(root=root)
            with Plan(1, modes, n_trans=2, eps=1e-6, stencil_budget=0,
                      artifact_store=store) as t1, \
                    Plan(2, modes, n_trans=2, eps=1e-6, stencil_budget=0,
                         artifact_store=store) as t2:
                t1.set_pts(*pts)
                t2.set_pts(*pts)
                f = t1.execute(c)
                outputs.append((f, t2.execute(f)))
                stencil = t1.point_set.stencil
                assert stencil.interp_matrix is None and stencil.pencil_starts[-1] > 0
                orders.append(stencil.order)
            builds = store.stats.by_kind["stencil"]["builds"]
            assert builds == (1 if phase == "cold" else 0)
        assert orders[0] is not None and np.array_equal(*orders)
        for cold, warm in zip(*outputs):
            assert np.array_equal(cold, warm)

    def test_stencil_v5_entry_is_rebuilt(self, tmp_path, rng):
        """A stencil entry of schema 5 (float64 CSR weights for every
        precision) is stale: the store skips it and rebuilds, and the plan's
        output is that of a plan without a store."""
        assert ARRAY_KINDS["stencil"] == 6
        x, y, _ = make_points_2d(rng, m=2000)
        c = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)).astype(np.complex64)

        def run(store):
            with Plan(1, (32, 32), eps=1e-6, precision="single",
                      artifact_store=store) as plan:
                plan.set_pts(x, y)
                assert plan.point_set.stencil.interp_matrix.dtype == np.float32
                return plan.execute(c)

        old = ArtifactStore(root=tmp_path).register_array_kind("stencil", 5)
        run(old)
        assert old.stats.by_kind["stencil"]["builds"] == 1
        new = ArtifactStore(root=tmp_path)
        got = run(new)
        stats = new.stats.by_kind["stencil"]
        assert (stats["stale"], stats["hits"], stats["builds"]) == (1, 0, 1)
        assert np.array_equal(got, run(None))

    def test_stencil_key_covers_inputs(self):
        kernel = ESKernel.from_tolerance(1e-6)
        base = stencil_cache_key("d", (32, 32), kernel, "horner", 1 << 20, True)
        assert stencil_cache_key("e", (32, 32), kernel, "horner", 1 << 20,
                                 True) != base
        assert stencil_cache_key("d", (64, 32), kernel, "horner", 1 << 20,
                                 True) != base
        assert stencil_cache_key("d", (32, 32), kernel, "exact", 1 << 20,
                                 True) != base
        assert stencil_cache_key("d", (32, 32), kernel, "horner", 1 << 20,
                                 False) != base
        assert stencil_cache_key("d", (32, 32), kernel, "horner", 1 << 20,
                                 True, (8, 8)) != base
        assert stencil_cache_key("d", (32, 32), kernel, "horner", 1 << 20,
                                 True, (8, 8)) != stencil_cache_key(
            "d", (32, 32), kernel, "horner", 1 << 20, True, (4, 4))
        assert stencil_cache_key("d", (32, 32), kernel, "horner", 1 << 20,
                                 True, None, np.float32) != base

    def test_bin_shapes_keep_separate_stencil_entries(self, tmp_path, rng):
        """Plans differing only in ``bin_shape`` share a store, not entries.

        The stencil cache lists the points in bin-sort order, so each bin
        shape builds (cold) and loads (warm) its own entry, and each warm
        output is bit-identical to its cold one.
        """
        x, y, _ = make_points_2d(rng, m=400)
        c = rng.standard_normal((2, 400)) + 1j * rng.standard_normal((2, 400))
        shapes = ((4, 4), (8, 8))
        outputs, perms = {}, {}
        for phase in ("cold", "warm"):
            store = ArtifactStore(root=tmp_path)
            for bins in shapes:
                with Plan(1, (16, 16), n_trans=2, eps=1e-9, precision="double",
                          bin_shape=bins, artifact_store=store) as plan:
                    plan.set_pts(x, y)
                    perms[bins] = plan.point_set.sort.permutation
                    outputs[phase, bins] = plan.execute(c)
            stats = store.stats.by_kind["stencil"]
            assert stats["builds"] == (2 if phase == "cold" else 0)
            assert stats["hits"] == (0 if phase == "cold" else 2)
        assert not np.array_equal(*perms.values())
        for bins in shapes:
            assert np.array_equal(outputs["warm", bins], outputs["cold", bins])

    def test_psf_kernel_roundtrip(self, tmp_path, rng):
        x, y, _ = make_points_2d(rng, m=250)
        cold = ArtifactStore(root=tmp_path)
        op1 = ToeplitzNormalOperator((x, y), (16, 16), artifact_store=cold)
        assert op1.psf_build_seconds > 0.0

        warm = ArtifactStore(root=tmp_path)
        op2 = ToeplitzNormalOperator((x, y), (16, 16), artifact_store=warm)
        assert op2.psf_build_seconds == 0.0
        assert warm.stats.by_kind["psf"]["hits"] == 1
        assert np.array_equal(op1.kernel_hat, op2.kernel_hat)

        f = (rng.standard_normal((16, 16))
             + 1j * rng.standard_normal((16, 16)))
        assert np.array_equal(op1.apply(f), op2.apply(f))

    def test_tuning_cache_shares_store_root(self, tmp_path):
        record = {"version": 1, "score_s": 1e-3, "baseline_score_s": 2e-3,
                  "mode": "model",
                  "opts": {"method": "SM", "bin_shape": [32, 32],
                           "max_subproblem_size": 1024,
                           "threads_per_block": 128,
                           "stencil_budget": 1 << 25, "backend": "auto"}}
        store = ArtifactStore(root=tmp_path)
        TuningCache(store=store).put("sig", record)
        assert os.path.exists(tmp_path / "tuning.json")

        warm = TuningCache(store=ArtifactStore(root=tmp_path))
        assert warm.get("sig") == record
        # The same file also loads through the standalone path API.
        assert TuningCache(path=tmp_path / "tuning.json").get("sig") == record


# --------------------------------------------------------------------------- #
# warm == cold, bit-identical, across dims x types x precisions
# --------------------------------------------------------------------------- #
def _plan_case(ndim, nufft_type, precision, rng):
    m = 200
    n_modes = (12,) * ndim
    cplx = np.complex64 if precision == "single" else np.complex128
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    kwargs = {}
    if nufft_type == 3:
        targets = [rng.uniform(-20, 20, 150) for _ in range(ndim)]
        kwargs = dict(zip("stu", targets))
        data = (rng.standard_normal(m)
                + 1j * rng.standard_normal(m)).astype(cplx)
        modes_arg = ndim
    elif nufft_type == 2:
        data = (rng.standard_normal(n_modes)
                + 1j * rng.standard_normal(n_modes)).astype(cplx)
        modes_arg = n_modes
    else:
        data = (rng.standard_normal(m)
                + 1j * rng.standard_normal(m)).astype(cplx)
        modes_arg = n_modes
    return modes_arg, coords, kwargs, data


class TestWarmEqualsCold:
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("nufft_type", [1, 2, 3])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_bit_identical_and_zero_builds(self, tmp_path, rng, ndim,
                                           nufft_type, precision):
        modes_arg, coords, kwargs, data = _plan_case(ndim, nufft_type,
                                                     precision, rng)
        outputs, builds = [], []
        for _ in range(2):
            store = ArtifactStore(root=tmp_path)
            with Plan(nufft_type, modes_arg, precision=precision,
                      artifact_store=store) as plan:
                plan.set_pts(*coords, **kwargs)
                outputs.append(plan.execute(data))
            builds.append(store.stats.builds)
        assert np.array_equal(outputs[0], outputs[1])
        assert builds[1] == 0, "warm run recomputed warm state"


# --------------------------------------------------------------------------- #
# service integration: pre-warm and zero-build steady state
# --------------------------------------------------------------------------- #
class TestServiceWarm:
    def test_restart_prewarms_and_serves_with_zero_builds(self, tmp_path, rng):
        x, y, c = make_points_2d(rng, m=400)
        root = str(tmp_path)

        cold = TransformService(artifact_store=root)
        cold.submit(nufft_type=1, n_modes=(16, 16), x=x, y=y, data=c)
        cold_out = [r.output for r in cold.flush()]
        assert cold.stats.artifact_builds > 0
        cold.close()  # persists pooled plan signatures on clear()
        assert ArtifactStore(root=root).record_count("plans") >= 1

        warm = TransformService(artifact_store=root)
        assert warm.stats.plans_prewarmed >= 1
        warm.submit(nufft_type=1, n_modes=(16, 16), x=x, y=y, data=c)
        warm_out = [r.output for r in warm.flush()]
        stats = warm.stats
        report = warm.report()
        warm.close()

        assert np.array_equal(cold_out[0], warm_out[0])
        assert stats.artifact_builds == 0
        assert stats.plans_created == 0  # the pre-warmed plan served it
        assert stats.artifact_hits > 0
        assert "artifacts:" in report and "pre-warmed" in report

    def test_counters_are_live_and_rebased(self, tmp_path, rng):
        x, y, _ = make_points_2d(rng, m=300)
        store = ArtifactStore(root=tmp_path)
        svc = TransformService(artifact_store=store)
        builds_at_start = store.stats.builds
        plan = svc.lease_plan(1, (16, 16))
        plan.set_pts(x, y)
        # No flush() or report() in between: the counters read the store.
        assert svc.stats.artifact_builds == store.stats.builds - builds_at_start > 0
        assert svc.stats.plans_created == svc.stats.lease_misses == 1
        svc.release_plan(plan)
        svc.reset_metrics()
        stats = svc.stats
        assert (stats.artifact_hits, stats.artifact_misses, stats.artifact_stale,
                stats.artifact_corrupt, stats.artifact_builds) == (0, 0, 0, 0, 0)
        assert stats.plans_created == 0
        svc.close()

        restarted = TransformService(artifact_store=str(tmp_path))
        assert restarted.stats.plans_prewarmed == 1
        restarted.reset_metrics()
        assert restarted.stats.plans_prewarmed == 1  # a startup fact
        restarted.close()

    def test_string_path_and_store_instance_equivalent(self, tmp_path, rng):
        x, y, c = make_points_2d(rng, m=200)
        svc = TransformService(artifact_store=ArtifactStore(root=tmp_path))
        svc.submit(nufft_type=2, n_modes=(12, 12),
                   x=x, y=y,
                   data=(np.arange(144.0) + 0j).reshape(12, 12))
        svc.flush()
        svc.close()
        # A path-configured service reads what the instance-configured wrote.
        svc2 = TransformService(artifact_store=str(tmp_path))
        assert svc2.stats.plans_prewarmed >= 1
        svc2.close()


# --------------------------------------------------------------------------- #
# PlanPool hardening: RAM flatness and on_evict robustness
# --------------------------------------------------------------------------- #
def _pooled(pool, device, tag):
    plan = Plan(1, (16, 16), device=device)
    return pool.make_entry(plan, (tag, 1, device.device_id))


class TestPlanPoolHardening:
    def test_ram_flat_across_evictions(self, rng):
        device = Device()
        baseline = device.memory.allocated_bytes
        assert baseline == 0
        pool = PlanPool(max_plans=2)
        # Churn 6 plans through a 2-slot pool: four LRU evictions.
        for i in range(6):
            pool.release(_pooled(pool, device, f"k{i}"))
            assert pool.n_idle <= 2
        held = device.memory.allocated_bytes
        assert held > 0
        pool.clear()
        assert pool.n_idle == 0
        assert device.memory.allocated_bytes == baseline

    def test_purge_device_reclaims_all_memory(self, rng):
        dev_a, dev_b = Device(device_id=0), Device(device_id=1)
        pool = PlanPool(max_plans=8)
        for i in range(2):
            pool.release(_pooled(pool, dev_a, f"a{i}"))
            pool.release(_pooled(pool, dev_b, f"b{i}"))
        assert pool.purge_device(0) == 2
        assert dev_a.memory.allocated_bytes == 0
        assert dev_b.memory.allocated_bytes > 0
        pool.clear()
        assert dev_b.memory.allocated_bytes == 0

    def test_zero_capacity_pool_destroys_on_release(self):
        device = Device()
        pool = PlanPool(max_plans=0)
        evicted = []
        pool.on_evict = evicted.append
        pool.release(_pooled(pool, device, "k"))
        assert device.memory.allocated_bytes == 0
        assert len(evicted) == 1

    def test_on_evict_sees_every_destroyed_entry(self):
        device = Device()
        evicted = []
        pool = PlanPool(max_plans=1, on_evict=evicted.append)
        e0 = _pooled(pool, device, "k0")
        e1 = _pooled(pool, device, "k1")
        pool.release(e0)
        pool.release(e1)  # evicts e0 (LRU)
        assert evicted == [e0]
        pool.clear()
        assert evicted == [e0, e1]
        assert device.memory.allocated_bytes == 0

    def test_on_evict_exception_does_not_leak_memory(self):
        device = Device()

        def explode(entry):
            raise RuntimeError("callback bug")

        pool = PlanPool(max_plans=1, on_evict=explode)
        pool.release(_pooled(pool, device, "k0"))
        pool.release(_pooled(pool, device, "k1"))  # eviction must survive
        pool.clear()
        assert pool.n_idle == 0
        assert device.memory.allocated_bytes == 0
