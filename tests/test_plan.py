"""Tests of the Plan interface (plan / set_pts / execute / destroy) and the
one-shot simple API."""

import numpy as np
import pytest

from repro import (
    Opts,
    Plan,
    Precision,
    SpreadMethod,
    nudft_type1,
    nudft_type2,
    nufft2d1,
    nufft2d2,
    nufft3d1,
    nufft3d2,
    relative_l2_error,
)
from repro.core.plan import CUDA_CONTEXT_MB
from repro.gpu.device import Device
from tests.conftest import make_points_2d, make_points_3d


class TestPlanConstruction:
    def test_invalid_type_and_dims(self):
        with pytest.raises(ValueError):
            Plan(4, (16, 16))
        with pytest.raises(ValueError):
            Plan(0, (16, 16))
        with pytest.raises(ValueError):
            Plan(1, (16, 16, 16, 16))
        with pytest.raises(ValueError):
            Plan(1, (0, 16))
        with pytest.raises(ValueError):
            Plan(1, (16, 16), n_trans=0)
        with pytest.raises(ValueError):
            Plan(3, 4)  # type-3 dimension out of range
        with pytest.raises(ValueError):
            Plan(1, (16, 16), backend="no-such-backend")

    def test_method_resolution(self):
        assert Plan(1, (16, 16)).method is SpreadMethod.SM
        assert Plan(2, (16, 16)).method is SpreadMethod.GM_SORT
        # 3D double precision falls back to GM-sort at high accuracy (Remark 2)
        p = Plan(1, (64, 64, 64), eps=1e-9, precision="double")
        assert p.method is SpreadMethod.GM_SORT
        # but an explicit low-accuracy 3D single-precision plan keeps SM
        assert Plan(1, (64, 64, 64), eps=1e-3, precision="single").method is SpreadMethod.SM

    def test_opts_overrides(self):
        plan = Plan(1, (32, 32), opts=Opts(), method="GM", precision="double",
                    max_subproblem_size=256)
        assert plan.method is SpreadMethod.GM
        assert plan.precision is Precision.DOUBLE
        assert plan.opts.max_subproblem_size == 256

    def test_fine_grid_and_kernel(self):
        plan = Plan(1, (100, 200), eps=1e-5)
        assert plan.kernel.width == 6
        assert plan.fine_shape == (200, 400)
        assert plan.bin_shape == (32, 32)

    def test_report_before_and_after_execute(self, rng):
        x, y, c = make_points_2d(rng, m=300)
        plan = Plan(1, (16, 16), eps=1e-4)
        assert "type 1" in plan.report()
        plan.set_pts(x, y)
        plan.execute(c.astype(np.complex64))
        report = plan.report()
        assert "modelled timings" in report
        plan.destroy()


class TestSetPts:
    def test_shape_validation(self, rng):
        plan = Plan(1, (16, 16))
        with pytest.raises(ValueError):
            plan.set_pts(np.zeros(10), np.zeros(11))
        with pytest.raises(ValueError):
            plan.set_pts(np.zeros(10), np.zeros(10), np.zeros(10))  # z on a 2D plan
        with pytest.raises(ValueError):
            plan.set_pts(np.zeros(0), np.zeros(0))
        plan3 = Plan(1, (8, 8, 8))
        with pytest.raises(ValueError):
            plan3.set_pts(np.zeros(10), np.zeros(10))  # missing z

    def test_execute_before_set_pts(self):
        plan = Plan(1, (16, 16))
        with pytest.raises(RuntimeError):
            plan.execute(np.zeros(4, dtype=np.complex64))

    def test_set_pts_can_be_called_again(self, rng):
        x, y, c = make_points_2d(rng, m=500)
        plan = Plan(1, (20, 20), eps=1e-6, precision="double")
        plan.set_pts(x, y)
        first = plan.execute(c)
        # new points of a different size
        x2, y2, c2 = make_points_2d(rng, m=700)
        plan.set_pts(x2, y2)
        second = plan.execute(c2)
        assert second.shape == (20, 20)
        exact = nudft_type1([x2, y2], c2, (20, 20))
        assert relative_l2_error(second, exact) < 1e-4
        assert not np.allclose(first, second)
        plan.destroy()

    def test_repeated_execute_same_points(self, rng):
        # the whole point of the plan interface: new strengths, same points
        x, y, c = make_points_2d(rng, m=600)
        d = rng.standard_normal(600) + 1j * rng.standard_normal(600)
        with Plan(1, (24, 24), eps=1e-7, precision="double") as plan:
            plan.set_pts(x, y)
            fc = plan.execute(c)
            fd = plan.execute(d)
        assert relative_l2_error(fc, nudft_type1([x, y], c, (24, 24))) < 1e-5
        assert relative_l2_error(fd, nudft_type1([x, y], d, (24, 24))) < 1e-5


class TestExecute:
    def test_output_dtype_follows_precision(self, rng):
        x, y, c = make_points_2d(rng, m=300)
        with Plan(1, (16, 16), precision="single") as plan:
            plan.set_pts(x, y)
            assert plan.execute(c).dtype == np.complex64
        with Plan(1, (16, 16), precision="double") as plan:
            plan.set_pts(x, y)
            assert plan.execute(c).dtype == np.complex128

    def test_batched_transforms(self, rng):
        x, y, _ = make_points_2d(rng, m=400)
        batch = rng.standard_normal((3, 400)) + 1j * rng.standard_normal((3, 400))
        with Plan(1, (18, 18), n_trans=3, eps=1e-7, precision="double") as plan:
            plan.set_pts(x, y)
            out = plan.execute(batch)
        assert out.shape == (3, 18, 18)
        for t in range(3):
            exact = nudft_type1([x, y], batch[t], (18, 18))
            assert relative_l2_error(out[t], exact) < 1e-5

    def test_batched_shape_validation(self, rng):
        x, y, c = make_points_2d(rng, m=100)
        with Plan(1, (8, 8), n_trans=2) as plan:
            plan.set_pts(x, y)
            with pytest.raises(ValueError):
                plan.execute(c)  # single vector given to a 2-transform plan

    def test_out_argument(self, rng):
        x, y, c = make_points_2d(rng, m=200)
        out = np.empty((12, 12), dtype=np.complex128)
        with Plan(1, (12, 12), precision="double") as plan:
            plan.set_pts(x, y)
            returned = plan.execute(c, out=out)
        assert returned is out
        assert np.any(out != 0)

    def test_out_validation_rejects_wrong_shape(self, rng):
        x, y, c = make_points_2d(rng, m=200)
        with Plan(1, (12, 12), precision="double") as plan:
            plan.set_pts(x, y)
            with pytest.raises(ValueError, match="shape"):
                plan.execute(c, out=np.empty((12, 13), dtype=np.complex128))
            with pytest.raises(ValueError, match="shape"):
                # broadcastable but not exact: must be rejected, not broadcast
                plan.execute(c, out=np.empty((1, 12, 12), dtype=np.complex128))

    def test_out_validation_rejects_wrong_dtype(self, rng):
        x, y, c = make_points_2d(rng, m=200)
        with Plan(1, (12, 12), precision="double") as plan:
            plan.set_pts(x, y)
            with pytest.raises(ValueError, match="dtype"):
                plan.execute(c, out=np.empty((12, 12), dtype=np.complex64))
            with pytest.raises(ValueError, match="dtype"):
                plan.execute(c, out=np.empty((12, 12), dtype=np.float64))
        with Plan(1, (12, 12), precision="single") as plan:
            plan.set_pts(x, y)
            with pytest.raises(ValueError, match="dtype"):
                plan.execute(c.astype(np.complex64),
                             out=np.empty((12, 12), dtype=np.complex128))

    def test_out_validation_rejects_non_array(self, rng):
        x, y, c = make_points_2d(rng, m=100)
        with Plan(1, (8, 8), precision="double") as plan:
            plan.set_pts(x, y)
            with pytest.raises(ValueError, match="numpy array"):
                plan.execute(c, out=[[0.0] * 8] * 8)

    def test_out_argument_batched_and_type2(self, rng):
        x, y, _ = make_points_2d(rng, m=150)
        block = rng.standard_normal((2, 150)) + 1j * rng.standard_normal((2, 150))
        with Plan(1, (10, 10), n_trans=2, precision="double") as plan:
            plan.set_pts(x, y)
            out = np.empty((2, 10, 10), dtype=np.complex128)
            assert plan.execute(block, out=out) is out
            with pytest.raises(ValueError):
                plan.execute(block, out=np.empty((10, 10), dtype=np.complex128))
        modes = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        with Plan(2, (10, 10), precision="double") as plan:
            plan.set_pts(x, y)
            out = np.empty(150, dtype=np.complex128)
            assert plan.execute(modes, out=out) is out

    def test_spread_only_mode(self, rng):
        x, y, c = make_points_2d(rng, m=300)
        with Plan(1, (16, 16), eps=1e-4, spread_only=True) as plan:
            plan.set_pts(x, y)
            fine = plan.execute(c.astype(np.complex64))
        assert fine.shape == plan.fine_shape

    def test_type2_wrong_mode_shape(self, rng):
        x, y, _ = make_points_2d(rng, m=100)
        with Plan(2, (16, 16)) as plan:
            plan.set_pts(x, y)
            with pytest.raises(ValueError):
                plan.execute(np.zeros((8, 8), dtype=np.complex64))


class TestTimingsAndMemory:
    def test_timings_keys_and_ordering(self, rng):
        x, y, c = make_points_2d(rng, m=2000)
        with Plan(1, (64, 64), eps=1e-5) as plan:
            plan.set_pts(x, y)
            plan.execute(c.astype(np.complex64))
            t = plan.timings()
        assert set(t) == {"exec", "setup", "total", "mem", "total+mem"}
        assert t["total"] == pytest.approx(t["exec"] + t["setup"])
        assert t["total+mem"] == pytest.approx(t["total"] + t["mem"])
        assert all(v >= 0 for v in t.values())
        assert plan.ns_per_point("exec") > 0

    def test_spread_fraction_dominates_3d_type1(self, rng):
        # Table I: spreading is >90% of exec for 3D type 1
        x, y, z, c = make_points_3d(rng, m=3000)
        with Plan(1, (32, 32, 32), eps=1e-5, precision="single") as plan:
            plan.set_pts(x, y, z)
            plan.execute(c.astype(np.complex64))
            assert plan.spread_fraction() > 0.5

    def test_gpu_ram_accounting(self, rng):
        x, y, c = make_points_2d(rng, m=1000)
        plan = Plan(1, (128, 128), eps=1e-5)
        base = plan.gpu_ram_mb(include_context=False)
        assert base > 0
        assert plan.gpu_ram_mb() == pytest.approx(base + CUDA_CONTEXT_MB)
        plan.set_pts(x, y)
        with_points = plan.gpu_ram_mb(include_context=False)
        assert with_points > base
        plan.destroy()
        assert plan.device.memory.allocated_bytes == 0

    def test_sorted_methods_use_more_ram_than_gm(self, rng):
        # Table I: GM-sort/SM carry the ~8 bytes/point index overhead
        x, y, c = make_points_2d(rng, m=5000)
        ram = {}
        for method in ("GM", "GM-sort"):
            plan = Plan(1, (64, 64), eps=1e-2, method=method)
            plan.set_pts(x, y)
            ram[method] = plan.gpu_ram_mb(include_context=False)
            plan.destroy()
        assert ram["GM-sort"] > ram["GM"]

    def test_destroyed_plan_refuses_work(self, rng):
        x, y, c = make_points_2d(rng, m=100)
        plan = Plan(1, (8, 8))
        plan.destroy()
        with pytest.raises(RuntimeError):
            plan.set_pts(x, y)
        with pytest.raises(RuntimeError):
            plan.execute(c.astype(np.complex64))

    def test_destroy_is_idempotent(self, rng):
        x, y, c = make_points_2d(rng, m=100)
        plan = Plan(1, (8, 8), precision="double")
        plan.set_pts(x, y)
        plan.execute(c)
        plan.destroy()
        plan.destroy()  # second destroy is a no-op, not an error
        assert plan.device.memory.allocated_bytes == 0

    def test_context_manager_destroys_plan(self, rng):
        x, y, c = make_points_2d(rng, m=100)
        with Plan(1, (8, 8), precision="double") as plan:
            assert plan is plan.__enter__()  # re-entrant handle
            plan.set_pts(x, y)
            plan.execute(c)
        assert plan._destroyed
        assert plan.device.memory.allocated_bytes == 0
        plan.destroy()  # destroying after the with-block is still fine

    def test_context_manager_destroys_on_exception(self, rng):
        x, y, c = make_points_2d(rng, m=100)
        with pytest.raises(RuntimeError, match="sentinel"):
            with Plan(1, (8, 8), precision="double") as plan:
                plan.set_pts(x, y)
                raise RuntimeError("sentinel")
        assert plan.device.memory.allocated_bytes == 0

    def test_shared_device_accumulates_allocations(self, rng):
        device = Device()
        p1 = Plan(1, (32, 32), device=device)
        p2 = Plan(2, (32, 32), device=device)
        assert device.memory.allocated_bytes > 0
        p1.destroy()
        remaining = device.memory.allocated_bytes
        assert remaining > 0
        p2.destroy()
        assert device.memory.allocated_bytes == 0


class TestSimpleAPI:
    def test_nufft2d1_and_2d2(self, rng):
        x, y, c = make_points_2d(rng, m=700)
        f = nufft2d1(x, y, c, (20, 22), eps=1e-7, precision="double")
        assert relative_l2_error(f, nudft_type1([x, y], c, (20, 22))) < 1e-5
        modes = rng.standard_normal((20, 22)) + 1j * rng.standard_normal((20, 22))
        cc = nufft2d2(x, y, modes, eps=1e-7, precision="double")
        assert relative_l2_error(cc, nudft_type2([x, y], modes)) < 1e-5

    def test_nufft3d1_and_3d2(self, rng):
        x, y, z, c = make_points_3d(rng, m=600)
        f = nufft3d1(x, y, z, c, (10, 12, 8), eps=1e-6, precision="double")
        assert relative_l2_error(f, nudft_type1([x, y, z], c, (10, 12, 8))) < 1e-4
        modes = rng.standard_normal((10, 12, 8)) + 1j * rng.standard_normal((10, 12, 8))
        cc = nufft3d2(x, y, z, modes, eps=1e-6, precision="double")
        assert relative_l2_error(cc, nudft_type2([x, y, z], modes)) < 1e-4

    def test_simple_api_validation(self, rng):
        x, y, c = make_points_2d(rng, m=50)
        with pytest.raises(ValueError):
            nufft2d1(x, y, c, (16, 16, 16))
        with pytest.raises(ValueError):  # neither modes nor a stack of them
            nufft2d2(x, y, np.zeros((2, 4, 4, 4), dtype=complex))


class TestValidationAndAtomicity:
    """Regression tests for the input-validation and set_pts-atomicity fixes:
    non-finite points, non-integral n_trans, non-finite eps, the
    all-or-nothing set_pts contract, and plan-reuse memory flatness."""

    def test_nonfinite_coordinates_rejected(self):
        # Previously NaN/inf propagated through binsort/stencil with only
        # RuntimeWarnings and produced all-NaN output.
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                Plan(1, (16,)).set_pts(np.array([0.1, bad, 0.3]))
        with pytest.raises(ValueError, match="non-finite"):
            Plan(2, (16, 16)).set_pts(np.array([0.1, 0.2]),
                                      np.array([0.1, np.nan]))

    def test_nonfinite_type3_targets_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Plan(3, 1).set_pts(np.array([0.1, 0.2]),
                               s=np.array([np.nan, 1.0]))

    def test_non_integral_n_trans_rejected(self):
        # Previously Plan(1, (16,), n_trans=2.5) silently truncated to 2.
        with pytest.raises(ValueError, match="integral"):
            Plan(1, (16,), n_trans=2.5)
        with pytest.raises(ValueError, match="integral"):
            Plan(1, (16,), n_trans=float("nan"))
        assert Plan(1, (16,), n_trans=2.0).n_trans == 2

    def test_non_integral_mode_counts_rejected(self):
        # Previously Plan(1, (16.5, 16)) silently ran as (16, 16).
        with pytest.raises(ValueError, match="integral"):
            Plan(1, (16.5, 16))
        assert Plan(1, (16.0, 16)).n_modes == (16, 16)

    def test_complex_coordinates_rejected(self, rng):
        # Previously the imaginary part was dropped with only a ComplexWarning.
        x, y, c = make_points_2d(rng, m=50)
        with pytest.raises(TypeError, match="'x'"):
            nufft2d1(x + 1j, y, c, (16, 16))

    def test_complex_type3_targets_rejected(self, rng):
        x = rng.uniform(-np.pi, np.pi, 50)
        with pytest.raises(TypeError, match="'s'"):
            Plan(3, 1).set_pts(x, s=x + 1j)

    def test_eps_must_be_finite_positive(self):
        for bad in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps"):
                Plan(1, (16,), eps=bad)

    def test_failed_set_pts_preserves_old_points_type1(self, rng):
        x, y, c = make_points_2d(rng, m=200)
        plan = Plan(1, (16, 16), eps=1e-5)
        plan.set_pts(x, y)
        before = plan.execute(c.astype(np.complex64))
        with pytest.raises(ValueError):
            plan.set_pts(x, np.append(y[:-1], np.nan))
        with pytest.raises(ValueError):
            plan.set_pts(x, y[:-1])  # length mismatch
        # the failed calls left the previous point set fully usable
        assert plan.n_points == 200
        np.testing.assert_array_equal(plan.execute(c.astype(np.complex64)), before)
        plan.destroy()

    def test_failed_set_pts_preserves_old_points_type3(self, rng, monkeypatch):
        # A type-3 failure *mid-planning* (the kernel-FT positivity check)
        # used to drop the old point set; now every fallible step runs
        # before the old points are released.
        x = rng.uniform(-np.pi, np.pi, 150)
        s = rng.uniform(-20.0, 20.0, 150)
        c = (rng.standard_normal(150) + 1j * rng.standard_normal(150))
        plan = Plan(3, 1, eps=1e-6, precision="double")
        plan.set_pts(x, s=s)
        before = plan.execute(c)
        fine_before, n_targets_before = plan.fine_shape, plan.n_targets

        monkeypatch.setattr(type(plan.kernel), "fourier_transform",
                            lambda self, xi: -np.ones_like(xi))
        with pytest.raises(ValueError, match="not positive"):
            plan.set_pts(2 * x, s=0.5 * s)
        monkeypatch.undo()
        assert plan.fine_shape == fine_before
        assert plan.n_targets == n_targets_before
        np.testing.assert_array_equal(plan.execute(c), before)
        plan.destroy()

    def test_plan_reuse_ram_stays_flat(self, rng):
        # Plan reuse across set_pts calls must not leak simulated device
        # memory (the serving layer repoints pooled plans indefinitely).
        x, y, _ = make_points_2d(rng, m=500)
        with Plan(1, (24, 24), eps=1e-6) as plan:
            plan.set_pts(x, y)
            baseline = plan.gpu_ram_mb()
            for shift in (0.1, 0.2, 0.3, 0.4, 0.5):
                plan.set_pts(np.mod(x + shift + np.pi, 2 * np.pi) - np.pi, y)
                assert plan.gpu_ram_mb() == pytest.approx(baseline)

    def test_type3_plan_reuse_ram_stays_flat(self, rng):
        x = rng.uniform(-np.pi, np.pi, 300)
        s = rng.uniform(-15.0, 15.0, 300)
        with Plan(3, 1, eps=1e-6, precision="double") as plan:
            plan.set_pts(x, s=s)
            baseline = plan.gpu_ram_mb()
            for _ in range(4):
                plan.set_pts(x, s=s)
                assert plan.gpu_ram_mb() == pytest.approx(baseline)
