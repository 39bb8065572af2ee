"""Tests of the batched execution engine: plan-level stencil cache, fused
``n_trans`` vectorization, and Horner kernel evaluation."""

import numpy as np
import pytest

from repro import Plan, nudft_type1, nufft2d1, nufft2d2, relative_l2_error
from repro.core.binsort import to_grid_coordinates
from repro.core.interp import interp_direct
from repro.core.spread import spread_direct
from repro.core.stencil import build_stencil_cache
from repro.kernels import ESKernel
from repro.kernels.es_kernel import (
    MAX_KERNEL_WIDTH,
    MIN_KERNEL_WIDTH,
    horner_coefficients,
)
from tests.conftest import make_points_2d, make_points_3d

#: Seed-equivalent options: per-transform loop, no cache, exact kernel.
LEGACY = dict(backend="reference", kernel_eval="exact")


def _grid_setup(rng, fine_shape, m, eps=1e-6):
    kernel = ESKernel.from_tolerance(eps)
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in fine_shape]
    grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine_shape)]
    return kernel, grid_coords


# --------------------------------------------------------------------------- #
# Horner kernel evaluation
# --------------------------------------------------------------------------- #
class TestHornerKernel:
    @pytest.mark.parametrize("width", range(MIN_KERNEL_WIDTH, MAX_KERNEL_WIDTH + 1))
    def test_matches_exact_below_tenth_of_eps(self, width):
        # < 0.1 * eps(w) absolute error for every supported width, where
        # eps(w) = 10**(1-w) is the kernel's own delivered accuracy (Eq. 6).
        # The widest kernels bottom out at the float64 representation floor
        # (a few ulps of the unit kernel peak), which is below 0.1*eps for
        # every width whose eps is representable headroom away from 1 ulp.
        kernel = ESKernel(width=width, beta=2.3 * width)
        frac = np.linspace(width / 2.0 - 1.0, width / 2.0, 4001)
        exact = kernel.evaluate_offsets(frac)
        horner = kernel.evaluate_offsets_horner(frac)
        tol = max(0.1 * 10.0 ** (1 - width), 6e-15)
        assert np.abs(horner - exact).max() < tol

    def test_coefficients_cached_and_readonly(self):
        a = horner_coefficients(6, 2.3 * 6)
        b = horner_coefficients(6, 2.3 * 6)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    def test_full_transform_accuracy_with_horner(self, rng):
        # End-to-end: the default (Horner) plan still meets the tolerance.
        x, y, c = make_points_2d(rng, m=900)
        n_modes = (30, 30)
        exact = nudft_type1([x, y], c, n_modes)
        for eps in (1e-4, 1e-8):
            with Plan(1, n_modes, eps=eps, precision="double") as plan:
                plan.set_pts(x, y)
                approx = plan.execute(c)
            assert relative_l2_error(approx, exact) < 12 * eps


# --------------------------------------------------------------------------- #
# stencil cache (through the Plan: CSR operator and windowed engine)
# --------------------------------------------------------------------------- #
def _spread_only(pts, c, n_modes, method="GM-sort", **opts):
    with Plan(1, n_modes, n_trans=c.shape[0], eps=1e-9, precision="double",
              method=method, spread_only=True, **opts) as plan:
        plan.set_pts(*pts)
        return plan.execute(c)


def _interp_only(pts, grid, n_modes, **opts):
    with Plan(2, n_modes, n_trans=grid.shape[0], eps=1e-9, precision="double",
              spread_only=True, **opts) as plan:
        plan.set_pts(*pts)
        return plan.execute(grid)


class TestStencilCache:
    #: Exact kernel evaluation, so the cached engines and the reference loop
    #: use bit-identical stencils and differ only in summation order.
    EXACT = dict(kernel_eval="exact", backend="cached")

    def test_cached_spread_matches_uncached(self, rng):
        x, y, _ = make_points_2d(rng, m=1200)
        c = rng.standard_normal((2, 1200)) + 1j * rng.standard_normal((2, 1200))
        base = _spread_only((x, y), c, (24, 20), backend="reference")
        sparse = _spread_only((x, y), c, (24, 20), **self.EXACT)
        windowed = _spread_only((x, y), c, (24, 20), stencil_budget=0, **self.EXACT)
        np.testing.assert_allclose(sparse, base, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(windowed, base, rtol=1e-12, atol=1e-12)

    def test_cached_interp_matches_uncached(self, rng):
        x, y, _ = make_points_2d(rng, m=1000)
        with Plan(2, (20, 20), eps=1e-9) as probe:
            fine_shape = probe.fine_shape
        grid = (rng.standard_normal((2,) + fine_shape)
                + 1j * rng.standard_normal((2,) + fine_shape))
        base = _interp_only((x, y), grid, (20, 20), backend="reference")
        sparse = _interp_only((x, y), grid, (20, 20), **self.EXACT)
        windowed = _interp_only((x, y), grid, (20, 20), stencil_budget=0, **self.EXACT)
        np.testing.assert_allclose(sparse, base, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(windowed, base, rtol=1e-12, atol=1e-12)

    def test_budget_disables_fused_form(self, rng):
        fine_shape = (32, 32)
        kernel, grid_coords = _grid_setup(rng, fine_shape, 500)
        fused = build_stencil_cache(grid_coords, fine_shape, kernel)
        lean = build_stencil_cache(grid_coords, fine_shape, kernel, fuse_budget=0)
        assert fused.interp_matrix is not None
        assert lean.interp_matrix is None
        # The per-dimension arrays are identical, listed in the windowed
        # engine's order (tile by tile), which the engine reads them in.
        assert np.array_equal(np.sort(lean.order), np.arange(500))
        for d in range(2):
            np.testing.assert_array_equal(fused.i0[d][lean.order], lean.i0[d])
            np.testing.assert_array_equal(fused.vals[d][:, lean.order], lean.vals[d])
        assert lean.nbytes() < fused.nbytes()

    def test_sm_spread_with_cache(self, rng):
        x, y, _ = make_points_2d(rng, m=2000)
        c = rng.standard_normal((1, 2000)) + 1j * rng.standard_normal((1, 2000))
        opts = dict(method="SM", max_subproblem_size=256)
        base = _spread_only((x, y), c, (32, 24), backend="reference", **opts)
        windowed = _spread_only((x, y), c, (32, 24), stencil_budget=0, **opts,
                                **self.EXACT)
        np.testing.assert_allclose(windowed, base, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------- #
# batched spreading / interpolation (function level)
# --------------------------------------------------------------------------- #
class TestBatchedFunctions:
    @pytest.mark.parametrize("fine_shape", [(40, 36), (24, 20, 16)])
    def test_batched_spread_equals_loop(self, rng, fine_shape):
        kernel, grid_coords = _grid_setup(rng, fine_shape, 1500)
        block = rng.standard_normal((4, 1500)) + 1j * rng.standard_normal((4, 1500))
        batched = spread_direct(fine_shape, grid_coords, block, kernel, np.complex128)
        assert batched.shape == (4,) + fine_shape
        for t in range(4):
            single = spread_direct(fine_shape, grid_coords, block[t], kernel,
                                   np.complex128)
            np.testing.assert_allclose(batched[t], single, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("fine_shape", [(40, 36), (20, 18, 16)])
    def test_batched_interp_equals_loop(self, rng, fine_shape):
        kernel, grid_coords = _grid_setup(rng, fine_shape, 1100)
        grids = (rng.standard_normal((3,) + fine_shape)
                 + 1j * rng.standard_normal((3,) + fine_shape))
        batched = interp_direct(grids, grid_coords, kernel, np.complex128)
        assert batched.shape == (3, 1100)
        for t in range(3):
            single = interp_direct(grids[t], grid_coords, kernel, np.complex128)
            np.testing.assert_allclose(batched[t], single, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------- #
# plan-level batched execution
# --------------------------------------------------------------------------- #
class TestPlanBatchedEngine:
    @pytest.mark.parametrize("method", ["GM", "GM-sort", "SM"])
    def test_type1_matches_legacy_loop(self, rng, method):
        x, y, _ = make_points_2d(rng, m=800)
        block = rng.standard_normal((5, 800)) + 1j * rng.standard_normal((5, 800))
        n_modes = (22, 26)
        with Plan(1, n_modes, n_trans=5, eps=1e-7, method=method,
                  precision="double") as plan:
            plan.set_pts(x, y)
            fast = plan.execute(block)
        with Plan(1, n_modes, n_trans=5, eps=1e-7, method=method,
                  precision="double", **LEGACY) as plan:
            plan.set_pts(x, y)
            slow = plan.execute(block)
        assert relative_l2_error(fast, slow) < 1e-8

    def test_type2_matches_legacy_loop(self, rng):
        x, y, z, _ = make_points_3d(rng, m=700)
        n_modes = (12, 10, 14)
        block = (rng.standard_normal((4,) + n_modes)
                 + 1j * rng.standard_normal((4,) + n_modes))
        with Plan(2, n_modes, n_trans=4, eps=1e-8, precision="double") as plan:
            plan.set_pts(x, y, z)
            fast = plan.execute(block)
        with Plan(2, n_modes, n_trans=4, eps=1e-8, precision="double",
                  **LEGACY) as plan:
            plan.set_pts(x, y, z)
            slow = plan.execute(block)
        assert relative_l2_error(fast, slow) < 1e-9

    def test_3d_type1_batched_accuracy(self, rng):
        x, y, z, _ = make_points_3d(rng, m=600)
        block = rng.standard_normal((3, 600)) + 1j * rng.standard_normal((3, 600))
        n_modes = (10, 12, 8)
        with Plan(1, n_modes, n_trans=3, eps=1e-6, precision="double") as plan:
            plan.set_pts(x, y, z)
            out = plan.execute(block)
        for t in range(3):
            exact = nudft_type1([x, y, z], block[t], n_modes)
            assert relative_l2_error(out[t], exact) < 1e-4

    def test_stencil_cache_invalidated_by_set_pts(self, rng):
        x, y, c = make_points_2d(rng, m=500)
        x2, y2, c2 = make_points_2d(rng, m=650)
        plan = Plan(1, (20, 20), eps=1e-7, precision="double")
        plan.set_pts(x, y)
        first_cache = plan.point_set.stencil
        assert first_cache is not None
        plan.execute(c)
        plan.set_pts(x2, y2)
        assert plan.point_set.stencil is not first_cache
        assert plan.point_set.stencil.n_points == 650
        second = plan.execute(c2)
        exact = nudft_type1([x2, y2], c2, (20, 20))
        assert relative_l2_error(second, exact) < 1e-5
        plan.destroy()
        assert plan.point_set is None

    @pytest.mark.parametrize("n_modes", [(20, 20), (10, 12, 8)])
    def test_set_pts_of_equal_size_recycles_operator(self, rng, n_modes):
        m = 500
        first = [rng.uniform(-np.pi, np.pi, m) for _ in n_modes]
        second = [rng.uniform(-np.pi, np.pi, m) for _ in n_modes]
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        with Plan(1, n_modes, eps=1e-7, precision="double") as plan, \
                Plan(1, n_modes, eps=1e-7, precision="double") as fresh:
            plan.set_pts(*first)
            old = plan.point_set.stencil.interp_matrix
            plan.set_pts(*second)
            fresh.set_pts(*second)
            new = plan.point_set.stencil.interp_matrix
            ref = fresh.point_set.stencil.interp_matrix
            # Written into the previous operator's memory, equal to a fresh build.
            assert np.shares_memory(new.data, old.data)
            assert np.shares_memory(new.indices, old.indices)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(new, part), getattr(ref, part))
            out = plan.execute(c)
            np.testing.assert_array_equal(out, fresh.execute(c))
        assert relative_l2_error(out, nudft_type1(second, c, n_modes)) < 1e-5

    def test_repeated_execute_reuses_cache(self, rng):
        x, y, c = make_points_2d(rng, m=400)
        d = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        with Plan(1, (16, 16), eps=1e-6, precision="double") as plan:
            plan.set_pts(x, y)
            cache = plan.point_set.stencil
            fc = plan.execute(c)
            fd = plan.execute(d)
            assert plan.point_set.stencil is cache  # execute never rebuilds the cache
        assert relative_l2_error(fc, nudft_type1([x, y], c, (16, 16))) < 1e-4
        assert relative_l2_error(fd, nudft_type1([x, y], d, (16, 16))) < 1e-4

    def test_spread_only_batched(self, rng):
        x, y, _ = make_points_2d(rng, m=300)
        block = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        with Plan(1, (16, 16), n_trans=2, eps=1e-4, spread_only=True,
                  precision="double") as plan:
            plan.set_pts(x, y)
            fine = plan.execute(block)
            assert fine.shape == (2,) + plan.fine_shape
            # spread-only type 2: interpolate straight off a fine-shaped block
        with Plan(2, (16, 16), n_trans=2, eps=1e-4, spread_only=True,
                  precision="double") as plan2:
            plan2.set_pts(x, y)
            vals = plan2.execute(fine.astype(np.complex128))
            assert vals.shape == (2, 300)

    def test_budgetless_plan_falls_back_to_perdim_cache(self, rng):
        x, y, _ = make_points_2d(rng, m=350)
        block = rng.standard_normal((3, 350)) + 1j * rng.standard_normal((3, 350))
        with Plan(1, (18, 18), n_trans=3, eps=1e-7, precision="double",
                  stencil_budget=0) as lean, \
                Plan(1, (18, 18), n_trans=3, eps=1e-7, precision="double") as fat:
            lean.set_pts(x, y)
            fat.set_pts(x, y)
            assert lean.point_set.stencil.interp_matrix is None
            assert fat.point_set.stencil.interp_matrix is not None
            np.testing.assert_allclose(lean.execute(block), fat.execute(block),
                                       rtol=1e-9, atol=1e-9)


# --------------------------------------------------------------------------- #
# simple API batching
# --------------------------------------------------------------------------- #
class TestSimpleBatched:
    def test_nufft2d1_stacked_strengths(self, rng):
        x, y, _ = make_points_2d(rng, m=500)
        block = rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500))
        out = nufft2d1(x, y, block, (18, 18), eps=1e-7, precision="double")
        assert out.shape == (3, 18, 18)
        for t in range(3):
            exact = nudft_type1([x, y], block[t], (18, 18))
            assert relative_l2_error(out[t], exact) < 1e-5

    def test_nufft2d2_stacked_modes_infer_n_trans(self, rng):
        x, y, _ = make_points_2d(rng, m=200)
        stack = (rng.standard_normal((2, 12, 12))
                 + 1j * rng.standard_normal((2, 12, 12)))
        out = nufft2d2(x, y, stack, eps=1e-6, precision="double", n_trans=2)
        assert out.shape == (2, 200)
        # The leading axis sets n_trans, as in the upstream facades.
        assert np.array_equal(nufft2d2(x, y, stack, eps=1e-6), out)
