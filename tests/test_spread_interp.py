"""Tests of the spreading / interpolation numerics and their cost profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Plan
from repro.core.binsort import bin_sort, make_subproblems, to_grid_coordinates
from repro.core.interp import interp_direct, interp_kernel_profiles
from repro.core.options import Precision, SpreadMethod
from repro.core.spread import (
    compute_kernel_stencil,
    spread_direct,
    spread_kernel_profiles,
)
from repro.gpu.device import V100_SPEC, DeviceSpec
from repro.kernels import ESKernel


def _setup(rng, fine_shape, m, bins=None, cluster=False):
    ndim = len(fine_shape)
    if cluster:
        coords = [rng.uniform(0, 8 * 2 * np.pi / n, m) for n in fine_shape]
    else:
        coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine_shape)]
    if bins is None:
        bins = (32, 32) if ndim == 2 else (16, 16, 2)
    sort = bin_sort(grid_coords, fine_shape, bins)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return grid_coords, sort, c


def _plan_points(rng, ndim, m, cluster=False):
    """Points in ``[-pi, pi)``, uniform or packed into a corner."""
    if cluster:
        return [rng.uniform(-np.pi, -np.pi + 0.5, m) for _ in range(ndim)]
    return [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]


def _method_outputs(backend, nufft_type, n_modes, points, data, **opts):
    """Spread-only output of one plan per method, and the last plan's geometry."""
    outputs = {}
    for method in ("GM", "GM-sort", "SM"):
        with Plan(nufft_type, n_modes, eps=1e-6, precision="double", method=method,
                  spread_only=True, backend=backend, **opts) as plan:
            plan.set_pts(*points)
            outputs[method] = plan.execute(data)
            geometry = (plan.fine_shape, plan.point_set.grid_coords, plan.kernel)
    return outputs, geometry


# --------------------------------------------------------------------------- #
# stencil
# --------------------------------------------------------------------------- #
class TestStencil:
    def test_covers_w_nearest_nodes(self):
        kernel = ESKernel.from_tolerance(1e-5)  # w = 6
        g = np.array([10.3])
        i0, vals = compute_kernel_stencil(g, 64, kernel)
        assert i0[0] == 8  # ceil(10.3 - 3) = 8; nodes 8..13 surround 10.3
        assert vals.shape == (1, 6)
        assert np.all(vals > 0)

    def test_point_exactly_on_node(self):
        kernel = ESKernel.from_tolerance(1e-2)  # w = 3
        i0, vals = compute_kernel_stencil(np.array([5.0]), 32, kernel)
        # distances are {5 - i0 - r}; the node at distance 0 has the max value
        dists = 5.0 - (i0[0] + np.arange(3))
        assert vals[0, np.argmin(np.abs(dists))] == vals[0].max()

    @given(st.floats(min_value=0.0, max_value=63.999))
    @settings(max_examples=60, deadline=None)
    def test_distances_within_half_width(self, g):
        kernel = ESKernel.from_tolerance(1e-6)
        i0, vals = compute_kernel_stencil(np.array([g]), 64, kernel)
        dists = g - (i0[0] + np.arange(kernel.width))
        assert np.all(np.abs(dists) <= kernel.width / 2 + 1e-9)


# --------------------------------------------------------------------------- #
# the one cache-free spreading path; the method reaches only the profiles
# --------------------------------------------------------------------------- #
class TestSpreadMethodsAgree:
    @pytest.mark.parametrize("fine_shape", [(64, 48), (32, 32, 20)])
    @pytest.mark.parametrize("cluster", [False, True])
    def test_gm_gmsort_sm_identical(self, rng, fine_shape, cluster):
        # GM, GM-sort and SM plans spread to the same grid, bit for bit, on
        # the reference and the default backend; the reference grid is
        # spread_direct's, and the default engine agrees with it.
        ndim = len(fine_shape)
        points = _plan_points(rng, ndim, 3000, cluster)
        c = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
        n_modes = tuple(n // 2 for n in fine_shape)
        ref, (shape, grid_coords, kernel) = _method_outputs(
            "reference", 1, n_modes, points, c)
        dev, _ = _method_outputs("device_sim", 1, n_modes, points, c,
                                 kernel_eval="exact")
        for method in ("GM-sort", "SM"):
            np.testing.assert_array_equal(ref[method], ref["GM"])
            np.testing.assert_array_equal(dev[method], dev["GM"])
        direct = spread_direct(shape, grid_coords, c, kernel, np.complex128)
        np.testing.assert_array_equal(ref["GM"], direct)
        np.testing.assert_allclose(dev["GM"], direct, rtol=1e-10, atol=1e-10)

    def test_dispatch_function(self, rng):
        # spread_kernel_profiles is the one dispatch from a method to its
        # kernels; SM defaults to the Msub = 1024 split.
        fine_shape = (48, 48)
        kernel = ESKernel.from_tolerance(1e-4)
        _, sort, _ = _setup(rng, fine_shape, 3000)
        names = {
            method: [p.name for p in spread_kernel_profiles(
                method, sort, kernel, Precision.SINGLE)]
            for method in ("GM", "GM-sort", "SM")
        }
        assert names == {"GM": ["spread_2d_gm"], "GM-sort": ["spread_2d_gmsort"],
                         "SM": ["spread_2d_sm", "spread_2d_sm_writeback"]}
        default = spread_kernel_profiles("SM", sort, kernel, Precision.SINGLE)
        explicit = spread_kernel_profiles("SM", sort, kernel, Precision.SINGLE,
                                          n_subproblems=make_subproblems(sort, 1024).n_subproblems)
        assert default == explicit
        with pytest.raises(ValueError):
            spread_kernel_profiles("auto", sort, kernel, Precision.SINGLE)

    def test_mass_conservation(self, rng):
        # the grid total equals the direct sum of each point's strength times
        # the product over dimensions of its kernel-stencil row sums.
        fine_shape = (40, 40)
        kernel = ESKernel.from_tolerance(1e-3)
        grid_coords, sort, c = _setup(rng, fine_shape, 500)
        grid = spread_direct(fine_shape, grid_coords, c, kernel, np.complex128)
        expected = 0.0 + 0.0j
        for j in range(500):
            _, vx = compute_kernel_stencil(grid_coords[0][j:j + 1], fine_shape[0], kernel)
            _, vy = compute_kernel_stencil(grid_coords[1][j:j + 1], fine_shape[1], kernel)
            expected += c[j] * vx.sum() * vy.sum()
        assert grid.sum() == pytest.approx(expected, rel=1e-9)

    def test_single_point_periodic_wrap(self):
        # a point near the boundary spreads across the periodic edge
        fine_shape = (32, 32)
        kernel = ESKernel.from_tolerance(1e-5)
        grid_coords = [np.array([0.1]), np.array([31.9])]
        c = np.array([1.0 + 0j])
        grid = spread_direct(fine_shape, grid_coords, c, kernel, np.complex128)
        # mass must appear on both sides of the wrap in y
        assert np.abs(grid[:, :4]).sum() > 0
        assert np.abs(grid[:, -3:]).sum() > 0


# --------------------------------------------------------------------------- #
# interpolation
# --------------------------------------------------------------------------- #
class TestInterp:
    def test_gm_and_gmsort_identical(self, rng):
        # GM, GM-sort and SM type-2 plans interpolate to the same values, bit
        # for bit, on the reference and the default backend; the reference
        # values are interp_direct's.
        points = _plan_points(rng, 2, 2500)
        n_modes = (32, 24)
        with Plan(2, n_modes, eps=1e-6, spread_only=True) as probe:
            fine_shape = probe.fine_shape
        grid = rng.standard_normal(fine_shape) + 1j * rng.standard_normal(fine_shape)
        ref, (_, grid_coords, kernel) = _method_outputs(
            "reference", 2, n_modes, points, grid)
        dev, _ = _method_outputs("device_sim", 2, n_modes, points, grid,
                                 kernel_eval="exact")
        for method in ("GM-sort", "SM"):
            np.testing.assert_array_equal(ref[method], ref["GM"])
            np.testing.assert_array_equal(dev[method], dev["GM"])
        direct = interp_direct(grid, grid_coords, kernel, np.complex128)
        np.testing.assert_array_equal(ref["GM"], direct)
        np.testing.assert_allclose(dev["GM"], direct, rtol=1e-12, atol=1e-12)

    def test_sm_request_falls_back_to_gmsort(self, rng):
        # The paper applies no SM scheme to interpolation: SM is priced as
        # GM-sort.
        fine_shape = (32, 32)
        kernel = ESKernel.from_tolerance(1e-4)
        _, sort, _ = _setup(rng, fine_shape, 500)
        sm = interp_kernel_profiles("SM", sort, kernel, Precision.SINGLE)
        gms = interp_kernel_profiles("GM-sort", sort, kernel, Precision.SINGLE)
        assert sm == gms
        assert [p.name for p in sm] == ["interp_2d_gmsort"]

    def test_spread_interp_adjointness(self, rng):
        # <spread(c), g> == <c, interp(g)> : spreading and interpolation with
        # the same kernel are adjoint linear maps.
        fine_shape = (36, 30)
        kernel = ESKernel.from_tolerance(1e-7)
        grid_coords, sort, c = _setup(rng, fine_shape, 800)
        g = rng.standard_normal(fine_shape) + 1j * rng.standard_normal(fine_shape)
        spread_c = spread_direct(fine_shape, grid_coords, c, kernel, np.complex128)
        interp_g = interp_direct(g, grid_coords, kernel, np.complex128)
        lhs = np.vdot(g, spread_c)
        rhs = np.vdot(interp_g, c)
        assert lhs == pytest.approx(rhs, rel=1e-10)


# --------------------------------------------------------------------------- #
# cost profiles
# --------------------------------------------------------------------------- #
class TestSpreadProfiles:
    def test_gm_profile_counts(self, rng):
        fine_shape = (256, 256)
        kernel = ESKernel.from_tolerance(1e-5)
        _, sort, _ = _setup(rng, fine_shape, 4000)
        (profile,) = spread_kernel_profiles(
            SpreadMethod.GM, sort, kernel, Precision.SINGLE, spec=V100_SPEC
        )
        profile.validate()
        assert profile.global_atomic_ops == pytest.approx(4000 * 36)
        assert profile.global_atomic_sector_ops == pytest.approx(4000 * 36)

    def test_gmsort_coalesces_atomics(self, rng):
        fine_shape = (256, 256)
        kernel = ESKernel.from_tolerance(1e-5)
        _, sort, _ = _setup(rng, fine_shape, 4000)
        (gm,) = spread_kernel_profiles(SpreadMethod.GM, sort, kernel, Precision.SINGLE)
        (gms,) = spread_kernel_profiles(SpreadMethod.GM_SORT, sort, kernel, Precision.SINGLE)
        assert gms.global_atomic_sector_ops < gm.global_atomic_sector_ops

    def test_sm_profiles_include_writeback(self, rng):
        fine_shape = (256, 256)
        kernel = ESKernel.from_tolerance(1e-5)
        _, sort, _ = _setup(rng, fine_shape, 4000)
        subs = make_subproblems(sort, 1024)
        profiles = spread_kernel_profiles(SpreadMethod.SM, sort, kernel,
                                          Precision.SINGLE, spec=V100_SPEC,
                                          n_subproblems=subs.n_subproblems)
        names = [p.name for p in profiles]
        assert any("writeback" in n for n in names)
        spread_prof = profiles[0]
        assert spread_prof.shared_atomic_ops == pytest.approx(4000 * 36)
        assert spread_prof.shared_mem_per_block <= V100_SPEC.shared_mem_per_block

    def test_sm_respects_shared_memory_limit(self, rng):
        # 3D double precision at high accuracy must refuse (paper Remark 2)
        from repro.gpu.threadblock import LaunchConfigError

        fine_shape = (64, 64, 64)
        kernel = ESKernel.from_tolerance(1e-9)  # w = 10
        _, sort, _ = _setup(rng, fine_shape, 2000, bins=(16, 16, 2))
        subs = make_subproblems(sort, 1024)
        with pytest.raises(LaunchConfigError):
            spread_kernel_profiles(SpreadMethod.SM, sort, kernel, Precision.DOUBLE,
                                   spec=V100_SPEC, n_subproblems=subs.n_subproblems)

    def test_interp_profiles_have_no_atomics(self, rng):
        fine_shape = (128, 128)
        kernel = ESKernel.from_tolerance(1e-4)
        _, sort, _ = _setup(rng, fine_shape, 3000)
        for method in (SpreadMethod.GM, SpreadMethod.GM_SORT):
            (profile,) = interp_kernel_profiles(method, sort, kernel, Precision.SINGLE)
            profile.validate()
            assert profile.global_atomic_ops == 0
            assert profile.gather_sector_ops > 0

    def test_cluster_distribution_reduces_distinct_addresses(self, rng):
        fine_shape = (512, 512)
        kernel = ESKernel.from_tolerance(1e-5)
        _, sort_rand, _ = _setup(rng, fine_shape, 8000)
        _, sort_cluster, _ = _setup(rng, fine_shape, 8000, cluster=True)
        (p_rand,) = spread_kernel_profiles(SpreadMethod.GM, sort_rand, kernel, Precision.SINGLE)
        (p_cluster,) = spread_kernel_profiles(SpreadMethod.GM, sort_cluster, kernel, Precision.SINGLE)
        assert (
            p_cluster.global_atomic_distinct_addresses
            < 0.05 * p_rand.global_atomic_distinct_addresses
        )

    def test_gmsort_footprint_follows_sm_count(self, rng):
        # GM-sort keeps two blocks per SM in flight: on an 8-SM device their
        # padded bins fit in L2, on the V100 (80 SMs) they do not.
        fine_shape = (128, 128, 64)
        kernel = ESKernel.from_tolerance(1e-6)
        _, sort, _ = _setup(rng, fine_shape, 20000)
        assert sort.n_nonempty_bins > 2 * V100_SPEC.sm_count
        small = DeviceSpec(sm_count=8)
        for profiles, field in ((spread_kernel_profiles, "global_atomic_miss_fraction"),
                                (interp_kernel_profiles, "gather_miss_fraction")):
            (v100,) = profiles(SpreadMethod.GM_SORT, sort, kernel, Precision.SINGLE,
                               spec=V100_SPEC)
            (default,) = profiles(SpreadMethod.GM_SORT, sort, kernel, Precision.SINGLE)
            (few_sms,) = profiles(SpreadMethod.GM_SORT, sort, kernel, Precision.SINGLE,
                                  spec=small)
            assert getattr(default, field) == getattr(v100, field)
            assert getattr(few_sms, field) < getattr(v100, field)

    def test_device_sim_sm_plan_prices_its_own_split(self, rng):
        # A plan's own Msub reaches the recorded SM profile, not the default.
        x, y = _plan_points(rng, 2, 6000, cluster=True)
        c = rng.standard_normal(6000) + 1j * rng.standard_normal(6000)
        with Plan(1, (64, 64), eps=1e-5, method="SM",
                  max_subproblem_size=256) as plan:
            plan.set_pts(x, y)
            plan.execute(c)
            n_sub = make_subproblems(plan.point_set.sort, 256).n_subproblems
            default = make_subproblems(plan.point_set.sort, 1024).n_subproblems
            (sm,) = [k for k in plan._exec_pipeline.exec_kernels()
                     if k.name == "spread_2d_sm"]
        assert n_sub > default
        assert sm.grid_blocks == n_sub
