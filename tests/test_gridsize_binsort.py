"""Tests for fine-grid sizing and bin-sorting / subproblem construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.binsort import (
    SpreadStats,
    bin_sort,
    binsort_kernel_profiles,
    compute_bin_index,
    estimate_subproblem_count,
    fold_coordinates,
    make_subproblems,
    to_grid_coordinates,
)
from repro.core.gridsize import fine_grid_shape, fine_grid_size, is_smooth_235, next_smooth_235
from repro.core.spread import compute_kernel_stencil
from repro.gpu.threadblock import padded_bin_shape
from repro.kernels import ESKernel


# --------------------------------------------------------------------------- #
# 2^q 3^p 5^r fine grid sizes
# --------------------------------------------------------------------------- #
class TestGridSize:
    @pytest.mark.parametrize("n,expected", [(1, 1), (7, 8), (11, 12), (13, 15),
                                            (17, 18), (97, 100), (2049, 2160)])
    def test_next_smooth_examples(self, n, expected):
        assert next_smooth_235(n) == expected

    def test_is_smooth(self):
        assert is_smooth_235(2 ** 5 * 3 ** 2 * 5)
        assert not is_smooth_235(7)
        assert not is_smooth_235(0)

    @given(st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=200, deadline=None)
    def test_next_smooth_properties(self, n):
        s = next_smooth_235(n)
        assert s >= n
        assert is_smooth_235(s)
        # minimality: nothing smooth in [n, s)
        if s - n < 64:  # keep the brute-force check cheap
            assert not any(is_smooth_235(m) for m in range(n, s))

    def test_fine_grid_size_respects_sigma_and_width(self):
        # smallest smooth >= max(2N, 2w)
        assert fine_grid_size(100, 6) == 200
        assert fine_grid_size(3, 8) == 16  # 2w = 16 dominates
        assert fine_grid_size(1000, 6) == 2000

    def test_fine_grid_shape(self):
        assert fine_grid_shape((100, 50), 6) == (200, 100)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fine_grid_size(0, 6)
        with pytest.raises(ValueError):
            fine_grid_size(10, 0)


# --------------------------------------------------------------------------- #
# coordinate folding and bin indices
# --------------------------------------------------------------------------- #
class TestCoordinates:
    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_fold_into_period(self, x):
        folded = fold_coordinates(np.array([x]))[0]
        assert 0.0 <= folded < 2 * np.pi
        # folding preserves the angle modulo 2*pi
        assert np.isclose(np.exp(1j * folded), np.exp(1j * x), atol=1e-9)

    def test_fold_matches_mod_bit_for_bit(self):
        """In [-pi, pi) the fold skips ``np.mod``; its bits must not change,
        signed zeros, subnormals and both neighbours of +-pi included."""
        def by_mod(x):
            folded = np.mod(x, 2 * np.pi)
            folded[folded >= 2 * np.pi] = 0.0
            return folded

        pi = np.pi
        edges = np.array([-0.0, 0.0, -5e-324, 5e-324, -1e-17, 1e-17, -pi,
                          np.nextafter(-pi, 0.0), np.nextafter(pi, 0.0), -3.0, 3.0])
        wide = np.append(edges, [pi, np.nextafter(-pi, -4.0), 7.0, -1e3])
        random = np.random.default_rng(3).uniform(-pi, pi, 4096)
        for x in (edges, wide, random):
            assert fold_coordinates(x).tobytes() == by_mod(x).tobytes()

    def test_to_grid_coordinates_range(self):
        x = np.array([-np.pi, 0.0, np.pi - 1e-9, np.pi])  # pi wraps to 0-like
        g = to_grid_coordinates(x, 64)
        assert np.all((0 <= g) & (g < 64))
        assert g[0] == pytest.approx(32.0)  # x=-pi folds to pi, the grid middle
        assert g[1] == pytest.approx(0.0)   # x=0 is the grid origin

    def test_bin_index_x_fastest(self):
        # two points in adjacent x-bins share the same y-bin: indices differ by 1
        gx = np.array([1.0, 40.0])
        gy = np.array([5.0, 5.0])
        idx, bins_per_dim = compute_bin_index([gx, gy], (128, 128), (32, 32))
        assert bins_per_dim == (4, 4)
        assert idx[1] - idx[0] == 1

    def test_bin_index_handles_partial_bins(self):
        idx, bins_per_dim = compute_bin_index(
            [np.array([99.0]), np.array([99.0])], (100, 100), (32, 32)
        )
        assert bins_per_dim == (4, 4)
        assert idx[0] == 15


# --------------------------------------------------------------------------- #
# bin sort
# --------------------------------------------------------------------------- #
def _random_sort(rng, m=4000, fine=(128, 96), bins=(32, 32)):
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in fine]
    grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine)]
    return bin_sort(grid_coords, fine, bins), grid_coords


class TestBinSort:
    def test_permutation_is_bijection(self, rng):
        sort, _ = _random_sort(rng)
        perm = np.sort(sort.permutation)
        np.testing.assert_array_equal(perm, np.arange(sort.n_points))

    def test_counts_sum_to_m(self, rng):
        sort, _ = _random_sort(rng)
        assert sort.bin_counts.sum() == sort.n_points
        np.testing.assert_array_equal(
            np.cumsum(np.concatenate([[0], sort.bin_counts[:-1]])), sort.bin_starts
        )

    def test_sorted_order_has_nondecreasing_bin_index(self, rng):
        sort, _ = _random_sort(rng)
        sorted_bins = sort.bin_index[sort.permutation]
        assert np.all(np.diff(sorted_bins) >= 0)

    def test_bin_slice_points_live_in_their_bin(self, rng):
        sort, grid_coords = _random_sort(rng)
        for b in range(sort.n_bins):
            sel = sort.permutation[sort.bin_slice(b)]
            if sel.size == 0:
                continue
            assert np.all(sort.bin_index[sel] == b)

    def test_stable_within_bins(self, rng):
        sort, _ = _random_sort(rng)
        for b in range(sort.n_bins):
            sel = sort.permutation[sort.bin_slice(b)]
            assert np.all(np.diff(sel) > 0)  # original order preserved

    def test_occupied_cells_counted(self, rng):
        sort, _ = _random_sort(rng, m=500)
        assert 1 <= sort.n_occupied_cells <= 500

    def test_cluster_occupies_few_cells(self, rng):
        fine = (256, 256)
        h = 2 * np.pi / 256
        coords = [rng.uniform(0, 8 * h, 5000), rng.uniform(0, 8 * h, 5000)]
        grid_coords = [to_grid_coordinates(c, 256) for c in coords]
        sort = bin_sort(grid_coords, fine, (32, 32))
        assert sort.n_occupied_cells <= 64
        assert sort.n_nonempty_bins == 1

    @pytest.mark.parametrize("fine", [(40,), (24, 20), (12, 10, 8)])
    @pytest.mark.parametrize("layout", ["cluster", "top-edge"])
    def test_occupied_cell_count_matches_set_of_cells(self, rng, fine, layout):
        m = 3000
        if layout == "cluster":
            # A few cells hold every point.
            grid_coords = [rng.uniform(1.0, 3.5, m) for _ in fine]
        else:
            # Every point in the last cell of some axis, some exactly on the
            # upper grid edge (clipped into that cell).
            grid_coords = [rng.uniform(0.0, n, m) for n in fine]
            for d, n in enumerate(fine):
                rows = np.arange(d, m, len(fine))
                grid_coords[d][rows] = n - rng.uniform(0.0, 0.5, rows.size)
                grid_coords[d][rows[::7]] = float(n)
        cells = {tuple(min(int(np.floor(g[i])), n - 1) for g, n in zip(grid_coords, fine))
                 for i in range(m)}
        sort = bin_sort(grid_coords, fine, (4,) * len(fine))
        assert sort.n_occupied_cells == len(cells)

    def test_3d_bin_sort(self, rng):
        fine = (32, 32, 16)
        coords = [rng.uniform(-np.pi, np.pi, 2000) for _ in range(3)]
        grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine)]
        sort = bin_sort(grid_coords, fine, (16, 16, 2))
        assert sort.bins_per_dim == (2, 2, 8)
        assert sort.bin_counts.sum() == 2000


# --------------------------------------------------------------------------- #
# subproblems (SM step 1)
# --------------------------------------------------------------------------- #
class TestSubproblems:
    def test_partition_covers_all_points_once(self, rng):
        sort, _ = _random_sort(rng, m=5000)
        subs = make_subproblems(sort, max_subproblem_size=64)
        covered = np.zeros(sort.n_points, dtype=int)
        for k in range(subs.n_subproblems):
            sel = sort.permutation[subs.offsets[k]:subs.offsets[k] + subs.counts[k]]
            covered[sel] += 1
        np.testing.assert_array_equal(covered, np.ones(sort.n_points, dtype=int))

    def test_subproblem_size_cap_and_bin_consistency(self, rng):
        sort, _ = _random_sort(rng, m=5000)
        msub = 64
        subs = make_subproblems(sort, msub)
        assert np.all(subs.counts <= msub)
        assert np.all(subs.counts > 0)
        for k in range(subs.n_subproblems):
            sel = sort.permutation[subs.offsets[k]:subs.offsets[k] + subs.counts[k]]
            assert np.all(sort.bin_index[sel] == subs.bin_ids[k])

    def test_subproblem_count_matches_estimate(self, rng):
        sort, _ = _random_sort(rng, m=5000)
        for msub in (16, 100, 1024):
            subs = make_subproblems(sort, msub)
            assert subs.n_subproblems == estimate_subproblem_count(sort.bin_counts, msub)

    @pytest.mark.parametrize("fine,bins", [((64, 48), (16, 16)),
                                           ((32, 24, 20), (8, 8, 4))])
    @pytest.mark.parametrize("cluster", [False, True])
    def test_stencils_stay_inside_padded_bin(self, rng, fine, bins, cluster):
        # SM accumulates each subproblem in its padded bin (paper Fig. 1),
        # indexed from Delta = bin origin - ceil(w/2): every point's stencil
        # must land inside it, including points on a bin's far edge.
        m = 3000
        if cluster:
            coords = [rng.uniform(-np.pi, -np.pi + 0.4, m) for _ in fine]
        else:
            coords = [rng.uniform(-np.pi, np.pi, m) for _ in fine]
        grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine)]
        sort = bin_sort(grid_coords, fine, bins)
        kernel = ESKernel.from_tolerance(1e-6)
        w = kernel.width
        pad = int(np.ceil(w / 2.0))
        local_shape = padded_bin_shape(bins, w)
        starts = [compute_kernel_stencil(grid_coords[d], fine[d], kernel)[0]
                  for d in range(len(fine))]
        for msub in (1, 37, 256, 1024):
            subs = make_subproblems(sort, msub)
            for k in range(subs.n_subproblems):
                sel = sort.permutation[subs.offsets[k]:subs.offsets[k] + subs.counts[k]]
                rem = int(subs.bin_ids[k])
                for d in range(len(fine)):
                    delta = (rem % sort.bins_per_dim[d]) * bins[d] - pad
                    rem //= sort.bins_per_dim[d]
                    local = starts[d][sel] - delta
                    assert local.min() >= 0
                    assert local.max() + w <= local_shape[d]

    def test_invalid_msub(self, rng):
        sort, _ = _random_sort(rng, m=100)
        with pytest.raises(ValueError):
            make_subproblems(sort, 0)

    @given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=512))
    @settings(max_examples=40, deadline=None)
    def test_estimate_subproblem_count_bounds(self, m, msub):
        counts = np.array([m])
        n = estimate_subproblem_count(counts, msub)
        assert n == int(np.ceil(m / msub))


# --------------------------------------------------------------------------- #
# SpreadStats scaling
# --------------------------------------------------------------------------- #
class TestSpreadStats:
    def test_from_binsort_roundtrip(self, rng):
        sort, _ = _random_sort(rng)
        stats = SpreadStats.from_binsort(sort)
        assert stats.n_points == sort.n_points
        assert stats.n_bins == sort.n_bins
        assert stats.n_nonempty_bins == sort.n_nonempty_bins
        assert stats.n_occupied_cells == sort.n_occupied_cells

    def test_scaling_preserves_pattern(self, rng):
        sort, _ = _random_sort(rng)
        stats = SpreadStats.from_binsort(sort).scaled(10 * sort.n_points)
        assert stats.n_points == 10 * sort.n_points
        assert stats.bin_counts.sum() == pytest.approx(10 * sort.n_points)
        assert stats.n_nonempty_bins == sort.n_nonempty_bins

    def test_scaling_rejects_bad_targets(self, rng):
        sort, _ = _random_sort(rng, m=100)
        with pytest.raises(ValueError):
            SpreadStats.from_binsort(sort).scaled(0)


class TestBinsortProfiles:
    def test_profiles_validate_and_scale_with_m(self):
        small = binsort_kernel_profiles(1_000, 64, 2, 4)
        large = binsort_kernel_profiles(1_000_000, 64, 2, 4)
        assert len(small) == len(large) == 4
        for s, l in zip(small, large):
            s.validate()
            l.validate()
            assert l.stream_bytes >= s.stream_bytes
