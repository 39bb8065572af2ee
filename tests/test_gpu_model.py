"""Tests of the simulated GPU substrate: device, memory, transactions, atomics,
cost model, thread-block helpers and the FFT wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deconvolve import CorrectionFactors, deconvolve_kernel_profile
from repro.core.exact import mode_indices, nudft_type1, nudft_type2
from repro.gpu import (
    CostModel,
    Device,
    DeviceFFT,
    KernelProfile,
    MemoryPool,
    PipelineProfile,
    V100_SPEC,
)
from repro.gpu.atomics import (
    dilated_occupied_cells,
    expected_queue_depth,
    serialization_delay_ns,
)
from repro.gpu.fft import fft_flops, fft_kernel_profile
from repro.gpu.memory import OutOfDeviceMemory, allocation_time_seconds, transfer_time_seconds, TransferDirection
from repro.gpu.threadblock import (
    LaunchConfigError,
    blocks_for_work,
    check_shared_memory_fit,
    padded_bin_shape,
    padded_bin_shared_bytes,
)
from repro.gpu.transactions import (
    l2_miss_fraction_localized,
    l2_miss_fraction_random,
    localized_sector_ops,
    scattered_sector_ops,
    sectors_for_contiguous_run,
)
from repro.kernels import ESKernel


class TestDeviceAndMemory:
    def test_v100_spec_matches_paper(self):
        assert V100_SPEC.shared_mem_per_block == 49152
        assert V100_SPEC.global_mem_bandwidth == pytest.approx(900e9)
        assert V100_SPEC.warp_size == 32

    def test_context_contention(self):
        dev = Device()
        assert dev.contention_factor == 1.0
        ctx1 = dev.make_context()
        assert dev.contention_factor == 1.0
        ctx2 = dev.make_context()
        assert dev.contention_factor > 2.0  # two ranks time-slice the device
        ctx2.pop()
        ctx1.pop()
        assert dev.active_contexts == 0
        with pytest.raises(RuntimeError):
            dev.release_context()

    def test_memory_pool_accounting(self):
        pool = MemoryPool(capacity_bytes=10_000)
        buf = pool.allocate((100,), np.float64, label="a")
        assert pool.allocated_bytes == 800
        buf2 = pool.from_host(np.zeros(200, dtype=np.float32), label="b")
        assert pool.allocated_bytes == 1600
        assert pool.peak_bytes == 1600
        assert pool.breakdown() == {"a": 800, "b": 800}
        buf.free()
        buf.free()  # idempotent
        assert pool.allocated_bytes == 800
        buf2.free()
        assert pool.allocated_bytes == 0
        assert pool.peak_bytes == 1600

    def test_out_of_memory(self):
        pool = MemoryPool(capacity_bytes=100)
        with pytest.raises(OutOfDeviceMemory):
            pool.allocate((1000,), np.float64)

    def test_capacity_checked_before_host_allocation(self):
        # A 32 GB request against the simulated 16 GB device must fail on the
        # accounting alone: no host array is ever created for it.
        import tracemalloc

        dev = Device()
        capacity = dev.memory.capacity_bytes
        tracemalloc.start()
        try:
            with pytest.raises(OutOfDeviceMemory):
                dev.memory.allocate((capacity // 8,), np.complex128, label="huge")
            host = np.broadcast_to(np.float64(1.0), (capacity // 4,))  # no storage
            with pytest.raises(OutOfDeviceMemory):
                dev.memory.from_host(host, label="huge copy")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert dev.memory.allocated_bytes == 0 and not dev.memory.live_buffers

    def test_transfer_and_alloc_times_monotone(self):
        t_small = transfer_time_seconds(1_000, V100_SPEC)
        t_big = transfer_time_seconds(1_000_000_000, V100_SPEC)
        assert t_big > t_small > 0
        d2d = transfer_time_seconds(1_000_000, V100_SPEC, TransferDirection.DEVICE_TO_DEVICE)
        h2d = transfer_time_seconds(1_000_000, V100_SPEC)
        assert d2d < h2d  # NVLink-class vs PCIe
        assert allocation_time_seconds(0, V100_SPEC) > 0


class TestTransactionModel:
    def test_sector_counts(self):
        assert sectors_for_contiguous_run(8) == 1
        assert sectors_for_contiguous_run(48) == 2
        assert sectors_for_contiguous_run(128) == 4
        with pytest.raises(ValueError):
            sectors_for_contiguous_run(0)

    def test_miss_fractions(self):
        l2 = V100_SPEC.l2_cache_bytes
        assert l2_miss_fraction_random(l2 // 2, l2) == 0.0
        assert 0.4 < l2_miss_fraction_random(2 * l2, l2) < 0.6
        assert l2_miss_fraction_random(100 * l2, l2) > 0.95
        assert l2_miss_fraction_localized(l2 // 4, l2) <= 0.05

    def test_localized_fewer_sectors_than_scattered(self):
        # a width-6 complex64 row coalesces ~3x vs element-by-element
        scattered = scattered_sector_ops(36, 8)
        localized = localized_sector_ops(6, 6, 8)
        assert localized < scattered

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_queue_depth_properties(self, inflight, distinct):
        q = expected_queue_depth(inflight, distinct)
        assert q >= 1.0
        assert serialization_delay_ns(100, q, 0.01) >= 0.0
        assert serialization_delay_ns(100, 1.0, 0.01) == 0.0

    def test_dilated_occupied_cells_regimes(self):
        # cluster: 64 point-cells dilated by w=6 in 2D -> (8+6)^2
        assert dilated_occupied_cells(64, 6, 2, 1e9) == pytest.approx(196.0)
        # capped at the grid size
        assert dilated_occupied_cells(10**9, 6, 2, 4096) == 4096


class TestThreadBlockHelpers:
    def test_blocks_for_work(self):
        assert blocks_for_work(0, 128) == 1
        assert blocks_for_work(129, 128) == 2

    def test_padded_bin_shape_matches_eq13(self):
        assert padded_bin_shape((32, 32), 6) == (38, 38)
        assert padded_bin_shape((16, 16, 2), 8) == (24, 24, 10)

    def test_remark2_shared_memory_rule(self):
        # 3D double precision: w > 8 cannot fit the default bins in 48 kB
        ok = check_shared_memory_fit((16, 16, 2), 6, 8, V100_SPEC)
        assert ok == padded_bin_shared_bytes((16, 16, 2), 6, 8)
        with pytest.raises(LaunchConfigError):
            check_shared_memory_fit((16, 16, 2), 10, 16, V100_SPEC)
        # single precision fits up to w = 8 (the widest single-precision kernel),
        # which is why the paper only excludes 3D *double* precision from SM
        check_shared_memory_fit((16, 16, 2), 8, 8, V100_SPEC)


class TestCostModel:
    def _profile(self, **kw):
        base = dict(name="k", grid_blocks=100, block_threads=128)
        base.update(kw)
        return KernelProfile(**base)

    def test_breakdown_terms_nonnegative_and_total(self):
        model = CostModel()
        prof = self._profile(flops=1e9, stream_bytes=1e8, gather_sector_ops=1e6,
                             gather_miss_fraction=0.5, global_atomic_ops=1e6,
                             global_atomic_sector_ops=1e6,
                             global_atomic_distinct_addresses=1e4)
        b = model.kernel_breakdown(prof)
        for term in (b.launch, b.compute, b.stream, b.gather, b.atomic, b.atomic_serial, b.shared):
            assert term >= 0
        assert b.total >= max(b.compute, b.stream + b.gather + b.atomic)

    def test_monotone_in_work(self):
        model = CostModel()
        small = model.kernel_time(self._profile(stream_bytes=1e6))
        large = model.kernel_time(self._profile(stream_bytes=1e9))
        assert large > small

    def test_contention_on_hot_addresses_costs_more(self):
        model = CostModel()
        cold = self._profile(global_atomic_ops=1e7, global_atomic_sector_ops=1e7,
                             global_atomic_distinct_addresses=1e7)
        hot = self._profile(global_atomic_ops=1e7, global_atomic_sector_ops=1e7,
                            global_atomic_distinct_addresses=1e2)
        assert model.kernel_time(hot) > 2 * model.kernel_time(cold)

    def test_double_precision_compute_slower(self):
        prof = self._profile(flops=1e12)
        single = CostModel(precision_itemsize=4).kernel_time(prof)
        double = CostModel(precision_itemsize=8).kernel_time(prof)
        assert double > single

    def test_pipeline_times_and_contention(self):
        model = CostModel()
        pipe = PipelineProfile()
        pipe.add_kernel(self._profile(stream_bytes=1e8), phase="exec")
        pipe.add_kernel(self._profile(stream_bytes=1e7), phase="setup")
        pipe.add_transfer("h2d", 1e8)
        pipe.add_transfer("alloc", 1e8)
        t = model.pipeline_times(pipe)
        assert t["total"] == pytest.approx(t["exec"] + t["setup"])
        assert t["total+mem"] > t["total"]
        t2 = model.pipeline_times(pipe, contention_factor=2.0)
        assert t2["exec"] == pytest.approx(2 * t["exec"])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CostModel(precision_itemsize=2)
        model = CostModel()
        with pytest.raises(ValueError):
            model.kernel_time(self._profile(), contention_factor=0.5)
        pipe = PipelineProfile()
        with pytest.raises(ValueError):
            pipe.add_kernel(self._profile(), phase="bogus")
        with pytest.raises(ValueError):
            pipe.add_transfer("sideways", 10)
        bad = self._profile(gather_miss_fraction=1.5)
        with pytest.raises(ValueError):
            bad.validate()

    def test_with_constants_override(self):
        model = CostModel()
        slower = model.with_constants(l2_sector_ns=2.0)
        prof = self._profile(gather_sector_ops=1e7)
        assert slower.kernel_time(prof) > model.kernel_time(prof)


class TestDeviceFFT:
    def test_forward_matches_numpy_and_records(self):
        rng = np.random.default_rng(0)
        grid = (rng.standard_normal((16, 12)) + 1j * rng.standard_normal((16, 12))).astype(np.complex128)
        pipe = PipelineProfile()
        fft = DeviceFFT(pipeline=pipe)
        np.testing.assert_allclose(fft.forward(grid), np.fft.fftn(grid), rtol=1e-12)
        np.testing.assert_allclose(fft.inverse(grid), np.fft.ifftn(grid) * grid.size, rtol=1e-12)
        assert len(pipe.exec_kernels()) == 2

    def test_rejects_real_input(self):
        fft = DeviceFFT()
        with pytest.raises(TypeError):
            fft.forward(np.zeros((4, 4)))

    def test_flop_model_scales(self):
        assert fft_flops((256, 256)) > fft_flops((64, 64))
        prof = fft_kernel_profile((128, 128), 8)
        prof.validate()
        assert prof.stream_bytes > 0


class TestDeconvolveAndExact:
    def test_correction_factors_separable(self):
        kernel = ESKernel.from_tolerance(1e-6)
        corr = CorrectionFactors(kernel, (10, 14), (32, 40))
        dense = corr.as_dense()
        assert dense.shape == (10, 14)
        np.testing.assert_allclose(
            dense, np.outer(corr.factors[0], corr.factors[1]), rtol=1e-14
        )

    def test_pad_then_truncate_roundtrip(self):
        rng = np.random.default_rng(3)
        kernel = ESKernel.from_tolerance(1e-6)
        corr = CorrectionFactors(kernel, (12, 10), (32, 30))
        modes = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
        fine = corr.pad_and_scale(modes)
        # the fine-grid array holds the scaled modes at the centred positions
        # and zeros elsewhere
        assert fine.shape == (32, 30)
        assert np.count_nonzero(fine) == 12 * 10
        back = corr.truncate_and_scale(fine)
        np.testing.assert_allclose(back, modes * corr.as_dense() ** 2, rtol=1e-12)

    def test_shape_validation(self):
        kernel = ESKernel.from_tolerance(1e-4)
        with pytest.raises(ValueError):
            CorrectionFactors(kernel, (10, 10), (32,))
        corr = CorrectionFactors(kernel, (10, 10), (32, 32))
        with pytest.raises(ValueError):
            corr.truncate_and_scale(np.zeros((16, 16), dtype=complex))
        with pytest.raises(ValueError):
            corr.pad_and_scale(np.zeros((8, 8), dtype=complex))
        deconvolve_kernel_profile((10, 10), 8).validate()

    def test_mode_indices_centred(self):
        np.testing.assert_array_equal(mode_indices(4), [-2, -1, 0, 1])
        np.testing.assert_array_equal(mode_indices(5), [-2, -1, 0, 1, 2])

    def test_exact_transforms_adjoint(self):
        rng = np.random.default_rng(7)
        m = 50
        pts = [rng.uniform(-np.pi, np.pi, m) for _ in range(2)]
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        t1 = nudft_type1(pts, c, (8, 6))
        t2 = nudft_type2(pts, f)
        assert np.vdot(f, t1) == pytest.approx(np.vdot(t2, c), rel=1e-12)

    def test_exact_single_point_at_origin(self):
        # a unit mass at the origin has all-ones Fourier coefficients
        f = nudft_type1([np.array([0.0]), np.array([0.0])], np.array([1.0 + 0j]), (6, 7))
        np.testing.assert_allclose(f, np.ones((6, 7)), rtol=1e-13)
