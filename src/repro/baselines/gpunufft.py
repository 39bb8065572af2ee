"""gpuNUFFT-like baseline: sector-based GPU gridding with a Kaiser-Bessel window.

gpuNUFFT (Knoll, Schwarzl, Diwoky, Sodickson) is an MRI-oriented GPU gridding
library with a MATLAB front end.  The paper's usage and the behaviours we
reproduce:

* Kaiser-Bessel window, sector width 8, ``THREAD_BLOCK_SIZE=256`` -- an
  *output-driven* (gather) scheme: each thread block owns a sector of the
  oversampled grid and loops over the nonuniform points assigned to it.
  Output-driven gridding is collision-free and therefore distribution-robust
  (Fig. 6 shows gpuNUFFT barely changes between "rand" and "cluster"), but
  per-point work is high: every point in a sector is re-read by all threads
  covering the sector apron, and sector bookkeeping adds overhead.  The net
  effect in the paper is that gpuNUFFT is the slowest GPU library for type 1
  (cuFINUFFT is on average 78x faster at low accuracy) and ~5x slower for
  type 2.
* The nonuniform points are pre-sorted into sectors **on the CPU** when the
  operator is built; the paper excludes that from the timings, so the model
  reports it under ``setup`` only.
* Delivered accuracy never beats ~1e-3 (``MAXIMUM_ALIASING_ERROR`` and the
  small fixed kernel), so the library is excluded from the double-precision
  sweeps -- :meth:`GpuNufftLibrary.supports` encodes that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.binsort import to_grid_coordinates
from ..core.deconvolve import CorrectionFactors
from ..core.gridsize import fine_grid_shape
from ..core.interp import interp_direct
from ..core.options import Precision
from ..core.spread import spread_direct
from ..kernels.kaiser_bessel import GPUNUFFT_ACCURACY_FLOOR, KaiserBesselKernel
from ..metrics.modeling import ModelResult

__all__ = ["GpuNufftLibrary", "GpuNufftCostConstants"]


@dataclass(frozen=True)
class GpuNufftCostConstants:
    """Calibration constants of the gpuNUFFT cost model (V100-scale)."""

    #: Sector edge length in oversampled-grid cells (paper: "sector width 8").
    sector_width: int = 8
    #: Per grid-cell cost of the output-driven type-1 gather, ns.  High
    #: because every covering thread re-reads the point and re-evaluates the
    #: window.
    type1_ns_per_cell: float = 3.6
    #: Fixed per-point cost of the type-1 sector gather, ns: every thread of
    #: every block whose apron contains the point re-reads its coordinates and
    #: strength, so the redundant traffic scales with M regardless of the
    #: kernel width.  Together with the per-cell term this is what makes
    #: gpuNUFFT ~78x slower than cuFINUFFT SM for low-accuracy type 1.
    type1_ns_per_point: float = 250.0
    #: Per grid-cell cost of the forward (type-2) interpolation, ns.
    type2_ns_per_cell: float = 0.35
    #: Fixed per-point cost of the type-2 interpolation, ns.
    type2_ns_per_point: float = 4.0
    #: Per-sector fixed overhead, ns (block launch, apron setup).
    ns_per_sector: float = 600.0
    #: CPU-side sector sort throughput, points/second (excluded from totals,
    #: reported as setup).
    cpu_sort_points_per_s: float = 2.0e7
    #: Effective FFT throughput on the device, FLOP/s.
    fft_flops: float = 2.0e12
    #: Host<->device bandwidth, bytes/s (gpuNUFFT moves CPU arrays in and out).
    pcie_bandwidth: float = 1.2e10


class GpuNufftLibrary:
    """gpuNUFFT-equivalent library: KB-window sector gridding + cost model."""

    name = "gpunufft"
    device_kind = "gpu"

    def __init__(self, constants=None):
        self.constants = constants if constants is not None else GpuNufftCostConstants()

    # ------------------------------------------------------------------ #
    # capability matrix
    # ------------------------------------------------------------------ #
    @staticmethod
    def supports(nufft_type, ndim, precision, eps):
        """Single precision only; delivered error never beats ~1e-3.

        The paper excludes gpuNUFFT from the double-precision comparison
        because its measured error "appears always to exceed 1e-3"; we also
        refuse tolerances it cannot possibly deliver by a wide margin.
        """
        precision = Precision.parse(precision)
        if precision is not Precision.SINGLE:
            return False
        return nufft_type in (1, 2) and ndim in (2, 3)

    @staticmethod
    def error_estimate(eps, precision="single"):
        kernel = KaiserBesselKernel.from_tolerance(eps)
        return max(kernel.estimated_error(), GPUNUFFT_ACCURACY_FLOOR)

    # ------------------------------------------------------------------ #
    # numerics
    # ------------------------------------------------------------------ #
    def _geometry(self, n_modes, eps, points):
        kernel = KaiserBesselKernel.from_tolerance(eps)
        fine_shape = fine_grid_shape(n_modes, kernel.width)
        ndim = len(n_modes)
        grid_coords = [to_grid_coordinates(points[d], fine_shape[d]) for d in range(ndim)]
        correction = CorrectionFactors(kernel, n_modes, fine_shape)
        return kernel, fine_shape, grid_coords, correction

    def type1(self, points, strengths, n_modes, eps, precision="single"):
        """Adjoint (gridding) transform with the Kaiser-Bessel window.

        The numerical result is what an output-driven gather produces -- it is
        identical (up to summation order) to spreading with the same window,
        so we reuse the spreading primitive; the *cost* model, not the
        numerics, carries the sector-scheme behaviour.
        """
        precision = Precision.parse(precision)
        kernel, fine_shape, grid_coords, correction = self._geometry(n_modes, eps, points)
        strengths = np.asarray(strengths).astype(np.complex128)
        fine = spread_direct(fine_shape, grid_coords, strengths, kernel, np.complex128)
        fine_hat = np.fft.fftn(fine)
        return correction.truncate_and_scale(fine_hat, dtype=precision.complex_dtype)

    def type2(self, points, modes, eps, precision="single"):
        """Forward transform (de-gridding / interpolation)."""
        precision = Precision.parse(precision)
        modes = np.asarray(modes)
        kernel, fine_shape, grid_coords, correction = self._geometry(modes.shape, eps, points)
        fine = correction.pad_and_scale(modes, dtype=np.complex128)
        fine = np.fft.ifftn(fine) * float(np.prod(fine_shape))
        return interp_direct(fine, grid_coords, kernel, precision.complex_dtype)

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def model_times(self, nufft_type, n_modes, n_points, eps, distribution="rand",
                    precision="single", rng=None, stats=None, spread_only=False,
                    fine_shape=None):
        """Modelled timings for one gpuNUFFT transform.

        The sector scheme is output-driven, so the distribution does not
        change the gridding time (only how many sectors are nonempty, a
        second-order effect we fold into the per-sector overhead for the
        uniform case).
        """
        c = self.constants
        precision = Precision.parse(precision)
        kernel = KaiserBesselKernel.from_tolerance(eps)
        n_modes = tuple(int(n) for n in n_modes)
        ndim = len(n_modes)
        if fine_shape is None:
            fine_shape = fine_grid_shape(n_modes, kernel.width)
        fine_shape = tuple(int(n) for n in fine_shape)
        w = kernel.width
        m = float(n_points)

        cells_per_point = float(w ** ndim)
        if nufft_type == 1:
            per_cell, per_point = c.type1_ns_per_cell, c.type1_ns_per_point
        else:
            per_cell, per_point = c.type2_ns_per_cell, c.type2_ns_per_point
        n_sectors = float(np.prod([max(1, n // c.sector_width) for n in fine_shape]))
        grid_s = (
            m * (cells_per_point * per_cell + per_point) + n_sectors * c.ns_per_sector
        ) * 1e-9

        if spread_only:
            fft_s = deconv_s = 0.0
        else:
            n_fine = float(np.prod(fine_shape))
            fft_s = 5.0 * n_fine * max(1.0, np.log2(n_fine)) / c.fft_flops
            deconv_s = 8.0 * n_fine / 7.0e11

        sort_s = m / c.cpu_sort_points_per_s

        cplx = precision.complex_itemsize
        real = precision.real_itemsize
        transfer_bytes = ndim * m * real + m * cplx + float(np.prod(n_modes)) * cplx
        mem_s = transfer_bytes / c.pcie_bandwidth

        exec_s = grid_s + fft_s + deconv_s
        times = {
            "exec": exec_s,
            "setup": sort_s,
            "total": exec_s,          # the CPU-side sort is excluded (paper note)
            "mem": mem_s,
            "total+mem": exec_s + mem_s,
        }
        return ModelResult(
            times=times,
            n_points=int(n_points),
            ram_mb=(2.0 * float(np.prod(fine_shape)) * cplx) / (1024.0 * 1024.0),
            spread_fraction=grid_s / exec_s if exec_s > 0 else 0.0,
            error_estimate=self.error_estimate(eps, precision),
            meta={
                "library": self.name,
                "kernel_width": w,
                "fine_shape": fine_shape,
                "sector_width": c.sector_width,
                "nufft_type": nufft_type,
            },
        )
