"""FINUFFT-like multithreaded CPU baseline.

FINUFFT (Barnett, Magland, af Klinteberg 2019) is the parallel CPU library the
paper uses as its primary comparator, run with 28 threads on a dual Xeon
E5-2680 v4 node.  It uses the same three-step ES-kernel algorithm as
cuFINUFFT, so the *numerics* here simply run the core library's
:class:`~repro.core.plan.Plan` on its ``cached`` backend (which is exactly
what makes the two libraries' outputs agree, as they do in reality).

The *cost model* captures the documented CPU execution strategy: the spreader
is cache-blocked and parallelized over sorted chunks of points, the FFT is a
multithreaded FFTW call, and there is no host/device transfer.  Constants are
calibrated so the FINUFFT-vs-cuFINUFFT speedups land in the ranges the paper
reports (about 5-16x for "exec" depending on accuracy, dimension and size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.gridsize import fine_grid_shape
from ..core.options import Precision
from ..core.plan import Plan
from ..kernels.es_kernel import ESKernel
from ..metrics.modeling import ModelResult

__all__ = ["FinufftCPU", "CPUCostConstants"]


@dataclass(frozen=True)
class CPUCostConstants:
    """Calibration constants of the CPU (FINUFFT) cost model.

    Defaults describe the paper's 28-thread dual Xeon E5-2680 v4 node.
    """

    #: Physical threads used (the paper runs 28, one per physical core).
    n_threads: int = 28
    #: Parallel efficiency of the blocked spreader/interpolator.
    parallel_efficiency: float = 0.75
    #: Single-thread cost of updating / reading one fine-grid cell during
    #: spreading/interpolation, including the amortized kernel evaluations, ns.
    ns_per_grid_cell: float = 22.0
    #: Single-thread per-point cost of the bin-sort / index precomputation, ns.
    ns_per_point_sort: float = 30.0
    #: Effective multithreaded FFTW throughput, FLOP/s.
    fftw_flops: float = 4.0e10
    #: Effective memory bandwidth for the deconvolve / copy passes, bytes/s.
    mem_bandwidth: float = 6.0e10

    @property
    def effective_threads(self):
        return self.n_threads * self.parallel_efficiency


class FinufftCPU:
    """FINUFFT-equivalent CPU library: numerics + 28-thread cost model."""

    name = "finufft"
    device_kind = "cpu"

    def __init__(self, constants=None):
        self.constants = constants if constants is not None else CPUCostConstants()

    # ------------------------------------------------------------------ #
    # capability matrix
    # ------------------------------------------------------------------ #
    @staticmethod
    def supports(nufft_type, ndim, precision, eps):
        """FINUFFT supports every configuration the paper sweeps."""
        return nufft_type in (1, 2) and ndim in (2, 3)

    @staticmethod
    def error_estimate(eps, precision="single"):
        """Delivered relative error: follows the requested tolerance down to
        the precision's roundoff floor."""
        precision = Precision.parse(precision)
        floor = 1e-7 if precision is Precision.SINGLE else 1e-14
        kernel = ESKernel.from_tolerance(eps)
        return max(kernel.estimated_error(), floor)

    # ------------------------------------------------------------------ #
    # numerics
    # ------------------------------------------------------------------ #
    def type1(self, points, strengths, n_modes, eps, precision="double"):
        """Type-1 transform (exact same algorithm as the core library)."""
        with Plan(1, n_modes, eps=eps, backend="cached", precision=precision) as plan:
            plan.set_pts(*points)
            return plan.execute(strengths)

    def type2(self, points, modes, eps, precision="double"):
        """Type-2 transform."""
        modes = np.asarray(modes)
        with Plan(2, modes.shape, eps=eps, backend="cached", precision=precision) as plan:
            plan.set_pts(*points)
            return plan.execute(modes)

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def model_times(self, nufft_type, n_modes, n_points, eps, distribution="rand",
                    precision="single", rng=None, stats=None, spread_only=False,
                    fine_shape=None):
        """Modelled CPU timings for one transform (28-thread FINUFFT).

        Returns a :class:`~repro.metrics.modeling.ModelResult` whose ``times``
        use the same keys as the GPU model; ``mem`` is zero (no device) and
        ``total+mem`` equals ``total``, matching how the paper plots FINUFFT's
        "total" against the GPU libraries' "total+mem".
        """
        c = self.constants
        precision = Precision.parse(precision)
        kernel = ESKernel.from_tolerance(eps)
        n_modes = tuple(int(n) for n in n_modes)
        ndim = len(n_modes)
        if fine_shape is None:
            fine_shape = fine_grid_shape(n_modes, kernel.width)
        w = kernel.width
        m = float(n_points)

        cells_per_point = float(w ** ndim)
        spread_s = m * cells_per_point * c.ns_per_grid_cell * 1e-9 / c.effective_threads
        sort_s = m * c.ns_per_point_sort * 1e-9 / c.effective_threads

        if spread_only:
            fft_s = 0.0
            deconv_s = 0.0
        else:
            n_fine = float(np.prod(fine_shape))
            fft_s = 5.0 * n_fine * max(1.0, np.log2(n_fine)) / c.fftw_flops
            deconv_s = 4.0 * float(np.prod(n_modes)) * precision.complex_itemsize / c.mem_bandwidth

        exec_s = spread_s + fft_s + deconv_s
        times = {
            "exec": exec_s,
            "setup": sort_s,
            "total": exec_s + sort_s,
            "mem": 0.0,
            "total+mem": exec_s + sort_s,
        }
        return ModelResult(
            times=times,
            n_points=int(n_points),
            ram_mb=0.0,
            spread_fraction=spread_s / exec_s if exec_s > 0 else 0.0,
            error_estimate=self.error_estimate(eps, precision),
            meta={
                "library": self.name,
                "kernel_width": w,
                "fine_shape": tuple(fine_shape),
                "threads": c.n_threads,
                "nufft_type": nufft_type,
            },
        )
