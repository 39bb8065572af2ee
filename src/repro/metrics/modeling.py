"""Paper-scale timing estimation without paper-scale numerics.

The paper's figures use up to ``M = 1.3e8`` nonuniform points.  Running the
*numerics* at that size in pure NumPy would be slow and pointless -- the
modelled device time depends on the problem only through aggregate occupancy
statistics (how many points, which bins they fall in, the grid geometry).
This module therefore:

1. samples the requested point distribution at a reduced size
   (``max_sample`` points),
2. bin-sorts the sample and rescales the histogram to the full point count
   (:meth:`repro.core.binsort.SpreadStats.scaled`),
3. assembles the same kernel/transfer profiles a :class:`repro.core.plan.Plan`
   would record, and
4. prices them with the cost model.

The result carries the paper's three timings plus RAM and spread-fraction
estimates, so one function call produces a row of any benchmark table.
Accuracy columns are handled separately (by running real numerics at a small
problem size, or by the kernels' ``estimated_error``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ..backends import get_backend
from ..core.binsort import (
    SpreadStats,
    bin_sort,
    binsort_kernel_profiles,
    estimate_subproblem_count,
    to_grid_coordinates,
)
from ..core.deconvolve import deconvolve_kernel_profile
from ..core.gridsize import fine_grid_shape, next_smooth_even_235
from ..core.interp import interp_kernel_profiles
from ..core.options import Opts, Precision, SpreadMethod
from ..core.plan import CUDA_CONTEXT_MB
from ..core.spread import spread_kernel_profiles
from ..gpu.costmodel import CostModel
from ..gpu.device import V100_SPEC
from ..gpu.fft import fft_kernel_profile
from ..gpu.profiler import PipelineProfile
from ..kernels.es_kernel import ESKernel
from ..workloads.distributions import make_distribution
from .timing import ns_per_point

__all__ = ["ModelResult", "sample_spread_stats", "model_cufinufft"]

#: Default cap on the number of points actually generated for sampling.
DEFAULT_MAX_SAMPLE = 1 << 21


@dataclass
class ModelResult:
    """Modelled performance of one transform configuration.

    Attributes
    ----------
    times : dict
        Seconds for ``exec``, ``setup``, ``total``, ``mem``, ``total+mem``.
    n_points : int
        Paper-scale point count the times refer to.
    ram_mb : float
        Simulated device memory including the CUDA-context baseline.
    spread_fraction : float
        Fraction of "exec" spent in spreading/interpolation kernels.
    error_estimate : float
        Heuristic relative l2 error delivered at the requested tolerance.
    meta : dict
        Extra information (method, kernel width, fine grid, ...).
    """

    times: dict
    n_points: int
    ram_mb: float
    spread_fraction: float
    error_estimate: float
    meta: dict = field(default_factory=dict)

    def ns_per_point(self, key="exec"):
        return ns_per_point(self.times[key], self.n_points)


def sample_spread_stats(distribution, n_points, fine_shape, bin_shape, rng=None,
                        max_sample=DEFAULT_MAX_SAMPLE):
    """Occupancy statistics of ``n_points`` points of a named distribution.

    At most ``max_sample`` points are actually generated; the histogram is
    rescaled to ``n_points`` afterwards.
    """
    n_points = int(n_points)
    ndim = len(fine_shape)
    n_sample = int(min(n_points, max_sample))
    coords = make_distribution(distribution, n_sample, ndim, fine_shape=fine_shape, rng=rng)
    grid_coords = [to_grid_coordinates(coords[d], fine_shape[d]) for d in range(ndim)]
    sort = bin_sort(grid_coords, fine_shape, bin_shape)
    stats = SpreadStats.from_binsort(sort)
    if n_sample != n_points:
        stats = stats.scaled(n_points)
    return stats


def _device_allocation_bytes(fine_shape, n_modes, n_points, ndim, precision, sorted_method):
    """Bytes of the plan-lifetime device allocations (mirrors Plan.__init__/set_pts)."""
    cplx = precision.complex_itemsize
    real = precision.real_itemsize
    total = 0.0
    n_fine = float(np.prod(fine_shape))
    total += n_fine * cplx            # fine grid
    total += n_fine * cplx            # cuFFT workspace
    total += sum(n_modes) * real      # separable correction factors
    total += ndim * n_points * real   # point coordinates
    if sorted_method:
        total += 2.0 * 4.0 * n_points  # bin index + permutation (int32)
    return total


def _model_type3(n_modes, n_points, eps, method, distribution, precision,
                 base_opts, spec, rng, max_sample, kernel, backend):
    """Price a type-3 transform as its type-2∘scale∘type-1 composition.

    ``n_modes`` is the rescaled composition grid (see :func:`model_cufinufft`);
    targets are assumed as numerous as sources and, being rescaled into
    ``[-pi/sigma, pi/sigma]``, uniformly occupying regardless of the source
    distribution.
    """
    t3_grid = tuple(next_smooth_even_235(int(n)) for n in n_modes)
    ndim = len(t3_grid)
    bin_shape = base_opts.resolved_bin_shape(ndim)
    inner_fine = fine_grid_shape(t3_grid, kernel.width, base_opts.upsampfac)
    cplx = precision.complex_itemsize
    real = precision.real_itemsize
    tpb = base_opts.threads_per_block

    # Outer spread method resolves like type 1 (with the Remark-2 fallback);
    # the inner interpolation resolves like type 2.
    if method is SpreadMethod.SM:
        from ..gpu.threadblock import LaunchConfigError, check_shared_memory_fit

        try:
            check_shared_memory_fit(bin_shape, kernel.width, cplx, spec)
        except LaunchConfigError:
            method = SpreadMethod.GM_SORT
    interp_method = base_opts.resolve_method(2, ndim, precision)

    stats_src = sample_spread_stats(
        distribution, n_points, t3_grid, bin_shape, rng=rng, max_sample=max_sample
    )
    stats_tgt = sample_spread_stats(
        "rand", n_points, inner_fine, bin_shape, rng=rng, max_sample=max_sample
    )

    pipeline = PipelineProfile()
    # --- setup: bin sorts of the sources (outer) and targets (inner) --------
    if method in (SpreadMethod.GM_SORT, SpreadMethod.SM):
        for prof in binsort_kernel_profiles(
            stats_src.n_points, stats_src.n_bins, ndim, real, tpb
        ):
            pipeline.add_kernel(prof, phase="setup")
    if interp_method in (SpreadMethod.GM_SORT, SpreadMethod.SM):
        for prof in binsort_kernel_profiles(
            stats_tgt.n_points, stats_tgt.n_bins, ndim, real, tpb
        ):
            pipeline.add_kernel(prof, phase="setup")

    # --- exec: spread -> inner type 2 (precorrect, FFT, interp) -> deconvolve
    subproblems = None
    if method is SpreadMethod.SM:
        n_sub = estimate_subproblem_count(
            stats_src.bin_counts, base_opts.max_subproblem_size
        )
        subproblems = SimpleNamespace(n_subproblems=max(1, n_sub))
    for prof in spread_kernel_profiles(
        method, stats_src, kernel, precision, tpb, spec, subproblems=subproblems
    ):
        pipeline.add_kernel(prof, phase="exec")
    pipeline.add_kernel(
        deconvolve_kernel_profile(t3_grid, cplx, name="precorrect"), phase="exec"
    )
    pipeline.add_kernel(fft_kernel_profile(inner_fine, cplx), phase="exec")
    for prof in interp_kernel_profiles(
        interp_method, stats_tgt, kernel, precision, tpb, spec
    ):
        pipeline.add_kernel(prof, phase="exec")
    pipeline.add_kernel(
        deconvolve_kernel_profile((n_points,), cplx, name="t3_deconvolve"),
        phase="exec",
    )

    # --- transfers and allocations ---------------------------------------
    n_t3 = float(np.prod(t3_grid))
    n_inner = float(np.prod(inner_fine))
    alloc_bytes = (n_t3 + 2.0 * n_inner) * cplx       # t3 grid + inner grid/wk
    alloc_bytes += 2.0 * ndim * n_points * real       # source + target coords
    alloc_bytes += 2.0 * n_points * cplx              # pre/post phase vectors
    alloc_bytes += 2.0 * 2.0 * 4.0 * n_points         # two bin sorts (int32 x2)
    pipeline.add_transfer("alloc", alloc_bytes, "plan allocations")
    pipeline.add_transfer("h2d", 2.0 * ndim * n_points * real, "points + targets")
    pipeline.add_transfer("h2d", n_points * cplx, "strengths")
    pipeline.add_transfer("d2h", n_points * cplx, "target values")

    cost = CostModel(spec=spec, precision_itemsize=real)
    times = cost.pipeline_times(pipeline)
    spread_time = sum(
        cost.kernel_time(k)
        for k in pipeline.exec_kernels()
        if k.name.startswith(("spread", "interp"))
    )
    spread_fraction = spread_time / times["exec"] if times["exec"] > 0 else 0.0

    return ModelResult(
        times=times,
        n_points=n_points,
        ram_mb=alloc_bytes / (1024.0 * 1024.0) + CUDA_CONTEXT_MB,
        spread_fraction=spread_fraction,
        error_estimate=kernel.estimated_error(),
        meta={
            "method": method.value,
            "backend": backend.name,
            "kernel_width": kernel.width,
            "fine_shape": inner_fine,
            "t3_grid": t3_grid,
            "bin_shape": bin_shape,
            "precision": precision.value,
            "nufft_type": 3,
            "distribution": distribution,
        },
    )


def model_cufinufft(nufft_type, n_modes, n_points, eps, method="auto",
                    distribution="rand", precision="single", opts=None,
                    spec=None, rng=None, max_sample=DEFAULT_MAX_SAMPLE,
                    spread_only=False, fine_shape=None, stats=None,
                    backend="device_sim"):
    """Model the paper's three timings for one cuFINUFFT transform.

    Parameters mirror :class:`repro.core.plan.Plan`; ``spread_only`` restricts
    the exec phase to the spread/interp kernel (Figs. 2 and 3), and
    ``fine_shape`` overrides the derived fine grid (those figures sweep the
    fine grid directly).  ``stats`` can supply precomputed
    :class:`~repro.core.binsort.SpreadStats` to avoid repeated sampling.

    For ``nufft_type=3`` there are no uniform modes: ``n_modes`` is read as
    the size of the rescaled composition grid (``nf ~ 2 sigma S X / pi`` per
    dimension, the grid a real type-3 plan derives in ``set_pts``) and the
    model prices the full type-2∘scale∘type-1 pipeline -- spread onto that
    grid, then the inner type-2 (pre-correct, FFT on the doubly-upsampled
    grid, interpolation at the targets) plus the target-frequency
    deconvolution, assuming as many targets as sources.

    The kernel profiles are assembled through the same
    :func:`~repro.core.spread.spread_kernel_profiles` /
    :func:`~repro.core.interp.interp_kernel_profiles` calls the ``device_sim``
    backend makes for an executed plan, so modelled and measured pipelines
    can never diverge.  ``backend`` must name a profile-recording backend (``"device_sim"`` or
    ``"auto"``); the pure-numerics backends have no modelled device time.

    Returns
    -------
    ModelResult
    """
    spec = spec if spec is not None else V100_SPEC
    precision = Precision.parse(precision)
    base_opts = opts if opts is not None else Opts(precision=precision)
    resolved_backend = get_backend(base_opts.copy(backend=backend).resolve_backend())
    if not resolved_backend.records_profiles:
        raise ValueError(
            f"backend {resolved_backend.name!r} records no kernel profiles; "
            "modelled timings require a device-sim backend"
        )
    n_modes = tuple(int(n) for n in n_modes)
    ndim = len(n_modes)
    method = SpreadMethod.parse(method)
    if method is SpreadMethod.AUTO:
        method = base_opts.resolve_method(nufft_type, ndim, precision)

    kernel = ESKernel.from_tolerance(eps)
    if nufft_type == 3:
        return _model_type3(
            n_modes, n_points, eps, method, distribution, precision,
            base_opts, spec, rng, max_sample, kernel, resolved_backend,
        )
    if fine_shape is None:
        fine_shape = fine_grid_shape(n_modes, kernel.width, base_opts.upsampfac)
    fine_shape = tuple(int(n) for n in fine_shape)
    bin_shape = base_opts.resolved_bin_shape(ndim)

    # SM fallback for configurations whose padded bin exceeds shared memory
    # (paper Remark 2: 3D double precision at high accuracy).
    if method is SpreadMethod.SM:
        from ..gpu.threadblock import LaunchConfigError, check_shared_memory_fit

        try:
            check_shared_memory_fit(bin_shape, kernel.width, precision.complex_itemsize, spec)
        except LaunchConfigError:
            method = SpreadMethod.GM_SORT

    if stats is None:
        stats = sample_spread_stats(
            distribution, n_points, fine_shape, bin_shape, rng=rng, max_sample=max_sample
        )

    pipeline = PipelineProfile()
    sorted_method = method in (SpreadMethod.GM_SORT, SpreadMethod.SM)

    # --- setup phase -----------------------------------------------------
    if sorted_method:
        for prof in binsort_kernel_profiles(
            stats.n_points, stats.n_bins, ndim, precision.real_itemsize,
            base_opts.threads_per_block,
        ):
            pipeline.add_kernel(prof, phase="setup")

    # --- exec phase (same stage->profile dispatch as the device_sim backend)
    if nufft_type == 1:
        subproblems = None
        if method is SpreadMethod.SM:
            n_sub = estimate_subproblem_count(stats.bin_counts, base_opts.max_subproblem_size)
            subproblems = SimpleNamespace(n_subproblems=max(1, n_sub))
        profiles = spread_kernel_profiles(
            method, stats, kernel, precision, base_opts.threads_per_block, spec,
            subproblems=subproblems,
        )
    else:
        profiles = interp_kernel_profiles(
            method, stats, kernel, precision, base_opts.threads_per_block, spec
        )
    for prof in profiles:
        pipeline.add_kernel(prof, phase="exec")

    if not spread_only:
        pipeline.add_kernel(
            fft_kernel_profile(fine_shape, precision.complex_itemsize), phase="exec"
        )
        pipeline.add_kernel(
            deconvolve_kernel_profile(n_modes, precision.complex_itemsize), phase="exec"
        )

    # --- transfers and allocations ---------------------------------------
    cplx = precision.complex_itemsize
    real = precision.real_itemsize
    n_mode_total = float(np.prod(n_modes))
    alloc_bytes = _device_allocation_bytes(
        fine_shape, n_modes, stats.n_points, ndim, precision, sorted_method
    )
    pipeline.add_transfer("alloc", alloc_bytes, "plan allocations")
    pipeline.add_transfer("h2d", ndim * stats.n_points * real, "points")
    if nufft_type == 1:
        pipeline.add_transfer("h2d", stats.n_points * cplx, "strengths")
        pipeline.add_transfer("d2h", n_mode_total * cplx, "modes")
    else:
        pipeline.add_transfer("h2d", n_mode_total * cplx, "modes")
        pipeline.add_transfer("d2h", stats.n_points * cplx, "targets")

    cost = CostModel(spec=spec, precision_itemsize=precision.real_itemsize)
    times = cost.pipeline_times(pipeline)

    spread_time = sum(
        cost.kernel_time(k)
        for k in pipeline.exec_kernels()
        if k.name.startswith(("spread", "interp"))
    )
    spread_fraction = spread_time / times["exec"] if times["exec"] > 0 else 0.0

    ram_mb = alloc_bytes / (1024.0 * 1024.0) + CUDA_CONTEXT_MB

    return ModelResult(
        times=times,
        n_points=stats.n_points,
        ram_mb=ram_mb,
        spread_fraction=spread_fraction,
        error_estimate=kernel.estimated_error(),
        meta={
            "method": method.value,
            "backend": resolved_backend.name,
            "kernel_width": kernel.width,
            "fine_shape": fine_shape,
            "bin_shape": bin_shape,
            "precision": precision.value,
            "nufft_type": nufft_type,
            "distribution": distribution,
        },
    )
