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
3. lists the kernels a :class:`repro.core.plan.Plan` would record, through
   the same setup and stage functions (its transfers and allocations are
   booked more coarsely, see :func:`model_cufinufft`), and
4. prices them with the cost model.

The result carries the paper's three timings plus RAM and spread-fraction
estimates, so one function call produces a row of any benchmark table.
Accuracy columns are handled separately (by running real numerics at a small
problem size, or by the kernels' ``estimated_error``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.device_sim import stage_profiles
from ..core.binsort import (
    SpreadStats,
    bin_sort,
    setup_kernel_profiles,
    to_grid_coordinates,
)
from ..core.gridsize import fine_grid_shape, next_smooth_even_235
from ..core.options import Opts, Precision, SpreadMethod
from ..core.plan import CUDA_CONTEXT_MB
from ..gpu.costmodel import CostModel
from ..gpu.device import V100_SPEC
from ..gpu.fft import fft_kernel_profile
from ..gpu.profiler import PipelineProfile
from ..gpu.threadblock import sm_fits
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
    pipeline : PipelineProfile or None
        The priced kernels and transfers (None for the CPU/baseline models).
    """

    times: dict
    n_points: int
    ram_mb: float
    spread_fraction: float
    error_estimate: float
    meta: dict = field(default_factory=dict)
    pipeline: PipelineProfile = None

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


def model_cufinufft(nufft_type, n_modes, n_points, eps, method="auto",
                    distribution="rand", precision="single", opts=None,
                    spec=None, rng=None, max_sample=DEFAULT_MAX_SAMPLE,
                    spread_only=False, fine_shape=None, stats=None):
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
    grid, interpolation at the targets) -- assuming as many targets as
    sources, uniformly spread over the inner grid.

    The kernels come from the functions an executed plan records through:
    :func:`~repro.core.binsort.setup_kernel_profiles` for setup and
    :func:`~repro.backends.device_sim.stage_profiles` for each exec stage.
    So a model built on a plan's own sort lists the same kernels, in the same
    phases and order, as the plan, and its ``exec`` and ``setup`` equal the
    plan's.  Transfers and allocations are priced differently on purpose:
    the model books the plan's allocations as one record, where a plan books
    one per buffer and pays the fixed cost of each ``cudaMalloc``, so
    ``mem`` (and ``total+mem``) read lower here than on an executed plan.

    Returns
    -------
    ModelResult
    """
    spec = spec if spec is not None else V100_SPEC
    precision = Precision.parse(precision)
    base_opts = opts if opts is not None else Opts(precision=precision)
    n_modes = tuple(int(n) for n in n_modes)
    ndim = len(n_modes)
    method = SpreadMethod.parse(method)
    if method is not SpreadMethod.AUTO:
        base_opts = base_opts.copy(method=method)
    method = base_opts.resolve_method(nufft_type, ndim, precision)
    kernel = ESKernel.from_tolerance(eps)
    bin_shape = base_opts.resolved_bin_shape(ndim)
    cplx = precision.complex_itemsize
    real = precision.real_itemsize
    if method is SpreadMethod.SM and not sm_fits(bin_shape, kernel.width, cplx, spec):
        method = SpreadMethod.GM_SORT
    isign = base_opts.resolve_isign(nufft_type)
    pipeline = PipelineProfile()

    def setup(stage_method, sort, spreads, stage_opts=base_opts):
        for prof in setup_kernel_profiles(stage_method, sort, precision, stage_opts,
                                          spreads):
            pipeline.add_kernel(prof, phase="setup")

    def run(stage, stage_method=None, sort=None, modes=None, stage_opts=base_opts):
        for prof in stage_profiles(stage, stage_method, sort, kernel, precision,
                                   stage_opts, spec, modes):
            pipeline.add_kernel(prof, phase="exec")

    def fft(shape, forward):
        name = "cufft_forward" if forward else "cufft_inverse"
        pipeline.add_kernel(fft_kernel_profile(shape, cplx, name=name), phase="exec")

    meta = {"method": method.value, "kernel_width": kernel.width,
            "bin_shape": bin_shape, "precision": precision.value,
            "nufft_type": nufft_type, "distribution": distribution}
    if nufft_type == 3:
        # Spread onto the composition grid, then the inner type 2, whose
        # method resolves from the requested one and whose bins are the
        # defaults, as the plan's inner plan's.
        t3_grid = tuple(next_smooth_even_235(n) for n in n_modes)
        inner_fine = fine_grid_shape(t3_grid, kernel.width, base_opts.upsampfac)
        inner_opts = base_opts.copy(bin_shape=None)
        interp_method = inner_opts.resolve_method(2, ndim, precision)
        stats = sample_spread_stats(distribution, n_points, t3_grid, bin_shape,
                                    rng=rng, max_sample=max_sample)
        targets = sample_spread_stats("rand", n_points, inner_fine,
                                      inner_opts.resolved_bin_shape(ndim),
                                      rng=rng, max_sample=max_sample)
        setup(method, stats, spreads=True)
        setup(interp_method, targets, spreads=False, stage_opts=inner_opts)
        run("spread", method, stats)
        run("precorrect", modes=t3_grid, stage_opts=inner_opts)
        fft(inner_fine, forward=isign < 0)
        run("interp", interp_method, targets, stage_opts=inner_opts)
        meta.update(fine_shape=inner_fine, t3_grid=t3_grid)

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
    else:
        if fine_shape is None:
            fine_shape = fine_grid_shape(n_modes, kernel.width, base_opts.upsampfac)
        fine_shape = tuple(int(n) for n in fine_shape)
        if stats is None:
            stats = sample_spread_stats(distribution, n_points, fine_shape, bin_shape,
                                        rng=rng, max_sample=max_sample)
        n_points = stats.n_points
        setup(method, stats, spreads=nufft_type == 1)
        if nufft_type == 1:
            run("spread", method, stats)
            if not spread_only:
                fft(fine_shape, forward=isign < 0)
                run("deconvolve", modes=n_modes)
        else:
            if not spread_only:
                run("precorrect", modes=n_modes)
                fft(fine_shape, forward=isign < 0)
            run("interp", method, stats)
        meta.update(fine_shape=fine_shape)

        n_mode_total = float(np.prod(n_modes))
        alloc_bytes = _device_allocation_bytes(
            fine_shape, n_modes, n_points, ndim, precision,
            method in (SpreadMethod.GM_SORT, SpreadMethod.SM),
        )
        pipeline.add_transfer("alloc", alloc_bytes, "plan allocations")
        pipeline.add_transfer("h2d", ndim * n_points * real, "points")
        if nufft_type == 1:
            pipeline.add_transfer("h2d", n_points * cplx, "strengths")
            pipeline.add_transfer("d2h", n_mode_total * cplx, "modes")
        else:
            pipeline.add_transfer("h2d", n_mode_total * cplx, "modes")
            pipeline.add_transfer("d2h", n_points * cplx, "targets")

    cost = CostModel(spec=spec, precision_itemsize=real)
    return ModelResult(
        times=cost.pipeline_times(pipeline),
        n_points=n_points,
        ram_mb=alloc_bytes / (1024.0 * 1024.0) + CUDA_CONTEXT_MB,
        spread_fraction=cost.spread_fraction(pipeline),
        error_estimate=kernel.estimated_error(),
        meta=meta,
        pipeline=pipeline,
    )
