"""Device-sim backend: real numerics plus simulated-GPU kernel profiles.

Numerically this backend is the ``cached`` fast path, whose numerics do not
depend on the spreading method.  It then attaches the per-stage
:class:`~repro.gpu.profiler.KernelProfile` records the paper's cost model
prices: method-specific spread/interp kernels, the cuFFT launches (recorded by
:class:`~repro.gpu.fft.DeviceFFT`), and the deconvolution passes.  Plans on
this backend therefore report the paper's three timings (``exec``, ``total``,
``total+mem``) after every execute -- it is the default backend.

The method reaches only the profiles, through :func:`stage_profiles`;
:mod:`repro.metrics.modeling` prices its paper-scale estimates through the
same function (and the setup kernels through
:func:`~repro.core.binsort.setup_kernel_profiles`), so a model built on a
plan's own sort lists the same kernels, with the same costs, as the plan
records.  Transfers and allocations are priced apart, on purpose: see
:func:`~repro.metrics.modeling.model_cufinufft`.
"""

from __future__ import annotations

from ..core.binsort import estimate_subproblem_count
from ..core.deconvolve import deconvolve_kernel_profile
from ..core.interp import interp_kernel_profiles
from ..core.options import SpreadMethod
from ..core.spread import spread_kernel_profiles
from .cached import CachedBackend

__all__ = ["DeviceSimBackend", "stage_profiles"]


def stage_profiles(stage, method, sort, kernel, precision, opts, spec, n_modes=None):
    """Kernel profiles of one transform's exec stage, for one transform.

    ``stage`` is ``"spread"``, ``"interp"``, ``"deconvolve"`` or
    ``"precorrect"`` (the last two over ``n_modes``).  ``sort`` is the
    points' :class:`~repro.core.binsort.BinSort` or a (scaled)
    :class:`~repro.core.binsort.SpreadStats`; an SM spread is split at
    ``opts.max_subproblem_size``, and an SM interpolation is priced as
    GM-sort.  The cuFFT stage is recorded by
    :class:`~repro.gpu.fft.DeviceFFT`, not here.
    """
    tpb = opts.threads_per_block
    if stage == "spread":
        n_sub = None
        if method is SpreadMethod.SM:
            n_sub = estimate_subproblem_count(sort.bin_counts, opts.max_subproblem_size)
        return spread_kernel_profiles(method, sort, kernel, precision, tpb, spec,
                                      n_subproblems=n_sub)
    if stage == "interp":
        return interp_kernel_profiles(method, sort, kernel, precision, tpb, spec)
    return [deconvolve_kernel_profile(n_modes, precision.complex_itemsize, name=stage)]


class DeviceSimBackend(CachedBackend):
    """Profiled execution on the simulated device; see module docstring."""

    name = "device_sim"
    records_profiles = True

    @staticmethod
    def _launch_stage(plan, pipeline, stage, n_trans):
        """Record one fused launch per kernel of ``stage``.

        The batched engine processes all ``n_trans`` transforms of a stage in
        a single pass, so the *work* scales with the batch but the launch
        does not -- matching cuFINUFFT's batched kernels.  The scaled
        profiles depend only on the plan and its point set, so they are built
        and validated on the first execute and kept with the point set
        (:meth:`~repro.core.plan.Plan._point_state_value`).

        Each launch first passes the device's fault gate
        (:meth:`~repro.gpu.device.Device.check_launch`), on every execute: an
        attached :class:`~repro.faults.FaultInjector` may raise a transient
        kernel failure, an injected OOM or a device-lost error here -- the
        stage boundary where a real ``cudaGetLastError`` would report them.
        """
        profiles = plan._point_state_value(
            (stage, n_trans),
            lambda: [prof.scaled(n_trans).validate() for prof in stage_profiles(
                stage, plan.method, plan.point_set.sort, plan.kernel, plan.precision,
                plan.opts, plan.device.spec, plan.n_modes,
            )],
        )
        for prof in profiles:
            plan.device.check_launch(prof.name)
            pipeline.add_kernel(prof, phase="exec", checked=True)

    # ------------------------------------------------------------------ #
    def spread(self, plan, strengths, pipeline, out=None):
        fine = super().spread(plan, strengths, pipeline, out=out)
        self._launch_stage(plan, pipeline, "spread", strengths.shape[0])
        return fine

    def fft_forward(self, plan, fine, pipeline):
        # DeviceFFT records one fused batched-cufft profile by itself; the
        # launch still passes the device's fault gate like every stage.
        plan.device.check_launch("cufft_forward")
        return super().fft_forward(plan, fine, pipeline)

    def fft_inverse(self, plan, fine, pipeline):
        plan.device.check_launch("cufft_inverse")
        return super().fft_inverse(plan, fine, pipeline)

    def deconvolve(self, plan, fine_hat, pipeline, out=None):
        modes = super().deconvolve(plan, fine_hat, pipeline, out=out)
        self._launch_stage(plan, pipeline, "deconvolve", fine_hat.shape[0])
        return modes

    def precorrect(self, plan, modes, pipeline, out=None):
        fine = super().precorrect(plan, modes, pipeline, out=out)
        self._launch_stage(plan, pipeline, "precorrect", modes.shape[0])
        return fine

    def interp(self, plan, fine, pipeline, out=None):
        result = super().interp(plan, fine, pipeline, out=out)
        self._launch_stage(plan, pipeline, "interp", fine.shape[0])
        return result
