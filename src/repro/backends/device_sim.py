"""Device-sim backend: real numerics plus simulated-GPU kernel profiles.

Numerically this backend is the ``cached`` fast path, whose numerics do not
depend on the spreading method.  It then attaches the per-stage
:class:`~repro.gpu.profiler.KernelProfile` records the paper's cost model
prices: method-specific spread/interp kernels, the cuFFT launches (recorded by
:class:`~repro.gpu.fft.DeviceFFT`), and the deconvolution passes.  Plans on
this backend therefore report the paper's three timings (``exec``, ``total``,
``total+mem``) after every execute -- it is the default backend.

The method reaches only the profiles, through
:func:`~repro.core.spread.spread_kernel_profiles` /
:func:`~repro.core.interp.interp_kernel_profiles`;
:mod:`repro.metrics.modeling` builds its paper-scale estimates through the
same two calls, so modelled benchmarks and executed plans can never disagree
about what a method costs.
"""

from __future__ import annotations

from ..core.deconvolve import deconvolve_kernel_profile
from ..core.interp import interp_kernel_profiles
from ..core.options import SpreadMethod
from ..core.spread import spread_kernel_profiles
from .cached import CachedBackend

__all__ = ["DeviceSimBackend"]


class DeviceSimBackend(CachedBackend):
    """Profiled execution on the simulated device; see module docstring."""

    name = "device_sim"
    records_profiles = True

    @staticmethod
    def _launch_stage(plan, pipeline, stage, n_trans, build):
        """Record one fused launch per stage kernel.

        ``build()`` returns the stage's per-transform kernel profiles.  The
        batched engine processes all ``n_trans`` transforms of a stage in a
        single pass, so the *work* scales with the batch but the launch does
        not -- matching cuFINUFFT's batched kernels.  The scaled profiles
        depend only on the plan and its point set, so they are built on the
        first execute and kept with the point set
        (:meth:`~repro.core.plan.Plan._point_state_value`).

        Each launch first passes the device's fault gate
        (:meth:`~repro.gpu.device.Device.check_launch`), on every execute: an
        attached :class:`~repro.faults.FaultInjector` may raise a transient
        kernel failure, an injected OOM or a device-lost error here -- the
        stage boundary where a real ``cudaGetLastError`` would report them.
        """
        profiles = plan._point_state_value(
            (stage, n_trans), lambda: [prof.scaled(n_trans) for prof in build()]
        )
        for prof in profiles:
            plan.device.check_launch(prof.name)
            pipeline.add_kernel(prof, phase="exec")

    # ------------------------------------------------------------------ #
    def spread(self, plan, strengths, pipeline, out=None):
        fine = super().spread(plan, strengths, pipeline, out=out)

        def build():
            points = plan.point_set
            subproblems = (points.subproblems(plan.opts.max_subproblem_size)
                           if plan.method is SpreadMethod.SM else None)
            return spread_kernel_profiles(
                plan.method, points.sort, plan.kernel, plan.precision,
                plan.opts.threads_per_block, plan.device.spec,
                subproblems=subproblems,
            )

        self._launch_stage(plan, pipeline, "spread", strengths.shape[0], build)
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
        self._launch_stage(
            plan, pipeline, "deconvolve", fine_hat.shape[0],
            lambda: [deconvolve_kernel_profile(
                plan.n_modes, plan.precision.complex_itemsize)],
        )
        return modes

    def precorrect(self, plan, modes, pipeline, out=None):
        fine = super().precorrect(plan, modes, pipeline, out=out)
        self._launch_stage(
            plan, pipeline, "precorrect", modes.shape[0],
            lambda: [deconvolve_kernel_profile(
                plan.n_modes, plan.precision.complex_itemsize, name="precorrect")],
        )
        return fine

    def interp(self, plan, fine, pipeline, out=None):
        result = super().interp(plan, fine, pipeline, out=out)
        self._launch_stage(
            plan, pipeline, "interp", fine.shape[0],
            lambda: interp_kernel_profiles(
                plan.interp_method, plan.point_set.sort, plan.kernel, plan.precision,
                plan.opts.threads_per_block, plan.device.spec,
            ),
        )
        return result
