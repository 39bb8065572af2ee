"""cuFFT-like FFT execution on the simulated device.

The NUFFT pipelines use a plain d-dimensional (inverse) FFT of the fine grid
(paper Step 2).  Numerically we delegate to ``scipy.fft`` (pocketfft), which
transforms single precision natively and is exact for our purposes; the
*cost* is modelled the way cuFFT behaves on a V100:

* an arithmetic term ``~5 N log2 N`` flops for a size-``N`` complex
  transform,
* a memory term of a few full passes over the data at streaming bandwidth
  (large multi-dimensional FFTs on GPUs are bandwidth bound),
* no plan-creation cost here: the paper excludes cuFFT's one-time
  ~0.15 s startup with a dummy ``cufftPlan1d`` call.  Only the service
  charges it (``CostModelConstants.cufft_startup_s``), on the plans its
  pool creates when ``charge_plan_creation`` is on.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .profiler import KernelProfile

__all__ = ["DeviceFFT", "fft_flops", "fft_kernel_profile"]

#: Number of effective full passes over the data a multi-dimensional
#: out-of-place cuFFT performs (read + write per dimension pass, fused).
_FFT_MEMORY_PASSES = 4.0


def fft_flops(shape):
    """Approximate flop count of a complex FFT of the given shape (5 N log2 N)."""
    n_total = int(np.prod(shape))
    if n_total <= 0:
        raise ValueError(f"invalid FFT shape {shape!r}")
    return 5.0 * n_total * max(1.0, np.log2(n_total))


def fft_kernel_profile(shape, itemsize_complex, name="cufft"):
    """Kernel profile of one (forward or inverse) FFT execution."""
    n_total = int(np.prod(shape))
    return KernelProfile(
        name=name,
        grid_blocks=max(1.0, n_total / 256.0),
        block_threads=256.0,
        flops=fft_flops(shape),
        stream_bytes=_FFT_MEMORY_PASSES * n_total * itemsize_complex,
    )


class DeviceFFT:
    """Executes FFTs numerically and records their cost profile.

    Parameters
    ----------
    pipeline : PipelineProfile or None
        If given, every transform appends its kernel profile there.
    """

    def __init__(self, pipeline=None):
        self.pipeline = pipeline
        # The last recorded profile and its key: a plan transforms one
        # geometry over and over, so it is built once, not per execute.
        self._last_profile = (None, None)

    def _record(self, shape, dtype, name, count=1):
        if self.pipeline is not None:
            key = (shape, np.dtype(dtype).itemsize, name, count)
            last_key, profile = self._last_profile
            if key != last_key:
                # cuFFT's batch API runs all ``count`` transforms behind a
                # single launch: the work scales with the batch, the launch
                # does not.
                profile = fft_kernel_profile(shape, key[1], name=name).scaled(count)
                self._last_profile = (key, profile.validate())
            self.pipeline.add_kernel(profile, phase="exec", checked=True)

    @staticmethod
    def _batch_geometry(grid, axes):
        """Transform shape and batch count for a (possibly batched) FFT."""
        if axes is None:
            return grid.shape, 1
        shape = tuple(grid.shape[a] for a in axes)
        batch = 1
        axes_set = {a % grid.ndim for a in axes}
        for a in range(grid.ndim):
            if a not in axes_set:
                batch *= grid.shape[a]
        return shape, batch

    def forward(self, grid, axes=None):
        """Forward FFT of a complex fine grid (paper Eq. (9)).

        Note the sign convention: the paper's type-1 step 2 uses
        ``exp(-2 pi i l k / n)`` which matches ``scipy.fft.fftn``.

        ``axes`` restricts the transform to those axes (cuFFT's batched
        execution over a leading ``n_trans`` axis); one *fused* kernel
        profile is recorded carrying the whole batch's work behind a single
        launch, as cuFFT's batch API behaves.
        """
        grid = np.asarray(grid)
        if not np.iscomplexobj(grid):
            raise TypeError("FFT input must be complex")
        shape, batch = self._batch_geometry(grid, axes)
        self._record(shape, grid.dtype, "cufft_forward", count=batch)
        return scipy.fft.fftn(grid, axes=axes).astype(grid.dtype, copy=False)

    def inverse(self, grid, axes=None):
        """Unnormalized inverse FFT (paper Eq. (12)): plain conjugate-sign sum.

        cuFFT's inverse is unnormalized (no 1/N factor), and the type-2
        algorithm wants exactly that: ``norm="forward"`` puts the 1/N on the
        forward transform and leaves the inverse a plain sum.
        """
        grid = np.asarray(grid)
        if not np.iscomplexobj(grid):
            raise TypeError("FFT input must be complex")
        shape, batch = self._batch_geometry(grid, axes)
        self._record(shape, grid.dtype, "cufft_inverse", count=batch)
        return scipy.fft.ifftn(grid, axes=axes, norm="forward").astype(
            grid.dtype, copy=False
        )
