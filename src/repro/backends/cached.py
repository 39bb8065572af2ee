"""Cached backend: fused batched numerics over the plan-level stencil cache.

The fast path introduced by the batched execution engine: ``set_pts``
precomputes the per-point kernel stencils (and, within budget, the CSR sparse
spread/interp operator), and every stage then processes the whole ``n_trans``
block in one fused pass.  Spreading and interpolation run through the
plan's :class:`~repro.core.pointset.PointSet` (its ``spread`` / ``interp``,
which the ranks of a :class:`~repro.cluster.DistributedPlan` call too), in
one of two engines, chosen by what the set holds:

* the CSR operator (within the fusion budget): a sparse mat-mat for
  spreading, the transposed sparse gather for interpolation, one real
  product over the interleaved real/imaginary block when ``n_trans > 1``;
* otherwise the windowed engine of :mod:`repro.core.windowed`, which works
  from the per-dimension stencils over a wrap-padded fine grid, whatever the
  plan's spreading method, in two regimes: crowded windows (pencils of
  points sharing one window cross-section) as dense real matrix products,
  every other point by tile GEMMs to spread and a window gather to
  interpolate (in 1D, per-point scatter and gather).

The stencil cache lists the points in bin-sort order (the GM-sort order of
the paper), so consecutive points touch nearby fine-grid memory; without the
CSR operator, in the windowed engine's order (its pencils' points first,
then the rest tile by tile).  Either way the point set's
``permutation`` names each listed point's caller index: spreading permutes
the strengths into that order once on the way in; interpolation scatters
its values back to the caller's point indices once on the way out
(``out[:, perm] = values``, any ``out`` layout).

The FFT is batched over all transforms and the correction factors broadcast.
No simulated-GPU profiles are recorded; this backend is pure throughput.
"""

from __future__ import annotations

import numpy as np

from .base import ExecutionBackend

__all__ = ["CachedBackend"]


class CachedBackend(ExecutionBackend):
    """Fused batched numerics over the stencil cache; see module docstring."""

    name = "cached"
    records_profiles = False

    def spread(self, plan, strengths, pipeline, out=None):
        if out is None:
            out = np.empty((strengths.shape[0],) + plan.fine_shape,
                           dtype=plan.precision.complex_dtype)
        return plan.point_set.spread(strengths, out)

    def fft_forward(self, plan, fine, pipeline):
        # Native precision end to end: pocketfft transforms complex64 blocks
        # without the historical complex128 round-trip (two full-grid copies).
        axes = tuple(range(1, plan.ndim + 1))
        return plan._fft.forward(fine, axes=axes)

    def fft_inverse(self, plan, fine, pipeline):
        axes = tuple(range(1, plan.ndim + 1))
        return plan._fft.inverse(fine, axes=axes)

    def deconvolve(self, plan, fine_hat, pipeline, out=None):
        return plan.correction.truncate_and_scale(
            fine_hat, dtype=plan.precision.complex_dtype, out=out
        )

    def precorrect(self, plan, modes, pipeline, out=None):
        return plan.correction.pad_and_scale(
            modes, dtype=plan.precision.complex_dtype, out=out
        )

    def interp(self, plan, fine, pipeline, out=None):
        if out is None:
            out = np.empty((fine.shape[0], plan.point_set.n_points),
                           dtype=plan.precision.complex_dtype)
        return plan.point_set.interp(fine, out)
