"""Reference backend: exact dense numpy numerics, one transform at a time.

This is the seed implementation's execution strategy: every stage loops
over the ``n_trans`` transforms, kernels are evaluated on the fly through the
exact ``exp(beta*(sqrt(1-z^2)-1))`` form (no plan-level stencil cache), and no
simulated-GPU profiles are recorded.  Spread and interp run the one
cache-free path (:func:`~repro.core.spread.spread_direct` /
:func:`~repro.core.interp.interp_direct`) whatever the plan's method: GM,
GM-sort and SM compute the same sum and differ only in their GPU cost.  It is the ground truth the ``cached``
and ``device_sim`` backends are validated against, and the baseline the
throughput benchmark measures speedups from.
"""

from __future__ import annotations

import numpy as np

from ..core.interp import interp_direct
from ..core.spread import spread_direct
from .base import ExecutionBackend

__all__ = ["ReferenceBackend"]


class ReferenceBackend(ExecutionBackend):
    """Per-transform exact numerics; see module docstring."""

    name = "reference"
    records_profiles = False

    def wants_stencil_cache(self):
        return False

    # ------------------------------------------------------------------ #
    @staticmethod
    def _stacked(parts, out):
        """Stack per-transform results, landing in ``out`` when provided.

        The reference loop keeps its double-precision internal math; honouring
        ``out=`` only changes where the stacked block is stored (the copy into
        single-precision storage is the ground-truth rounding step).
        """
        if out is not None:
            for t, part in enumerate(parts):
                out[t] = part
            return out
        return np.stack(parts)

    def spread(self, plan, strengths, pipeline, out=None):
        cplx = plan.precision.complex_dtype
        return self._stacked(
            [spread_direct(plan.fine_shape, plan.point_set.grid_coords, strengths[t],
                           plan.kernel, cplx)
             for t in range(strengths.shape[0])],
            out,
        )

    def fft_forward(self, plan, fine, pipeline):
        return np.stack([
            plan._fft.forward(fine[t].astype(np.complex128, copy=False))
            for t in range(fine.shape[0])
        ])

    def fft_inverse(self, plan, fine, pipeline):
        return np.stack([
            plan._fft.inverse(fine[t].astype(np.complex128, copy=False))
            for t in range(fine.shape[0])
        ])

    def deconvolve(self, plan, fine_hat, pipeline, out=None):
        cplx = plan.precision.complex_dtype
        return self._stacked(
            [plan.correction.truncate_and_scale(fine_hat[t], dtype=cplx)
             for t in range(fine_hat.shape[0])],
            out,
        )

    def precorrect(self, plan, modes, pipeline, out=None):
        return self._stacked(
            [plan.correction.pad_and_scale(modes[t], dtype=np.complex128)
             for t in range(modes.shape[0])],
            out,
        )

    def interp(self, plan, fine, pipeline, out=None):
        cplx = plan.precision.complex_dtype
        return self._stacked(
            [interp_direct(fine[t], plan.point_set.grid_coords, plan.kernel, cplx)
             for t in range(fine.shape[0])],
            out,
        )
