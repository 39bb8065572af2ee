"""Deconvolution (correction) step and mode truncation / zero-padding.

Type 1, step 3 (paper Eq. (10)): the fine-grid FFT output is truncated to the
central ``N_1 x ... x N_d`` modes and multiplied by the correction factors

.. math::

    p_k = \\prod_{i=1}^d \\frac{h_i}{\\hat\\psi_i(k_i)}
        = \\left(\\frac{2}{w}\\right)^d
          \\prod_{i=1}^d \\hat\\phi_\\beta(\\alpha_i k_i)^{-1}.

Type 2, step 1 (paper Eq. (11)) is the transpose: the input modes are
multiplied by the same factors and zero-padded onto the fine grid before the
inverse FFT.

The factors are separable, so we precompute one 1-D vector per dimension in
the planning stage (as the CUDA library does) and apply them with broadcasting.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..gpu.profiler import KernelProfile
from ..kernels.kernel_ft import kernel_fourier_series

__all__ = [
    "correction_factors_1d",
    "CorrectionFactors",
    "type1_deconvolve",
    "type2_precorrect",
    "deconvolve_kernel_profile",
]


def correction_factors_1d(kernel, n_fine, n_modes):
    """1-D correction factors ``(2/w) / phihat(alpha k)`` for the centred modes."""
    phihat = kernel_fourier_series(kernel, n_fine, n_modes)
    if np.any(phihat <= 0):
        raise ValueError(
            "kernel Fourier transform is not positive over the retained modes; "
            "the requested tolerance/grid combination is invalid"
        )
    return (2.0 / kernel.width) / phihat


class CorrectionFactors:
    """Precomputed separable correction factors for one plan.

    Parameters
    ----------
    kernel : ESKernel or compatible
    modes_shape : tuple of int
        Output mode counts ``(N1, ..., Nd)``.
    fine_shape : tuple of int
        Fine grid sizes ``(n1, ..., nd)``.
    """

    def __init__(self, kernel, modes_shape, fine_shape):
        if len(modes_shape) != len(fine_shape):
            raise ValueError("modes_shape and fine_shape must have equal length")
        self.modes_shape = tuple(int(n) for n in modes_shape)
        self.fine_shape = tuple(int(n) for n in fine_shape)
        self.ndim = len(modes_shape)
        self.factors = [
            correction_factors_1d(kernel, nf, nm)
            for nm, nf in zip(self.modes_shape, self.fine_shape)
        ]
        self._blocks = None
        self._broadcast = {}  # real dtype -> as_broadcast_factors(dtype)

    def as_dense(self, dtype=np.float64):
        """Full tensor-product factor array (for tests / small problems)."""
        out = self.factors[0].astype(dtype)
        for d in range(1, self.ndim):
            out = np.multiply.outer(out, self.factors[d].astype(dtype))
        return out

    # ------------------------------------------------------------------ #
    def _mode_slices(self):
        """Fine-grid (FFT-ordered) index arrays selecting the centred modes.

        The FFT output indexes frequency ``k`` at position ``k mod n_fine``;
        the centred modes ``k in [-N//2, (N+1)//2)`` therefore live at
        ``(k + n_fine) mod n_fine``.  We return, per dimension, the index
        vector in *ascending k* order.
        """
        return [np.mod(np.arange(-(nm // 2), (nm + 1) // 2, dtype=np.int64), nf)
                for nm, nf in zip(self.modes_shape, self.fine_shape)]

    def _mode_blocks(self):
        """The centred modes as contiguous blocks: ``(fine slices, mode slices)``.

        Per axis, the negative modes ``[-N//2, 0)`` sit at the end of the
        FFT-ordered fine grid and the others ``[0, (N+1)//2)`` at its start,
        so the modes form at most ``2^d`` boxes, each one slice per axis on
        both sides: the elements :meth:`_mode_slices` indexes, copied box by
        box without a fancy index.
        """
        if self._blocks is None:
            per_axis = []
            for nm, nf in zip(self.modes_shape, self.fine_shape):
                half = nm // 2
                segments = [(slice(nf - half, nf), slice(0, half))] if half else []
                segments.append((slice(0, nm - half), slice(half, nm)))
                per_axis.append(segments)
            self._blocks = [tuple(zip(*box)) for box in itertools.product(*per_axis)]
        return self._blocks

    def truncate_and_scale(self, fine_hat, dtype=None, out=None):
        """Type-1 step 3: select the central modes and apply the factors.

        Parameters
        ----------
        fine_hat : ndarray
            FFT of the fine grid, standard FFT ordering, shape ``fine_shape``
            or a stacked ``(n_trans, *fine_shape)`` batch.
        dtype : dtype, optional
            Output dtype when allocating (ignored if ``out`` is given).
        out : ndarray, optional
            Preallocated output of the result shape; written in place and
            returned (the zero-copy pipeline's terminal stage for type 1).

        Returns
        -------
        ndarray, shape ``modes_shape`` (or ``(n_trans, *modes_shape)``)
            Output Fourier coefficients ``f_k`` with ``k`` ascending from
            ``-N//2`` along every axis.
        """
        batched = fine_hat.ndim == self.ndim + 1
        if fine_hat.shape[fine_hat.ndim - self.ndim:] != self.fine_shape or \
                fine_hat.ndim not in (self.ndim, self.ndim + 1):
            raise ValueError(
                f"fine_hat has shape {fine_hat.shape}, expected {self.fine_shape}"
            )
        lead = (slice(None),) if batched else ()
        result = out
        if out is None:
            result = np.empty(fine_hat.shape[:fine_hat.ndim - self.ndim] + self.modes_shape,
                              dtype=fine_hat.dtype)
        factors = self.as_broadcast_factors(result.dtype)
        for fine_box, mode_box in self._mode_blocks():
            np.multiply(fine_hat[lead + fine_box], factors[mode_box],
                        out=result[lead + mode_box])
        if out is None and dtype is not None:
            result = result.astype(dtype, copy=False)
        return result

    def pad_and_scale(self, modes, dtype=np.complex128, out=None):
        """Type-2 step 1: scale the input modes and zero-pad to the fine grid.

        Accepts ``modes_shape`` or a stacked ``(n_trans, *modes_shape)``
        batch.  ``out``, when given, is a preallocated fine-grid-shaped
        array: it is zero-filled in place and the scaled modes scattered into
        it -- no fine-grid temporary is materialized.
        """
        modes = np.asarray(modes)
        batched = modes.ndim == self.ndim + 1
        if modes.shape[modes.ndim - self.ndim:] != self.modes_shape or \
                modes.ndim not in (self.ndim, self.ndim + 1):
            raise ValueError(
                f"modes has shape {modes.shape}, expected {self.modes_shape}"
            )
        lead_shape = modes.shape[:1] if batched else ()
        if out is not None:
            fine = out
            fine.fill(0)
            dtype = out.dtype
        else:
            fine = np.zeros(lead_shape + self.fine_shape, dtype=dtype)
        lead = (slice(None),) if batched else ()
        factors = self.as_broadcast_factors(dtype)
        for fine_box, mode_box in self._mode_blocks():
            fine[lead + fine_box] = modes[lead + mode_box] * factors[mode_box]
        return fine

    def as_broadcast_factors(self, dtype):
        """Tensor product of the 1-D factors via broadcasting (no big temp).

        Built once per real dtype and returned read-only.
        """
        real_dtype = np.real(np.zeros(1, dtype=dtype)).dtype
        out = self._broadcast.get(real_dtype)
        if out is None:
            for d in range(self.ndim):
                shape = [1] * self.ndim
                shape[d] = self.modes_shape[d]
                f = self.factors[d].reshape(shape)
                out = f if out is None else out * f
            out = out.astype(real_dtype)
            out.flags.writeable = False
            self._broadcast[real_dtype] = out
        return out


def type1_deconvolve(fine_hat, factors, dtype=None):
    """Functional wrapper of :meth:`CorrectionFactors.truncate_and_scale`."""
    return factors.truncate_and_scale(fine_hat, dtype=dtype)


def type2_precorrect(modes, factors, dtype=np.complex128):
    """Functional wrapper of :meth:`CorrectionFactors.pad_and_scale`."""
    return factors.pad_and_scale(modes, dtype=dtype)


def deconvolve_kernel_profile(modes_shape, complex_itemsize, name="deconvolve"):
    """Cost profile: one thread per output mode, embarrassingly parallel."""
    n_modes = float(np.prod(modes_shape))
    return KernelProfile(
        name=name,
        grid_blocks=max(1.0, n_modes / 256.0),
        block_threads=256.0,
        flops=4.0 * n_modes,
        stream_bytes=2.0 * n_modes * complex_itemsize,
    )
