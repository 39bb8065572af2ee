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
        self._mode_index = None
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
        return [ix.ravel() for ix in self._open_mode_index()]

    def _open_mode_index(self):
        """``np.ix_`` of :meth:`_mode_slices`, built once (read-only arrays)."""
        if self._mode_index is None:
            idx = []
            for nm, nf in zip(self.modes_shape, self.fine_shape):
                k = np.arange(-(nm // 2), (nm + 1) // 2, dtype=np.int64)
                idx.append(np.mod(k, nf))
            index = np.ix_(*idx)
            for ix in index:
                ix.flags.writeable = False
            self._mode_index = index
        return self._mode_index

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
        gathered = fine_hat[lead + self._open_mode_index()]
        if out is not None:
            np.multiply(gathered, self.as_broadcast_factors(out.dtype), out=out)
            return out
        result = gathered * self.as_broadcast_factors(gathered.dtype)
        if dtype is not None:
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
        fine[lead + self._open_mode_index()] = modes * self.as_broadcast_factors(dtype)
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
