"""Toeplitz-accelerated normal operator: ``A^H W A`` as one padded FFT pair.

The normal operator of a type-2 NUFFT is (block-)Toeplitz:

.. math::

    (A^H W A)_{k,k'} = \\sum_j w_j e^{-is (k - k') . x_j} = t_{k - k'},

i.e. a discrete convolution of the image with the *point-spread kernel*
``t_l`` -- itself a type-1 NUFFT of the weights evaluated on the doubled mode
grid ``l in [-N, N)^d``.  Embedding the image into the ``2N`` grid turns the
convolution circular, so after a **one-time** type-1 call the CG inner loop
needs only a forward/inverse FFT pair of size ``2N`` per dimension and a
pointwise multiply: no spreading, no interpolation, no per-iteration
nonuniform work at all.  This is the standard Toeplitz trick of iterative
MRI/tomography reconstruction, and on the simulated device it removes the
spread/interp kernels that dominate every NUFFT execute -- the
``bench_solve`` benchmark gates the resulting modelled per-iteration speedup
at >= 2x over the explicit :class:`~repro.solve.operators.NormalOperator`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.deconvolve import deconvolve_kernel_profile
from ..core.options import Precision
from ..gpu.costmodel import CostModel
from ..gpu.fft import fft_kernel_profile
from .operators import AdjointOperator, operator_geometry, validate_weights

__all__ = ["ToeplitzNormalOperator"]


class ToeplitzNormalOperator:
    """Applies ``A^H W A`` as a circular convolution with a precomputed PSF.

    Parameters
    ----------
    points : sequence of ndarray
        Per-dimension nonuniform sample coordinates, each ``(M,)``, in
        ``[-pi, pi)`` -- the same points the forward/adjoint operators use.
    n_modes : tuple of int
        Image mode counts ``(N1[, N2[, N3]])``.
    eps : float
        NUFFT tolerance of the one-time PSF build (and the accuracy level of
        the embedded operator; matching the forward/adjoint tolerance keeps
        the Toeplitz and explicit paths within ~10 eps of each other).
    precision : str or Precision
        Output dtype convention (``apply`` computes in double internally).
    weights : ndarray or None
        Nonnegative density-compensation weights ``w_j``; ``None`` is the
        unweighted ``A^H A``.
    isign : int
        Exponent sign of the *forward* model ``A`` (``+1`` by default); the
        PSF is built with the adjoint's sign automatically.
    plan, service, device
        PSF-plan acquisition, passed to the
        :class:`~repro.solve.operators.AdjointOperator` that builds the PSF:
        borrow ``plan=`` (a type-1 plan with ``2N`` modes and the adjoint
        sign), lease from ``service=``, or construct an owned plan on
        ``device``.
    artifact_store : ArtifactStore, optional
        Warm-state store to load/save the PSF kernel transform (kind
        ``"psf"``).  Defaults to the service's store when leasing from a
        service; a warm entry skips the one-time type-1 build entirely
        (``psf_build_seconds`` is then 0).
    **plan_kwargs
        Extra :class:`~repro.core.plan.Plan` options for an owned/leased PSF
        plan (e.g. ``backend=``, ``method=``).

    Notes
    -----
    The PSF plan is only needed during construction; it is released/destroyed
    immediately after the kernel transform is in hand, so a pooled plan goes
    back to the pool before the first CG iteration runs.  ``apply`` is then
    pure FFT arithmetic plus one pointwise multiply on the ``2N`` embedding.
    Hermitian symmetry is enforced exactly by dropping the ``O(eps)``
    imaginary part of the kernel transform (``t_{-l} = conj(t_l)`` for real
    weights), so CG sees a genuinely Hermitian operator.
    """

    def __init__(self, points, n_modes, eps=1e-6, precision="double",
                 weights=None, isign=1, plan=None, service=None, device=None,
                 artifact_store=None, **plan_kwargs):
        self.n_modes, self.points = operator_geometry(points, n_modes)
        self.ndim = len(self.n_modes)
        self.n_points = int(self.points[0].shape[0])
        self.eps = float(eps)
        self.precision = Precision.parse(precision)
        self.isign = int(isign)
        self.embed_shape = tuple(2 * n for n in self.n_modes)
        self.weights = validate_weights(weights, self.n_points)
        if self.weights is None:
            psf_strengths = np.ones(self.n_points, dtype=np.complex128)
        else:
            psf_strengths = self.weights.astype(np.complex128)

        if artifact_store is None:
            artifact_store = getattr(service, "artifact_store", None)
        self.artifact_store = artifact_store

        # Warm path: the kernel transform is a pure function of the points,
        # weights and plan accuracy knobs, so a stored entry replaces the
        # one-time type-1 build outright (psf_build_seconds is then 0).
        warm = None
        key = None
        if artifact_store is not None:
            key = self._psf_key(psf_strengths)
            warm = artifact_store.load_arrays("psf", key)
        if warm is not None:
            self.psf_build_seconds = 0.0
            self._cost_model = CostModel(
                spec=self._spec_for(plan, service, device),
                precision_itemsize=self.precision.real_itemsize,
            )
            self.kernel_hat = warm["kernel_hat"]
            return

        # t_l = sum_j w_j e^{-is l.x_j} on the doubled (2N) mode grid,
        # ascending from -N per axis: every lag |k - k'| <= N - 1 the normal
        # operator can produce, in one type-1 call.  The PSF plan lives only
        # for that call, and its build is priced as setup + exec.
        with AdjointOperator(self.points, self.embed_shape, eps=self.eps,
                             precision=self.precision.value, isign=self.isign,
                             plan=plan, service=service, device=device,
                             **plan_kwargs) as psf_op:
            psf = np.asarray(psf_op.apply(psf_strengths), dtype=np.complex128)
            t = psf_op.plan.timings()
            self.psf_build_seconds = t["setup"] + t["exec"]
            self._cost_model = CostModel(
                spec=psf_op.plan.device.spec,
                precision_itemsize=self.precision.real_itemsize,
            )
        # ifftshift maps the ascending-centred lags onto circular order
        # (lag l at index l mod 2N); the kernel transform of real weights is
        # real up to the NUFFT tolerance, and taking the real part makes the
        # embedded operator exactly Hermitian.
        self.kernel_hat = np.real(np.fft.fftn(np.fft.ifftshift(psf)))
        if artifact_store is not None:
            artifact_store.save_arrays("psf", key,
                                       {"kernel_hat": self.kernel_hat})
            self.kernel_hat.setflags(write=False)

    def _psf_key(self, psf_strengths):
        """Artifact key of this operator's PSF (kind ``"psf"``).

        Mirrors a tuning signature: every input the kernel transform depends
        on -- points, weights, mode grid, tolerance, precision, sign --
        participates, digested so the key stays filename-sized.
        """
        h = hashlib.blake2b(digest_size=16)
        for p in self.points:
            h.update(np.ascontiguousarray(p).tobytes())
        h.update(np.ascontiguousarray(psf_strengths).tobytes())
        grid = "x".join(str(n) for n in self.n_modes)
        return (f"pts={h.hexdigest()}.grid={grid}.eps={self.eps:.9g}"
                f".prec={self.precision.value}.isign={self.isign:+d}")

    @staticmethod
    def _spec_for(plan, service, device):
        """Device spec for the cost model when no PSF plan was ever built."""
        if plan is not None:
            return plan.device.spec
        if device is not None:
            return device.spec
        if service is not None:
            return service.fleet.devices[0].spec
        from ..gpu.device import Device

        return Device().spec

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def apply(self, f):
        """``A^H W A f`` for one image (or a leading-axis stack of images).

        ``f`` has shape ``n_modes`` (axes ascending from ``-N//2``) or
        ``(B, *n_modes)``; the return matches, in the operator's precision.
        """
        f = np.asarray(f)
        batched = f.ndim == self.ndim + 1
        if f.shape[f.ndim - self.ndim:] != self.n_modes or \
                f.ndim not in (self.ndim, self.ndim + 1):
            raise ValueError(
                f"image has shape {f.shape}, expected {self.n_modes} "
                f"(or a (B, *{self.n_modes}) stack)"
            )
        lead = f.shape[:1] if batched else ()
        pad = np.zeros(lead + self.embed_shape, dtype=np.complex128)
        sel = (slice(None),) * len(lead) + tuple(slice(0, n) for n in self.n_modes)
        pad[sel] = f
        axes = tuple(range(len(lead), len(lead) + self.ndim))
        conv = np.fft.ifftn(np.fft.fftn(pad, axes=axes) * self.kernel_hat,
                            axes=axes)
        return conv[sel].astype(self.precision.complex_dtype, copy=False)

    __call__ = apply

    def diagonal(self):
        """The (constant) diagonal of the Toeplitz operator, ``t_0 = sum_j w_j``.

        ``1 / diagonal()`` is the natural image-domain Jacobi preconditioner;
        for a Toeplitz normal operator it is a pure scaling, so the heavy
        lifting of preconditioning lives in the density-compensation weights
        themselves (which flatten the *off*-diagonal decay).
        """
        if self.weights is None:
            return float(self.n_points)
        return float(np.sum(self.weights))

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def iteration_profiles(self):
        """Kernel profiles of one apply: two ``2N`` FFTs + pointwise multiply."""
        cplx = self.precision.complex_itemsize
        return [
            fft_kernel_profile(self.embed_shape, cplx, name="cufft_forward"),
            deconvolve_kernel_profile(self.embed_shape, cplx,
                                      name="toeplitz_multiply"),
            fft_kernel_profile(self.embed_shape, cplx, name="cufft_inverse"),
        ]

    def modelled_iteration_seconds(self):
        """Modelled kernel seconds of one apply on the PSF plan's device.

        Priced through the same :class:`~repro.gpu.costmodel.CostModel` the
        plans use, so the ``bench_solve`` speedup gate compares like with
        like: FFT-pair + multiply here versus spread + FFTs + interp on the
        explicit path.
        """
        return sum(self._cost_model.kernel_time(p)
                   for p in self.iteration_profiles())
