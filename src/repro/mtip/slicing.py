r"""M-TIP step i: slicing -- evaluate the 3D Fourier model on Ewald slices.

One 3D *type-2* NUFFT evaluates the current Fourier-space model at every slice
point of every image in the batch; this is the "Slicing" row of Table II (per
rank: N = 41, M = 1.02e6 slice points, eps = 1e-12, double precision).

Convention: the model is carried around as its uniform Fourier coefficients
``F_k`` (the centred DFT of the density), and a slice point ``q`` in
``[-pi, pi)^3`` samples the *continuous* transform

.. math::

    F(q) = \sum_m \rho(m)\, e^{-i m \cdot q},

which satisfies ``F(2 pi k / N) = F_k`` on the uniform grid.  This is exactly
a type-2 NUFFT whose "modes" are the real-space voxels ``rho(m)`` and whose
points are ``-q`` (the sign flip accounts for the forward-transform sign), so
the operator converts the model to real space once per call and feeds it to
the plan.
"""

from __future__ import annotations

import numpy as np

from ..solve.operators import ForwardOperator
from .phasing import centered_ifft

__all__ = ["slice_fourier_model", "SlicingOperator"]


def _slice_axes(slice_points):
    """The three coordinate columns of an ``(M, 3)`` slice-point array."""
    slice_points = np.asarray(slice_points, dtype=np.float64)
    if slice_points.ndim != 2 or slice_points.shape[1] != 3:
        raise ValueError(
            f"slice_points must have shape (M, 3), got {slice_points.shape}"
        )
    return tuple(slice_points[:, d] for d in range(3))


def _plan_options(service, backend, tune, tuner):
    """Plan options of an M-TIP operator: a leased plan is never tuned here.

    The service's own ``tune`` policy governs its pooled plans, so ``tune``
    and ``tuner`` reach only a plan the operator owns.
    """
    if service is not None:
        return {"backend": backend}
    return {"backend": backend, "tune": tune, "tuner": tuner}


class SlicingOperator:
    """Reusable slicing operator: one plan, many executes.

    M-TIP calls slicing every iteration with the *same* slice points (the
    orientations assigned to the images change slowly and the operator is
    rebuilt only when they do), so the plan/set_pts cost is amortized exactly
    as the paper's "exec" timing assumes.  The plan is held by a
    :class:`~repro.solve.ForwardOperator` on the negated slice points.

    Parameters
    ----------
    n_modes : tuple (N, N, N)
        Fourier model grid.
    slice_points : ndarray, shape (M, 3)
        Concatenated slice points from :func:`repro.mtip.ewald.ewald_slice_points`.
    eps : float
        NUFFT tolerance (1e-12 in the paper's M-TIP runs).
    device : Device, optional
        Simulated GPU to run on (for the multi-GPU drivers); with
        ``service`` it pins the lease to that fleet device.
    backend : str, optional
        Execution backend of the plan (see :mod:`repro.backends`); the
        default ``"auto"`` resolves to the profiled ``device_sim``.
    tune : str, optional
        Plan-parameter autotuning mode of the owned plan (``"off"``,
        ``"model"`` or ``"measure"``; see :mod:`repro.tuning`).  Ignored when
        the plan is leased from a ``service`` -- the service's own policy
        governs its pooled plans.
    tuner : Autotuner, optional
        Tuner to consult when tuning is enabled.
    service : TransformService, optional
        Lease the plan from a :class:`repro.service.TransformService` instead
        of constructing it: repeated operator builds with the same geometry
        (e.g. per M-TIP iteration or across reconstructions sharing the
        service) skip planning.  ``destroy`` returns the plan to the pool,
        and so does a failed construction.
    """

    def __init__(self, n_modes, slice_points, eps=1e-12, device=None, precision="double",
                 backend="auto", tune="off", tuner=None, service=None):
        # Points are negated: the type-2 NUFFT uses exp(+i k x) while the
        # forward (physics) transform uses exp(-i m q); see the module notes.
        self._forward = ForwardOperator(
            [-q for q in _slice_axes(slice_points)], n_modes, eps=eps,
            precision=precision, service=service, device=device,
            **_plan_options(service, backend, tune, tuner),
        )
        self.n_modes = self._forward.n_modes

    @property
    def n_points(self):
        """Number of slice points the operator is bound to."""
        return self._forward.n_points

    def set_points(self, slice_points):
        """Re-point the operator at a new slice-point set, keeping the plan.

        This is the cuFINUFFT ``setpts`` amortization applied to M-TIP: the
        plan (kernel, fine grid, correction factors, FFT plan) survives across
        solver iterations, and only the bin sort + stencil cache are redone
        when the assigned orientations move the slice points.
        """
        self._forward.set_points([-q for q in _slice_axes(slice_points)])
        return self

    def __call__(self, fourier_model):
        """Evaluate the model's continuous transform at every slice point.

        Parameters
        ----------
        fourier_model : ndarray, shape ``n_modes``
            Uniform Fourier coefficients (centred DFT of the density).

        Returns
        -------
        ndarray, shape ``(M,)``
        """
        fourier_model = np.asarray(fourier_model)
        if fourier_model.shape != self.n_modes:
            raise ValueError(
                f"fourier_model has shape {fourier_model.shape}, expected {self.n_modes}"
            )
        density = centered_ifft(fourier_model)
        return self._forward(density.astype(np.complex128))

    def nufft_seconds(self):
        """Modelled NUFFT time of the last execute (the Table II wall-clock column)."""
        return self._forward.plan.timings()

    def destroy(self):
        """Release the plan: destroy it if owned, give it back if leased."""
        self._forward.close()


def slice_fourier_model(fourier_model, slice_points, eps=1e-12, device=None,
                        precision="double", backend="auto"):
    """One-shot slicing convenience wrapper (builds and destroys the operator)."""
    op = SlicingOperator(np.asarray(fourier_model).shape, slice_points, eps=eps,
                         device=device, precision=precision, backend=backend)
    try:
        return op(fourier_model)
    finally:
        op.destroy()
