"""M-TIP step iii: merging -- grid slice data back onto the uniform 3D grid.

Merging solves, in the least-squares sense, for the uniform Fourier-space
model that matches the measured values on the known slices (paper Fig. 8).
The standard normal-equation / gridding approximation needs **two 3D type-1
NUFFTs** per iteration -- exactly what Table II's "Merging" row times:

* the *data* transform spreads the measured slice values,
* the *weight* transform spreads unit strengths, giving the sampling density
  of the slices on the uniform grid,

The estimator is the classic kernel-smoothed gridding ratio evaluated on the
uniform grid: both adjoint (type-1) NUFFT outputs are tapered in real space
(equivalent to convolving the scattered samples with a narrow Gaussian in
Fourier space) and transformed back, and the merged model is their ratio, with
modes whose sampling density is too low left at zero.
"""

from __future__ import annotations

import numpy as np

from ..solve.operators import AdjointOperator
from .phasing import centered_ifft
from .slicing import _plan_options, _slice_axes

__all__ = ["MergingOperator", "merge_slices"]


class MergingOperator:
    """Reusable merging operator: one plan shared by the two type-1 NUFFTs.

    The plan is held by a :class:`~repro.solve.AdjointOperator` on the slice
    points; ``service``, ``device``, ``tune`` and ``tuner`` acquire it as for
    :class:`repro.mtip.slicing.SlicingOperator` (``tune``/``tuner`` reach an
    owned plan only; a leased plan goes back to the service on ``destroy``
    or a failed construction).
    """

    def __init__(self, n_modes, slice_points, eps=1e-12, device=None, precision="double",
                 backend="auto", tune="off", tuner=None, service=None):
        self._adjoint = AdjointOperator(
            _slice_axes(slice_points), n_modes, eps=eps, precision=precision,
            service=service, device=device,
            **_plan_options(service, backend, tune, tuner),
        )
        self.n_modes = self._adjoint.n_modes
        self._weights = None
        self._taper = self._build_taper()

    @property
    def n_points(self):
        """Number of slice points the operator is bound to."""
        return self._adjoint.n_points

    def set_points(self, slice_points):
        """Re-point the operator at a new slice-point set, keeping the plan.

        The cached sampling density is invalidated alongside the plan's
        stencil cache (it depends on the same points).
        """
        self._adjoint.set_points(_slice_axes(slice_points))
        self._weights = None
        return self

    def _build_taper(self, width_modes=1.0):
        """Real-space Gaussian envelope implementing the Fourier-space smoothing.

        Multiplying the adjoint-NUFFT output (indexed by real-space voxel
        ``m``) by ``exp(-(m * sigma_q)^2 / 2)`` and transforming back is the
        same as convolving the scattered Fourier samples with a Gaussian of
        width ``sigma_q = width_modes * 2*pi/N`` -- i.e. gridding with a
        smooth window about one mode spacing wide.
        """
        taper = None
        for n in self.n_modes:
            m = np.arange(-(n // 2), (n + 1) // 2, dtype=np.float64)
            sigma_q = width_modes * 2.0 * np.pi / n
            env = np.exp(-0.5 * (m * sigma_q) ** 2)
            taper = env if taper is None else np.multiply.outer(taper, env)
        return taper

    def sampling_density(self, refresh=False):
        """Smoothed sampling density of the slices on the uniform Fourier grid.

        Computed from the second type-1 NUFFT (unit strengths), tapered and
        transformed exactly like the data term so the ratio is unbiased.
        """
        if self._weights is None or refresh:
            ones = np.ones(self.n_points, dtype=np.complex128)
            adjoint = self._adjoint(ones)
            self._weights = centered_ifft(adjoint * self._taper)
        return self._weights

    def __call__(self, slice_values, relative_cutoff=0.1):
        """Merge measured slice values into a uniform Fourier-space model.

        Parameters
        ----------
        slice_values : ndarray, shape (M,)
            Complex values measured (or estimated) at every slice point.
        relative_cutoff : float
            Modes whose sampling density is below ``relative_cutoff`` times
            the mean density are considered unobserved and set to zero (the
            spreading kernel leaks a little energy everywhere, so dividing by
            those near-zero weights would amplify noise enormously).

        Returns
        -------
        ndarray, shape ``n_modes``
        """
        slice_values = np.asarray(slice_values)
        if slice_values.shape != (self.n_points,):
            raise ValueError(
                f"slice_values must have shape ({self.n_points},), got {slice_values.shape}"
            )
        if not (0.0 < relative_cutoff < 1.0):
            raise ValueError(f"relative_cutoff must be in (0, 1), got {relative_cutoff}")
        adjoint = self._adjoint(slice_values.astype(np.complex128))
        numerator = centered_ifft(adjoint * self._taper)
        density = self.sampling_density()
        weight = np.abs(density)
        cutoff = relative_cutoff * float(weight.mean())
        if cutoff <= 0.0:
            raise RuntimeError("sampling density is identically zero; no slice points?")
        merged = numerator / np.maximum(weight, cutoff)
        merged[weight < cutoff] = 0.0
        return merged

    def nufft_seconds(self):
        """Modelled timing of the last type-1 execute."""
        return self._adjoint.plan.timings()

    def destroy(self):
        """Release the plan: destroy it if owned, give it back if leased."""
        self._adjoint.close()


def merge_slices(slice_values, slice_points, n_modes, eps=1e-12, device=None,
                 precision="double", relative_cutoff=0.1, backend="auto"):
    """One-shot merging convenience wrapper."""
    op = MergingOperator(n_modes, slice_points, eps=eps, device=device,
                         precision=precision, backend=backend)
    try:
        return op(slice_values, relative_cutoff=relative_cutoff)
    finally:
        op.destroy()
