"""Density-compensation weights (Pipe--Menon iteration).

Nonuniform trajectories oversample parts of k-space (radial and spiral
trajectories pile samples near the origin), so the unweighted adjoint
``A^H c`` blurs: the normal operator ``A^H A`` is far from the identity.
Density-compensation function (DCF) weights ``w_j`` fix this by making the
weighted quadrature ``sum_j w_j e^{-i l.x_j}`` approximate the continuous
integral ``delta_{l,0}`` -- equivalently, flattening the point-spread
function of ``A^H W A`` to a near-delta.  The classic Pipe--Menon fixed
point iterates ``w <- w / (P w)`` where ``P`` is the sampling PSF evaluated
*at the sample locations*, here computed as one forward/adjoint NUFFT pair
per iteration.

Used by the solve layer both as the diagonal (data-domain) preconditioner of
the weighted normal equations ``A^H W A f = A^H W c`` and to build the
Toeplitz kernel, so the CG inner loop converges in a handful of iterations
on radial/spiral trajectories instead of crawling.
"""

from __future__ import annotations

import numpy as np

from .operators import AdjointOperator, ForwardOperator, operator_geometry

__all__ = ["pipe_menon_weights"]


def pipe_menon_weights(points, n_modes, n_iter=8, eps=1e-6, isign=1,
                       w0=None, service=None, device=None, backend="cached"):
    """Pipe--Menon density-compensation weights for one trajectory.

    Parameters
    ----------
    points : sequence of ndarray
        Per-dimension sample coordinates, each ``(M,)``, in ``[-pi, pi)``.
    n_modes : tuple of int
        Image mode counts the reconstruction targets.
    n_iter : int
        Fixed-point iterations (a handful suffices; Pipe & Menon report
        convergence in <= ~10).
    eps : float
        NUFFT tolerance of the PSF applications (modest accuracy is fine --
        the weights feed a preconditioner, not the solution).
    isign : int
        Forward-model exponent sign (weights are sign-invariant, but the
        plans are keyed by it).
    w0 : ndarray, optional
        Initial weights (uniform by default).
    service : TransformService, optional
        Lease the two PSF plans from this service's pool instead of building
        throwaway plans.
    device : Device, optional
        Device for owned/leased plans.
    backend : str
        Execution backend of the PSF plans (``"cached"`` by default: the
        weights loop is pure numerics, no profiling needed).  Callers going
        through a service pass their solve's backend so the leased plans
        share the pool key with the solve's other plans.

    Returns
    -------
    ndarray, shape (M,), float64
        Positive weights normalized to ``sum(w) == 1``, so the weighted
        normal operator's diagonal ``t_0 = sum_j w_j`` is 1 and
        ``A^H W A ~= I`` on well-sampled trajectories.
    """
    n_modes, points = operator_geometry(points, n_modes)
    m = points[0].shape[0]
    n_iter = int(n_iter)
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    if w0 is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(w0, dtype=np.float64).copy()
        if w.shape != (m,):
            raise ValueError(f"w0 must have shape ({m},), got {w.shape}")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("w0 must be finite and positive")

    kwargs = dict(eps=eps, precision="double", isign=isign, service=service,
                  device=device, backend=backend)
    forward = ForwardOperator(points, n_modes, **kwargs)
    adjoint = AdjointOperator(points, n_modes, **kwargs)
    try:
        for _ in range(n_iter):
            # P w at the sample locations: grid the weights, re-evaluate at
            # the points.  Real and positive in exact arithmetic; the tiny
            # imaginary part is NUFFT noise.
            psf_at_samples = np.abs(forward.apply(adjoint.apply(
                w.astype(np.complex128))))
            floor = max(np.max(psf_at_samples), np.finfo(np.float64).tiny)
            np.maximum(psf_at_samples, 1e-12 * floor, out=psf_at_samples)
            w = w / psf_at_samples
    finally:
        forward.close()
        adjoint.close()
    total = float(np.sum(w))
    if not np.isfinite(total) or total <= 0:
        raise RuntimeError("Pipe-Menon iteration diverged (non-finite weights)")
    return w / total
