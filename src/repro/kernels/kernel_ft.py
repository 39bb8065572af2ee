"""Fourier transforms of spreading kernels via Gauss-Legendre quadrature.

The deconvolution (correction) step of the NUFFT divides the retained Fourier
modes by samples of the kernel's continuous Fourier transform (paper Step 3 of
the type-1 algorithm).  The ES kernel has no simple closed-form transform, so
-- exactly as FINUFFT/cuFINUFFT do -- we evaluate

.. math::

    \\hat\\phi(\\xi) = \\int_{-1}^{1} \\phi(z)\\, e^{-i\\xi z}\\, dz
                    = 2\\int_0^1 \\phi(z) \\cos(\\xi z)\\, dz

by high-order Gauss-Legendre quadrature.  The kernel is smooth on its support
(up to the square-root endpoint behaviour) so a modest number of nodes gives
near machine accuracy for all mode indices we ever need.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["quadrature_kernel_ft", "kernel_fourier_series"]


@functools.lru_cache(maxsize=32)
def _gauss_legendre_unit(n_quad):
    """Gauss-Legendre nodes and weights mapped to ``[0, 1]`` (read-only).

    ``leggauss`` solves an eigenproblem of order ``n_quad``; memoizing it
    keeps that cost out of every plan construction.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    z = 0.5 * (nodes + 1.0)
    wq = 0.5 * weights
    z.flags.writeable = False
    wq.flags.writeable = False
    return z, wq


def _default_n_quad(kernel_width, max_abs_xi):
    """Number of Gauss-Legendre nodes resolving the kernel and frequency range.

    Empirically ~10 nodes per oscillation of ``cos(xi z)`` on ``[0, 1]`` plus a
    floor proportional to the kernel width gives <1e-14 quadrature error.
    """
    oscillations = max_abs_xi / (2.0 * np.pi) + 1.0
    return int(max(32, 8 * kernel_width, np.ceil(10 * oscillations)))


def quadrature_kernel_ft(kernel, xi, n_quad=None):
    """Continuous Fourier transform of a normalized kernel at frequencies ``xi``.

    Parameters
    ----------
    kernel : callable
        The kernel evaluated on its normalized support ``[-1, 1]``; must be
        even and vectorized (``ESKernel``, ``GaussianKernel`` and
        ``KaiserBesselKernel`` instances all qualify).  The ``width``
        attribute, if present, refines the default quadrature order.
    xi : array_like
        Frequencies (radians per unit of the normalized coordinate).
    n_quad : int, optional
        Number of Gauss-Legendre nodes on ``[0, 1]``.  Auto-selected when
        omitted.

    Returns
    -------
    ndarray
        Real transform values with the same shape as ``xi``.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    width = getattr(kernel, "width", 8)
    if n_quad is None:
        n_quad = _default_n_quad(width, float(np.max(np.abs(xi))) if xi.size else 0.0)

    # Gauss-Legendre on [0, 1]; kernel is even so FT = 2 * int_0^1 phi cos(xi z) dz.
    z, wq = _gauss_legendre_unit(int(n_quad))
    phi_vals = kernel(z)  # (n_quad,)
    # (len(xi), n_quad) cosine matrix; fine for the sizes used here.
    cos_mat = np.cos(np.outer(xi.ravel(), z))
    out = 2.0 * cos_mat @ (wq * phi_vals)
    return out.reshape(np.shape(xi))


def kernel_fourier_series(kernel, n_fine, n_modes, n_quad=None):
    """Samples of the rescaled periodized kernel's Fourier coefficients.

    On a fine grid of ``n_fine`` points covering ``[-pi, pi)`` the physical
    (rescaled) kernel is ``psi(x) = phi(x / alpha)`` with half-width
    ``alpha = w * pi / n_fine`` (paper Eq. (8)).  Its Fourier coefficients at
    integer frequency ``k`` are

    .. math::

        \\hat\\psi(k) = \\alpha\\, \\hat\\phi(\\alpha k),

    and the correction factors of paper Step 3 are
    ``p_k = h / \\hat\\psi(k) = (2/w) / \\hat\\phi(\\alpha k)`` per dimension
    (with ``h = 2 pi / n_fine``).

    This helper returns ``\\hat\\phi(\\alpha k)`` for the centred mode indices
    ``k in I_{n_modes}`` (paper Eq. (2)); the deconvolution module combines the
    per-dimension factors and the ``(2/w)^d`` prefactor.

    Parameters
    ----------
    kernel : ESKernel or compatible
        Kernel with a ``width`` attribute.
    n_fine : int
        Fine (upsampled) grid size in this dimension.
    n_modes : int
        Number of retained output modes ``N`` in this dimension.
    n_quad : int, optional
        Quadrature order override.

    Returns
    -------
    ndarray, shape (n_modes,)
        ``\\hat\\phi(alpha * k)`` for ``k = -floor(n_modes/2), ..., ceil(n_modes/2)-1``.
    """
    if n_modes > n_fine:
        raise ValueError(
            f"number of modes ({n_modes}) cannot exceed the fine grid size ({n_fine})"
        )
    k = np.arange(-(n_modes // 2), (n_modes + 1) // 2, dtype=np.float64)
    alpha = kernel.width * np.pi / n_fine
    return quadrature_kernel_ft(kernel, alpha * k, n_quad=n_quad)
