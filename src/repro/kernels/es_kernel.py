"""The "exponential of semicircle" (ES) spreading kernel.

The ES kernel is the window function used by FINUFFT and cuFINUFFT
(paper Eq. (5)):

.. math::

    \\phi_\\beta(z) = \\begin{cases}
        e^{\\beta(\\sqrt{1-z^2} - 1)}, & |z| \\le 1 \\\\
        0, & \\text{otherwise}
    \\end{cases}

For a user-requested tolerance ``eps`` the kernel width ``w`` (in fine-grid
points) and shape parameter ``beta`` are set by the paper's Eq. (6):

.. math::

    w = \\lceil \\log_{10}(1/\\varepsilon) \\rceil + 1, \\qquad \\beta = 2.30\\, w

which typically yields relative :math:`\\ell_2` errors close to ``eps``.

The kernel is evaluated in *rescaled* coordinates: on the fine grid with
spacing :math:`h = 2\\pi/n`, the physical kernel is
:math:`\\phi_\\beta(x/\\alpha)` with half-width :math:`\\alpha = w\\pi/n`, i.e.
it covers ``w`` fine-grid points.  All evaluation routines here work in units
of *fine grid points* (distance measured in grid cells), which is the natural
unit inside the spreader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ESKernel",
    "kernel_params_for_tolerance",
    "horner_coefficients",
    "MAX_KERNEL_WIDTH",
    "MIN_KERNEL_WIDTH",
]

#: Widest kernel supported (matches FINUFFT's internal limit; eps ~ 1e-15).
MAX_KERNEL_WIDTH = 16
#: Narrowest useful kernel (eps ~ 1e-1).
MIN_KERNEL_WIDTH = 2

#: beta/w ratio from paper Eq. (6).
_BETA_OVER_WIDTH = 2.30

#: Highest polynomial degree tried by the Horner fit.
_HORNER_MAX_DEGREE = 40
#: Kernel values per Horner evaluation block: the block's ``(w, points)``
#: columns of the node-major result (1 MB of float64) stay in cache through
#: the whole multiply-add chain.
_HORNER_BLOCK_VALUES = 1 << 17
#: Absolute fit-error floor: the edge-node values carry a sqrt singularity at
#: the support boundary, and below a few ulps of the unit kernel peak the
#: monomial-basis fit cannot improve in float64.
_HORNER_ERROR_FLOOR = 5e-15


def _exact_offsets(width, beta, frac):
    """Exact ES kernel values on the ``width`` nodes covering each ``frac``.

    Delegates to :meth:`ESKernel.evaluate_offsets` so the Horner fit can never
    desynchronize from the kernel definition it approximates.
    """
    return ESKernel(width=width, beta=beta).evaluate_offsets(frac)


def horner_coefficients(width, beta, store=None):
    """Piecewise-polynomial (Horner) approximation of the ES kernel stencil.

    For each of the ``width`` grid nodes ``r`` covered by a point, the kernel
    value ``phi((frac - r) / (w/2))`` is a smooth function of the fractional
    offset ``frac`` over its whole domain ``(w/2 - 1, w/2]``.  Mapping that
    domain onto ``u = 2*frac - (w - 1) in (-1, 1]``, each node's values are
    fitted by a single polynomial in ``u`` (Chebyshev interpolation converted
    to the monomial basis), exactly as upstream FINUFFT ships per-width Horner
    coefficient tables instead of evaluating ``exp(beta*(sqrt(1-z^2)-1))``
    directly.

    The degree is chosen adaptively: it grows until the dense-grid fit error
    drops below ``0.05 * 10**(1-w)`` (half an order of magnitude under the
    kernel's own approximation error, paper Eq. (6)) or the float64 floor,
    whichever is larger.

    Fits are memoized in an :class:`~repro.artifacts.ArtifactStore` (kind
    ``"horner"``, bounded in-memory entries; on-disk when the store has a
    root), replacing the process-global ``functools.lru_cache`` of earlier
    revisions.  ``store=None`` uses the process default
    (:func:`repro.artifacts.default_store`), so a fit is still computed at
    most once per process -- and at most once *ever* per shared store
    directory.

    Returns
    -------
    ndarray, shape (width, degree + 1)
        ``coeffs[r, k]`` is the coefficient of ``u**k`` for node ``r``.
        The array is read-only (it is shared between callers).
    """
    width = int(width)
    beta = float(beta)
    if store is None:
        from ..artifacts import default_store

        store = default_store()
    key = f"w{width}.beta{beta:.9g}"
    arrays = store.get_or_build(
        "horner", key, lambda: {"coeffs": _fit_horner_coefficients(width, beta)}
    )
    return arrays["coeffs"]


def _fit_horner_coefficients(width, beta):
    """The adaptive Chebyshev-to-monomial fit behind :func:`horner_coefficients`."""
    from numpy.polynomial import chebyshev as _cheb

    target = max(0.05 * 10.0 ** (1 - width), _HORNER_ERROR_FLOOR)

    frac_dense = np.linspace(width / 2.0 - 1.0, width / 2.0, 2001)
    exact_dense = _exact_offsets(width, beta, frac_dense)
    u_dense = 2.0 * frac_dense - (width - 1.0)

    best_coeffs = None
    best_err = np.inf
    for degree in range(width + 2, _HORNER_MAX_DEGREE + 1):
        # Chebyshev points of the first kind on u in [-1, 1].
        u = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
        vals = _exact_offsets(width, beta, 0.5 * (u + width - 1.0))
        coeffs = np.empty((width, degree + 1))
        for r in range(width):
            coeffs[r] = _cheb.cheb2poly(_cheb.chebfit(u, vals[:, r], degree))
        approx = np.zeros((u_dense.shape[0], width))
        approx[:] = coeffs[:, -1]
        for k in range(degree - 1, -1, -1):
            approx *= u_dense[:, None]
            approx += coeffs[:, k]
        err = float(np.abs(approx - exact_dense).max())
        if err < best_err:
            best_err = err
            best_coeffs = coeffs
        if err < target:
            break
    best_coeffs.setflags(write=False)
    return best_coeffs


def kernel_params_for_tolerance(eps, upsampfac=2.0):
    """Return ``(w, beta)`` for a requested relative tolerance ``eps``.

    Implements paper Eq. (6): ``w = ceil(log10(1/eps)) + 1``, ``beta = 2.30 w``,
    clipped to the supported range ``[MIN_KERNEL_WIDTH, MAX_KERNEL_WIDTH]``.

    Parameters
    ----------
    eps : float
        Requested relative l2 tolerance, ``0 < eps < 1``.
    upsampfac : float, optional
        Upsampling factor sigma.  The paper fixes ``sigma = 2`` and so do we;
        the argument exists so that the formula's provenance is explicit and
        future smaller-sigma extensions have a hook.

    Returns
    -------
    w : int
        Kernel width in fine-grid points.
    beta : float
        ES shape parameter.

    Raises
    ------
    ValueError
        If ``eps`` is not in ``(0, 1)`` or ``upsampfac != 2``.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"tolerance eps must lie in (0, 1), got {eps!r}")
    if upsampfac != 2.0:
        raise ValueError(
            "only upsampling factor sigma = 2 is supported (paper Sec. I.B limitation (3))"
        )
    w = int(np.ceil(np.log10(1.0 / eps))) + 1
    w = max(MIN_KERNEL_WIDTH, min(MAX_KERNEL_WIDTH, w))
    beta = _BETA_OVER_WIDTH * w
    return w, beta


@dataclass(frozen=True)
class ESKernel:
    """Exponential-of-semicircle kernel with width ``w`` and parameter ``beta``.

    Instances are immutable and cheap; they carry only the two scalars plus
    the tolerance they were derived from (for reporting).

    Attributes
    ----------
    width : int
        Support width ``w`` in fine-grid points.  The kernel is nonzero on
        ``|z| <= w/2`` where ``z`` is measured in fine-grid points.
    beta : float
        Shape parameter.
    eps : float
        Tolerance the parameters were derived from (informational).
    """

    width: int
    beta: float
    eps: float = 0.0

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tolerance(cls, eps, upsampfac=2.0):
        """Build a kernel from a requested tolerance via paper Eq. (6)."""
        w, beta = kernel_params_for_tolerance(eps, upsampfac=upsampfac)
        return cls(width=w, beta=beta, eps=float(eps))

    def __post_init__(self):
        if self.width < MIN_KERNEL_WIDTH or self.width > MAX_KERNEL_WIDTH:
            raise ValueError(
                f"kernel width must be in [{MIN_KERNEL_WIDTH}, {MAX_KERNEL_WIDTH}], "
                f"got {self.width}"
            )
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    @property
    def half_width(self):
        """Kernel half-width ``w/2`` in fine-grid points."""
        return 0.5 * self.width

    def __call__(self, z):
        """Evaluate the normalized kernel ``phi_beta(z)`` for ``|z| <= 1``.

        ``z`` is the *normalized* argument (the paper's Eq. (5)); values with
        ``|z| > 1`` return 0.
        """
        z = np.asarray(z, dtype=np.float64)
        out = np.zeros_like(z)
        inside = np.abs(z) <= 1.0
        zi = z[inside]
        out[inside] = np.exp(self.beta * (np.sqrt(1.0 - zi * zi) - 1.0))
        return out

    def evaluate_grid_distance(self, dist):
        """Evaluate the kernel at distances measured in fine-grid points.

        The kernel support is ``|dist| <= w/2`` grid points, so the normalized
        argument is ``z = dist / (w/2)``.

        Parameters
        ----------
        dist : array_like
            Signed distances from the nonuniform point to fine-grid nodes,
            in units of the fine-grid spacing.

        Returns
        -------
        ndarray
            Kernel values, same shape as ``dist``.
        """
        dist = np.asarray(dist, dtype=np.float64)
        return self(dist / self.half_width)

    def evaluate_offsets(self, frac):
        """Evaluate kernel values on the ``w`` grid nodes covering each point.

        This is the core vectorized primitive the spreaders use.  For each
        nonuniform point with fractional grid coordinate ``x`` (in grid
        units), the spreader writes to the ``w`` consecutive grid nodes
        ``i0, i0+1, ..., i0+w-1`` where ``i0 = ceil(x - w/2)``.  Given
        ``frac = x - i0`` (a value in ``[w/2 - 1, w/2]``... in practice we
        simply pass ``x`` and ``i0`` via ``frac = x - i0``), the distances to
        those nodes are ``frac - 0, frac - 1, ..., frac - (w-1)``.

        Parameters
        ----------
        frac : ndarray, shape (M,)
            ``x - i0`` for each nonuniform point, i.e. the distance (in grid
            units) from the point to the *first* grid node it touches.

        Returns
        -------
        ndarray, shape (M, w)
            ``vals[j, r] = phi((frac[j] - r) / (w/2))``.
        """
        frac = np.asarray(frac, dtype=np.float64)
        offsets = np.arange(self.width, dtype=np.float64)
        dist = frac[:, None] - offsets[None, :]
        return self.evaluate_grid_distance(dist)

    def evaluate_offsets_horner(self, frac, store=None):
        """Horner-form piecewise-polynomial version of :meth:`evaluate_offsets`.

        Matches the exact form to better than ``0.1 * 10**(1-w)`` absolute
        error (or a few ulps for the widest kernels), while replacing the
        per-value ``exp(sqrt(...))`` with a short fused multiply-add chain --
        the same trade upstream FINUFFT makes with its precomputed Horner
        coefficient tables.  ``frac`` must lie in the stencil's natural domain
        ``(w/2 - 1, w/2]`` (guaranteed when derived from ``i0 = ceil(g - w/2)``).
        ``store`` selects the artifact store memoizing the coefficient fit
        (the process default when ``None``).

        The evaluation is node-major: per block of points, ``h[r, j]`` (node
        ``r``, point ``j``) runs the chain ``h *= u; h += coeffs[r, k]`` in
        the block's columns of a ``(w, M)`` array, so every numpy pass runs
        over the block's points instead of one point's ``w`` nodes.  The
        ``(M, w)`` result is that array's transpose, a view: ``.T`` of it is
        the contiguous node-major layout the stencil cache keeps.  Each value
        sees the multiply-add sequence of a point-major evaluation, so the
        result is bit-identical to it.
        """
        frac = np.asarray(frac, dtype=np.float64)
        coeffs = horner_coefficients(self.width, self.beta, store=store)
        w = self.width
        m = frac.shape[0]
        out = np.empty((w, m))
        block = max(1, _HORNER_BLOCK_VALUES // w)
        u = np.empty(min(m, block))
        for start in range(0, m, block):
            stop = min(m, start + block)
            hb, ub = out[:, start:stop], u[:stop - start]
            np.multiply(frac[start:stop], 2.0, out=ub)
            ub -= w - 1.0
            hb[...] = coeffs[:, -1, None]
            for k in range(coeffs.shape[1] - 2, -1, -1):
                hb *= ub
                hb += coeffs[:, k, None]
        return out.T

    # ------------------------------------------------------------------ #
    # analytic helpers
    # ------------------------------------------------------------------ #
    def fourier_transform(self, xi, n_quad=None):
        """Continuous Fourier transform ``\\hat\\phi_\\beta(xi)`` of the
        normalized kernel (support ``[-1, 1]``), via Gauss-Legendre quadrature.

        Uses the convention of paper Eq. (4):
        ``phihat(xi) = int_{-1}^{1} phi_beta(z) exp(-i xi z) dz`` -- the
        kernel is even so this is real:
        ``phihat(xi) = 2 int_0^1 phi_beta(z) cos(xi z) dz``.

        Parameters
        ----------
        xi : array_like
            Frequencies at which to evaluate.
        n_quad : int, optional
            Number of Gauss-Legendre nodes; defaults to a value safely
            resolving the kernel and the largest requested frequency.

        Returns
        -------
        ndarray
            Real values of the transform, same shape as ``xi``.
        """
        from .kernel_ft import quadrature_kernel_ft

        return quadrature_kernel_ft(self, xi, n_quad=n_quad)

    def estimated_error(self):
        """Heuristic relative error delivered by this (w, beta) pair.

        The paper states Eq. (6) "typically gives relative l2 errors close to
        eps", i.e. roughly ``10^{1-w}``.  Useful for reporting and for the
        accuracy-floor logic in baselines.
        """
        return 10.0 ** (1 - self.width)

    def describe(self):
        """One-line human-readable description (used by ``Plan.report``)."""
        return (
            f"ES kernel: w={self.width}, beta={self.beta:.3f}, "
            f"target eps={self.eps:g}, est. error={self.estimated_error():.1e}"
        )
