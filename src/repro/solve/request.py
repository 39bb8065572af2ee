"""Solve request/response types and the solve driver.

A :class:`SolveRequest` is one inverse-NUFFT problem: recover the image
modes ``f`` from nonuniform samples ``c`` by solving the density-compensated
normal equations ``A^H W A f = A^H W c`` with (preconditioned) CG, where
``A`` is the type-2 forward model over the request's trajectory.  The
:func:`execute_solve` driver runs one request end to end -- weights, adjoint
right-hand side, normal operator (Toeplitz-accelerated by default), CG -- on
plans that are either owned or leased from a
:class:`~repro.service.TransformService` pool, and is the single
implementation behind both the direct :func:`repro.solve.inverse_nufft`
convenience and the service's sharded ``solve`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.base import backend_name
from ..core.options import Precision, integral_mode_counts, validate_isign
from ..core.pointset import validated_point_arrays
from .cg import pcg_solve
from .dcf import pipe_menon_weights
from .operators import (
    AdjointOperator,
    ForwardOperator,
    NormalOperator,
    validate_weights,
)
from .toeplitz import ToeplitzNormalOperator

__all__ = ["SolveRequest", "SolveResult", "execute_solve"]

_COORD_FIELDS = ("x", "y", "z")


@dataclass(eq=False)
class SolveRequest:
    """One inverse-NUFFT problem (eagerly validated, like a transform request).

    Parameters
    ----------
    n_modes : tuple of int
        Image mode counts ``(N1[, N2[, N3]])`` to reconstruct.
    data : ndarray
        Measured samples: shape ``(M,)`` for one right-hand side or
        ``(n_rhs, M)`` for a batch (e.g. coils/frames sharing the
        trajectory; the service shards batches across its fleet).
    x[, y[, z]] : ndarray
        Trajectory coordinates, one 1-D ``(M,)`` array per dimension, in
        ``[-pi, pi)``.
    eps : float
        NUFFT tolerance of every transform in the solve.
    precision : str
        ``"single"`` or ``"double"``.
    isign : int
        Exponent sign of the forward model (``+1`` default).
    backend : str
        Execution backend of every plan in the solve (``"auto"`` =
        ``device_sim``, which also records the modelled per-iteration cost;
        ``"cached"`` for pure-numerics throughput).
    weights : str, ndarray or None
        ``"pipe-menon"`` (default) computes density-compensation weights,
        an array supplies them, ``None`` solves the unweighted problem.
    normal : str
        ``"toeplitz"`` (default) applies ``A^H W A`` as the padded-FFT
        convolution; ``"explicit"`` applies the two NUFFTs per iteration.
    tol, maxiter : float, int
        CG stopping controls (relative residual / iteration cap).
    shift : float
        Tikhonov regularization ``(A^H W A + shift I)``.
    dcf_iters : int
        Pipe--Menon iterations when ``weights="pipe-menon"``.
    tag : object
        Opaque token echoed on the result.
    deadline_s : float, optional
        Modelled-time budget (seconds) for the solve's device work; a solve
        whose modelled ``exec`` cost exceeds it raises
        :class:`~repro.service.DeadlineExceededError`.
    """

    n_modes: tuple
    data: np.ndarray
    x: np.ndarray
    y: np.ndarray = None
    z: np.ndarray = None
    eps: float = 1e-6
    precision: str = "double"
    isign: int = 1
    backend: str = "auto"
    weights: object = "pipe-menon"
    normal: str = "toeplitz"
    tol: float = 1e-8
    maxiter: int = 50
    shift: float = 0.0
    dcf_iters: int = 8
    tag: object = None
    deadline_s: float = None

    def __post_init__(self):
        self.n_modes = integral_mode_counts(np.atleast_1d(self.n_modes))
        self.ndim = len(self.n_modes)
        coords = validated_point_arrays([getattr(self, f) for f in _COORD_FIELDS],
                                        self.ndim, _COORD_FIELDS, owner="solve")
        for name, arr in zip(_COORD_FIELDS, coords):
            setattr(self, name, arr)
        m = coords[0].shape[0]
        self.n_points = m

        self.data = np.asarray(self.data)
        self.batched = self.data.ndim == 2
        if self.data.shape[-1:] != (m,) or self.data.ndim not in (1, 2):
            raise ValueError(
                f"data must have shape ({m},) or (n_rhs, {m}), got "
                f"{self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data contains non-finite values")
        self.n_rhs = self.data.shape[0] if self.batched else 1

        self.eps = float(self.eps)
        if not np.isfinite(self.eps) or self.eps <= 0:
            raise ValueError(f"eps must be a finite positive tolerance, got {self.eps}")
        self.precision = Precision.parse(self.precision).value
        self.backend = backend_name(self.backend)
        self.isign = validate_isign(self.isign)
        if self.normal not in ("toeplitz", "explicit"):
            raise ValueError(
                f"normal must be 'toeplitz' or 'explicit', got {self.normal!r}"
            )
        if isinstance(self.weights, str):
            if self.weights != "pipe-menon":
                raise ValueError(
                    f"weights must be 'pipe-menon', an array or None, got "
                    f"{self.weights!r}"
                )
        else:
            self.weights = validate_weights(self.weights, m)
        self.tol = float(self.tol)
        self.maxiter = int(self.maxiter)
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")
        self.shift = float(self.shift)
        if self.shift < 0 or not np.isfinite(self.shift):
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")
        self.dcf_iters = int(self.dcf_iters)
        if self.deadline_s is not None:
            self.deadline_s = float(self.deadline_s)
            if not np.isfinite(self.deadline_s) or self.deadline_s <= 0.0:
                raise ValueError(
                    f"deadline_s must be a finite positive budget, "
                    f"got {self.deadline_s}"
                )

    def points(self):
        """The per-dimension coordinate arrays as a list."""
        return [getattr(self, _COORD_FIELDS[d]) for d in range(self.ndim)]

    def rhs_rows(self):
        """The data as a ``(n_rhs, M)`` view (batched or not)."""
        return self.data if self.batched else self.data[None]

    def replace_data(self, rows, tag=None, weights="inherit"):
        """A shard of this request carrying ``rows`` of the data batch.

        ``weights`` overrides the request's weights field (the service's
        sharded path resolves ``"pipe-menon"`` once and hands every shard
        the computed array); the default inherits this request's value.
        """
        kwargs = {f: getattr(self, f) for f in _COORD_FIELDS[:self.ndim]}
        if isinstance(weights, str) and weights == "inherit":
            weights = self.weights
        return SolveRequest(
            n_modes=self.n_modes, data=rows, eps=self.eps,
            precision=self.precision, isign=self.isign, backend=self.backend,
            weights=weights, normal=self.normal, tol=self.tol,
            maxiter=self.maxiter, shift=self.shift, dcf_iters=self.dcf_iters,
            tag=self.tag if tag is None else tag,
            deadline_s=self.deadline_s, **kwargs,
        )


@dataclass(eq=False)
class SolveResult:
    """Answer to one :class:`SolveRequest` (or one shard of it).

    Attributes
    ----------
    x : ndarray
        Reconstructed image(s): shape ``n_modes``, or ``(n_rhs, *n_modes)``
        for a batched request.
    residual_norms : list of list of float
        Per-RHS relative-residual history (entry 0 = initial residual).
    n_iter : list of int
        Per-RHS CG iteration counts.
    converged : list of bool
        Per-RHS convergence flags.
    weights : ndarray or None
        The density-compensation weights actually used.
    normal : str
        Normal-operator strategy that ran (``"toeplitz"`` / ``"explicit"``).
    device_ids : list of int
        Fleet devices the solve (or its shards) ran on (-1 = own device).
    modelled_seconds : dict
        Modelled cost decomposition: ``psf_build`` (one-time Toeplitz kernel,
        0 for explicit), ``rhs_build`` (adjoint of the data), ``per_iteration``,
        ``iterations`` (total across RHS), ``exec`` (everything combined) and
        the ``h2d_bytes``/``d2h_bytes`` moved.
    tag : object
        The request's tag, echoed back.
    """

    x: np.ndarray = None
    residual_norms: list = field(default_factory=list)
    n_iter: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    weights: np.ndarray = None
    normal: str = "toeplitz"
    device_ids: list = field(default_factory=list)
    modelled_seconds: dict = field(default_factory=dict)
    tag: object = None


def execute_solve(request, service=None, device=None):
    """Run one :class:`SolveRequest` end to end on one device.

    With ``service`` given, every plan (DCF, adjoint RHS, PSF or explicit
    forward/adjoint) is leased from the service's pool -- repeated solves
    over the same trajectory geometry skip all planning.  ``device`` pins
    the leases (the service's sharded path sets it); otherwise the
    least-loaded device wins per lease.

    Returns
    -------
    SolveResult
    """
    if not isinstance(request, SolveRequest):
        raise TypeError(f"expected a SolveRequest, got {type(request).__name__}")
    points = request.points()
    common = dict(eps=request.eps, precision=request.precision,
                  isign=request.isign, backend=request.backend,
                  service=service, device=device)

    if isinstance(request.weights, str):
        weights = pipe_menon_weights(points, request.n_modes,
                                     n_iter=request.dcf_iters, eps=request.eps,
                                     isign=request.isign, service=service,
                                     device=device, backend=request.backend)
    else:
        weights = request.weights

    # One fused n_trans execute grids every right-hand side at once (the
    # PR-1 batched path), instead of one spread+FFT+deconvolve per row.
    rows = request.rhs_rows()
    adjoint = AdjointOperator(points, request.n_modes, n_trans=len(rows),
                              **common)
    try:
        stack = rows.astype(np.complex128)
        if weights is not None:
            stack = stack * weights[None, :]
        rhs = list(np.asarray(adjoint.apply(stack), dtype=np.complex128))
        rhs_build_s = adjoint.last_exec_seconds()
        device_ids = [getattr(adjoint.plan.device, "device_id", -1)]
    finally:
        adjoint.close()

    if request.normal == "toeplitz":
        normal = ToeplitzNormalOperator(points, request.n_modes,
                                        eps=request.eps,
                                        precision=request.precision,
                                        weights=weights, isign=request.isign,
                                        backend=request.backend,
                                        service=service, device=device)
        psf_build_s = normal.psf_build_seconds
        close_normal = lambda: None  # noqa: E731 - PSF plan already released
    else:
        forward = ForwardOperator(points, request.n_modes, **common)
        adj2 = AdjointOperator(points, request.n_modes, **common)
        normal = NormalOperator(forward, adj2, weights=weights)
        psf_build_s = 0.0
        close_normal = normal.close

    # No Jacobi preconditioner: the normal operator's diagonal is the
    # constant sum(w) (a scalar preconditioner is a CG no-op), so the
    # conditioning work lives entirely in the density-compensation weights
    # folded into the operator and right-hand side above.
    solutions, histories, iters, flags = [], [], [], []
    try:
        for b in rhs:
            result = pcg_solve(normal, b, preconditioner=None,
                               tol=request.tol, maxiter=request.maxiter,
                               shift=request.shift)
            solutions.append(result.x)
            histories.append(result.residual_norms)
            iters.append(result.n_iter)
            flags.append(result.converged)
        per_iter_s = normal.modelled_iteration_seconds()
    finally:
        close_normal()

    total_iters = int(sum(iters))
    cplx_size = Precision.parse(request.precision).complex_itemsize
    n_image = int(np.prod(request.n_modes))
    modelled = {
        "psf_build": psf_build_s,
        "rhs_build": rhs_build_s,
        "per_iteration": per_iter_s,
        "iterations": total_iters,
        "exec": psf_build_s + rhs_build_s + per_iter_s * total_iters,
        "h2d_bytes": int(rows.nbytes + sum(p.nbytes for p in points)),
        "d2h_bytes": int(len(rows) * n_image * cplx_size),
    }
    if request.deadline_s is not None and modelled["exec"] > request.deadline_s:
        from ..service.resilience import DeadlineExceededError

        raise DeadlineExceededError(
            f"solve's modelled device time {modelled['exec']:.6f}s exceeds "
            f"deadline_s={request.deadline_s}"
        )
    x = np.stack(solutions) if request.batched else solutions[0]
    cplx = Precision.parse(request.precision).complex_dtype
    return SolveResult(
        x=x.astype(cplx, copy=False),
        residual_norms=histories, n_iter=iters, converged=flags,
        weights=weights, normal=request.normal, device_ids=device_ids,
        modelled_seconds=modelled, tag=request.tag,
    )
