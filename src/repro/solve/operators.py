"""Forward/adjoint NUFFT operators for the inverse problem.

The inverse-NUFFT subsystem (see :mod:`repro.solve`) phrases image
reconstruction as the least-squares problem ``min_f ||A f - c||`` where the
*forward* operator ``A`` evaluates the image's Fourier series at the
nonuniform sample locations (a type-2 NUFFT) and its adjoint ``A^H``
grids the samples back onto the modes (a type-1 NUFFT with the opposite
exponent sign).  The wrappers here bind both to :class:`~repro.core.plan.Plan`
objects -- owned, borrowed, or leased from a
:class:`~repro.service.TransformService` pool -- and guarantee the adjoint
pairing ``<A x, y> == <x, A^H y>`` (machine precision up to the NUFFT
tolerance), which :func:`dot_test` verifies on random vectors.
"""

from __future__ import annotations

import numpy as np

from ..core.options import integral_mode_counts
from ..core.plan import Plan
from ..core.pointset import validated_point_arrays

__all__ = ["ForwardOperator", "AdjointOperator", "NormalOperator", "dot_test",
           "validate_weights", "operator_geometry"]


def operator_geometry(points, n_modes):
    """An operator's ``(n_modes, points)``, checked as ``Plan`` checks them.

    Mode counts must be integral; the points must be one real, finite 1-D
    array per mode axis (returned as float64).
    """
    n_modes = integral_mode_counts(n_modes)
    points = list(points)
    if len(points) != len(n_modes):
        raise ValueError(
            f"got {len(points)} coordinate arrays for a {len(n_modes)}D mode grid"
        )
    names = [f"points[{d}]" for d in range(len(points))]
    return n_modes, validated_point_arrays(points, len(points), names, owner="operator")


def validate_weights(weights, n_points):
    """Validate density-compensation weights: shape ``(M,)``, finite, >= 0.

    The single validator shared by :class:`NormalOperator`,
    :class:`~repro.solve.toeplitz.ToeplitzNormalOperator` and
    :class:`~repro.solve.request.SolveRequest`.  Returns the weights as a
    float64 array (``None`` passes through: the unweighted problem).
    """
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (int(n_points),):
        raise ValueError(
            f"weights must have shape ({int(n_points)},), got {weights.shape}"
        )
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and nonnegative")
    return weights


class _PlanOperator:
    """The one plan holder of the solve and M-TIP operators.

    It acquires the plan, binds its points and releases it.

    Exactly one of three acquisition modes applies:

    * ``plan=`` -- borrow a caller-managed plan (``close`` is a no-op);
    * ``service=`` -- lease from the service's pool (``close`` releases);
    * neither -- construct and own a fresh plan (``close`` destroys).

    The nonuniform ``points`` are bound at construction (``set_pts``), so
    every ``apply`` reuses the plan's bin sort and stencil cache -- the whole
    reason iterative solvers want planned transforms; :meth:`set_points`
    re-points the same plan (M-TIP does, every iteration).  A forward /
    adjoint pair on equal points keeps one sort and one CSR operator:
    ``Plan.set_pts`` shares the :class:`~repro.core.pointset.PointSet` a live
    plan holds for equal points when the two plans' keys agree.
    """

    _nufft_type = None

    def __init__(self, points, n_modes, eps=1e-6, precision="double", isign=1,
                 n_trans=1, plan=None, service=None, device=None, **plan_kwargs):
        self.n_modes, self.points = operator_geometry(points, n_modes)
        self.ndim = len(self.n_modes)
        self.n_points = int(self.points[0].shape[0])
        self.eps = float(eps)
        self.isign = int(isign)
        plan_isign = self._plan_isign()
        self._service = None
        self._owned = False
        if plan is not None:
            if service is not None:
                raise ValueError("pass either plan= or service=, not both")
            if plan.nufft_type != self._nufft_type:
                raise ValueError(
                    f"operator needs a type-{self._nufft_type} plan, got "
                    f"type {plan.nufft_type}"
                )
            if plan.n_modes != self.n_modes:
                raise ValueError(
                    f"borrowed plan has modes {plan.n_modes}, operator "
                    f"needs {self.n_modes}"
                )
            if plan.isign != plan_isign:
                raise ValueError(
                    f"borrowed plan has isign={plan.isign:+d}; this operator "
                    f"(forward-model isign={self.isign:+d}) needs a plan "
                    f"with isign={plan_isign:+d}"
                )
            self.plan = plan
        elif service is not None:
            self.plan = service.lease_plan(
                self._nufft_type, self.n_modes, n_trans=n_trans, eps=self.eps,
                precision=precision, isign=plan_isign, device=device,
                **plan_kwargs,
            )
            self._service = service
        else:
            self.plan = Plan(self._nufft_type, self.n_modes, n_trans=n_trans,
                             eps=self.eps, precision=precision,
                             isign=plan_isign, device=device, **plan_kwargs)
            self._owned = True
        # A failing set_pts must not leak the plan we just acquired: give a
        # lease back / destroy an owned plan before re-raising (a borrowed
        # plan stays the caller's problem, with its old points intact).
        try:
            self.plan.set_pts(*self.points)
        except BaseException:
            self.close()
            raise

    def _plan_isign(self):
        raise NotImplementedError

    def set_points(self, points):
        """Re-point the operator at new points, keeping its plan.

        The plan's kernel, fine grid and FFT plan survive; only the bin sort
        and stencil cache are redone.  Invalid points raise before the plan
        is touched.
        """
        _, points = operator_geometry(points, self.n_modes)
        self.plan.set_pts(*points)
        self.points, self.n_points = points, int(points[0].shape[0])
        return self

    def apply(self, vec, out=None):
        """Apply the operator to one vector (or an ``n_trans`` stack)."""
        return self.plan.execute(vec, out=out)

    __call__ = apply

    def last_exec_seconds(self):
        """Modelled kernel seconds of the most recent :meth:`apply`.

        Zero when the plan's backend records no profiles (``cached`` /
        ``reference``) or before the first apply.
        """
        pipeline = self.plan._exec_pipeline
        if pipeline is None:
            return 0.0
        return self.plan.cost_model.pipeline_times(
            pipeline, contention_factor=self.plan.device.contention_factor
        )["exec"]

    def close(self):
        """Release the plan: destroy if owned, give back if leased."""
        if self._service is not None:
            self._service.release_plan(self.plan)
            self._service = None
        elif self._owned:
            self.plan.destroy()
            self._owned = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class ForwardOperator(_PlanOperator):
    """The forward model ``A``: image modes -> nonuniform samples.

    ``(A f)_j = sum_k f_k exp(isign i k . x_j)`` -- a type-2 NUFFT with the
    operator's ``isign`` (``+1`` by default).  ``apply`` maps an array of
    shape ``n_modes`` (modes ascending from ``-N//2`` per axis) to the
    ``(M,)`` sample values.

    Parameters
    ----------
    points : sequence of ndarray
        Per-dimension sample coordinates in ``[-pi, pi)``, each ``(M,)``.
    n_modes : tuple of int
        Image mode counts ``(N1[, N2[, N3]])``.
    eps, precision, isign
        NUFFT tolerance, working precision and exponent sign of the forward
        model.
    plan, service, device, **plan_kwargs
        Plan acquisition (see :class:`_PlanOperator`): borrow ``plan=``,
        lease from ``service=``, or own a fresh plan (extra kwargs forwarded
        to :class:`~repro.core.plan.Plan`).
    """

    _nufft_type = 2

    def _plan_isign(self):
        return self.isign


class AdjointOperator(_PlanOperator):
    """The adjoint ``A^H``: nonuniform samples -> image modes.

    ``(A^H c)_k = sum_j c_j exp(-isign i k . x_j)`` -- a type-1 NUFFT with
    the *opposite* sign of the forward operator, so ``<A x, y> == <x, A^H y>``
    holds by construction.  ``isign`` here names the sign of the *forward*
    model this operator is adjoint to (``+1`` by default), matching
    :class:`ForwardOperator` so the pair is always built with the same value.
    ``apply`` maps ``(M,)`` sample values to an ``n_modes`` image.
    """

    _nufft_type = 1

    def _plan_isign(self):
        return -self.isign


class NormalOperator:
    """Explicit normal operator ``A^H W A`` (the baseline the Toeplitz path beats).

    Applies the forward and adjoint NUFFTs back to back, with an optional
    diagonal weighting ``W`` (density-compensation weights) in between:
    ``apply(f) = A^H (w * (A f))``.  Hermitian positive semi-definite by
    construction, so it can drive :func:`repro.solve.cg_solve` directly --
    at the cost of a spread *and* an interpolation per iteration, which is
    exactly what :class:`repro.solve.ToeplitzNormalOperator` eliminates.

    Parameters
    ----------
    forward : ForwardOperator
    adjoint : AdjointOperator
        Must share the forward operator's ``isign`` and points: one
        :class:`~repro.core.pointset.PointSet`, or equal coordinates.
    weights : ndarray or None
        Nonnegative per-sample weights ``w_j`` (``None`` = unweighted).
    """

    def __init__(self, forward, adjoint, weights=None):
        if forward.isign != adjoint.isign:
            raise ValueError(
                f"forward (isign={forward.isign:+d}) and adjoint "
                f"(isign={adjoint.isign:+d}) operators disagree on the "
                "forward-model sign"
            )
        if forward.n_modes != adjoint.n_modes:
            raise ValueError("forward and adjoint operators disagree on geometry")
        if (forward.plan.point_set is not adjoint.plan.point_set
                and not all(np.array_equal(p, q)
                            for p, q in zip(forward.points, adjoint.points))):
            raise ValueError("forward and adjoint operators act on different points")
        self.forward = forward
        self.adjoint = adjoint
        self.n_modes = forward.n_modes
        self.weights = validate_weights(weights, forward.n_points)

    def apply(self, f):
        """``A^H (w * (A f))`` for one image ``f`` of shape ``n_modes``."""
        samples = self.forward.apply(f)
        if self.weights is not None:
            samples = samples * self.weights
        return self.adjoint.apply(samples)

    __call__ = apply

    def modelled_iteration_seconds(self):
        """Modelled kernel seconds of one apply (after at least one apply).

        The sum of the forward and adjoint plans' most recent modelled exec
        times -- the per-CG-iteration cost the Toeplitz operator is gated
        against in ``bench_solve``.
        """
        return self.forward.last_exec_seconds() + self.adjoint.last_exec_seconds()

    def close(self):
        """Close both wrapped operators."""
        self.forward.close()
        self.adjoint.close()


def dot_test(forward, adjoint, rng=0, n_trials=3):
    """Adjoint consistency check: max relative error of ``<Ax,y> - <x,A^H y>``.

    Draws ``n_trials`` random image/sample vector pairs and compares the two
    inner products; the result is bounded by a small multiple of the NUFFT
    tolerance (machine epsilon for exact transforms).  Double-precision
    operator pairs at tight ``eps`` pass below ``1e-12``.

    Parameters
    ----------
    forward : ForwardOperator
    adjoint : AdjointOperator
        The pair to test (same points, modes and ``isign``).
    rng : seed or Generator
    n_trials : int

    Returns
    -------
    float
        ``max_t |<A x, y> - <x, A^H y>| / (||A x|| ||y||)`` over the trials.
    """
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(int(n_trials)):
        x = (rng.standard_normal(forward.n_modes)
             + 1j * rng.standard_normal(forward.n_modes))
        y = (rng.standard_normal(forward.n_points)
             + 1j * rng.standard_normal(forward.n_points))
        ax = np.asarray(forward.apply(x), dtype=np.complex128)
        aty = np.asarray(adjoint.apply(y), dtype=np.complex128)
        lhs = np.vdot(ax.ravel(), y.ravel())
        rhs = np.vdot(x.ravel(), aty.ravel())
        scale = np.linalg.norm(ax) * np.linalg.norm(y)
        if scale == 0.0:
            continue
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
