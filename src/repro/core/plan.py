"""The cuFINUFFT plan interface: plan / set_pts / execute / destroy.

A :class:`Plan` mirrors the Python interface of the cuFINUFFT library
(Sec. V-A of the paper):

.. code-block:: python

    plan = Plan(nufft_type=1, n_modes=(256, 256, 256), eps=1e-5)
    plan.set_pts(x, y, z)              # bin-sorts the nonuniform points
    f = plan.execute(c)                # repeatable with new strength vectors
    plan.destroy()

Transforms of types 1, 2 and 3 are supported in one, two and three
dimensions.  ``execute`` is an explicit stage pipeline -- spread -> FFT ->
deconvolve for type 1, deconvolve -> FFT -> interpolate for type 2, and the
type-2∘scale∘type-1 composition over a rescaled fine grid for type 3 -- where
every stage is dispatched through the plan's
:class:`~repro.backends.base.ExecutionBackend` (``Opts.backend``): exact
per-transform ``reference`` numerics, the fused ``cached`` fast path, or the
profiled ``device_sim`` default.

The plan owns the kernel parameters, the fine-grid geometry, the precomputed
correction factors, the simulated device allocations (so GPU RAM usage can be
reported, Table I), and the pipeline profiles from which the paper's three
timings -- "exec", "total" and "total+mem" -- are derived by the cost model.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..gpu.costmodel import CostModel
from ..gpu.device import Device
from ..gpu.fft import DeviceFFT
from ..gpu.profiler import PipelineProfile
from ..gpu.threadblock import sm_fits
from ..kernels.es_kernel import ESKernel
from ..metrics import allocs
from .binsort import setup_kernel_profiles, to_grid_coordinates
from .deconvolve import CorrectionFactors
from .gridsize import fine_grid_shape, type3_axis
from .options import Opts, SpreadMethod, integral_count, integral_mode_counts
from .pointset import (PointSet, PointSetKey, build_point_set, live_point_set,
                       validated_point_arrays)
from .windowed import tiles_pay
from .workspace import Workspace

__all__ = ["Plan", "CUDA_CONTEXT_MB"]

#: Baseline device memory claimed by a CUDA context + cuFFT/cuRAND libraries;
#: added to RAM reports so they are comparable with the paper's
#: ``nvidia-smi`` numbers (Table I reports 381 MB for a tiny problem).
CUDA_CONTEXT_MB = 377.0

_COORD_NAMES = ("x", "y", "z")
_TARGET_NAMES = ("s", "t", "u")


class Plan:
    """A planned type-1, type-2 or type-3 NUFFT on the simulated GPU.

    Parameters
    ----------
    nufft_type : int
        1 (nonuniform -> uniform), 2 (uniform -> nonuniform) or
        3 (nonuniform -> nonuniform).
    n_modes : tuple of int, or int
        Output (type 1) / input (type 2) mode counts ``(N1[, N2[, N3]])``.
        A type-3 transform has no uniform modes: pass the dimension instead
        (``Plan(3, 2)``), or a tuple whose length gives the dimension.
    n_trans : int, optional
        Number of transforms sharing the same nonuniform points (batched
        strength/coefficient vectors).
    eps : float, optional
        Requested relative tolerance; sets the kernel width via Eq. (6).
    opts : Opts, optional
        Tuning options; keyword overrides below take precedence.
    device : Device, optional
        Simulated device to run on (a fresh V100 by default).
    tune : str, optional
        Plan-parameter autotuning mode (see :mod:`repro.tuning`): ``"off"``
        (default, the paper's hard-coded Remark-1/2 choices), ``"model"``
        (search method/bins/``Msub``/threads against the cost model at
        ``set_pts`` time, using the actual point coordinates) or
        ``"measure"`` (additionally re-rank the model's finalists by
        executing small real plans).  The winning configuration is cached by
        problem signature in the tuner's :class:`~repro.tuning.TuningCache`.
    tuner : Autotuner, optional
        Tuner to consult when ``tune != "off"``; defaults to the process-wide
        :func:`repro.tuning.default_autotuner`, so plans share one cache.
    **opt_overrides
        Any :class:`~repro.core.options.Opts` field, e.g. ``method="SM"``,
        ``precision="double"``, ``backend="cached"``, ``bin_shape=(16, 16, 4)``
        or ``isign=+1`` (exponent sign; defaults to the paper's per-type
        convention, ``-1`` for type 1 and ``+1`` for types 2 and 3).

    A plan is a context manager: leaving the ``with`` block calls
    :meth:`destroy`, which is idempotent (a destroyed plan only refuses new
    work, it never errors on repeated destruction).
    """

    def __init__(self, nufft_type, n_modes, n_trans=1, eps=1e-6, opts=None,
                 device=None, tune="off", tuner=None, artifact_store=None,
                 **opt_overrides):
        if nufft_type not in (1, 2, 3):
            raise ValueError(f"nufft_type must be 1, 2 or 3, got {nufft_type}")
        n_trans = integral_count("n_trans", n_trans, 1)
        eps = float(eps)
        if not np.isfinite(eps) or eps <= 0.0:
            raise ValueError(f"eps must be a finite positive tolerance, got {eps}")

        self.nufft_type = int(nufft_type)
        if self.nufft_type == 3:
            if np.isscalar(n_modes):
                ndim = int(n_modes)
            else:
                ndim = len(tuple(n_modes))
            if ndim not in (1, 2, 3):
                raise ValueError(
                    f"type-3 plans support dimensions 1-3, got dimension {ndim}"
                )
            self.n_modes = None
            self.ndim = ndim
        else:
            self.n_modes = integral_mode_counts(n_modes)
            self.ndim = len(self.n_modes)
        self.n_trans = n_trans
        self.eps = eps

        from ..tuning import TUNE_MODES

        if tune not in TUNE_MODES:
            raise ValueError(f"tune must be one of {TUNE_MODES}, got {tune!r}")
        self.tune_mode = tune
        self._tuner = tuner
        #: Warm-state :class:`~repro.artifacts.ArtifactStore` this plan loads
        #: stencil caches (and Horner fits) from instead of recomputing.
        #: ``None`` keeps the plan self-contained.
        self.artifact_store = artifact_store
        #: :class:`~repro.tuning.TuningResult` applied by the last ``set_pts``
        #: (None when tuning is off or no points have been set yet).
        self.tuned = None

        base_opts = opts if opts is not None else Opts()
        self.opts = base_opts.copy(**opt_overrides) if opt_overrides else base_opts.copy()
        # Pristine pre-tuning options: every tuning run searches from (and
        # reports its speedup against) the configuration the caller asked
        # for, not whatever a previous set_pts tuned the plan to.
        self._pretune_opts = self.opts.copy()
        self.precision = self.opts.precision
        #: Exponent sign ``+1``/``-1`` of this transform (``Opts.isign``,
        #: defaulting to the paper's per-type convention).
        self.isign = self.opts.resolve_isign(self.nufft_type)
        self.method = self.opts.resolve_method(self.nufft_type, self.ndim, self.precision)
        self.backend = get_backend(self.opts.resolve_backend())
        if self.nufft_type == 3 and self.opts.spread_only:
            raise ValueError("spread_only is not supported for type-3 plans")

        self.device = device if device is not None else Device()
        self.cost_model = CostModel(
            spec=self.device.spec,
            precision_itemsize=self.precision.real_itemsize,
        )

        # Kernel, fine grid, correction factors (planning stage).  A type-3
        # plan defers its fine-grid geometry to set_pts: the grid depends on
        # the spatial and spectral extents of the points themselves.
        self.kernel = ESKernel.from_tolerance(self.eps, upsampfac=self.opts.upsampfac)
        self.bin_shape = self.opts.resolved_bin_shape(self.ndim)
        if self.nufft_type == 3:
            self.fine_shape = None
            self.correction = None
        else:
            self.fine_shape = fine_grid_shape(
                self.n_modes, self.kernel.width, self.opts.upsampfac
            )
            self.correction = CorrectionFactors(self.kernel, self.n_modes, self.fine_shape)

        # SM feasibility check mirrors paper Remark 2: fall back to GM-sort when
        # the padded bin no longer fits in shared memory.
        self._apply_sm_fallback()

        # Device allocations that live for the duration of the plan.  The
        # fine grid and the cuFFT workspace live in the plan's Workspace:
        # allocated once (eagerly, sized for the full n_trans batch, so RAM
        # reports include them before the first execute) and reused by every
        # execute call.  A type-3 plan defers them to set_pts, where the
        # derived fine-grid geometry becomes known.
        self._buffers = []
        self._plan_pipeline = PipelineProfile()
        self.workspace = Workspace(self.device, reuse=self.opts.reuse_workspace)
        cplx = self.precision.complex_dtype
        if self.nufft_type != 3:
            batch = (self.n_trans,) + self.fine_shape
            self.workspace.array("fine grid", batch, cplx,
                                 pipeline=self._plan_pipeline)
            self.workspace.array("cufft workspace", batch, cplx,
                                 pipeline=self._plan_pipeline)
            for d, (nm, fac) in enumerate(zip(self.n_modes, self.correction.factors)):
                self._alloc((nm,), self.precision.real_dtype, f"correction factors dim{d}")

        # Point state (populated by set_pts).  set_pts is all-or-nothing: a
        # call that raises during validation or host-side planning leaves the
        # previous point set fully usable (see the set_pts docstring).  Only
        # a simulated device-allocation failure mid-upload drops to this
        # explicit "no points" state (``_points_ready`` False), where execute
        # refuses to run rather than operating on half-initialized geometry.
        self._points_ready = False
        #: The :class:`~repro.core.pointset.PointSet` of the current points
        #: (sort, stencils, point-only memo), possibly shared with other plans.
        self.point_set = None
        self._point_buffers = []
        self._derived = {}
        self.n_points = 0
        self.n_targets = 0

        # Type-3 state (populated by set_pts on type-3 plans).
        self._t3_inner = None
        self._t3_prephase = None
        self._t3_postphase = None
        #: Set by the simple calls (:func:`~repro.core.simple.invoke`): a
        #: type-3 ``set_pts`` then plans without the CSR operator where
        #: :func:`~repro.core.simple.skips_operator` would, judged on the grid
        #: it derives anyway, so the extents are computed once.
        self._one_shot = False

        # Profiles.  Only this plan's own allocations are recorded: on a
        # shared device (multiple plans, or a type-3 plan's inner type-2)
        # other plans' live buffers must not be double-counted in "mem".
        # (Workspace buffers recorded themselves into _plan_pipeline above.)
        for buf in self._buffers:
            self._plan_pipeline.add_transfer("alloc", buf.nbytes, buf.label)
        self._setup_pipeline = PipelineProfile()
        self._exec_pipeline = None
        self._destroyed = False

        self._fft = DeviceFFT()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @property
    def interp_method(self):
        """Interpolation strategy: SM has no interpolation analogue, so it
        falls back to GM-sort (paper Sec. III-B)."""
        return SpreadMethod.GM_SORT if self.method is SpreadMethod.SM else self.method

    def _alloc(self, shape, dtype, label):
        buf = self.device.memory.allocate(shape, dtype, label=label)
        self._buffers.append(buf)
        return buf

    def _require_live(self):
        if self._destroyed:
            raise RuntimeError("plan has been destroyed")

    def _require_points(self):
        self._require_live()
        if not self._points_ready:
            raise RuntimeError("set_pts must be called before execute")

    def _point_state_value(self, key, build):
        """``build()``, computed once per point set and kept until the next one.

        Holds what the plan and its current point set fix -- the modelled
        kernel profiles of each stage, the service's price of an execute --
        so a warm execute does not re-derive them.  :meth:`_release_point_state`
        drops every value, so each ``set_pts`` (the equal-size ``recycle``
        path included) starts empty.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def _apply_sm_fallback(self):
        """Paper Remark 2: SM falls back to GM-sort when the padded bin
        exceeds the device's shared memory."""
        if self.method is SpreadMethod.SM and not sm_fits(
            self.bin_shape, self.kernel.width, self.precision.complex_itemsize,
            self.device.spec,
        ):
            self.method = SpreadMethod.GM_SORT

    # ------------------------------------------------------------------ #
    # autotuning (consulted by set_pts, when enabled)
    # ------------------------------------------------------------------ #
    def _maybe_tune(self, grid_modes, n_points, coords=None):
        """Tune the spread parameters for the incoming point set.

        Runs *before* the previous point state is released, so a tuning
        failure preserves the all-or-nothing ``set_pts`` contract.  The tuned
        fields (method, bin shape, ``Msub``, threads per block, stencil
        budget) replace the current options; the execution backend is left
        untouched -- a live plan has already bound it.
        """
        if self.tune_mode == "off":
            return
        from ..tuning import TuningProblem, default_autotuner

        if self._tuner is None:
            self._tuner = default_autotuner()
        problem = TuningProblem(
            self.nufft_type, tuple(grid_modes), n_points, self.eps,
            self.precision.value, coords=coords,
        )
        result = self._tuner.tune(problem, mode=self.tune_mode,
                                  base_opts=self._pretune_opts,
                                  spec=self.device.spec)
        self.tuned = result
        self.opts = result.apply_to(self._pretune_opts, include_backend=False)
        self.method = self.opts.resolve_method(self.nufft_type, self.ndim,
                                               self.precision)
        self.bin_shape = self.opts.resolved_bin_shape(self.ndim)
        self._apply_sm_fallback()

    # ------------------------------------------------------------------ #
    # set_pts
    # ------------------------------------------------------------------ #
    def set_pts(self, x=None, y=None, z=None, s=None, t=None, u=None, *,
                points=None):
        """Register (and bin-sort) the nonuniform points.

        For type-1/2 plans, pass one coordinate array per dimension
        (``x[, y[, z]]``), each living in ``[-pi, pi)`` (any real values are
        folded in).  A type-3 plan additionally takes one *target frequency*
        array per dimension (``s[, t[, u]]``), which may be arbitrary reals:
        set_pts derives the rescaled fine grid covering both extents.

        Calling ``set_pts`` again replaces the previous points, exactly as in
        cuFINUFFT, so one plan can be reused across point sets of equal size
        or not.

        Plans given equal points share one :attr:`point_set`: when a live
        plan already holds a set for coordinates equal to these, under the
        same key (below), this plan takes that set and skips the sort and
        the stencil build -- a type-1/type-2 pair on one trajectory keeps
        one CSR operator.  It still records the same uploads, allocations
        and setup kernels, so its outputs, :meth:`timings` and
        :meth:`gpu_ram_mb` are those of a plan that built its own set.
        Re-setting a plan's own points keeps its set.

        ``points=`` takes another plan's :attr:`point_set` in place of
        coordinates: the plan attaches that set, as above.  Its key -- fine
        grid, kernel, ``kernel_eval``, stencil budget, bin shape, and whether
        it carries stencils -- must match this plan's; a mismatch, a type-3
        or tuned plan, or a set no plan holds any more raises ``ValueError``
        (:meth:`can_attach` tells in advance).

        Failure contract (all transform types): set_pts is all-or-nothing.
        Every validation and host-side planning step -- shape/finiteness
        checks, the type-3 fine-grid derivation and its kernel-transform
        positivity check -- runs *before* the previous point set is released,
        so a ``set_pts`` that raises leaves the plan executing on the old
        points exactly as if it had never been called.  Only a simulated
        device-allocation failure partway through the upload (e.g. OOM on the
        type-3 fine grid) leaves the plan in the explicit "no points" state,
        where ``execute`` raises until a subsequent set_pts succeeds.
        """
        self._require_live()
        if points is not None:
            if any(a is not None for a in (x, y, z, s, t, u)):
                raise ValueError("pass coordinate arrays or points=, not both")
            return self._attach(points)
        coords = validated_point_arrays((x, y, z), self.ndim, _COORD_NAMES)
        if self.nufft_type == 3:
            targets = validated_point_arrays((s, t, u), self.ndim, _TARGET_NAMES,
                                             "target frequency")
            return self._set_pts_type3(coords, targets)
        if s is not None or t is not None or u is not None:
            raise ValueError(
                "target frequencies (s, t, u) are only accepted by type-3 plans"
            )

        # Autotuning (when enabled) re-selects method/bins/Msub for this
        # point set; it runs on the validated inputs before any state is
        # released, like every other fallible planning step.
        self._maybe_tune(self.n_modes, coords[0].shape[0], coords=coords)

        # All remaining planning is host-side arithmetic that cannot fail on
        # validated inputs, so compute it before releasing the old point set
        # (the all-or-nothing contract above).  The lookup of a held set on
        # equal points comes first too, so this plan's own set is still held.
        grid_coords = [
            to_grid_coordinates(coords[d], self.fine_shape[d]) for d in range(self.ndim)
        ]
        key = self._point_set_key()
        points = live_point_set(grid_coords, key)
        # An equal point count gives an operator of equal size: the new
        # stencil cache may then be written into the old one's arrays.
        previous = self.point_set if coords[0].shape[0] == self.n_points else None
        self._release_point_state()
        self._upload_points(coords)
        self._install(points or build_point_set(grid_coords, key, self.kernel,
                                                store=self.artifact_store,
                                                previous=previous))
        self._points_ready = True
        return self

    def _point_set_key(self, fine_shape=None):
        return PointSetKey(
            fine_shape=self.fine_shape if fine_shape is None else fine_shape,
            width=self.kernel.width, beta=self.kernel.beta,
            kernel_eval=self.opts.kernel_eval,
            stencil_budget=self.opts.stencil_budget, bin_shape=self.bin_shape,
            stencils=self.backend.wants_stencil_cache(),
            weights=np.dtype(self.precision.real_dtype).name,
        )

    def _attach_mismatch(self, points):
        """Why this plan cannot attach ``points`` (``None`` when it can)."""
        if not isinstance(points, PointSet):
            return f"points= takes a PointSet, got {type(points).__name__}"
        if self.nufft_type == 3:
            return "a type-3 plan derives its own point set and cannot attach one"
        if self.tune_mode != "off":
            return (f"a tuned plan (tune={self.tune_mode!r}) re-plans for its "
                    "points and cannot attach a point set")
        if points.holders == 0:
            return "the point set is no longer held by any plan"
        mine = self._point_set_key()
        field = points.key.mismatch(mine)
        if field is not None:
            return (f"point set {field} {getattr(points.key, field)!r} does not "
                    f"match this plan's {getattr(mine, field)!r}")
        return None

    def can_attach(self, points):
        """Whether ``set_pts(points=points)`` would attach ``points``."""
        return self._attach_mismatch(points) is None

    def _attach(self, points):
        reason = self._attach_mismatch(points)
        if reason is not None:
            error = ValueError if isinstance(points, PointSet) else TypeError
            raise error(f"cannot attach point set: {reason}")
        self._release_point_state()
        self._upload_points(points.grid_coords)
        self._install(points)
        self._points_ready = True
        return self

    def _release_point_state(self):
        """Free buffers and precompute tied to the previous point set.

        Callers must complete every fallible validation/planning step *before*
        invoking this (the all-or-nothing set_pts contract).  Once called, the
        plan has no usable points until the in-flight set_pts finishes, so a
        simulated allocation failure during the upload leaves the plan
        refusing execute with a clear error instead of crashing deep in a
        stage on stale geometry.
        """
        self._points_ready = False
        for buf in self._point_buffers:
            buf.free()
        self._point_buffers = []
        self._derived = {}
        self._setup_pipeline = PipelineProfile()
        self._drop_point_set()
        if self._t3_inner is not None:
            self._t3_inner.destroy()
            self._t3_inner = None
        self._t3_prephase = None
        self._t3_postphase = None

    def _drop_point_set(self):
        if self.point_set is not None:
            self.point_set.release()
            self.point_set = None

    def _upload_points(self, coords):
        real_dt = self.precision.real_dtype
        for d, c in enumerate(coords):
            buf = self.device.memory.from_host(c.astype(real_dt), label=f"points dim{d}")
            self._point_buffers.append(buf)
            self._setup_pipeline.add_transfer("h2d", buf.nbytes, f"points dim{d}")

    def _install(self, points):
        """Hold ``points`` and record the sort's buffers and setup kernels.

        Runs the same way whether the plan built ``points`` or shares
        them, so both report the same ``timings()`` and ``gpu_ram_mb()``.
        For type 3 the set holds the rescaled sources over the derived grid.
        """
        self.point_set = points.hold()
        self.n_points = m = points.n_points
        if self.method in (SpreadMethod.GM_SORT, SpreadMethod.SM) and self.opts.sort_points:
            for label in ("bin index", "sort permutation"):
                buf = self.device.memory.from_host(
                    np.zeros(m, dtype=np.int32), label=label
                )
                self._point_buffers.append(buf)
                self._setup_pipeline.add_transfer("alloc", 4 * m, label)
        for prof in setup_kernel_profiles(self.method, points.sort, self.precision,
                                          self.opts, spreads=self.nufft_type != 2):
            self._setup_pipeline.add_kernel(prof, phase="setup")

    # ------------------------------------------------------------------ #
    # type-3 planning (the "scale" of the type-2∘scale∘type-1 composition)
    # ------------------------------------------------------------------ #
    def _set_pts_type3(self, coords, targets):
        """Derive the rescaled fine grid and plan the inner type-2 transform.

        Following the standard (FINUFFT) type-3 algorithm: with per-dimension
        spatial half-extent ``X`` (sources, centred at ``cx``) and spectral
        half-extent ``S`` (targets, centred at ``cs``), the fine grid size is
        ``nf ~ 2 sigma S X / pi + w`` and the scale factor
        ``gamma = nf / (2 sigma S)`` maps sources into ``[-pi, pi)``.
        ``execute`` then spreads the (pre-phased) strengths onto this grid,
        evaluates the grid's trigonometric sum at the rescaled targets with an
        inner type-2 plan, and divides by the kernel transform at the exact
        (non-integer) target frequencies.
        """
        m = coords[0].shape[0]
        nk = targets[0].shape[0]

        sigma = self.opts.upsampfac
        w = self.kernel.width
        fine = []
        gamma = []
        centers_x = []
        centers_s = []
        spread_half = []
        for d in range(self.ndim):
            nf, cx, cs, half_s = type3_axis(coords[d], targets[d], w, sigma)
            fine.append(nf)
            gamma.append(nf / (2.0 * sigma * half_s))
            centers_x.append(cx)
            centers_s.append(cs)
            spread_half.append(half_s)

        fine_shape = tuple(fine)
        grid_coords = [
            to_grid_coordinates((coords[d] - centers_x[d]) / gamma[d], fine_shape[d])
            for d in range(self.ndim)
        ]

        # Pre-phase e^{isign i cs.(x-cx)} folds the target centring into the
        # strengths; the post factors carry the source centring
        # e^{isign i s.cx} and the kernel deconvolution at the exact target
        # frequencies.  Every exponential in the composition (pre-phase,
        # inner type-2, post-phase) carries the plan's ``isign``.  The
        # positivity check below is the last step that can reject the inputs,
        # so everything up to here runs on locals: a failure preserves the
        # previous point set (the all-or-nothing set_pts contract).
        prephase = np.zeros(m)
        postphase = np.zeros(nk)
        factors = np.ones(nk)
        for d in range(self.ndim):
            prephase += centers_s[d] * (coords[d] - centers_x[d])
            postphase += centers_x[d] * targets[d]
            alpha = w * np.pi / fine_shape[d]
            xi = alpha * gamma[d] * (targets[d] - centers_s[d])
            phihat = self.kernel.fourier_transform(xi)
            if np.any(phihat <= 0):
                raise ValueError(
                    "kernel Fourier transform is not positive over the target "
                    "frequencies; the requested tolerance is unattainable"
                )
            factors *= (2.0 / w) / phihat
        if self._one_shot and self.ndim > 1 and tiles_pay(m, fine_shape, w):
            self.opts = self.opts.copy(stencil_budget=0)
            self._pretune_opts = self._pretune_opts.copy(stencil_budget=0)

        # Tune the outer spread on the derived composition grid (the actual
        # spread coordinates are the rescaled sources; the tuner's sampled
        # statistics stand in for them).  Before _release_point_state, like
        # every other fallible step, and like the lookup of a held set.
        self._maybe_tune(fine_shape, m)
        key = self._point_set_key(fine_shape)
        points = live_point_set(grid_coords, key)
        rescaled_targets = [
            (targets[d] - centers_s[d]) * (np.pi / (sigma * spread_half[d]))
            for d in range(self.ndim)
        ]
        # A set the new inner plan will find stays held while the inner plan
        # is replaced; any other is freed before the new one is built.
        inner = self._kept_inner_set(fine_shape, rescaled_targets)
        if inner is not None:
            inner.hold()
        try:
            self._release_point_state()
            self.n_targets = nk
            self.fine_shape = fine_shape
            self._t3_prephase = np.exp(self.isign * 1j * prephase)
            self._t3_postphase = factors * np.exp(self.isign * 1j * postphase)

            # Workspace buffers of the composition, sized for the new geometry.
            # Allocated here (not lazily in execute) so a simulated OOM surfaces
            # during set_pts -- leaving the plan in the explicit "no points"
            # state -- and so steady-state executes start at zero allocations.
            # Matching shapes from a previous point set are reused in place.
            cplx = self.precision.complex_dtype
            batch = (self.n_trans,)
            self.workspace.array("fine grid", batch + self.fine_shape, cplx,
                                 pipeline=self._setup_pipeline)
            self.workspace.array("t3 strengths", batch + (m,), cplx,
                                 pipeline=self._setup_pipeline)
            self.workspace.array("t3 tau", batch + (nk,), cplx,
                                 pipeline=self._setup_pipeline)
            self._upload_points(coords)
            for label, vec in (("t3 prephase", self._t3_prephase),
                               ("t3 deconvolve factors", self._t3_postphase)):
                buf = self.device.memory.from_host(vec.astype(cplx), label=label)
                self._point_buffers.append(buf)
                self._setup_pipeline.add_transfer("h2d", buf.nbytes, label)

            self._install(points or build_point_set(grid_coords, key, self.kernel,
                                                    store=self.artifact_store))

            # Inner type-2 plan over the same backend: evaluates the fine grid's
            # trigonometric sum at the rescaled target frequencies, with the
            # composition's exponent sign (not the type-2 default).
            inner_opts = self.opts.copy(spread_only=False, bin_shape=None,
                                        isign=self.isign)
            self._t3_inner = Plan(2, self.fine_shape, n_trans=self.n_trans,
                                  eps=self.eps, opts=inner_opts, device=self.device,
                                  artifact_store=self.artifact_store)
            self._t3_inner.set_pts(*rescaled_targets)
        finally:
            if inner is not None:
                inner.release()
        self._setup_pipeline.merge(self._t3_inner._plan_pipeline)
        self._setup_pipeline.merge(self._t3_inner._setup_pipeline)
        self._points_ready = True
        return self

    def _kept_inner_set(self, fine_shape, targets):
        """The inner plan's set, when an inner plan over ``fine_shape`` will
        find it for the rescaled ``targets``; else ``None``.

        It will when the grid, the target count and the targets' grid
        coordinates are unchanged.  The end points are compared first, so
        other targets cost two-point conversions, not a pass over them.
        """
        inner = self._t3_inner
        points = getattr(inner, "point_set", None)
        if (points is None or fine_shape != self.fine_shape
                or points.n_points != targets[0].shape[0]):
            return None
        ends = [0, -1]
        for t, g, n in zip(targets, points.grid_coords, inner.fine_shape):
            if not np.array_equal(to_grid_coordinates(t[ends], n), g[ends]):
                return None
        grid_coords = [to_grid_coordinates(t, n) for t, n in zip(targets, inner.fine_shape)]
        return points if live_point_set(grid_coords, points.key) is points else None

    # ------------------------------------------------------------------ #
    # execute
    # ------------------------------------------------------------------ #
    def execute(self, data, out=None):
        """Run the planned transform on one or ``n_trans`` data vectors.

        Type 1: ``data`` holds strengths ``c_j`` of shape ``(M,)`` or
        ``(n_trans, M)``; returns mode arrays of shape ``n_modes`` or
        ``(n_trans, *n_modes)``.

        Type 2: ``data`` holds mode coefficients of shape ``n_modes`` or
        ``(n_trans, *n_modes)``; returns ``(M,)`` or ``(n_trans, M)``.

        Type 3: ``data`` holds strengths of shape ``(M,)`` or
        ``(n_trans, M)``; returns target values of shape ``(N_k,)`` or
        ``(n_trans, N_k)``.

        In ``spread_only`` mode (used by the Fig. 2 / Fig. 3 benchmarks) the
        FFT and deconvolution are skipped: type 1 returns the fine grid and
        type 2 expects a fine-grid-shaped input to interpolate from.

        ``out``, when given, must be a numpy array of exactly the output
        shape and the plan's complex dtype; anything else raises
        ``ValueError`` rather than silently broadcasting.  The terminal stage
        writes directly into ``out`` (no intermediate output array), and
        conforming inputs -- the plan's complex dtype, any layout -- flow
        through the workspace-managed pipeline without allocating or copying:
        the per-execute :class:`~repro.metrics.allocs.AllocStats` attached to
        the pipeline profile (``last_exec_allocs``) records any deviation.

        Each stage runs on the plan's execution backend: the default
        ``device_sim`` fuses all ``n_trans`` transforms per stage (via the
        stencil cache precomputed by :meth:`set_pts`) and records the
        simulated-GPU kernel profiles; ``cached`` does the same without
        profiling; ``reference`` reproduces the original per-transform loop.
        """
        self._require_points()
        data = np.asarray(data)
        cplx = self.precision.complex_dtype

        batched = self._validate_execute_shape(data)
        self._validate_out(out, batched)
        backend = self.backend
        pipeline = PipelineProfile()
        self._fft.pipeline = pipeline if backend.records_profiles else None

        with allocs.track_allocs() as stats:
            # The exponent sign enters the uniform pipeline only through the
            # FFT direction (the kernel and the correction factors are real):
            # ``e^{-i}`` is the forward FFT, ``e^{+i}`` the unnormalized
            # inverse.  Conforming input (the plan's complex dtype, batched
            # or not, any strides) passes through without a copy.
            stack = allocs.as_dtype_counted(
                data if batched else data[None], cplx, "input dtype conversion"
            )
            out_block = self._acquire_out_block(out, batched)
            if self.nufft_type == 3:
                output = self._execute_type3(stack, out_block, pipeline)
            elif self.nufft_type == 1:
                if self.opts.spread_only:
                    output = backend.spread(self, stack, pipeline, out=out_block)
                else:
                    fine = backend.spread(
                        self, stack, pipeline, out=self._workspace_fine(pipeline)
                    )
                    if self.isign < 0:
                        fine_hat = backend.fft_forward(self, fine, pipeline)
                    else:
                        fine_hat = backend.fft_inverse(self, fine, pipeline)
                    self.workspace.adopt("cufft workspace", fine_hat,
                                         pipeline=pipeline)
                    output = backend.deconvolve(self, fine_hat, pipeline,
                                                out=out_block)
            else:
                if self.opts.spread_only:
                    fine = stack
                else:
                    fine = backend.precorrect(
                        self, stack, pipeline, out=self._workspace_fine(pipeline)
                    )
                    if self.isign > 0:
                        fine = backend.fft_inverse(self, fine, pipeline)
                    else:
                        fine = backend.fft_forward(self, fine, pipeline)
                    self.workspace.adopt("cufft workspace", fine,
                                         pipeline=pipeline)
                output = backend.interp(self, fine, pipeline, out=out_block)

            if output is not out_block:
                # Safety net for backends that ignore ``out=``: land the
                # result in the caller-visible storage (a counted copy).
                allocs.record_copy(out_block.nbytes, "terminal copy")
                out_block[...] = output
                output = out_block

        pipeline.allocs = stats
        self._record_execute_transfers(data, output, pipeline)
        self._exec_pipeline = pipeline

        if out is not None:
            return out
        return output if batched else output[0]

    def _workspace_fine(self, pipeline):
        """The plan's reusable batched fine-grid buffer (stages write into it)."""
        return self.workspace.array(
            "fine grid", (self.n_trans,) + self.fine_shape,
            self.precision.complex_dtype, pipeline=pipeline,
        )

    def _acquire_out_block(self, out, batched):
        """Batched view of the output storage the terminal stage writes into.

        The caller's ``out=`` array when given (never workspace memory --
        pooled plans must not leak views of reusable buffers), a fresh
        counted allocation otherwise.
        """
        if out is not None:
            return out if batched else out[None]
        shape = (self.n_trans,) + tuple(self._single_output_shape())
        block = np.empty(shape, dtype=self.precision.complex_dtype)
        allocs.record_alloc(block.nbytes, "output block")
        return block

    def _execute_type3(self, stack, out_block, pipeline):
        """Type 3 as spread -> (shift to modes) -> inner type 2 -> deconvolve."""
        ws = self.workspace
        cplx = self.precision.complex_dtype
        batch = (stack.shape[0],)
        pre = ws.array("t3 strengths", batch + (self.n_points,), cplx,
                       pipeline=pipeline)
        np.multiply(stack, self._t3_prephase[None, :], out=pre)
        fine = self.backend.spread(self, pre, pipeline,
                                   out=self._workspace_fine(pipeline))
        # The spatial fine grid, reordered so node l becomes centred mode
        # l - nf/2 (exact for the even grid sizes set_pts chooses): the
        # grid's trigonometric sum at a rescaled target is then a type-2
        # NUFFT evaluation.
        g = np.fft.fftshift(np.asarray(fine), axes=tuple(range(1, self.ndim + 1)))
        tau = ws.array("t3 tau", batch + (self.n_targets,), cplx,
                       pipeline=pipeline)
        self._t3_inner.execute(g, out=tau)
        np.multiply(tau, self._t3_postphase[None, :], out=out_block)
        inner_pipeline = self._t3_inner._exec_pipeline
        if self.backend.records_profiles and inner_pipeline is not None:
            # Adopt the inner transform's kernel profiles, but not its
            # synthetic input/output transfers: the fine grid never leaves
            # the device in the composed transform.
            for phase, prof in inner_pipeline.kernels:
                pipeline.add_kernel(prof, phase=phase)
        return out_block

    def _single_input_shape(self):
        if self.nufft_type in (1, 3):
            return (self.n_points,)
        if self.opts.spread_only:
            return self.fine_shape
        return self.n_modes

    def _single_output_shape(self):
        if self.nufft_type == 1:
            return self.fine_shape if self.opts.spread_only else self.n_modes
        if self.nufft_type == 2:
            return (self.n_points,)
        return (self.n_targets,)

    def _validate_execute_shape(self, data):
        single_shape = self._single_input_shape()
        if data.shape == single_shape:
            if self.n_trans != 1:
                raise ValueError(
                    f"plan expects n_trans={self.n_trans} stacked inputs of shape {single_shape}"
                )
            return False
        if data.shape == (self.n_trans,) + single_shape:
            return True
        raise ValueError(
            f"data shape {data.shape} does not match expected {single_shape} "
            f"(or ({self.n_trans}, *{single_shape}) for batched transforms)"
        )

    def _validate_out(self, out, batched):
        if out is None:
            return
        expected_shape = self._single_output_shape()
        if batched:
            expected_shape = (self.n_trans,) + tuple(expected_shape)
        expected_dtype = self.precision.complex_dtype
        if not isinstance(out, np.ndarray):
            raise ValueError(
                f"out must be a numpy array of shape {tuple(expected_shape)} and "
                f"dtype {np.dtype(expected_dtype).name}, got {type(out).__name__}"
            )
        if out.shape != tuple(expected_shape):
            raise ValueError(
                f"out has shape {out.shape}, expected {tuple(expected_shape)}"
            )
        if out.dtype != np.dtype(expected_dtype):
            raise ValueError(
                f"out has dtype {out.dtype}, expected {np.dtype(expected_dtype).name} "
                f"for a {self.precision.value}-precision plan"
            )

    def _record_execute_transfers(self, data, output, pipeline):
        cplx_sz = self.precision.complex_itemsize
        in_elems = data.size
        out_elems = np.size(output)
        pipeline.add_transfer("h2d", in_elems * cplx_sz, "input data")
        pipeline.add_transfer("d2h", out_elems * cplx_sz, "output data")

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def timings(self):
        """Modelled seconds: ``exec``, ``setup``, ``total``, ``mem``, ``total+mem``.

        ``exec`` covers the kernels of the most recent :meth:`execute` call;
        ``setup`` the bin-sort of the most recent :meth:`set_pts`; ``mem`` the
        host<->device transfers and plan allocations.  This is exactly the
        decomposition the paper uses for its three reported timings.  Only the
        ``device_sim`` backend records kernel profiles; on the pure-numerics
        backends the kernel components are zero and ``mem`` reflects the
        transfers alone.
        """
        contention = self.device.contention_factor
        combined = PipelineProfile()
        combined.merge(self._plan_pipeline)
        combined.merge(self._setup_pipeline)
        if self._exec_pipeline is not None:
            combined.merge(self._exec_pipeline)
        return self.cost_model.pipeline_times(combined, contention_factor=contention)

    @property
    def last_allocs(self):
        """:class:`~repro.metrics.allocs.AllocStats` of the most recent
        :meth:`execute` call (None before the first execute).

        In the steady state -- workspace reuse on, caller-provided ``out=``
        -- every counter is zero: no buffer is allocated and no array is
        copied on the hot path.  Without ``out=`` exactly one allocation (the
        fresh output block) is recorded; with ``reuse_workspace=False`` the
        per-execute churn the workspace eliminates becomes visible here.
        """
        if self._exec_pipeline is None:
            return None
        return self._exec_pipeline.allocs

    def ns_per_point(self, key="exec"):
        """Timing per nonuniform point in nanoseconds (the paper's y-axis)."""
        if self.n_points == 0:
            raise RuntimeError("set_pts must be called before ns_per_point")
        t = self.timings()[key]
        return 1e9 * t / (self.n_points * self.n_trans)

    def gpu_ram_mb(self, include_context=True):
        """Simulated device memory in MB, ``nvidia-smi`` style (Table I)."""
        mb = self.device.memory.allocated_mb
        return mb + (CUDA_CONTEXT_MB if include_context else 0.0)

    def spread_fraction(self):
        """Fraction of "exec" time spent in spreading/interpolation kernels."""
        if self._exec_pipeline is None:
            raise RuntimeError("execute must be called before spread_fraction")
        return self.cost_model.spread_fraction(self._exec_pipeline,
                                               self.device.contention_factor)

    def report(self):
        """Multi-line human-readable summary of the plan and its last run."""
        if self.nufft_type == 3:
            head = (f"cuFINUFFT-repro plan: type 3, {self.ndim}D, "
                    f"n_trans={self.n_trans}")
        else:
            head = (f"cuFINUFFT-repro plan: type {self.nufft_type}, {self.ndim}D, "
                    f"modes {self.n_modes}, n_trans={self.n_trans}")
        lines = [
            head,
            f"  precision: {self.precision.value}, method: {self.method.value}, "
            f"backend: {self.backend.name}, isign: {self.isign:+d}",
            f"  {self.kernel.describe()}",
            f"  fine grid: {self.fine_shape}, bins: {self.bin_shape}, "
            f"Msub={self.opts.max_subproblem_size}",
            f"  device: {self.device.spec.name}, RAM {self.gpu_ram_mb():.0f} MB",
        ]
        if self.tuned is not None:
            lines.append(
                f"  autotuned ({self.tuned.mode}): {self.tuned.speedup:.2f}x "
                f"modelled {self.tuned.objective} vs paper defaults "
                f"({self.tuned.n_candidates} candidates)"
            )
        if self.point_set is not None:
            pts = f"  points: {self.n_points}"
            if self.nufft_type == 3:
                pts += f", targets: {self.n_targets}"
            lines.append(pts)
            stencil = self.point_set.stencil
            if stencil is not None:
                kind = "sparse-op" if stencil.interp_matrix is not None else "per-dim"
                lines.append(
                    f"  stencil cache: {kind} ({stencil.kernel_eval}), "
                    f"{stencil.nbytes() / 1e6:.1f} MB host"
                )
        if self._exec_pipeline is not None:
            t = self.timings()
            lines.append(
                "  modelled timings: "
                + ", ".join(f"{k}={v * 1e3:.3f} ms" for k, v in t.items())
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def destroy(self):
        """Free all simulated device allocations held by the plan.

        Idempotent: destroying an already-destroyed plan is a no-op.  Only
        *new work* (set_pts / execute) on a destroyed plan raises.
        """
        if self._destroyed:
            return
        if self._t3_inner is not None:
            self._t3_inner.destroy()
            self._t3_inner = None
        for buf in self._point_buffers:
            buf.free()
        for buf in self._buffers:
            buf.free()
        self.workspace.release_all()
        self._point_buffers = []
        self._buffers = []
        self._drop_point_set()
        self._derived = {}
        self._destroyed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.destroy()
        return False

    def __del__(self):  # pragma: no cover - defensive cleanup
        try:
            self.destroy()
        except Exception:
            pass
