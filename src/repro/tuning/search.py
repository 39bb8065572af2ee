"""Cost-model-driven search over plan parameters.

The paper hard-codes its plan parameters from Remark 1 / Remark 2 / Sec.
III-B: bins of 32x32 (2D) or 16x16x2 (3D), ``Msub = 1024`` and the
"SM-where-supported" method choice.  Those defaults are good on average but
not per problem -- GM beats every sorted method at very low density (Fig. 2),
the best bin geometry trades padded-bin write-back volume against subproblem
count, and ``Msub`` moves the load-balancing/launch trade-off.

:class:`Autotuner` searches those knobs the way FFTW/cuFFT plan-time tuning
does, but against the *simulated-GPU* cost model instead of wall-clock runs:

1. enumerate candidate configurations (spread method x bin shape x ``Msub``
   x threads-per-block, plus pass-through knobs for the stencil budget and
   execution backend) for one :class:`~repro.tuning.signature.TuningProblem`,
   pruning shared-memory-infeasible SM variants;
2. score each candidate with the same
   :func:`repro.metrics.modeling.model_cufinufft` pipeline the benchmark
   tables are built from (occupancy statistics come from the *actual* point
   coordinates when available, so clustered point sets tune differently from
   uniform ones);
3. optionally refine the top-``k`` model picks by *measured execution*: build
   a small real :class:`~repro.core.plan.Plan` per finalist, run it, and
   re-rank by the profiles an executed plan actually records (real subproblem
   splits and occupied-cell counts rather than scaled-histogram estimates);
4. persist the winner in a :class:`~repro.tuning.cache.TuningCache` keyed by
   the problem's :class:`~repro.tuning.signature.ProblemSignature`, so every
   later plan, pooled service request or benchmark sweep that lands in the
   same bucket reuses it.

The default configuration is always one of the candidates, so a tuned score
is never worse than the baseline under the model -- the search can only
recover the paper's defaults or improve on them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..core.binsort import SpreadStats, bin_sort, to_grid_coordinates
from ..core.gridsize import fine_grid_shape
from ..core.options import Opts, Precision, SpreadMethod
from ..gpu.device import V100_SPEC
from ..gpu.threadblock import sm_fits
from ..kernels.es_kernel import ESKernel
from .cache import SCHEMA_VERSION, TuningCache
from .signature import TuningProblem

__all__ = [
    "CandidateSpace",
    "TuningResult",
    "TunerStats",
    "Autotuner",
    "tune_opts",
    "default_autotuner",
    "TUNE_MODES",
]

#: Valid values of the ``tune=`` argument accepted across the stack.
TUNE_MODES = ("off", "model", "measure")

#: Per-dimension bin-shape candidates (the paper default is always included).
_BIN_CANDIDATES = {
    1: ((512,), (1024,), (4096,)),
    2: ((16, 16), (32, 32), (64, 64), (32, 16)),
    3: ((16, 16, 2), (16, 16, 4), (8, 8, 8), (32, 32, 2), (16, 8, 4)),
}

#: ``Msub`` candidates for the SM method (paper Remark 1 default included).
_MSUB_CANDIDATES = (256, 1024, 4096)

#: Threads-per-block candidates for the SM method (shared-atomic contention
#: scales with the number of resident lanes).
_TPB_CANDIDATES = (64, 128, 256)


@dataclass
class CandidateSpace:
    """The knob grid one tuning run enumerates.

    Every field is a tuple of allowed values; the cross product (pruned for
    irrelevant combinations -- bins/``Msub`` do not affect GM, ``Msub`` and
    threads-per-block only affect SM) is the candidate list.  ``stencil_budgets``
    and ``backends`` default to singletons carrying the base options' values:
    they do not move the modelled kernel time, but flow through to the tuned
    :class:`~repro.core.options.Opts` and can be expanded by callers that
    rank candidates by measured execution.
    """

    methods: tuple
    bin_shapes: tuple
    msubs: tuple = _MSUB_CANDIDATES
    threads_per_block: tuple = _TPB_CANDIDATES
    stencil_budgets: tuple = None
    backends: tuple = None

    @classmethod
    def default(cls, problem, base_opts):
        """The default grid for one problem (methods legal for its type)."""
        ndim = problem.ndim
        if problem.nufft_type == 2:
            # Interpolation has no SM analogue (paper Sec. III-B).
            methods = (SpreadMethod.GM, SpreadMethod.GM_SORT)
        else:
            methods = (SpreadMethod.GM, SpreadMethod.GM_SORT, SpreadMethod.SM)
        bins = list(_BIN_CANDIDATES[ndim])
        base_bins = base_opts.resolved_bin_shape(ndim)
        if base_bins not in bins:
            bins.insert(0, base_bins)
        return cls(
            methods=methods,
            bin_shapes=tuple(bins),
            stencil_budgets=(base_opts.stencil_budget,),
            backends=(base_opts.backend,),
        )


@dataclass
class TuningResult:
    """Outcome of one tuning run (or one cache hit).

    Attributes
    ----------
    signature_key : str
        Cache key of the problem bucket this result applies to.
    opts : dict
        Tuned option fields (``method``, ``bin_shape``, ``max_subproblem_size``,
        ``threads_per_block``, ``stencil_budget``, ``backend``) in
        JSON-serializable form.
    score_s : float
        Modelled objective seconds of the winning configuration.
    baseline_score_s : float
        Modelled objective seconds of the default (AUTO-resolved) config --
        always one of the candidates, so ``score_s <= baseline_score_s``.
    mode : str
        ``"model"`` or ``"measure"`` (how the winner was ranked).
    objective : str
        Timing key that was minimized (``"exec"`` or ``"total"``).
    n_candidates : int
        Number of configurations scored.
    from_cache : bool
        Whether this result was served from the tuning cache.
    measured_s : float or None
        Measured-refinement objective seconds of the winner (measure mode).
    """

    signature_key: str
    opts: dict
    score_s: float
    baseline_score_s: float
    mode: str
    objective: str = "exec"
    n_candidates: int = 0
    from_cache: bool = False
    measured_s: float = None

    @property
    def speedup(self):
        """Modelled baseline/tuned ratio (>= 1.0 means tuning helped)."""
        return self.baseline_score_s / self.score_s if self.score_s > 0 else 1.0

    def apply_to(self, base_opts, include_backend=False):
        """Merge the tuned fields into ``base_opts``, returning a new Opts.

        ``include_backend=False`` (the default used by ``Plan.set_pts``)
        leaves the execution backend untouched: a live plan has already
        bound its backend, and the default candidate space never proposes a
        different one anyway.
        """
        fields = {
            "method": SpreadMethod.parse(self.opts["method"]),
            "bin_shape": tuple(self.opts["bin_shape"]),
            "max_subproblem_size": int(self.opts["max_subproblem_size"]),
            "threads_per_block": int(self.opts["threads_per_block"]),
            "stencil_budget": int(self.opts["stencil_budget"]),
        }
        if include_backend:
            fields["backend"] = str(self.opts["backend"])
        return base_opts.copy(**fields)

    def record(self):
        """JSON-serializable cache record for this result."""
        return {
            "version": SCHEMA_VERSION,
            "opts": dict(self.opts),
            "score_s": float(self.score_s),
            "baseline_score_s": float(self.baseline_score_s),
            "mode": self.mode,
            "objective": self.objective,
            "n_candidates": int(self.n_candidates),
            "measured_s": self.measured_s,
        }

    @classmethod
    def from_record(cls, key, record):
        return cls(
            signature_key=key,
            opts=dict(record["opts"]),
            score_s=float(record["score_s"]),
            baseline_score_s=float(record["baseline_score_s"]),
            mode=record["mode"],
            objective=record.get("objective", "exec"),
            n_candidates=int(record.get("n_candidates", 0)),
            from_cache=True,
            measured_s=record.get("measured_s"),
        )


@dataclass
class TunerStats:
    """Counters of one :class:`Autotuner`'s lifetime."""

    tunings_computed: int = 0
    cache_hits: int = 0
    candidates_scored: int = 0
    plans_measured: int = 0


class Autotuner:
    """Plan-parameter autotuner over the simulated-GPU cost model.

    Parameters
    ----------
    cache : TuningCache, optional
        Persistent store of tuned configurations (a fresh in-memory cache by
        default).  Share one instance -- e.g. through a
        :class:`~repro.service.TransformService` -- so concurrent requests
        for the same problem signature share a single tuning run.
    objective : str
        Timing key to minimize: ``"exec"`` (the paper's amortized headline,
        default) or ``"total"`` (exec + setup, the one-shot serving view).
    max_sample : int
        Cap on the points actually sampled/bin-sorted for the occupancy
        statistics of each candidate bin shape.
    top_k : int
        Number of model-ranked finalists re-ranked by measured execution in
        ``"measure"`` mode.
    measure_sample : int
        Point count of the small real plans built for the measured pass.
    seed : int
        RNG seed of every sampling step (tuning is deterministic).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.tuning import Autotuner, TuningProblem
    >>> tuner = Autotuner()
    >>> result = tuner.tune(TuningProblem(1, (64, 64), 200_000, 1e-6, "single"))
    >>> result.speedup >= 1.0          # never worse than the paper defaults
    True
    >>> result2 = tuner.tune(TuningProblem(1, (64, 64), 210_000, 1e-6, "single"))
    >>> result2.from_cache             # same signature bucket: no re-search
    True
    """

    def __init__(self, cache=None, objective="exec", max_sample=1 << 14,
                 top_k=3, measure_sample=1 << 12, seed=0):
        if objective not in ("exec", "total"):
            raise ValueError(f"objective must be 'exec' or 'total', got {objective!r}")
        self.cache = cache if cache is not None else TuningCache()
        self.objective = objective
        self.max_sample = int(max_sample)
        self.top_k = max(1, int(top_k))
        self.measure_sample = int(measure_sample)
        self.seed = int(seed)
        self.stats = TunerStats()
        self._master = threading.Lock()
        self._inflight = {}

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    def tune(self, problem, mode="model", base_opts=None, space=None, spec=None):
        """Tune one problem; returns a :class:`TuningResult`.

        Concurrent callers tuning the same signature serialize on a
        per-signature lock: exactly one performs the search, the rest are
        served the cached entry it writes.

        Cached entries are reused regardless of the requested ``mode``
        (wisdom semantics: a record tuned in either mode is a valid tuned
        configuration for the signature); clear the cache to force a
        re-search in a different mode.

        Parameters
        ----------
        problem : TuningProblem
        mode : str
            ``"model"`` (cost-model scoring only) or ``"measure"`` (model
            scoring plus measured-execution re-ranking of the finalists).
        base_opts : Opts, optional
            Options the tuned fields are deviations from.
        space : CandidateSpace, optional
            Override the candidate grid.
        spec : DeviceSpec, optional
            Device the plan will run on (the paper's V100 by default):
            bounds SM shared-memory feasibility and the cost-model rates,
            and separates the cache entries of unlike devices.
        """
        if mode not in ("model", "measure"):
            raise ValueError(f"mode must be 'model' or 'measure', got {mode!r}")
        base_opts = self._base_opts(problem, base_opts)
        key = self._cache_key(problem, base_opts, spec)

        cached = self.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return TuningResult.from_record(key, cached)

        with self._master:
            lock = self._inflight.setdefault(key, threading.Lock())
        with lock:
            # Another thread may have finished the search while we waited.
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return TuningResult.from_record(key, cached)
            result = self._search(problem, mode, base_opts, space, key, spec)
            self.cache.put(key, result.record())
            self.stats.tunings_computed += 1
        with self._master:
            self._inflight.pop(key, None)
        return result

    def tuned_opts(self, problem, mode="model", base_opts=None,
                   include_backend=True, spec=None):
        """Tune and return ready-to-use :class:`~repro.core.options.Opts`."""
        base_opts = self._base_opts(problem, base_opts)
        result = self.tune(problem, mode=mode, base_opts=base_opts, spec=spec)
        return result.apply_to(base_opts, include_backend=include_backend)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _base_opts(self, problem, base_opts):
        if base_opts is None:
            return Opts(precision=problem.precision)
        if Precision.parse(problem.precision) is not base_opts.precision:
            return base_opts.copy(precision=problem.precision)
        return base_opts

    def _cache_key(self, problem, base_opts, spec=None):
        """Cache key: signature bucket + objective + the pass-through base
        fields a record would overwrite on apply (so a plan configured with a
        non-default stencil budget or backend never inherits another
        caller's) + the device, when it is not the default V100."""
        key = (f"{problem.signature().key()}.{self.objective}"
               f".sb{base_opts.stencil_budget}.be{base_opts.backend}")
        if spec is not None and spec.name != V100_SPEC.name:
            key += f".dev[{spec.name}]"
        return key

    def _candidates(self, problem, base_opts, space, spec=None):
        """Enumerate candidate field dicts, baseline first, pruned + deduped."""
        space = space if space is not None else CandidateSpace.default(problem, base_opts)
        precision = Precision.parse(problem.precision)
        kernel = ESKernel.from_tolerance(problem.eps, upsampfac=base_opts.upsampfac)
        stencil_budgets = space.stencil_budgets or (base_opts.stencil_budget,)
        backends = space.backends or (base_opts.backend,)

        baseline = {
            "method": base_opts.resolve_method(problem.nufft_type, problem.ndim,
                                               precision),
            "bin_shape": base_opts.resolved_bin_shape(problem.ndim),
            "max_subproblem_size": base_opts.max_subproblem_size,
            "threads_per_block": base_opts.threads_per_block,
            "stencil_budget": base_opts.stencil_budget,
            "backend": base_opts.backend,
        }
        spec = spec if spec is not None else V100_SPEC

        def fits(bins):
            return sm_fits(bins, kernel.width, precision.complex_itemsize, spec)

        if baseline["method"] is SpreadMethod.SM and not fits(baseline["bin_shape"]):
            baseline["method"] = SpreadMethod.GM_SORT

        seen = set()
        candidates = []

        def add(fields):
            # One entry per (method, bins, msub, tpb, budget, backend) combo.
            for budget in stencil_budgets:
                for backend in backends:
                    full = dict(fields, stencil_budget=budget, backend=backend)
                    key = (full["method"].value, tuple(full["bin_shape"]),
                           int(full["max_subproblem_size"]),
                           int(full["threads_per_block"]), int(budget),
                           str(backend))
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(full)

        add(baseline)
        for method in space.methods:
            method = SpreadMethod.parse(method)
            if method is SpreadMethod.SM and problem.nufft_type == 2:
                continue
            if method is SpreadMethod.GM:
                # GM uses neither the bins nor the subproblem split.
                add(dict(baseline, method=method))
                continue
            for bins in space.bin_shapes:
                bins = tuple(int(b) for b in bins)
                if method is SpreadMethod.SM:
                    if not fits(bins):
                        continue
                    for msub in space.msubs:
                        for tpb in space.threads_per_block:
                            add(dict(baseline, method=method, bin_shape=bins,
                                     max_subproblem_size=int(msub),
                                     threads_per_block=int(tpb)))
                else:
                    add(dict(baseline, method=method, bin_shape=bins))
        return candidates

    def _stats_for(self, problem, bin_shape, kernel, stats_cache):
        """Occupancy statistics for one candidate bin shape (memoized).

        Types 1/2 only; a type-3 candidate is priced by
        :func:`~repro.metrics.modeling.model_cufinufft`'s own composition-grid
        sampling.  When the problem carries actual coordinates, a subsample of
        them is bin-sorted (so clustered point sets tune differently from
        uniform ones); otherwise the named distribution is sampled.
        """
        bin_shape = tuple(bin_shape)
        if bin_shape in stats_cache:
            return stats_cache[bin_shape]
        fine_shape = fine_grid_shape(problem.n_modes, kernel.width)
        if problem.coords is not None:
            coords = [np.asarray(c, dtype=np.float64) for c in problem.coords]
            m = coords[0].shape[0]
            if m > self.max_sample:
                rng = np.random.default_rng(self.seed)
                sel = rng.choice(m, size=self.max_sample, replace=False)
                coords = [c[sel] for c in coords]
            grid_coords = [
                to_grid_coordinates(coords[d], fine_shape[d])
                for d in range(problem.ndim)
            ]
            stats = SpreadStats.from_binsort(
                bin_sort(grid_coords, fine_shape, bin_shape)
            )
            if stats.n_points != problem.n_points:
                stats = stats.scaled(problem.n_points)
        else:
            from ..metrics.modeling import sample_spread_stats

            stats = sample_spread_stats(
                problem.distribution, problem.n_points, fine_shape, bin_shape,
                rng=self.seed, max_sample=self.max_sample,
            )
        stats_cache[bin_shape] = stats
        return stats

    def score(self, problem, fields, base_opts=None, stats_cache=None,
              spec=None):
        """Modelled objective seconds of one candidate configuration.

        This is the exact scorer the search minimizes, exposed so benchmarks
        can evaluate the AUTO baseline and a tuned configuration through one
        identical code path.
        """
        base_opts = self._base_opts(problem, base_opts)
        stats_cache = stats_cache if stats_cache is not None else {}
        from ..metrics.modeling import model_cufinufft

        method = SpreadMethod.parse(fields["method"])
        opts = base_opts.copy(
            method=method,
            bin_shape=tuple(fields["bin_shape"]),
            max_subproblem_size=int(fields["max_subproblem_size"]),
            threads_per_block=int(fields["threads_per_block"]),
        )
        kernel = ESKernel.from_tolerance(problem.eps, upsampfac=opts.upsampfac)
        stats = None
        if problem.nufft_type != 3:
            stats = self._stats_for(problem, opts.resolved_bin_shape(problem.ndim),
                                    kernel, stats_cache)
        result = model_cufinufft(
            problem.nufft_type, problem.n_modes, problem.n_points, problem.eps,
            method=method, distribution=problem.distribution,
            precision=problem.precision, opts=opts, spec=spec, rng=self.seed,
            max_sample=self.max_sample, stats=stats,
        )
        return float(result.times[self.objective])

    def _search(self, problem, mode, base_opts, space, key, spec=None):
        candidates = self._candidates(problem, base_opts, space, spec)
        stats_cache = {}
        scored = []
        for fields in candidates:
            score = self.score(problem, fields, base_opts, stats_cache, spec)
            scored.append((score, fields))
            self.stats.candidates_scored += 1
        baseline_score = scored[0][0]
        ranked = sorted(scored, key=lambda pair: pair[0])

        measured_s = None
        if mode == "measure":
            finalists = ranked[: self.top_k]
            remeasured = []
            for score, fields in finalists:
                measured = self._measure(problem, fields, base_opts, spec)
                remeasured.append((measured, score, fields))
                self.stats.plans_measured += 1
            remeasured.sort(key=lambda triple: triple[0])
            measured_s, best_score, best_fields = remeasured[0]
        else:
            best_score, best_fields = ranked[0]

        return TuningResult(
            signature_key=key,
            opts={
                "method": best_fields["method"].value,
                "bin_shape": list(best_fields["bin_shape"]),
                "max_subproblem_size": int(best_fields["max_subproblem_size"]),
                "threads_per_block": int(best_fields["threads_per_block"]),
                "stencil_budget": int(best_fields["stencil_budget"]),
                "backend": str(best_fields["backend"]),
            },
            score_s=float(best_score),
            baseline_score_s=float(baseline_score),
            mode=mode,
            objective=self.objective,
            n_candidates=len(candidates),
            from_cache=False,
            measured_s=measured_s,
        )

    def _measure_modes(self, problem, m_small):
        """Mode grid of the measured pass: shrunk so the real plan stays small.

        The full grid is kept only while it is modest; a paper-scale problem
        is measured on a proportionally shrunk grid that preserves the point
        *density* (m_small points on the shrunk grid ~ n_points on the full
        one), so the occupancy-dependent effects being re-ranked survive the
        reduction while the fine-grid/FFT allocations stay laptop-sized.
        """
        n_total = float(np.prod(problem.n_modes))
        density = problem.n_points / n_total
        target_total = min(n_total, max(64.0, m_small / max(density, 1e-9)))
        if target_total >= n_total:
            return problem.n_modes
        factor = (target_total / n_total) ** (1.0 / problem.ndim)
        return tuple(
            min(n, max(8, int(round(n * factor)))) for n in problem.n_modes
        )

    def _measure(self, problem, fields, base_opts, spec=None):
        """Measured-execution refinement: run a small real plan and read the
        modelled objective its *recorded* profiles imply.

        The refinement replaces the scaled-histogram estimates (subproblem
        counts, occupied cells) with the quantities an executed plan actually
        computes, at a reduced point count (and a density-preserving reduced
        mode grid, see :meth:`_measure_modes`); the per-point cost is then
        scaled back to the full problem size.  The FFT share does not scale
        with the point count, so this is a ranking heuristic, not an
        absolute timing.
        """
        from ..core.plan import Plan
        from ..gpu.device import Device
        from ..workloads.distributions import make_distribution

        device = Device(spec=spec) if spec is not None else None
        m_small = int(min(problem.n_points, self.measure_sample))
        n_modes = self._measure_modes(problem, m_small)
        rng = np.random.default_rng(self.seed)
        opts = base_opts.copy(
            method=SpreadMethod.parse(fields["method"]),
            bin_shape=tuple(fields["bin_shape"]),
            max_subproblem_size=int(fields["max_subproblem_size"]),
            threads_per_block=int(fields["threads_per_block"]),
            stencil_budget=int(fields["stencil_budget"]),
            backend="auto",  # profiles are required for the readout
        )
        kernel = ESKernel.from_tolerance(problem.eps, upsampfac=opts.upsampfac)
        fine_shape = fine_grid_shape(n_modes, kernel.width)
        if problem.coords is not None:
            coords = [np.asarray(c, dtype=np.float64) for c in problem.coords]
            if coords[0].shape[0] > m_small:
                sel = rng.choice(coords[0].shape[0], size=m_small, replace=False)
                coords = [c[sel] for c in coords]
        else:
            coords = make_distribution(
                problem.distribution, m_small, problem.ndim,
                fine_shape=fine_shape, rng=rng,
            )

        if problem.nufft_type == 3:
            strengths = rng.standard_normal(m_small) \
                + 1j * rng.standard_normal(m_small)
            targets = [
                rng.uniform(-0.5 * n_modes[d], 0.5 * n_modes[d], m_small)
                for d in range(problem.ndim)
            ]
            with Plan(3, problem.ndim, eps=problem.eps, opts=opts,
                      device=device) as plan:
                plan.set_pts(*coords, **dict(zip(("s", "t", "u"), targets)))
                plan.execute(strengths)
                seconds = plan.timings()[self.objective]
        else:
            with Plan(problem.nufft_type, n_modes, eps=problem.eps,
                      opts=opts, device=device) as plan:
                plan.set_pts(*coords)
                if problem.nufft_type == 1:
                    strengths = rng.standard_normal(m_small) \
                        + 1j * rng.standard_normal(m_small)
                    plan.execute(strengths)
                else:
                    mode_data = rng.standard_normal(n_modes) \
                        + 1j * rng.standard_normal(n_modes)
                    plan.execute(mode_data)
                seconds = plan.timings()[self.objective]
        return float(seconds) * (problem.n_points / max(1, m_small))


# --------------------------------------------------------------------------- #
# module-level conveniences
# --------------------------------------------------------------------------- #
_default_tuner = None
_default_tuner_lock = threading.Lock()


def default_autotuner():
    """Process-wide shared :class:`Autotuner`.

    Backed by the on-disk cache named in the ``REPRO_TUNING_CACHE``
    environment variable when set, in-memory otherwise.  This is the tuner
    ``Plan(..., tune=...)`` uses when none is supplied.
    """
    global _default_tuner
    with _default_tuner_lock:
        if _default_tuner is None:
            from ..core.env import tuning_cache_path

            _default_tuner = Autotuner(cache=TuningCache(tuning_cache_path()))
        return _default_tuner


def tune_opts(nufft_type, n_modes, n_points, eps=1e-6, precision="single",
              mode="model", distribution="rand", tuner=None, base_opts=None):
    """Tune one problem and return ready-to-use plan options.

    This is the one-call autotuning entry point:

    >>> import numpy as np
    >>> from repro import Plan
    >>> from repro.tuning import tune_opts
    >>> opts = tune_opts(1, (64, 64), n_points=500_000, eps=1e-6)
    >>> plan = Plan(1, (64, 64), eps=1e-6, opts=opts)   # tuned configuration

    Parameters
    ----------
    nufft_type : int
        1, 2 or 3.
    n_modes : tuple of int
        Uniform mode counts (types 1/2) or, for type 3, the expected
        composition-grid size per dimension.
    n_points : int
        Expected number of nonuniform points.
    eps : float
        Requested tolerance.
    precision : str
        ``"single"`` or ``"double"``.
    mode : str
        ``"model"`` or ``"measure"``.
    distribution : str
        Named point distribution assumed for the occupancy statistics.
    tuner : Autotuner, optional
        Defaults to the shared :func:`default_autotuner`.
    base_opts : Opts, optional
        Options the tuned fields are deviations from.

    Returns
    -------
    Opts
    """
    tuner = tuner if tuner is not None else default_autotuner()
    problem = TuningProblem(
        nufft_type, tuple(int(n) for n in np.atleast_1d(n_modes)),
        n_points, eps, Precision.parse(precision).value,
        distribution=distribution,
    )
    return tuner.tuned_opts(problem, mode=mode, base_opts=base_opts)
