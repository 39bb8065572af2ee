"""The concurrent transform service: plan pooling, coalescing, sharding.

See :mod:`repro.service` for the package overview and a usage example.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import InitVar, dataclass, field

import numpy as np

from ..cluster.fleet import DeviceFleet
from ..core.options import integral_count
from ..core.plan import Plan
from ..faults import DeviceFaultError, DeviceLostError
from ..gpu.costmodel import CostModel
from ..gpu.device import ENGINES
from .pool import PlanPool, equal_points
from .request import (
    PlanKey,
    TransformRequest,
    TransformResult,
    front_door,
    plan_key_for,
    signature_label,
)
from .resilience import (
    DeadlineExceededError,
    RetryPolicy,
    ServiceOverloadedError,
    shed_victim,
)

__all__ = ["ServiceStats", "TransformService", "LATENCY_KINDS",
           "LATENCY_PERCENTILES", "MAX_SIGNATURES"]

#: The serving geometry (see :class:`TransformService`): streams per device
#: of a fleet the service builds, the fewest transforms per shard, the most
#: per fused block, the host's cost of one dispatch and the ranks of a
#: distributed request.
STREAMS_PER_DEVICE = 2
SHARD_MIN_BLOCK = 4
MAX_BLOCK = 64
DISPATCH_LATENCY_S = 2.0e-5
DISTRIBUTED_RANKS = 4


#: Percentile marks reported for every latency kind.
LATENCY_PERCENTILES = (50, 95, 99)

#: Latency kinds the front-end records per request: time in the tenant
#: sub-queue, time in the open batching window, and arrival-to-completion.
LATENCY_KINDS = ("queue_wait", "batch_wait", "e2e")

#: Signatures :class:`ServiceStats` keeps pool counts for; the counts of
#: the ones it lets go are summed under :data:`OTHER_SIGNATURE`.
MAX_SIGNATURES = 64
OTHER_SIGNATURE = "other"
_POOL_COUNTS = ("hits", "misses", "setpts_skipped")


@dataclass
class ServiceStats:
    """Serving counters accumulated over the service lifetime.

    The resilience counters form the service's failure taxonomy: ``retries``
    (re-dispatches after retryable device faults), ``breaker_trips``
    (circuit breakers opened), ``requests_shed`` (bounded-queue overload),
    ``deadline_exceeded`` (requests classified as timeouts),
    ``degraded_shards`` / ``degraded_seconds`` (work served with every
    device inadmissible) and ``failures_by_type`` (exception class name ->
    count, every failure observed, including ones later retried away).

    The QoS surface added for the async front-end:

    * ``pool_by_signature`` -- per request signature (see
      :meth:`~repro.service.TransformRequest.signature_label`), the PlanPool
      hit/miss counts and skipped ``set_pts`` executions, so batching-window
      wins vs. pool churn are diagnosable per signature from one report.
      It keeps at most :data:`MAX_SIGNATURES` signatures: a new one past
      that folds the counts of the signature with the fewest pool events
      into an :data:`OTHER_SIGNATURE` entry, so totals never change and
      fresh point sets do not grow the record.  Labels are formatted when
      the record is read;
    * ``shed_by_tenant`` -- requests shed per tenant (front-end fair-share
      shedding; the aggregate stays in ``requests_shed``);
    * latency samples recorded via :meth:`record_latency` and summarized by
      :meth:`latency_percentiles` (p50/p95/p99 and max of queue-wait,
      batch-wait and end-to-end modelled latency, per tenant and per
      signature).

    Totals kept by another record are read-only properties over it:
    ``plan_cache_hits`` / ``plan_cache_misses`` / ``setpts_skipped`` sum
    ``pool_by_signature``, and ``plans_created`` is the cache misses plus
    ``lease_misses``.

    The warm-state surface (services constructed with ``artifact_store=``):
    ``artifact_hits`` / ``artifact_misses`` / ``artifact_stale`` /
    ``artifact_corrupt`` / ``artifact_builds`` read the store's
    :class:`~repro.artifacts.ArtifactStats` (passed as ``artifacts``) less
    its counts at ``since`` (default: when these stats are built), and
    ``plans_prewarmed`` is the ``prewarmed`` count of pooled plans the
    service recreated from stored signatures at startup.  A warmed steady
    state shows ``artifact_builds == 0``: every stencil, Horner fit and PSF
    kernel came from the store.
    """

    requests_submitted: int = 0
    requests_served: int = 0
    requests_failed: int = 0
    blocks_executed: int = 0
    shards_executed: int = 0
    distributed_requests: int = 0
    solves_served: int = 0
    solve_shards: int = 0
    solve_cg_iterations: int = 0
    setpts_executed: int = 0
    lease_hits: int = 0
    lease_misses: int = 0
    retries: int = 0
    breaker_trips: int = 0
    requests_shed: int = 0
    deadline_exceeded: int = 0
    degraded_shards: int = 0
    degraded_seconds: float = 0.0
    failures_by_type: dict = field(default_factory=dict)
    modelled_engine_seconds: dict = field(
        default_factory=lambda: {"h2d": 0.0, "exec": 0.0, "d2h": 0.0}
    )
    shed_by_tenant: dict = field(default_factory=dict)
    latency_samples: dict = field(default_factory=dict)
    artifacts: InitVar[object] = None
    since: InitVar[dict] = None
    prewarmed: InitVar[int] = 0

    def __post_init__(self, artifacts, since, prewarmed):
        self._artifacts = artifacts
        if artifacts is not None and since is None:
            since = artifacts.snapshot()
        self._artifacts_since = since
        self._prewarmed = prewarmed
        #: ``[hits, misses, setpts_skipped]`` by signature: a request's
        #: ``(plan_key, points_key)``, a label, or :data:`OTHER_SIGNATURE`.
        self._pool_counts = {}

    def _pool_total(self, name):
        i = _POOL_COUNTS.index(name)
        return sum(counts[i] for counts in self._pool_counts.values())

    @property
    def pool_by_signature(self):
        """``{label: {"hits", "misses", "setpts_skipped"}}``, built on read."""
        out = {}
        for signature, counts in self._pool_counts.items():
            label = signature if isinstance(signature, str) else signature_label(*signature)
            entry = out.setdefault(label, dict.fromkeys(_POOL_COUNTS, 0))
            for name, n in zip(_POOL_COUNTS, counts):
                entry[name] += n
        return out

    def _artifact_count(self, name):
        if self._artifacts is None:
            return 0
        return getattr(self._artifacts, name) - self._artifacts_since[name]

    plan_cache_hits = property(lambda self: self._pool_total("hits"))
    plan_cache_misses = property(lambda self: self._pool_total("misses"))
    setpts_skipped = property(lambda self: self._pool_total("setpts_skipped"))
    plans_created = property(
        lambda self: self.plan_cache_misses + self.lease_misses)
    plans_prewarmed = property(lambda self: self._prewarmed)
    artifact_hits = property(lambda self: self._artifact_count("hits"))
    artifact_misses = property(lambda self: self._artifact_count("misses"))
    artifact_stale = property(lambda self: self._artifact_count("stale"))
    artifact_corrupt = property(lambda self: self._artifact_count("corrupt"))
    artifact_builds = property(lambda self: self._artifact_count("builds"))

    # ------------------------------------------------------------------ #
    # QoS accounting (per-signature pool events, latency percentiles)
    # ------------------------------------------------------------------ #
    def _signature_counts(self, signature):
        counts = self._pool_counts.get(signature)
        if counts is None:
            named = len(self._pool_counts) - (OTHER_SIGNATURE in self._pool_counts)
            if named >= MAX_SIGNATURES:
                self._fold_quietest()
            counts = self._pool_counts[signature] = [0, 0, 0]
        return counts

    def _fold_quietest(self):
        """Sum the signature with the fewest pool events into ``"other"``."""
        quietest = min((sig for sig in self._pool_counts if sig != OTHER_SIGNATURE),
                       key=lambda sig: self._pool_counts[sig][0] + self._pool_counts[sig][1])
        folded = self._pool_counts.pop(quietest)
        other = self._pool_counts.setdefault(OTHER_SIGNATURE, [0, 0, 0])
        for i, n in enumerate(folded):
            other[i] += n

    def record_pool_event(self, signature, hit):
        """Count one PlanPool lease outcome against ``signature``.

        ``signature`` is a request's :meth:`~TransformRequest.signature` or
        a label.
        """
        self._signature_counts(signature)[0 if hit else 1] += 1

    def record_setpts_skip(self, signature, n=1):
        """Count ``n`` skipped ``set_pts`` executions against ``signature``."""
        self._signature_counts(signature)[2] += int(n)

    def record_shed(self, tenant=None):
        """Count one shed request (optionally attributed to ``tenant``)."""
        self.requests_shed += 1
        if tenant is not None:
            self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1

    def record_latency(self, scope, name, kind, seconds):
        """Append one modelled-latency sample.

        ``scope`` is ``"tenant"`` or ``"signature"``, ``name`` the tenant id
        or signature label, ``kind`` one of :data:`LATENCY_KINDS`.
        """
        if kind not in LATENCY_KINDS:
            raise ValueError(f"kind must be one of {LATENCY_KINDS}, got {kind!r}")
        bucket = self.latency_samples.setdefault((scope, name), {})
        bucket.setdefault(kind, []).append(float(seconds))

    def latency_percentiles(self, scope=None):
        """Percentile summary of every recorded latency series.

        Returns ``{name: {kind: {"n", "p50", "p95", "p99", "max"}}}`` when
        ``scope`` (``"tenant"`` or ``"signature"``) is given, or the same
        keyed by ``(scope, name)`` tuples when it is not.  Seconds
        throughout; empty when nothing was recorded.
        """
        out = {}
        for (sc, name), kinds in self.latency_samples.items():
            if scope is not None and sc != scope:
                continue
            summary = {}
            for kind, samples in kinds.items():
                arr = np.asarray(samples, dtype=np.float64)
                entry = {"n": int(arr.size), "max": float(arr.max())}
                for p in LATENCY_PERCENTILES:
                    entry[f"p{p}"] = float(np.percentile(arr, p))
                summary[kind] = entry
            out[name if scope is not None else (sc, name)] = summary
        return out

    def report(self, max_signatures=8):
        """Per-signature pool breakdown + latency percentiles, as text lines.

        The QoS block :meth:`TransformService.report` embeds: one line per
        signature (pool hits/misses/skipped ``set_pts``, busiest first,
        truncated past ``max_signatures``) and one line per tenant with
        p50/p95/p99 end-to-end and queue-wait percentiles.  Returns a list
        of lines (empty when nothing was recorded).
        """
        lines = []
        by_traffic = sorted(
            self.pool_by_signature.items(),
            key=lambda kv: -(kv[1]["hits"] + kv[1]["misses"]),
        )
        for signature, counts in by_traffic[:max_signatures]:
            lines.append(
                f"  pool[{signature}]: {counts['hits']} hits, "
                f"{counts['misses']} misses, "
                f"{counts['setpts_skipped']} set_pts skipped"
            )
        if len(by_traffic) > max_signatures:
            lines.append(f"  pool: ... {len(by_traffic) - max_signatures} "
                         "more signature(s)")
        for tenant, kinds in sorted(self.latency_percentiles("tenant").items()):
            parts = []
            for kind in ("e2e", "queue_wait"):
                if kind in kinds:
                    k = kinds[kind]
                    parts.append(
                        f"{kind} p50={1e3 * k['p50']:.3f} "
                        f"p95={1e3 * k['p95']:.3f} p99={1e3 * k['p99']:.3f} ms"
                    )
            shed = self.shed_by_tenant.get(tenant, 0)
            if shed:
                parts.append(f"{shed} shed")
            if parts:
                lines.append(f"  qos[tenant={tenant}]: " + ", ".join(parts))
        return lines


class TransformService:
    """Serving front-end over the plan interface and a simulated device fleet.

    The service turns *one-shot* NUFFT requests into amortized plan usage:

    * **plan pooling** -- plans are cached by geometry key (type, modes/dim,
      eps, precision, method, backend, ``n_trans``) per device and reused
      across requests, skipping planning (allocations, correction factors,
      cuFFT plan);
    * **coalescing** -- queued requests with the same geometry *and* the same
      point set are fused into one ``n_trans`` block and executed in a single
      vectorized pass (PR 1's batched engine), skipping ``set_pts`` when the
      pooled plan already holds those points;
    * **sharding** -- large fused blocks are split over the device fleet,
      each shard on the least-loaded device, reproducing the paper's
      multi-GPU weak-scaling setup (Fig. 9) in a serving context;
    * **stream overlap** -- every executed block's modelled h2d / kernel /
      d2h costs are enqueued on per-device :class:`~repro.gpu.device.Stream`
      objects, so consecutive blocks double-buffer (one block's transfers
      overlap another's kernels) and the fleet reports a modelled makespan,
      per-device utilization and requests/s.

    Parameters
    ----------
    fleet : DeviceFleet, optional
        Devices to serve on; defaults to a fresh fleet of ``n_devices``, each
        with :data:`STREAMS_PER_DEVICE` streams.
    n_devices : int
        Fleet size when ``fleet`` is not given.
    max_plans : int
        LRU capacity of the plan pool; ``pool_plans=False`` forces 0.
    pool_plans : bool
        Disable to re-plan per request (the unpooled baseline).
    coalesce : bool
        Disable to execute every request as its own block.
    charge_plan_creation : bool
        Include plan construction (simulated allocations + the cuFFT plan
        cost the paper excludes with a dummy transform) in the modelled
        timeline of cache misses.  This is the cost pooling amortizes.
    tune : str
        Plan-parameter autotuning policy applied to every plan the service
        creates (pooled or leased): ``"off"`` (default), ``"model"`` or
        ``"measure"`` -- see :mod:`repro.tuning`.  All plans share the
        service's single :class:`~repro.tuning.Autotuner`, so concurrent
        requests that fall into one problem signature share one tuning entry.
    tuner : Autotuner, optional
        Tuner to share (e.g. across services); defaults to a fresh one over
        ``tuning_cache_path`` when tuning is enabled.
    tuning_cache_path : str, optional
        On-disk tuning cache, so tuned configurations survive restarts.  A
        corrupt or partially-written file falls back to model-scored tuning
        (see :class:`~repro.tuning.TuningCache`).
    artifact_store : ArtifactStore or str, optional
        Unified warm-state store (or a directory path for one).  Every plan
        the service creates loads/saves stencil caches and Horner fits
        through it, Toeplitz solves load/save PSF kernels, tuning wisdom
        persists under it (unless ``tuning_cache_path``/``tuner`` override),
        and pooled plan signatures are recorded so a restarted service
        **pre-warms** its pool before the first request.  Defaults to the
        process store when ``REPRO_ARTIFACT_STORE`` is exported, else off.
    retry : RetryPolicy, optional
        Retry budget and deterministic backoff applied to retryable device
        faults (:class:`~repro.faults.DeviceFaultError` subclasses).  The
        default ``RetryPolicy()`` retries up to 3 attempts; validation and
        application errors are never retried.  Backoff is charged to the
        request's modelled timeline.
    max_queue_depth : int, optional
        Bounded-intake-queue limit.  When a :meth:`submit` would push the
        queue past this depth, the *lowest-priority* request is shed with
        :class:`~repro.service.ServiceOverloadedError` -- the incoming one
        (raising) when it ties for lowest, a queued one (error result at
        :meth:`flush`) when it ranks strictly lower.  ``None`` (default)
        leaves the queue unbounded.
    fault_injector : FaultInjector, optional
        A :class:`~repro.faults.FaultInjector` to attach to every fleet
        device (chaos testing / resilience benchmarks).
    distributed_threshold_points : int, optional
        Point count at or above which a queued type-1/2 request bypasses
        the fused single-device path and is served by a
        :class:`~repro.cluster.distributed.DistributedPlan` spanning
        :data:`DISTRIBUTED_RANKS` simulated ranks on a fresh Cori-GPU-like
        node (domain-decomposed spreading, halo exchange, slab FFT).
        ``None`` (default) disables routing; :meth:`execute_distributed`
        stays available either way.

    Module constants fix the serving geometry: blocks hold at most
    :data:`MAX_BLOCK` requests and shard in pieces of at least
    :data:`SHARD_MIN_BLOCK`, and every dispatch costs the host
    :data:`DISPATCH_LATENCY_S`.  h2d uploads to *different* devices
    serialize on the host's shared PCIe link; with the dispatch latency,
    that is what bends the multi-device scaling curve below ideal (the
    fleet analogue of Fig. 9's saturation).
    """

    def __init__(self, fleet=None, n_devices=1, max_plans=32, pool_plans=True,
                 coalesce=True, charge_plan_creation=True, tune="off",
                 tuner=None, tuning_cache_path=None, artifact_store=None,
                 retry=None, max_queue_depth=None, fault_injector=None,
                 distributed_threshold_points=None):
        self.fleet = fleet if fleet is not None else DeviceFleet(
            n_devices=n_devices, streams_per_device=STREAMS_PER_DEVICE
        )
        self.pool_plans = bool(pool_plans)
        self.pool = PlanPool(max_plans if self.pool_plans else 0,
                             on_evict=self._persist_plan_signature)
        self.coalesce = bool(coalesce)
        self.charge_plan_creation = bool(charge_plan_creation)

        # Warm-state artifact store: a path (or REPRO_ARTIFACT_STORE) makes
        # every stencil cache, Horner fit, tuning record and PSF kernel this
        # service computes survive restarts; pooled plan signatures are
        # recorded too, so __init__ ends by pre-warming the pool from them.
        from ..artifacts import ArtifactStore, default_store
        from ..core.env import artifact_store_path

        if artifact_store is None:
            if artifact_store_path() is not None:
                artifact_store = default_store()
        elif isinstance(artifact_store, (str, os.PathLike)):
            artifact_store = ArtifactStore(root=artifact_store)
        self.artifact_store = artifact_store
        artifacts = getattr(artifact_store, "stats", None)
        # The artifact counters count from here, pre-warming included.
        artifacts_since = artifacts.snapshot() if artifacts is not None else None

        from ..tuning import TUNE_MODES, Autotuner, TuningCache

        if tune not in TUNE_MODES:
            raise ValueError(f"tune must be one of {TUNE_MODES}, got {tune!r}")
        self.tune = tune
        if tune == "off":
            if tuner is not None or tuning_cache_path is not None:
                raise ValueError(
                    "tuner/tuning_cache_path have no effect with tune='off'; "
                    "pass tune='model' or tune='measure' to enable autotuning"
                )
            self.tuner = None
        elif tuner is not None:
            self.tuner = tuner
        elif tuning_cache_path is None and self.artifact_store is not None:
            # Tuning wisdom joins the unified store (record kind "tuning").
            self.tuner = Autotuner(cache=TuningCache(store=self.artifact_store))
        else:
            self.tuner = Autotuner(cache=TuningCache(tuning_cache_path))
        self.retry = retry if retry is not None else RetryPolicy()
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        if max_queue_depth is not None:
            max_queue_depth = integral_count("max_queue_depth", max_queue_depth, 1)
        self.max_queue_depth = max_queue_depth
        if distributed_threshold_points is not None:
            distributed_threshold_points = integral_count(
                "distributed_threshold_points", distributed_threshold_points, 1)
        self.distributed_threshold_points = distributed_threshold_points
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.attach(self.fleet.devices)
        self._queue = []  # list[(seq, TransformRequest)]
        self._shed = []  # list[(seq, TransformResult)] awaiting flush
        self._seq = itertools.count()
        self._leased = {}  # id(plan) -> PooledPlan
        self._host_frontier = 0.0
        self._host_link_frontier = 0.0
        self._closed = False
        self.stats = ServiceStats(artifacts=artifacts, since=artifacts_since,
                                  prewarmed=self._pre_warm())

    # ------------------------------------------------------------------ #
    # request intake
    # ------------------------------------------------------------------ #
    def submit(self, request=None, **kwargs):
        """Queue one request; returns its sequence number.

        Accepts a prebuilt :class:`TransformRequest` or the request's fields
        as keywords.  Validation is eager (front door): malformed requests
        raise here and never enter the queue.
        """
        self._require_open()
        request = front_door(TransformRequest, request, kwargs)
        seq = next(self._seq)
        self.stats.requests_submitted += 1
        if (self.max_queue_depth is not None
                and len(self._queue) >= self.max_queue_depth):
            self._shed_lowest(seq, request)
        self._queue.append((seq, request))
        return seq

    def _shed_lowest(self, seq, request):
        """Shed the lowest-priority request to admit ``(seq, request)``.

        The victim is the :func:`~repro.service.resilience.shed_victim`: an
        incoming one raises :class:`ServiceOverloadedError` and never enters
        the queue, a queued one is removed and receives an error result at
        :meth:`flush`.
        """
        victim_i = shed_victim(self._queue, seq, request)
        self.stats.requests_shed += 1
        depth = len(self._queue)
        if victim_i is None:
            raise ServiceOverloadedError(
                f"intake queue at max_queue_depth={self.max_queue_depth} "
                f"({depth} queued) and no queued request has priority below "
                f"{request.priority}; request shed"
            )
        vseq, vreq = self._queue.pop(victim_i)
        exc = ServiceOverloadedError(
            f"shed from the intake queue at depth {depth} "
            f"(max_queue_depth={self.max_queue_depth}, priority "
            f"{vreq.priority} was the lowest queued)"
        )
        self._shed.append((vseq, TransformResult(tag=vreq.tag, error=exc)))

    def run(self, requests):
        """Submit a batch of requests and flush; returns results in order."""
        for request in requests:
            self.submit(request)
        return self.flush()

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def flush(self):
        """Serve every queued request; returns results in submission order.

        Requests are grouped into same-geometry/same-points blocks (when
        coalescing is on), blocks are sharded over the fleet, and each shard
        runs as one fused ``n_trans`` execute on a pooled (or fresh) plan.
        A failing shard retries under the service's :class:`RetryPolicy`
        (re-dispatching to healthy devices), and a shard that exhausts its
        budget yields per-request ``error`` results without disturbing other
        blocks.  Requests shed from the bounded queue are returned here too,
        carrying :class:`ServiceOverloadedError`, in submission order with
        the rest.
        """
        self._require_open()
        queue, self._queue = self._queue, []
        shed, self._shed = self._shed, []
        if not queue and not shed:
            return []
        results = dict(shed)
        queue = self._route_distributed(queue, results)
        for block in self._group(queue):
            shards = self._shards(block)
            ranked = None
            if len(shards) > 1:
                # Pin a multi-shard block's shards to distinct devices (in
                # least-loaded order) so the block actually runs in parallel;
                # plan affinity alone would pile every shard onto the device
                # already holding a matching plan.  Pinning is health-aware;
                # with every device lost the shards dispatch unpinned and
                # fail with per-request DeviceLostError results.
                try:
                    ranked = self.fleet.ranked()
                except DeviceLostError:
                    pass
            for i, shard in enumerate(shards):
                device = ranked[i % len(ranked)] if ranked else None
                self._execute_shard(shard, results, device=device)
            self.stats.blocks_executed += 1
        return [results[seq] for seq in sorted(results)]

    def _route_distributed(self, queue, results):
        """Peel oversized requests off the queue onto the distributed path.

        With ``distributed_threshold_points`` set, any queued type-1/2
        request whose point count meets the threshold is served by a
        multi-rank :class:`~repro.cluster.distributed.DistributedPlan`
        instead of a fused single-device block (type 3 has no slab
        decomposition and always stays on the fleet).  A failing
        distributed request yields its own ``error`` result without
        disturbing the rest of the queue.  Returns the remaining queue.
        """
        if self.distributed_threshold_points is None:
            return queue
        kept = []
        for seq, req in queue:
            if (req.nufft_type not in (1, 2)
                    or req.n_points < self.distributed_threshold_points):
                kept.append((seq, req))
                continue
            try:
                results[seq] = self._serve_distributed(req)
            except Exception as exc:
                self._note_failure(exc)
                self.stats.requests_failed += 1
                results[seq] = TransformResult(tag=req.tag, error=exc)
        return kept

    def execute_distributed(self, request=None, n_ranks=None, node=None,
                            **kwargs):
        """Serve one request on a multi-rank distributed plan, immediately.

        Accepts a prebuilt :class:`TransformRequest` or its fields as
        keywords (same front door as :meth:`submit`); the transform runs on
        a fresh :class:`~repro.cluster.distributed.DistributedPlan` over
        ``n_ranks`` simulated ranks (default :data:`DISTRIBUTED_RANKS`)
        hosted on ``node`` (default a fresh Cori-GPU-like node).  Only types
        1 and 2 decompose; type 3 raises :class:`ValueError`.

        Returns
        -------
        TransformResult
            ``device_id`` is ``-1`` (the work spans ranks, not one fleet
            device) and ``modelled_seconds`` carries the distributed
            breakdown: ``exec`` (slowest rank's compute), ``comm``,
            ``overlap``, ``makespan``, plus exact ``halo_bytes`` and
            ``transpose_bytes``.
        """
        self._require_open()
        request = front_door(TransformRequest, request, kwargs)
        self.stats.requests_submitted += 1
        return self._serve_distributed(request, n_ranks=n_ranks, node=node)

    def _serve_distributed(self, request, n_ranks=None, node=None):
        """Run one validated request through a fresh DistributedPlan."""
        from ..cluster.distributed import DistributedPlan

        if request.nufft_type not in (1, 2):
            raise ValueError(
                "distributed execution supports types 1 and 2 only; type "
                f"{request.nufft_type} has no slab decomposition"
            )
        plan = DistributedPlan(
            request.nufft_type, request.n_modes,
            n_ranks=DISTRIBUTED_RANKS if n_ranks is None else n_ranks,
            eps=request.eps, node=node, precision=request.precision,
            isign=request.isign,
        )
        try:
            plan.set_pts(**request.setpts_kwargs())
            output = plan.execute(request.data)
            breakdown = plan.last_breakdown
        finally:
            plan.destroy()
        # Distributed requests run on their own node, off the fleet streams;
        # only the host-side dispatch and the modelled makespan serialize on
        # the submission thread.
        self._host_frontier += DISPATCH_LATENCY_S + breakdown.makespan_s
        modelled = {
            "h2d": 0.0,
            "exec": breakdown.compute_s,
            "d2h": 0.0,
            "comm": breakdown.comm_s,
            "overlap": breakdown.overlap_s,
            "makespan": breakdown.makespan_s,
            "halo_bytes": float(breakdown.halo_bytes),
            "transpose_bytes": float(breakdown.transpose_bytes),
            "n_ranks": float(breakdown.n_ranks),
        }
        self.stats.modelled_engine_seconds["exec"] += breakdown.compute_s
        self.stats.distributed_requests += 1
        self.stats.requests_served += 1
        return TransformResult(
            tag=request.tag, output=output, device_id=-1, block_size=1,
            modelled_seconds=modelled, completed_at=self._host_frontier,
            tenant=request.tenant,
        )

    def _group(self, queue):
        """Coalesce the queue into same-geometry/same-points blocks.

        Requests with one signature fuse only when their point arrays are
        equal value for value (:func:`~repro.service.pool.equal_points`):
        equal checksums over unequal points form separate blocks.
        """
        if not self.coalesce:
            return [[item] for item in queue]
        groups = {}  # signature -> blocks of equal points, in first-seen order
        for seq, req in queue:
            blocks = groups.setdefault(req.signature(), [])
            for block in blocks:
                if equal_points(block[0][1].point_arrays(), req.point_arrays()):
                    block.append((seq, req))
                    break
            else:
                blocks.append([(seq, req)])
        return [block[i:i + MAX_BLOCK] for blocks in groups.values()
                for block in blocks for i in range(0, len(block), MAX_BLOCK)]

    def _shards(self, block):
        """Split one block across the fleet (each shard >= SHARD_MIN_BLOCK)."""
        n_shards = min(self.fleet.n_devices, max(1, len(block) // SHARD_MIN_BLOCK))
        if n_shards <= 1:
            return [block]
        bounds = np.array_split(np.arange(len(block)), n_shards)
        return [[block[i] for i in idx] for idx in bounds if len(idx)]

    def _execute_shard(self, shard, results, device=None):
        """Execute one shard with retry, deadline and degradation handling.

        A retryable device fault (:class:`~repro.faults.DeviceFaultError`)
        re-dispatches the shard -- health-aware placement steers retries to
        healthy devices, and a dead device is evicted (its pooled plans
        destroyed).  Backoff between attempts is charged to the modelled
        host timeline.  The shard's effective deadline is the tightest
        ``deadline_s`` among its requests; exceeding it while retrying (or
        at completion) classifies the requests as deadline-exceeded.
        Validation and application errors fail immediately (attempt 1).
        """
        req0 = shard[0][1]
        n_trans = len(shard)
        deadline = min((r.deadline_s for _, r in shard
                        if r.deadline_s is not None), default=None)
        started_at = self._host_frontier
        attempts = 0
        while True:
            attempts += 1
            entry = None
            try:
                degraded = not self.fleet.admissible()
                target = device
                if (attempts > 1 or degraded
                        or (target is not None
                            and not self.fleet.is_admissible(target.device_id))):
                    target = None  # re-place health-aware
                entry, created, warm = self._acquire_plan(
                    req0.plan_key(), n_trans, req0, device=target)
                self.stats.record_pool_event(req0.signature(), hit=not created)
                self._execute_shard_inner(shard, entry, created, warm, results,
                                          attempts, degraded, started_at)
            except Exception as exc:  # per-request failure isolation
                # Don't pool a plan whose set_pts/execute failed mid-flight:
                # its cached point state can no longer be vouched for.
                if entry is not None:
                    entry.plan.destroy()
                if self._retry_after(exc, attempts, str(shard[0][0]),
                                     entry.key[-1] if entry else None):
                    if (deadline is None
                            or self._host_frontier - started_at <= deadline):
                        continue
                    exc = DeadlineExceededError(
                        f"deadline_s={deadline} exhausted after "
                        f"{attempts} attempt(s)"
                    )
                self.stats.requests_failed += n_trans
                if isinstance(exc, DeadlineExceededError):
                    self.stats.deadline_exceeded += n_trans
                for seq, req in shard:
                    results[seq] = TransformResult(
                        tag=req.tag, error=exc, attempts=attempts,
                        block_size=n_trans,
                    )
                return
            self.fleet.record_success(entry.key[-1])
            self._release_entry(entry)
            return

    def _retry_after(self, exc, attempts, token, device_id):
        """Count one failed attempt; whether to retry it, backoff charged.

        The one retry decision of transform and solve shards: ``exc`` must
        be retryable, the :class:`RetryPolicy` budget not spent, and some
        device still alive and not evicted.  A retry charges the policy's
        backoff to the modelled host clock.
        """
        self._note_failure(exc, device_id)
        if not (self.retry.should_retry(exc)
                and attempts < self.retry.max_attempts
                and any(getattr(d, "alive", True)
                        and not self.fleet.health[d.device_id].evicted
                        for d in self.fleet.devices)):
            return False
        self._host_frontier += self.retry.backoff_s(attempts, token)
        self.stats.retries += 1
        return True

    def _note_failure(self, exc, device_id=None):
        """Taxonomy-count one failure and update the device's health."""
        name = type(exc).__name__
        self.stats.failures_by_type[name] = (
            self.stats.failures_by_type.get(name, 0) + 1
        )
        # Only device faults count against the breaker: an application or
        # validation error says nothing about the hardware that ran it.
        if device_id is None or not isinstance(exc, DeviceFaultError):
            return
        if self.fleet.record_failure(device_id):
            self.stats.breaker_trips += 1
        if isinstance(exc, DeviceLostError):
            self.fleet.evict(device_id)
            self.pool.purge_device(device_id)

    def _release_entry(self, entry):
        """Pool a finished entry -- unless its device left the fleet.

        A plan bound to an evicted, draining or dead device must be
        destroyed, not recycled: placement will never (or should never)
        select that device again, and its simulated allocations are stale.
        """
        device_id = entry.key[-1]
        health = self.fleet.health[device_id]
        alive = getattr(self.fleet.device(device_id), "alive", True)
        if health.evicted or health.draining or not alive:
            entry.plan.destroy()
        else:
            self._persist_plan_signature(entry)
            self.pool.release(entry)

    def _execute_shard_inner(self, shard, entry, created, setpts_reused, results,
                             attempts, degraded, started_at):
        req0, n_trans, plan = shard[0][1], len(shard), entry.plan
        setup_seconds = {"h2d": 0.0, "exec": 0.0, "d2h": 0.0}
        if setpts_reused:
            self.stats.record_setpts_skip(req0.signature(), n_trans)
        else:
            plan.set_pts(**req0.setpts_kwargs())
            entry.point_at(req0.points_key(), req0.point_arrays())
            setup_seconds = _engine_seconds(plan, plan._setup_pipeline)
            self.stats.setpts_executed += 1

        if n_trans == 1:
            outputs = [plan.execute(req0.data)]
        else:
            outputs = list(plan.execute(np.stack([req.data for _, req in shard])))
        # Warm executes of one plan and point set record the same profiles
        # and transfers, so the first execute's price stands for all of them
        # (dropped with the point set on the next set_pts).
        exec_seconds = plan._point_state_value(
            ("engine seconds", n_trans),
            lambda: _engine_seconds(plan, plan._exec_pipeline),
        )

        plan_setup_s = 0.0
        if created and self.charge_plan_creation:
            plan_setup_s = (
                _engine_seconds(plan, plan._plan_pipeline)["exec"]
                + plan.cost_model.constants.cufft_startup_s
            )

        steps = [("exec", plan_setup_s, "plan create"),
                 ("h2d", setup_seconds["h2d"] + exec_seconds["h2d"],
                  "points + input upload"),
                 ("exec", setup_seconds["exec"] + exec_seconds["exec"],
                  "setup + transform kernels")]
        completed_at, modelled = self._enqueue_timeline(
            entry.device_id,
            [step for step in steps if step[1] > 0.0]
            + [("d2h", exec_seconds["d2h"], "output download")],
        )
        modelled["plan_setup"] = plan_setup_s
        if degraded:
            self.stats.degraded_shards += 1
            self.stats.degraded_seconds += (
                modelled["h2d"] + modelled["exec"] + modelled["d2h"]
            )

        served = 0
        common = dict(device_id=entry.device_id, block_size=n_trans,
                      completed_at=completed_at, attempts=attempts,
                      degraded=degraded)
        for i, (seq, req) in enumerate(shard):
            # A request whose completion lands past its own deadline_s is a
            # timeout even though the block computed it (the block served
            # its shard-mates; this caller stopped waiting).
            if (req.deadline_s is not None
                    and completed_at - started_at > req.deadline_s):
                exc = DeadlineExceededError(
                    f"completed {completed_at - started_at:.6f}s after first "
                    f"dispatch, past deadline_s={req.deadline_s}"
                )
                self.stats.deadline_exceeded += 1
                self.stats.requests_failed += 1
                results[seq] = TransformResult(tag=req.tag, error=exc, **common)
                continue
            served += 1
            results[seq] = TransformResult(
                tag=req.tag, output=outputs[i], plan_reused=not created,
                setpts_reused=setpts_reused, modelled_seconds=modelled, **common,
            )
        self.stats.requests_served += served
        self.stats.shards_executed += 1

    def _enqueue_timeline(self, device_id, steps):
        """Model one dispatch on its device's streams; returns (t_done, seconds).

        ``steps`` lists ``(engine, seconds, label)`` in stream order.  Host
        dispatches serialize (one submission thread), every h2d step waits
        for the shared host link, and on the device each engine runs its own
        steps, so consecutive dispatches on different streams overlap.
        ``seconds`` sums the steps per engine (also added to
        ``stats.modelled_engine_seconds``); ``t_done`` is the last step's.
        """
        stream = self.fleet.next_stream(self.fleet.device(device_id))
        self._host_frontier += DISPATCH_LATENCY_S
        stream.wait_until(self._host_frontier)
        seconds = dict.fromkeys(ENGINES, 0.0)
        for engine, step_s, label in steps:
            if engine == "h2d":
                stream.wait_until(self._host_link_frontier)
            event = stream.enqueue(engine, step_s, label)
            if engine == "h2d":
                self._host_link_frontier = event.time
            seconds[engine] += step_s
        for engine, step_s in seconds.items():
            self.stats.modelled_engine_seconds[engine] += step_s
        return event.time, seconds

    # ------------------------------------------------------------------ #
    # plan acquisition
    # ------------------------------------------------------------------ #
    def _acquire_plan(self, plan_key, n_trans, request=None, device=None,
                      allow_repoint=False):
        """Lease a pooled plan or build one; returns (entry, created, warm).

        ``warm`` says the entry's plan holds ``request``'s point set, so
        ``set_pts`` can be skipped.  With ``device`` pinned (multi-shard
        blocks), only that device's pool bucket is consulted.  Otherwise
        device choice balances cache affinity against load: first a device
        (in least-loaded order) whose pooled plan already holds the
        request's exact point set (:meth:`PlanPool.lease_points`, checksum
        then values), then a device with an unpointed plan, then -- at pool
        capacity -- the least recently used pointed plan for the key across
        all candidate devices, re-pointed (below capacity, external lessees
        take the first pointed plan in least-loaded order), and otherwise a
        fresh plan on the least-loaded device.
        """
        ranked = [device] if device is not None else self.fleet.ranked()
        keys = [(plan_key, n_trans, d.device_id) for d in ranked]
        if request is not None:
            points_key, points = request.points_key(), request.point_arrays()
            for key in keys:
                entry = self.pool.lease_points(key, points_key, points)
                if entry is not None:
                    return entry, False, True
        # Plans released by external lessees carry no vouched-for point set
        # (points_key=None): re-pointing one steals cached state from nobody,
        # so they are fair game at any pool occupancy.
        for key in keys:
            entry = self.pool.lease_unpointed(key)
            if entry is not None:
                return entry, False, False
        # Geometry-only reuse of a *pointed* plan re-runs set_pts on it,
        # which pays off only once the pool can no longer grow: below
        # capacity, distinct recurring point sets each deserve their own
        # pooled plan (otherwise a single plan ping-pongs between point
        # sets, re-sorting forever).  At capacity the victim is the least
        # recently used plan for the key across the candidate devices, not
        # the least-loaded device's: the most recent plans hold the hot point
        # sets.  External lessees (allow_repoint) re-point the plan
        # regardless, so below capacity any geometry hit wins, in load order.
        if 0 < self.pool.max_plans <= self.pool.n_idle:
            key = self.pool.lru_key(keys)
            if key is not None:
                return self.pool.lease(key), False, False
        elif allow_repoint:
            for key in keys:
                entry = self.pool.lease(key)
                if entry is not None:
                    return entry, False, False
        return self._new_entry(plan_key, n_trans, ranked[0]), True, False

    def _new_entry(self, plan_key, n_trans, device):
        """A pool entry around a new plan of ``plan_key`` on ``device``.

        The one place the service builds a plan: pooled, leased and
        pre-warmed plans alike share the service's tuning policy, tuner
        and artifact store.
        """
        plan = Plan(plan_key.nufft_type, plan_key.plan_modes, n_trans=n_trans,
                    eps=plan_key.eps, device=device,
                    precision=plan_key.precision, method=plan_key.method,
                    backend=plan_key.backend, isign=plan_key.isign,
                    tune=self.tune, tuner=self.tuner,
                    artifact_store=self.artifact_store)
        entry = self.pool.make_entry(plan, (plan_key, n_trans, device.device_id))
        entry.device_id = device.device_id
        return entry

    # ------------------------------------------------------------------ #
    # warm state (artifact store)
    # ------------------------------------------------------------------ #
    def _persist_plan_signature(self, entry):
        """Record an idle plan's geometry in the store (record kind "plans").

        Called on every pool release and (via ``PlanPool.on_evict``) on every
        eviction, so the store always lists the signatures a restarted
        service should pre-warm.  Idempotent per signature: already-recorded
        keys are skipped without rewriting the table.
        """
        store = self.artifact_store
        if store is None:
            return
        try:
            plan_key, n_trans, _device_id = entry.key
            name, record = plan_key.record(n_trans)
            if store.get_record("plans", name, count=False) is None:
                store.put_record("plans", name, record)
        except Exception:
            # Persistence is best-effort: a full disk or torn table must
            # never take the serving path down.
            pass

    def _pre_warm(self):
        """Recreate pooled plans recorded by a previous process.

        Walks the store's ``"plans"`` records and constructs each signature's
        plan on the least-loaded device, bounded by the pool's LRU capacity.
        Plan construction pulls its stencil-independent state (kernel fit,
        correction factors, cuFFT workspace) up front and the pre-warmed
        entries carry ``points_key=None``, so the very first matching request
        leases one via the unpointed fast path instead of planning.
        Unreconstructible records (schema drift, bad values) are skipped.
        Returns the number of plans pre-warmed.
        """
        store = self.artifact_store
        prewarmed = 0
        if store is None or self.pool.max_plans == 0:
            return prewarmed
        for name in store.record_keys("plans"):
            if self.pool.n_idle >= self.pool.max_plans:
                break
            rec = store.get_record("plans", name, count=False)
            if rec is None:
                continue
            try:
                plan_key, n_trans = PlanKey.from_record(rec)
                entry = self._new_entry(plan_key, n_trans,
                                        self.fleet.least_loaded())
            except Exception:
                continue
            self.pool.release(entry)
            prewarmed += 1
        return prewarmed

    # ------------------------------------------------------------------ #
    # inverse-NUFFT solves (see repro.solve)
    # ------------------------------------------------------------------ #
    def solve(self, request=None, **kwargs):
        """Serve one inverse-NUFFT :class:`~repro.solve.SolveRequest`.

        Accepts a prebuilt request or its fields as keywords.  Every plan the
        solve needs (density-compensation, adjoint right-hand side, Toeplitz
        PSF or explicit forward/adjoint pair) is leased from the service's
        pool, so repeated solves over the same trajectory geometry skip all
        planning.  A batched request (``data`` of shape ``(n_rhs, M)``) is
        sharded across the device fleet -- each shard leases plans pinned to
        its device and runs its rows' CG independently -- and the shards'
        modelled costs are enqueued on the per-device stream timelines
        exactly like transform blocks, so :meth:`makespan` /
        :meth:`utilization` cover solves too.

        Returns
        -------
        SolveResult
            Merged over shards, row order preserved; ``device_ids`` lists
            the devices the shards ran on.
        """
        from ..solve import SolveRequest

        self._require_open()
        request = front_door(SolveRequest, request, kwargs)

        n_shards = min(self.fleet.n_devices, request.n_rhs)
        if n_shards <= 1:
            result = self._execute_solve_shard(request,
                                               self.fleet.least_loaded(), "solve")
            self.stats.solves_served += request.n_rhs
            return result

        ranked = self.fleet.ranked()
        # Resolve Pipe-Menon weights once for the whole request -- every
        # shard shares the trajectory, so per-shard recomputation would just
        # repeat the identical DCF fixed point.  (The Toeplitz PSF *is*
        # rebuilt per shard: each shard's kernel lives on its own device.)
        weights = request.weights
        if isinstance(weights, str):
            from ..solve import pipe_menon_weights

            weights = pipe_menon_weights(
                request.points(), request.n_modes, n_iter=request.dcf_iters,
                eps=request.eps, isign=request.isign, service=self,
                device=ranked[0], backend=request.backend,
            )
        rows = request.rhs_rows()
        bounds = np.array_split(np.arange(request.n_rhs), n_shards)
        shard_results = []
        for i, idx in enumerate(bounds):
            if len(idx) == 0:
                continue
            shard_req = request.replace_data(rows[idx], weights=weights)
            result = self._execute_solve_shard(
                shard_req, ranked[i % len(ranked)], f"solve-shard-{i}"
            )
            shard_results.append(result)
        self.stats.solves_served += request.n_rhs
        return self._merge_solve_results(request, shard_results)

    def _execute_solve_shard(self, shard_req, device, token):
        """Run one solve shard with retry and health tracking.

        Device faults raised inside :func:`~repro.solve.execute_solve`
        (every leased plan releases via ``finally``, so retries never leak
        leases) re-dispatch the shard to the healthiest device, with the
        same backoff-on-the-modelled-timeline accounting as transform
        shards.  A shard that exhausts its budget raises to the caller --
        a solve has no per-request error slot to degrade into.
        """
        from ..gpu.profiler import TransferRecord
        from ..solve import execute_solve

        attempts = 0
        while True:
            attempts += 1
            try:
                result = execute_solve(shard_req, service=self, device=device)
            except Exception as exc:
                if not self._retry_after(
                        exc, attempts, token,
                        device.device_id if device is not None else None):
                    raise
                device = self.fleet.least_loaded()
                continue
            if device is not None:
                self.fleet.record_success(device.device_id)
            # Model the shard on its device's streams like a block.
            device_id = result.device_ids[0] if result.device_ids else 0
            cm = CostModel(spec=self.fleet.device(device_id).spec)
            modelled = result.modelled_seconds
            self._enqueue_timeline(device_id, [
                ("h2d", cm.transfer_time(TransferRecord("h2d", modelled["h2d_bytes"])),
                 "trajectory + samples upload"),
                ("exec", modelled["exec"], "solve kernels"),
                ("d2h", cm.transfer_time(TransferRecord("d2h", modelled["d2h_bytes"])),
                 "image download"),
            ])
            self.stats.solve_shards += 1
            self.stats.solve_cg_iterations += int(sum(result.n_iter))
            return result

    @staticmethod
    def _merge_solve_results(request, shard_results):
        from ..solve import SolveResult

        merged = SolveResult(
            x=np.concatenate([r.x.reshape((-1,) + request.n_modes)
                              for r in shard_results]),
            residual_norms=[h for r in shard_results for h in r.residual_norms],
            n_iter=[n for r in shard_results for n in r.n_iter],
            converged=[c for r in shard_results for c in r.converged],
            weights=shard_results[0].weights,
            normal=request.normal,
            device_ids=[d for r in shard_results for d in r.device_ids],
            tag=request.tag,
        )
        total = {"psf_build": 0.0, "rhs_build": 0.0, "per_iteration": 0.0,
                 "iterations": 0, "exec": 0.0, "h2d_bytes": 0, "d2h_bytes": 0}
        for r in shard_results:
            for key in total:
                total[key] += r.modelled_seconds[key]
        total["per_iteration"] = shard_results[0].modelled_seconds["per_iteration"]
        merged.modelled_seconds = total
        return merged

    # ------------------------------------------------------------------ #
    # external plan leasing (application integration, e.g. M-TIP)
    # ------------------------------------------------------------------ #
    def lease_plan(self, nufft_type, n_modes, n_trans=1, eps=1e-6,
                   precision="double", method="auto", backend="auto",
                   isign=None, device=None):
        """Lease a plan from the pool (or create one on the emptiest device).

        The application drives ``set_pts`` / ``execute`` itself and must give
        the plan back with :meth:`release_plan`; across leases the plan's
        geometry planning is amortized exactly as for coalesced requests.
        ``isign`` selects the exponent sign (``None`` keeps the per-type
        default) and is part of the pool key.  ``device`` pins the lease to
        one fleet device (used by sharded solves); by default the
        least-loaded device holding an idle plan wins, or -- once the pool
        is at capacity -- the device holding the key's least recently used
        idle plan, whatever its load.
        """
        self._require_open()
        plan_key = plan_key_for(nufft_type, n_modes, eps, precision, method,
                                backend, isign)
        entry, created, _ = self._acquire_plan(
            plan_key, integral_count("n_trans", n_trans, 1),
            allow_repoint=True, device=device,
        )
        if created:
            self.stats.lease_misses += 1
        else:
            self.stats.lease_hits += 1
        # External callers may re-point the plan arbitrarily; the pool can no
        # longer vouch for the cached point set.
        entry.points_key = entry.points = None
        self._leased[id(entry.plan)] = entry
        return entry.plan

    def release_plan(self, plan):
        """Return a leased plan to the pool (destroyed if pooling is off).

        A plan the lessee already destroyed (e.g. by using it as a context
        manager) is dropped rather than pooled -- pooling it would hand a
        dead plan to the next same-geometry request.  Likewise a plan whose
        device was evicted, drained or lost mid-lease is destroyed, not
        recycled.
        """
        entry = self._leased.pop(id(plan), None)
        if entry is None:
            raise ValueError("plan was not leased from this service")
        if plan._destroyed:
            return
        self._release_entry(entry)

    # ------------------------------------------------------------------ #
    # fleet administration
    # ------------------------------------------------------------------ #
    def drain_device(self, device_id):
        """Drain one device: no new placements, idle pooled plans destroyed.

        In-flight leases finish normally (and are destroyed at release);
        :meth:`restore_device` re-admits the device.
        """
        self.fleet.drain(device_id)
        self.pool.purge_device(device_id)

    def restore_device(self, device_id):
        """Re-admit a drained device to placement."""
        self.fleet.restore(device_id)

    def evict_device(self, device_id):
        """Permanently remove one device from placement; purge its plans."""
        self.fleet.evict(device_id)
        self.pool.purge_device(device_id)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def advance_time(self, now):
        """Advance the modelled host clock to ``now`` (monotonic; seconds).

        The async front-end lives on an *arrival* clock: requests land at
        trace-defined instants, windows close at deadlines.  Before
        dispatching a window that closed at ``now`` it advances the
        service's host frontier here, so dispatch latency, backoff and
        stream waits are charged from the arrival instant rather than from
        wherever the last flush left the frontier.  Moving backwards is a
        no-op -- modelled time never rewinds.
        """
        now = float(now)
        if now > self._host_frontier:
            self._host_frontier = now
        if now > self._host_link_frontier:
            self._host_link_frontier = now

    @property
    def host_time(self):
        """Current modelled host-clock instant (seconds)."""
        return self._host_frontier

    def makespan(self):
        """Modelled seconds to drain everything served so far."""
        return self.fleet.makespan()

    def throughput_rps(self):
        """Modelled requests per second over the service lifetime."""
        makespan = self.makespan()
        if makespan <= 0.0:
            return 0.0
        return self.stats.requests_served / makespan

    def utilization(self, engine="exec"):
        """Per-device busy fraction of the fleet makespan."""
        return self.fleet.utilization(engine)

    def reset_metrics(self):
        """Rewind the modelled timelines and counters; pooled plans survive.

        Benchmarks use this to measure steady-state serving (warm pool)
        separately from the cold start that filled it.
        """
        self.fleet.reset_timelines()
        self._host_frontier = 0.0
        self._host_link_frontier = 0.0
        self.stats = ServiceStats(
            artifacts=getattr(self.artifact_store, "stats", None),
            prewarmed=self.stats.plans_prewarmed,
        )

    def report(self):
        """Multi-line human-readable serving summary."""
        s = self.stats
        util = ", ".join(f"gpu{d}={u:.0%}" for d, u in enumerate(self.utilization()))
        tuning_lines = []
        if self.tuner is not None:
            ts = self.tuner.stats
            tuning_lines.append(
                f"  tuning: {ts.tunings_computed} computed, {ts.cache_hits} "
                f"cache hits, {len(self.tuner.cache)} cached signature(s)"
            )
        artifact_lines = []
        if self.artifact_store is not None:
            artifact_lines.append(
                f"  artifacts: {s.artifact_hits} hits, {s.artifact_misses} "
                f"misses, {s.artifact_stale} stale, {s.artifact_corrupt} "
                f"corrupt, {s.artifact_builds} builds, {s.plans_prewarmed} "
                f"plan(s) pre-warmed ({self.artifact_store.describe()})"
            )
        return "\n".join([
            f"TransformService: {self.fleet.n_devices} device(s), "
            f"pool={'on' if self.pool_plans else 'off'} "
            f"(max {self.pool.max_plans}), "
            f"coalesce={'on' if self.coalesce else 'off'}, "
            f"tune={self.tune}",
            f"  requests: {s.requests_served} served, {s.requests_failed} failed, "
            f"{s.blocks_executed} blocks, {s.shards_executed} shards",
            f"  plans: {s.plans_created} created, {s.plan_cache_hits} pool hits, "
            f"{s.setpts_skipped} set_pts skipped",
            f"  resilience: {s.retries} retries, {s.breaker_trips} breaker "
            f"trips, {s.requests_shed} shed, {s.deadline_exceeded} "
            f"deadline-exceeded, {1e3 * s.degraded_seconds:.3f} ms degraded",
            *([f"  failures: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(s.failures_by_type.items()))]
              if s.failures_by_type else []),
            *tuning_lines,
            *artifact_lines,
            *s.report(),
            f"  modelled: makespan {1e3 * self.makespan():.3f} ms, "
            f"{self.throughput_rps():.0f} req/s, exec util [{util}]",
        ])

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _require_open(self):
        if self._closed:
            raise RuntimeError("service has been closed")

    def close(self):
        """Destroy every pooled plan and refuse further work (idempotent).

        Refuses to drop work on the floor: closing with queued-but-unflushed
        requests or unreleased leased plans raises instead of silently
        discarding them.
        """
        if self._closed:
            return
        if self._leased:
            raise RuntimeError(
                f"{len(self._leased)} leased plan(s) not released; "
                "call release_plan before close"
            )
        if self._queue or self._shed:
            raise RuntimeError(
                f"{len(self._queue) + len(self._shed)} submitted request(s) "
                "not served; call flush before close"
            )
        self.pool.clear()
        self._queue = []
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


def _engine_seconds(plan, pipeline):
    """Split one pipeline's modelled cost by hardware engine.

    Kernels and allocations occupy the compute engine (``cudaMalloc``
    synchronizes the device), transfers their respective copy engines.
    """
    cm = plan.cost_model
    seconds = {"h2d": 0.0, "exec": 0.0, "d2h": 0.0}
    if pipeline is None:
        return seconds
    for record in pipeline.transfers:
        engine = "exec" if record.kind == "alloc" else record.kind
        seconds[engine] += cm.transfer_time(record)
    for _phase, kernel in pipeline.kernels:
        seconds["exec"] += cm.kernel_time(kernel)
    return seconds
