"""Async micro-batching front-end: windows, fair share, latency accounting.

The :class:`~repro.service.TransformService` fuses whatever happens to sit in
its queue when ``flush()`` is called -- batching is the *caller's* problem.
This module moves that problem server-side, the way a GPU inference front-end
does: requests arrive on an open-loop trace (each carries an arrival instant
and a tenant id), an :class:`AsyncFrontend` holds them briefly in
**bounded batching windows**, and same-signature requests -- equal
:meth:`~repro.service.TransformRequest.signature`, i.e. same transform
geometry *and* same point set -- fuse into a single ``n_trans`` block before
dispatch.  Fusion is free accuracy-wise: a fused block is bit-identical to
per-request submission (the batched engine runs the same FFTs over a stacked
input), so the window trades a bounded amount of latency for the paper's
``n_trans`` throughput win on every batchable stretch of traffic.

Three mechanisms, in dispatch order:

**Bounded windows.**  The first admitted request of a signature opens a
window; it closes after ``window_s`` modelled seconds or as soon as it holds
``max_batch`` requests, whichever comes first.  ``max_batch=1`` degenerates
to per-request dispatch (the benchmark baseline); ``window_s=0`` still fuses
same-instant arrivals.

**Per-tenant fair share.**  Arrivals land in per-tenant sub-queues and a
deficit round-robin scheduler (quantum x weight credits per round) admits
requests into windows, so a tenant flooding the front door cannot starve a
light tenant: the light tenant's occasional request is admitted within one
DRR round of its arrival whenever the fleet has capacity.  Admission is
credit-limited by ``max_inflight`` -- the count of admitted-but-not-yet-
completed requests on the modelled timeline -- which is what makes fairness
bind under overload: when the fleet saturates, backlog forms in the
sub-queues where DRR (not arrival order) decides who goes next.  Each
sub-queue is bounded by a :class:`~repro.service.FairShedPolicy`: overflow
sheds the overflowing tenant's own lowest-priority request (newest first
among equals), never another tenant's.

**Latency accounting.**  Every served request records three modelled
latencies into :class:`~repro.service.ServiceStats`: ``queue_wait``
(arrival -> DRR admission), ``batch_wait`` (admission -> window dispatch)
and ``e2e`` (arrival -> modelled completion), per tenant and per signature;
``report()`` summarizes p50/p95/p99.

Everything runs on the modelled clock -- arrivals, window deadlines and
completions are events in a deterministic discrete-event loop -- so traces
replay identically and the QoS properties are testable exactly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ..core.options import integral_count
from .request import TransformRequest, TransformResult, front_door
from .resilience import FairShedPolicy, ServiceOverloadedError, shed_victim
from .service import LATENCY_KINDS, TransformService

__all__ = ["AsyncFrontend", "BatchWindow", "PendingRequest"]


@dataclass(eq=False)
class PendingRequest:
    """One request moving through the front-end, with its QoS timestamps.

    Attributes
    ----------
    seq : int
        Front-end submission sequence number (the caller's handle).
    request : TransformRequest
        The validated request.
    arrival_s : float
        Trace instant the request arrived at the front door.
    admitted_s : float or None
        Instant the fair-share scheduler admitted it into a window.
    dispatched_s : float or None
        Instant its window closed and the fused block dispatched.
    """

    seq: int
    request: TransformRequest
    arrival_s: float
    admitted_s: float = None
    dispatched_s: float = None


@dataclass(eq=False)
class BatchWindow:
    """One open micro-batching window: same-signature requests awaiting fusion.

    Opened by the first admitted request of its signature; closes (and its
    entries dispatch as one fused ``n_trans`` block) at ``deadline_s`` or as
    soon as it holds the front-end's ``max_batch`` entries.
    """

    signature: tuple
    opened_at_s: float
    deadline_s: float
    entries: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)


class AsyncFrontend:
    """Bounded-window micro-batching front-end over a :class:`TransformService`.

    Parameters
    ----------
    service : TransformService
        The serving backend.  The front-end owns admission control, so the
        service should run without its own ``max_queue_depth`` (each window
        dispatch submits at most ``max_batch`` requests and flushes).
    window_s : float
        Maximum modelled seconds a window stays open past its first request.
        ``0`` fuses only same-instant arrivals.
    max_batch : int
        Window capacity; a full window dispatches immediately.  ``1`` is
        per-request dispatch (no batching -- the benchmark baseline).
    max_inflight : int, optional
        Admission credit: admitted-but-not-completed requests.  Defaults to
        ``2 * max_batch * n_devices`` -- enough to double-buffer every
        device, small enough that overload forms backlog in the fair-share
        queues instead of in the fleet.
    weights : dict, optional
        Per-tenant fair-share weights (``tenant -> float > 0``); a tenant
        with weight 2 earns admission credit twice as fast as weight 1.
        Unlisted tenants get ``1.0``.
    quantum : float
        DRR credit earned per round per unit weight (admitting one request
        costs 1).  Larger quanta admit longer per-tenant runs per round.
    shed : FairShedPolicy, optional
        Per-tenant sub-queue bound (default ``FairShedPolicy()``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service import AsyncFrontend, TransformService
    >>> rng = np.random.default_rng(0)
    >>> x = rng.uniform(-np.pi, np.pi, 2000)
    >>> fe = AsyncFrontend(TransformService(), window_s=1e-3, max_batch=8)
    >>> for k in range(8):   # two tenants, same signature, 0.1 ms apart
    ...     c = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    ...     _ = fe.submit(nufft_type=1, n_modes=(64,), data=c, x=x,
    ...                   tenant=["alice", "bob"][k % 2], at_s=1e-4 * k)
    >>> results = fe.drain()
    >>> results[0].block_size   # all eight fused into one n_trans block
    8
    >>> results[0].e2e_s is not None
    True
    >>> fe.close()
    """

    def __init__(self, service, window_s=2e-3, max_batch=8, max_inflight=None,
                 weights=None, quantum=1.0, shed=None):
        if not isinstance(service, TransformService):
            raise TypeError(
                f"service must be a TransformService, got {type(service).__name__}"
            )
        window_s = float(window_s)
        if not window_s >= 0.0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        max_batch = integral_count("max_batch", max_batch, 1)
        if max_inflight is None:
            max_inflight = 2 * max_batch * service.fleet.n_devices
        max_inflight = integral_count("max_inflight", max_inflight, 1)
        quantum = float(quantum)
        if not quantum > 0.0:
            raise ValueError(f"quantum must be > 0, got {quantum}")
        weights = dict(weights) if weights else {}
        for tenant, w in weights.items():
            if not float(w) > 0.0:
                raise ValueError(f"weight for tenant {tenant!r} must be > 0, got {w}")
            weights[tenant] = float(w)
        if shed is None:
            shed = FairShedPolicy()
        if not isinstance(shed, FairShedPolicy):
            raise TypeError(
                f"shed must be a FairShedPolicy, got {type(shed).__name__}"
            )

        self.service = service
        self.window_s = window_s
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.weights = weights
        self.quantum = quantum
        self.shed = shed

        self._seq = itertools.count()
        self._now = 0.0
        self._arrivals = []        # heap of (arrival_s, seq, PendingRequest)
        self._queues = {}          # tenant -> list[PendingRequest] (FIFO)
        self._rotation = []        # DRR visit order (first-appearance)
        self._rr = 0               # rotating round-start index
        self._deficits = {}        # tenant -> float credit
        self._windows = {}         # signature -> BatchWindow
        self._completions = []     # heap of (completed_s, tiebreak, n_requests)
        self._inflight = 0         # admitted-but-not-completed requests
        self._tiebreak = itertools.count()
        self._results = {}         # seq -> TransformResult
        self._closed = False
        # front-end counters (window behaviour; latency lives in service.stats)
        self.windows_dispatched = 0
        self.requests_fused = 0
        self.largest_fusion = 0

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #
    def submit(self, request=None, at_s=0.0, **kwargs):
        """Schedule one request to arrive at modelled instant ``at_s``.

        Accepts a prebuilt :class:`~repro.service.TransformRequest` or its
        fields as keywords (validation is eager, as at the service front
        door).  Arrivals may be submitted in any order; the event loop
        processes them by arrival instant.  Returns the front-end sequence
        number -- :meth:`drain` returns results in that order.
        """
        self._require_open()
        request = front_door(TransformRequest, request, kwargs)
        at_s = float(at_s)
        if not at_s >= 0.0:
            raise ValueError(f"at_s must be >= 0, got {at_s}")
        seq = next(self._seq)
        entry = PendingRequest(seq=seq, request=request, arrival_s=at_s)
        heapq.heappush(self._arrivals, (at_s, seq, entry))
        return seq

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #
    def drain(self):
        """Run the event loop to quiescence; results in submission order.

        Processes every scheduled arrival, admission, window close and
        modelled completion.  Shed requests appear in the returned list as
        error results carrying
        :class:`~repro.service.ServiceOverloadedError`.
        """
        self._require_open()
        while (self._arrivals or self._windows or self._completions
               or any(self._queues.values())):
            self._pop_completions(self._now)
            self._pop_arrivals(self._now)
            self._admit(self._now)
            self._close_due(self._now)
            t = self._next_event_time()
            if t is None:
                break
            self._now = max(self._now, t)
        results = [self._results.pop(seq) for seq in sorted(self._results)]
        return results

    @property
    def now(self):
        """Current modelled front-end instant (seconds)."""
        return self._now

    def _next_event_time(self):
        candidates = []
        if self._arrivals:
            candidates.append(self._arrivals[0][0])
        if self._completions:
            candidates.append(self._completions[0][0])
        candidates.extend(w.deadline_s for w in self._windows.values())
        # Skip events at or before now: they were processed this iteration.
        future = [t for t in candidates if t > self._now]
        if future:
            return min(future)
        return min(candidates) if candidates else None

    def _pop_completions(self, now):
        while self._completions and self._completions[0][0] <= now:
            _, _, n = heapq.heappop(self._completions)
            self._inflight -= n

    def _pop_arrivals(self, now):
        # Admission interleaves with same-instant arrivals: backlog that the
        # scheduler *could* admit right now must not occupy sub-queue slots
        # when the bound is checked, or a burst would shed work spuriously.
        while self._arrivals and self._arrivals[0][0] <= now:
            _, _, entry = heapq.heappop(self._arrivals)
            self._admit(now)
            self._enqueue(entry)

    # ------------------------------------------------------------------ #
    # per-tenant queues and shedding
    # ------------------------------------------------------------------ #
    def _enqueue(self, entry):
        tenant = entry.request.tenant
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = []
            self._rotation.append(tenant)
            self._deficits[tenant] = 0.0
        if len(queue) >= self.shed.max_pending:
            victim_i = shed_victim([(e.seq, e.request) for e in queue],
                                   entry.seq, entry.request)
            if victim_i is None:
                victim = entry          # incoming ranks lowest: shed unseated
            else:
                victim = queue.pop(victim_i)
                queue.append(entry)
            self._shed_entry(victim)
        else:
            queue.append(entry)

    def _shed_entry(self, entry):
        tenant = entry.request.tenant
        self.service.stats.record_shed(tenant)
        exc = ServiceOverloadedError(
            f"shed from tenant {tenant!r} sub-queue at max_pending="
            f"{self.shed.max_pending} (priority {entry.request.priority} "
            "was the lowest queued for this tenant)"
        )
        self._results[entry.seq] = TransformResult(
            tag=entry.request.tag, error=exc, tenant=tenant,
        )

    # ------------------------------------------------------------------ #
    # fair-share admission (deficit round-robin)
    # ------------------------------------------------------------------ #
    def _weight(self, tenant):
        return self.weights.get(tenant, 1.0)

    def _has_credit(self):
        return self._inflight < self.max_inflight

    def _admit(self, now):
        """DRR rounds until credit or pending work runs out.

        Each round grants every backlogged tenant ``quantum * weight``
        credit; admitting one request costs 1.  A tenant whose queue empties
        forfeits leftover credit (the classic DRR reset), so idle tenants
        cannot bank credit and later burst past the discipline.
        """
        while self._has_credit() and any(self._queues.values()):
            # Rotate the round's starting tenant: with one credit per round a
            # fixed visit order would hand every slot to the same tenant.
            n = len(self._rotation)
            start = self._rr
            self._rr = (self._rr + 1) % n
            for i in range(n):
                tenant = self._rotation[(start + i) % n]
                queue = self._queues.get(tenant)
                if not queue:
                    self._deficits[tenant] = 0.0
                    continue
                self._deficits[tenant] += self.quantum * self._weight(tenant)
                while queue and self._deficits[tenant] >= 1.0:
                    if not self._has_credit():
                        return
                    self._deficits[tenant] -= 1.0
                    self._admit_entry(queue.pop(0), now)
                if not queue:
                    self._deficits[tenant] = 0.0

    def _admit_entry(self, entry, now):
        entry.admitted_s = now
        self._inflight += 1
        signature = entry.request.signature()
        window = self._windows.get(signature)
        if window is None:
            window = BatchWindow(
                signature=signature, opened_at_s=now,
                deadline_s=now + self.window_s,
            )
            self._windows[signature] = window
        window.entries.append(entry)
        if len(window) >= self.max_batch:
            del self._windows[signature]
            self._dispatch(window, now)

    def _close_due(self, now):
        due = [sig for sig, w in self._windows.items() if w.deadline_s <= now]
        for sig in due:
            self._dispatch(self._windows.pop(sig), now)

    # ------------------------------------------------------------------ #
    # dispatch and accounting
    # ------------------------------------------------------------------ #
    def _dispatch(self, window, now):
        """Fuse one closed window into the service and account its latencies.

        The service's host clock is advanced to the close instant first, so
        dispatch latency and stream waits are charged from window close --
        then the window's entries are submitted back-to-back and flushed as
        one fused block (they share a signature, so coalescing is exact).
        """
        service = self.service
        service.advance_time(now)
        for entry in window.entries:
            entry.dispatched_s = now
            service.submit(entry.request)
        results = service.flush()

        self.windows_dispatched += 1
        if len(window) > 1:
            self.requests_fused += len(window)
        self.largest_fusion = max(self.largest_fusion, len(window))

        latest = now
        for entry, result in zip(window.entries, results):
            latest = max(latest, self._account(entry, result))
            self._results[entry.seq] = result
        # Credit returns when the block's modelled completion passes: one
        # event for the whole window (entries complete together).
        heapq.heappush(
            self._completions, (latest, next(self._tiebreak), len(window))
        )

    def _account(self, entry, result):
        """Fill one result's QoS fields and record its latency samples.

        Returns the instant the request stopped occupying admission credit:
        its modelled completion, or its dispatch when it failed.
        """
        result.tenant = entry.request.tenant
        result.queue_wait_s = entry.admitted_s - entry.arrival_s
        result.batch_wait_s = entry.dispatched_s - entry.admitted_s
        if result.error is None:
            result.e2e_s = result.completed_at - entry.arrival_s
        for scope, name in (("tenant", result.tenant),
                            ("signature", entry.request.signature_label())):
            for kind in LATENCY_KINDS:
                seconds = getattr(result, f"{kind}_s")
                if seconds is not None:
                    self.service.stats.record_latency(scope, name, kind, seconds)
        return entry.dispatched_s if result.error is not None else result.completed_at

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def tenant_latency(self, tenant):
        """Percentile summary for one tenant (see ``latency_percentiles``).

        ``{kind: {"n", "p50", "p95", "p99", "max"}}`` over the latency kinds
        recorded so far; empty when the tenant has no served requests.
        """
        return self.service.stats.latency_percentiles("tenant").get(tenant, {})

    def report(self):
        """Front-end summary plus the backing service's report."""
        fused = (f"{self.requests_fused} requests fused "
                 f"(largest {self.largest_fusion})"
                 if self.requests_fused else "no fusion yet")
        return "\n".join([
            f"AsyncFrontend: window={1e3 * self.window_s:g} ms, "
            f"max_batch={self.max_batch}, max_inflight={self.max_inflight}, "
            f"{self.windows_dispatched} windows dispatched, {fused}",
            self.service.report(),
        ])

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _require_open(self):
        if self._closed:
            raise RuntimeError("frontend has been closed")

    def close(self):
        """Close the front-end and its service (idempotent).

        Refuses to drop work: scheduled arrivals, queued requests or open
        windows that were never drained raise instead of vanishing.
        """
        if self._closed:
            return
        pending = (len(self._arrivals) + len(self._windows)
                   + sum(len(q) for q in self._queues.values()))
        if pending or self._results:
            raise RuntimeError(
                f"{pending + len(self._results)} request(s) not drained; "
                "call drain() before close"
            )
        self.service.close()
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
