"""Concurrent transform service: plan pooling, coalescing, device sharding.

The paper's plan interface (plan / set_pts / execute) exists so that repeated
transforms amortize their setup.  This package applies that amortization to a
*serving* workload: callers submit one-shot NUFFT requests and the
:class:`TransformService`

* pools :class:`~repro.core.plan.Plan` objects by geometry key
  ``(type, modes/dim, eps, precision, method, backend, n_trans)``,
* coalesces same-geometry / same-points requests into fused ``n_trans``
  blocks (the batched engine of PR 1 executes them in one vectorized pass),
* shards large blocks over a :class:`~repro.cluster.fleet.DeviceFleet` of
  simulated GPUs, mirroring the paper's multi-GPU weak-scaling experiment
  (Fig. 9),
* models stream-level h2d / exec / d2h overlap through the existing
  :mod:`repro.gpu` profiler and cost model, reporting modelled requests/s
  and per-device utilization, and
* optionally autotunes every plan it creates (``TransformService(tune=...)``,
  see :mod:`repro.tuning`): all pooled plans share one
  :class:`~repro.tuning.Autotuner` and its persistent cache, so concurrent
  requests of one problem signature trigger a single tuning run, and
* stays available through injected device faults (:mod:`repro.faults`):
  retryable failures re-dispatch under a :class:`RetryPolicy`, per-device
  circuit breakers steer placement away from flaky GPUs, ``deadline_s``
  budgets classify slow requests as timeouts, and a bounded intake queue
  (``max_queue_depth``) sheds the lowest-priority work with
  :class:`ServiceOverloadedError` under overload, and
* offers an async micro-batching front-end (:class:`AsyncFrontend`): open-loop
  arrivals collect in bounded windows that fuse same-signature requests into
  ``n_trans`` blocks, a deficit round-robin scheduler gives tenants weighted
  fair shares (shedding within each tenant's own bounded sub-queue via
  :class:`FairShedPolicy`), and per-tenant / per-signature p50/p95/p99
  latency percentiles land in :class:`ServiceStats`.

Quickstart (mirrors the :class:`~repro.core.plan.Plan` quickstart)
------------------------------------------------------------------

>>> import numpy as np
>>> from repro.service import TransformService, TransformRequest
>>> rng = np.random.default_rng(0)
>>> M = 10_000
>>> x, y = rng.uniform(-np.pi, np.pi, (2, M))
>>> service = TransformService()
>>> for _ in range(8):   # eight callers, same geometry and points
...     c = rng.normal(size=M) + 1j * rng.normal(size=M)
...     _ = service.submit(nufft_type=1, n_modes=(64, 64), data=c, x=x, y=y)
>>> results = service.flush()          # one fused n_trans=8 block
>>> results[0].output.shape
(64, 64)
>>> results[0].block_size
8
>>> service.close()

On a multi-device service (``TransformService(n_devices=4)``) the same fused
block is *sharded*: with shards of at least ``SHARD_MIN_BLOCK = 4``
transforms (a constant of :mod:`repro.service.service`) those eight requests
run as two ``n_trans=4`` shards on two devices in parallel.

Every result also reports which device served it, whether the plan (and even
its ``set_pts``) was reused, and the modelled engine seconds its block added;
``service.report()`` summarizes pool hits, modelled makespan, requests/s and
per-device utilization.
"""

from .frontend import AsyncFrontend, BatchWindow, PendingRequest
from .pool import PlanPool, PooledPlan
from .request import TransformRequest, TransformResult
from .resilience import (
    DeadlineExceededError,
    FairShedPolicy,
    RetryPolicy,
    ServiceOverloadedError,
)
from .service import ServiceStats, TransformService

__all__ = [
    "PlanPool",
    "PooledPlan",
    "TransformRequest",
    "TransformResult",
    "ServiceStats",
    "TransformService",
    "AsyncFrontend",
    "BatchWindow",
    "PendingRequest",
    "RetryPolicy",
    "FairShedPolicy",
    "ServiceOverloadedError",
    "DeadlineExceededError",
]
