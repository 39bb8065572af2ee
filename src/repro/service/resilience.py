"""Retry, deadline and load-shedding policy objects of the serving layer.

The :class:`~repro.service.TransformService` stays available through the
fault kinds :mod:`repro.faults` injects by (a) retrying retryable device
faults under a :class:`RetryPolicy` with deterministic exponential backoff,
(b) enforcing per-request deadlines (``deadline_s``, raising
:class:`DeadlineExceededError` on the request's modelled timeline), and
(c) shedding the lowest-priority work with :class:`ServiceOverloadedError`
once its bounded intake queue overflows.

The async front-end (:mod:`repro.service.frontend`) sheds *within its
fairness discipline*: each tenant's sub-queue is bounded by a
:class:`FairShedPolicy`, so an overloaded tenant sheds its own
lowest-priority work and can never push another tenant's requests out.

Everything here is deterministic: backoff jitter is a ``blake2b`` hash of
``(seed, token, attempt)`` rather than a live RNG, so two runs of the same
request sequence with the same ``REPRO_FAULT_SEED`` back off identically --
the same property the :class:`~repro.faults.FaultInjector` guarantees for
the fault schedule itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.options import integral_count
from ..faults import DeviceFaultError, fault_seed_from_env

__all__ = ["RetryPolicy", "FairShedPolicy", "ServiceOverloadedError",
           "DeadlineExceededError", "shed_victim"]


class ServiceOverloadedError(RuntimeError):
    """The service's bounded intake queue is full and this request was shed.

    Raised (or attached to a :class:`~repro.service.TransformResult`) for the
    lowest-priority work when queue depth exceeds the service's
    ``max_queue_depth``.  The request was never executed; resubmitting later,
    or with a higher ``priority``, may succeed.
    """


class DeadlineExceededError(TimeoutError):
    """The request's modelled completion would land past its ``deadline_s``.

    Deadlines are budgets relative to the request's first dispatch on the
    modelled timeline; they classify slow completions (stuck launches, long
    retry chains) as timeouts rather than letting them occupy devices.
    """


@dataclass(frozen=True)
class FairShedPolicy:
    """Per-tenant bounded-queue shedding for the async front-end.

    The service's global ``max_queue_depth`` sheds the lowest-priority
    request *anywhere* in the queue -- correct for a single shared queue,
    but under multi-tenant fair share it would let one flooding tenant evict
    everyone else's low-priority work.  This policy bounds each tenant's
    sub-queue *separately*: overflow sheds the lowest-priority request of
    the overflowing tenant only, so backpressure lands on the caller who
    created it.

    Parameters
    ----------
    max_pending : int
        Maximum requests a single tenant may have waiting in its sub-queue
        (admitted-to-window and in-flight work does not count).

    An overflow sheds by :func:`shed_victim`, the service queue's rule.
    """

    max_pending: int = 256

    def __post_init__(self):
        object.__setattr__(self, "max_pending",
                           integral_count("max_pending", self.max_pending, 1))


def shed_victim(pending, seq, request):
    """Index of the queued request to shed, or ``None`` to shed the arrival.

    ``pending`` lists the queued ``(seq, request)`` pairs and ``(seq,
    request)`` is the arrival that overflowed the queue.  The victim ranks
    lowest by ``(priority, -seq)``: among equal priorities the *newest*
    request sheds first, so the arrival loses ties and a queued request is
    shed only when it ranks strictly lower.  The one rule of the service's
    bounded queue and the front-end's per-tenant sub-queues.
    """
    victim_i = None
    victim_rank = (request.priority, -seq)
    for i, (queued_seq, queued) in enumerate(pending):
        if (queued.priority, -queued_seq) < victim_rank:
            victim_rank = (queued.priority, -queued_seq)
            victim_i = i
    return victim_i


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and deterministic exponential backoff for device faults.

    Parameters
    ----------
    max_attempts : int
        Total attempts per unit of work (1 = no retries).
    base_backoff_s : float
        Modelled backoff before the first retry; attempt ``k`` (1-based
        retry index) waits ``base * multiplier**(k-1)``, capped at
        ``max_backoff_s``, then jittered.
    backoff_multiplier : float
        Exponential growth factor (>= 1).
    max_backoff_s : float
        Upper bound on the un-jittered backoff.
    jitter : float
        Fractional jitter amplitude in ``[0, 1]``: the backoff is scaled by
        ``1 + jitter * (u - 0.5)`` where ``u`` is a deterministic uniform
        deviate drawn from ``(seed, token, attempt)``.
    seed : int, optional
        Jitter seed; defaults to ``REPRO_FAULT_SEED`` (0 when unset) so the
        whole resilience stack shares one reproducibility knob.

    Examples
    --------
    >>> policy = RetryPolicy(max_attempts=4, base_backoff_s=1e-3, jitter=0.0)
    >>> [round(policy.backoff_s(k, "req-0"), 4) for k in (1, 2, 3)]
    [0.001, 0.002, 0.004]
    """

    max_attempts: int = 3
    base_backoff_s: float = 1e-3
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 0.1
    jitter: float = 0.1
    seed: int = None

    def __post_init__(self):
        object.__setattr__(self, "max_attempts",
                           integral_count("max_attempts", self.max_attempts, 1))
        if self.base_backoff_s < 0.0:
            raise ValueError(
                f"base_backoff_s must be >= 0, got {self.base_backoff_s}"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.max_backoff_s < 0.0:
            raise ValueError(f"max_backoff_s must be >= 0, got {self.max_backoff_s}")
        if not 0.0 <= float(self.jitter) <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.seed is None:
            object.__setattr__(self, "seed", fault_seed_from_env())
        else:
            object.__setattr__(self, "seed", int(self.seed))

    def should_retry(self, exc):
        """Whether ``exc`` is retryable under this policy.

        Only the simulated device-fault taxonomy
        (:class:`~repro.faults.DeviceFaultError` subclasses) is retryable;
        validation errors (``ValueError`` / ``TypeError``) and arbitrary
        application exceptions are not -- retrying them would just repeat
        the failure.
        """
        return isinstance(exc, DeviceFaultError)

    def backoff_s(self, attempt, token=""):
        """Modelled backoff (seconds) before retry number ``attempt`` (1-based).

        Deterministic in ``(seed, token, attempt)``; pass a per-request token
        (e.g. the request id) so concurrent retry chains decorrelate.
        """
        attempt = int(attempt)
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        backoff = min(
            self.base_backoff_s * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter > 0.0 and backoff > 0.0:
            raw = f"{self.seed}:{token}:{attempt}".encode()
            digest = hashlib.blake2b(raw, digest_size=8).digest()
            u = int.from_bytes(digest, "big") / 2.0**64
            backoff *= 1.0 + self.jitter * (u - 0.5)
        return backoff
