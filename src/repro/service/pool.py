"""LRU pool of live :class:`~repro.core.plan.Plan` objects.

The pool is the serving analogue of the paper's plan/setpts/execute
amortization: a plan whose geometry key matches an incoming request skips
planning entirely (kernel fit, fine-grid geometry, correction factors,
device allocations, cuFFT plan), and if it also still holds the request's
exact point set the bin sort + stencil cache are skipped too.

Entries are keyed by ``(plan_key, n_trans, device_id)`` -- a plan is bound to
its device's memory pool, and ``n_trans`` is baked into a plan's batched
buffers.  Each key's bucket lists its idle plans in release order, so
``bucket[0]`` is the least recently used.  Both victims are chosen by that
order: a lease with no ``points_key`` (re-pointing a plan for a new point
set) takes the least recently used idle plan, which leaves recently used --
hot -- point sets in place; eviction beyond ``max_plans`` idle plans destroys
the pool-wide least recently used one, returning its simulated device memory.

A pointed entry carries the checksum of its point set (``points_key``) and a
private copy of the coordinates it was pointed with (``points``).  Idle
entries are also indexed by ``(key, points_key)``, so finding a plan that
holds a request's points is one dict probe plus one exact comparison of the
coordinates: a checksum only finds candidates, and a collision or a caller
array changed in place since the plan was pointed is a miss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..core.options import integral_count

__all__ = ["PlanPool", "PooledPlan", "equal_points"]


def equal_points(mine, theirs):
    """Whether two tuples of point arrays are equal value for value.

    The one test behind a warm hit (:meth:`PooledPlan.holds`) and behind
    fusing queued requests into one block: a checksum only finds candidates.
    """
    return len(mine) == len(theirs) and all(
        a is b or np.array_equal(a, b) for a, b in zip(mine, theirs))


@dataclass(eq=False)
class PooledPlan:
    """One pooled plan plus the bookkeeping the service needs.

    ``points`` is the entry's own copy of the coordinate (and type-3
    target) arrays its plan was last pointed with, ``None`` when the pool
    cannot vouch for them.
    """

    plan: object
    key: tuple
    device_id: int = -1
    points_key: object = None
    points: tuple = None
    last_used: int = 0
    leases: int = 0

    def holds(self, points):
        """Whether the plan was pointed with exactly these arrays' values."""
        return self.points is not None and equal_points(self.points, points)

    def point_at(self, points_key, points):
        """Record a re-point: the checksum and a private copy of ``points``."""
        self.points_key = points_key
        self.points = tuple(np.array(a, copy=True) for a in points)


class PlanPool:
    """Keyed LRU pool of live plans.

    Parameters
    ----------
    max_plans : int
        Maximum number of live (idle) plans retained.  ``0`` disables pooling
        entirely: every release destroys the plan, every lease misses.
    on_evict : callable or None
        Called with each :class:`PooledPlan` *before* its plan is destroyed
        (LRU eviction, device purge or ``clear``).  The service uses this to
        persist the evicted plan's signature into the artifact store so a
        restart can pre-warm it.  Exceptions from the callback are swallowed:
        eviction must always reclaim the memory.
    """

    def __init__(self, max_plans=32, on_evict=None):
        self.max_plans = integral_count("max_plans", max_plans, 0)
        self.on_evict = on_evict
        self._idle = {}  # key -> list[PooledPlan]
        self._pointed = {}  # (key, points_key) -> list[PooledPlan], idle only
        self._clock = itertools.count()
        self.n_idle = 0

    def _destroy_entry(self, entry):
        """Notify ``on_evict`` then destroy the plan (and its Workspace).

        ``Plan.destroy`` releases the plan's device buffers -- fine grid,
        cuFFT workspace, point/stencil state -- so pool bookkeeping must be
        settled *before* this runs: the entry is already popped and
        ``n_idle`` decremented by every caller, keeping counts right even if
        destruction raises.
        """
        if self.on_evict is not None:
            try:
                self.on_evict(entry)
            except Exception:
                pass
        entry.plan.destroy()

    # ------------------------------------------------------------------ #
    # lease / release
    # ------------------------------------------------------------------ #
    def lease(self, key):
        """Pop the least recently used idle plan for ``key``; ``None`` on a miss.

        The victim is ``bucket[0]``: the caller re-points it, and the plan
        least likely to be asked for its point set again is the one idle the
        longest.  A caller that wants a plan already holding its point set
        asks :meth:`lease_points` first.
        """
        if not self._idle.get(key):
            return None
        return self._lease(key, 0)

    def lease_points(self, key, points_key, points):
        """Pop the idle plan for ``key`` that holds ``points``; ``None`` on a miss.

        Candidates come from the ``(key, points_key)`` index, the least
        recently used first, and one must hold exactly the values of
        ``points``, the request's coordinate (and target) arrays
        (:meth:`PooledPlan.holds`).
        """
        for entry in self._pointed.get((key, points_key), ()):
            if entry.holds(points):
                return self._lease(key, self._idle[key].index(entry))
        return None

    def lru_key(self, keys):
        """The key among ``keys`` holding the least recently used idle plan.

        Compares each bucket's oldest entry (``bucket[0]``); ``None`` when
        none of ``keys`` has an idle plan.
        """
        oldest, lru = None, None
        for key in keys:
            bucket = self._idle.get(key)
            if bucket and (oldest is None or bucket[0].last_used < oldest):
                oldest, lru = bucket[0].last_used, key
        return lru

    def lease_unpointed(self, key):
        """Pop an idle plan whose point set is unknown (``points_key=None``).

        Plans returned by external lessees carry no vouched-for point set, so
        re-pointing one steals cached state from nobody; ``None`` on a miss.
        """
        for i, candidate in enumerate(self._idle.get(key, ())):
            if candidate.points_key is None:
                return self._lease(key, i)
        return None

    def _pop(self, key, index):
        """Remove the idle entry ``index`` of ``key``'s bucket; returns it."""
        bucket = self._idle[key]
        entry = bucket.pop(index)
        if not bucket:
            del self._idle[key]
        self._unindex(entry)
        self.n_idle -= 1
        return entry

    def _unindex(self, entry):
        if entry.points_key is None:
            return
        index = (entry.key, entry.points_key)
        listed = self._pointed[index]
        listed.remove(entry)
        if not listed:
            del self._pointed[index]

    def _lease(self, key, index):
        entry = self._pop(key, index)
        entry.last_used = next(self._clock)
        entry.leases += 1
        return entry

    def release(self, entry):
        """Return a leased plan to the pool, evicting beyond ``max_plans``."""
        if self.max_plans == 0:
            self._destroy_entry(entry)
            return
        entry.last_used = next(self._clock)
        self._idle.setdefault(entry.key, []).append(entry)
        if entry.points_key is not None:
            self._pointed.setdefault((entry.key, entry.points_key), []).append(entry)
        self.n_idle += 1
        while self.n_idle > self.max_plans:
            self._evict_lru()

    def _evict_lru(self):
        self._destroy_entry(self._pop(self.lru_key(self._idle), 0))

    def make_entry(self, plan, key):
        """Wrap a freshly created plan (counts as leased until released)."""
        return PooledPlan(plan=plan, key=key, last_used=next(self._clock), leases=1)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def purge_device(self, device_id):
        """Destroy every idle plan bound to ``device_id``; returns the count.

        Called when a device is evicted or drained: its plans hold state on
        hardware that placement will never select again (or that is outright
        dead), so reusing them would be wrong -- they are destroyed, not
        recycled.  Keys end in the device id (``(plan_key, n_trans,
        device_id)``), so the match is on ``key[-1]``.
        """
        purged = 0
        for key in list(self._idle):
            if key[-1] != device_id:
                continue
            for entry in self._idle.pop(key):
                self._unindex(entry)
                self.n_idle -= 1
                purged += 1
                self._destroy_entry(entry)
        return purged

    def clear(self):
        """Destroy every idle plan."""
        while self._idle:
            key, bucket = self._idle.popitem()
            while bucket:
                entry = bucket.pop()
                self.n_idle -= 1
                self._destroy_entry(entry)
        self._pointed.clear()
        self.n_idle = 0
