"""Device fleet: a pool of simulated GPUs with streams, scheduling and health.

Where :class:`~repro.cluster.node.Node` mirrors the paper's MPI deployment
(one process per rank, ranks round-robined onto GPUs, contention once they
share), the :class:`DeviceFleet` is the *serving* view of the same hardware:
one process drives every device, each device carries a small set of CUDA-like
:class:`~repro.gpu.device.Stream` objects, and work is placed by projected
completion time rather than by rank index.  This is the substrate the
:class:`~repro.service.TransformService` shards coalesced request blocks
over, reproducing the shape of the paper's multi-GPU weak-scaling experiment
(Fig. 9) in a request-serving setting.

The fleet also tracks **per-device health** (the resilience layer): every
device carries a :class:`DeviceHealth` record driving a consecutive-failure
circuit breaker (``closed -> open -> half-open probe``, see
:class:`BreakerState`), devices can be administratively drained or evicted,
and :meth:`ranked` / :meth:`least_loaded` placement skips devices whose
breaker is open -- so a flaky or dead GPU stops receiving work until a
half-open probe proves it recovered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.options import integral_count
from ..gpu.device import Device, V100_SPEC

__all__ = ["DeviceFleet", "DeviceHealth", "BreakerState"]


class BreakerState(enum.Enum):
    """Circuit-breaker states of one device (classic three-state machine).

    ``CLOSED``
        Healthy: work flows normally; failures increment the
        consecutive-failure count.
    ``OPEN``
        Tripped after ``failure_threshold`` consecutive failures: placement
        skips the device until ``breaker_cooldown_s`` of modelled fleet time
        has elapsed.
    ``HALF_OPEN``
        Cooldown elapsed: the device is admissible again for *probe* work.
        A recorded success closes the breaker; a failure re-opens it (and
        restarts the cooldown).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class DeviceHealth:
    """Mutable health record of one fleet device.

    Attributes
    ----------
    state : BreakerState
        Stored breaker state (``OPEN`` lazily reads as ``HALF_OPEN`` once the
        cooldown elapses; see :meth:`DeviceFleet.breaker_state`).
    consecutive_failures : int
        Failures since the last success; trips the breaker at the fleet's
        ``failure_threshold``.
    failures, successes : int
        Lifetime counters.
    trips : int
        Times the breaker transitioned ``CLOSED/HALF_OPEN -> OPEN``.
    opened_at : float
        Modelled fleet instant (seconds) of the most recent trip.
    draining : bool
        Administratively excluded from *new* placements (in-flight work may
        finish); set by :meth:`DeviceFleet.drain`.
    evicted : bool
        Permanently removed from placement (dead hardware or operator
        action); set by :meth:`DeviceFleet.evict`.
    """

    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    failures: int = 0
    successes: int = 0
    trips: int = 0
    opened_at: float = 0.0
    draining: bool = False
    evicted: bool = False


class DeviceFleet:
    """A fleet of simulated devices with per-device streams.

    Parameters
    ----------
    n_devices : int
        Number of simulated GPUs in the fleet.
    spec : DeviceSpec, optional
        Hardware description shared by every device (paper V100 by default).
    streams_per_device : int
        Streams created on each device; two give the classic double-buffering
        overlap of one block's d2h/h2d with the next block's kernels.
    failure_threshold : int
        Consecutive failures on one device that trip its circuit breaker
        (``CLOSED -> OPEN``).
    breaker_cooldown_s : float
        Modelled fleet seconds an open breaker waits before admitting a
        half-open probe.  The clock is :meth:`makespan` -- modelled time, so
        cooldowns are as deterministic as the rest of the simulation.
    """

    def __init__(self, n_devices=1, spec=None, streams_per_device=2,
                 failure_threshold=3, breaker_cooldown_s=0.05):
        n_devices = integral_count("n_devices", n_devices, 1)
        streams_per_device = integral_count("streams_per_device",
                                            streams_per_device, 1)
        failure_threshold = integral_count("failure_threshold",
                                           failure_threshold, 1)
        breaker_cooldown_s = float(breaker_cooldown_s)
        if breaker_cooldown_s < 0.0:
            raise ValueError(
                f"breaker_cooldown_s must be >= 0, got {breaker_cooldown_s}"
            )
        self.spec = spec if spec is not None else V100_SPEC
        self.streams_per_device = streams_per_device
        self.failure_threshold = failure_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.devices = [Device(spec=self.spec, device_id=i) for i in range(n_devices)]
        for dev in self.devices:
            for _ in range(streams_per_device):
                dev.create_stream()
        self._stream_cursor = [0] * n_devices
        self.health = [DeviceHealth() for _ in range(n_devices)]

    @classmethod
    def from_node(cls, node_spec, streams_per_device=2):
        """Build a fleet matching a :class:`~repro.cluster.node.NodeSpec`."""
        return cls(n_devices=node_spec.n_gpus, spec=node_spec.gpu_spec,
                   streams_per_device=streams_per_device)

    @property
    def n_devices(self):
        return len(self.devices)

    def device(self, index):
        return self.devices[index]

    # ------------------------------------------------------------------ #
    # health / circuit breakers
    # ------------------------------------------------------------------ #
    def breaker_state(self, device_id):
        """Effective breaker state of one device (lazy ``OPEN -> HALF_OPEN``).

        The transition out of ``OPEN`` is evaluated lazily against modelled
        fleet time: once :meth:`makespan` has advanced ``breaker_cooldown_s``
        past the trip instant, the stored ``OPEN`` reads (and is rewritten)
        as ``HALF_OPEN`` -- the device may take probe work again.
        """
        h = self.health[device_id]
        if h.state is BreakerState.OPEN:
            if self.makespan() - h.opened_at >= self.breaker_cooldown_s:
                h.state = BreakerState.HALF_OPEN
        return h.state

    def record_success(self, device_id):
        """Note a successful unit of work; closes a half-open breaker."""
        h = self.health[device_id]
        h.successes += 1
        h.consecutive_failures = 0
        if self.breaker_state(device_id) is BreakerState.HALF_OPEN:
            h.state = BreakerState.CLOSED

    def record_failure(self, device_id):
        """Note a failed unit of work; returns True when the breaker trips.

        Trips ``CLOSED -> OPEN`` at ``failure_threshold`` consecutive
        failures, and ``HALF_OPEN -> OPEN`` on the first failed probe (the
        cooldown restarts from the current makespan).
        """
        h = self.health[device_id]
        h.failures += 1
        h.consecutive_failures += 1
        state = self.breaker_state(device_id)
        tripped = (
            state is BreakerState.HALF_OPEN
            or (state is BreakerState.CLOSED
                and h.consecutive_failures >= self.failure_threshold)
        )
        if tripped:
            h.state = BreakerState.OPEN
            h.opened_at = self.makespan()
            h.trips += 1
        return tripped

    def drain(self, device_id):
        """Administratively exclude a device from new placements."""
        self.health[device_id].draining = True

    def restore(self, device_id):
        """Undo a :meth:`drain` (an evicted device stays evicted)."""
        self.health[device_id].draining = False

    def evict(self, device_id):
        """Permanently remove a device from placement (dead hardware)."""
        h = self.health[device_id]
        h.evicted = True
        h.state = BreakerState.OPEN
        h.opened_at = self.makespan()

    def is_admissible(self, device_id):
        """Whether placement may send *new* work to this device.

        Admissible means: alive, not evicted, not draining, and breaker not
        ``OPEN`` (``HALF_OPEN`` is admissible -- that is the probe path).
        """
        h = self.health[device_id]
        if h.evicted or h.draining:
            return False
        if not getattr(self.devices[device_id], "alive", True):
            return False
        return self.breaker_state(device_id) is not BreakerState.OPEN

    def admissible(self):
        """Devices currently admissible for new work, in id order."""
        return [d for d in self.devices if self.is_admissible(d.device_id)]

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def ranked(self, healthy_only=True):
        """Devices ordered by projected completion time (least loaded first).

        Ties (e.g. an idle fleet) resolve to the lowest device id, so a
        sequence of equal-cost placements round-robins naturally: each
        placement advances its device's frontier past its siblings'.  This is
        *the* placement order -- the service uses it for block pinning and
        plan acquisition alike, with one exception: at pool capacity a plan
        is re-pointed on whichever candidate device holds the least recently
        used idle plan, so that hot point sets stay pooled.

        With ``healthy_only=True`` (the default) only admissible devices are
        returned -- open breakers, draining and evicted devices are skipped.
        On a fully healthy fleet this is identical to the unfiltered order.
        If *no* device is admissible the alive, non-evicted ones are returned
        instead (degraded serving beats refusing outright); an entirely lost
        fleet raises :class:`~repro.faults.DeviceLostError`.
        """
        key = lambda d: (d.timeline_makespan(), d.device_id)  # noqa: E731
        if not healthy_only:
            return sorted(self.devices, key=key)
        devices = self.admissible()
        if not devices:
            devices = [
                d for d in self.devices
                if getattr(d, "alive", True) and not self.health[d.device_id].evicted
            ]
        if not devices:
            from ..faults import DeviceLostError
            raise DeviceLostError("every device in the fleet is lost")
        return sorted(devices, key=key)

    def least_loaded(self, healthy_only=True):
        """Admissible device with the earliest projected completion time."""
        return self.ranked(healthy_only=healthy_only)[0]

    def next_stream(self, device):
        """Round-robin over the device's streams (successive blocks overlap)."""
        cursor = self._stream_cursor[device.device_id]
        stream = device.streams[cursor % len(device.streams)]
        self._stream_cursor[device.device_id] = cursor + 1
        return stream

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def makespan(self):
        """Fleet makespan: the latest completion over every device timeline."""
        return max((d.timeline_makespan() for d in self.devices), default=0.0)

    def utilization(self, engine="exec"):
        """Per-device busy fraction of the *fleet* makespan for one engine.

        Measured against the fleet-wide makespan (not each device's own) so
        an idle device shows up as low utilization rather than vanishing from
        the average.
        """
        makespan = self.makespan()
        if makespan <= 0.0:
            return [0.0] * self.n_devices
        return [d.busy_seconds[engine] / makespan for d in self.devices]

    def busy_seconds(self, engine="exec"):
        """Total busy seconds of one engine summed over the fleet."""
        return sum(d.busy_seconds[engine] for d in self.devices)

    def reset_timelines(self):
        """Rewind every device timeline to t=0 (allocations survive)."""
        for dev in self.devices:
            dev.reset_timeline()

    def reset(self):
        """Full reset: timelines, allocations, contexts *and health*.

        ``Device.reset`` drops the streams, so the per-device set is rebuilt;
        it also revives dead devices, and the health records start over
        (breakers closed, drains and evictions cleared).
        """
        for dev in self.devices:
            dev.reset()
            for _ in range(self.streams_per_device):
                dev.create_stream()
        self._stream_cursor = [0] * self.n_devices
        self.health = [DeviceHealth() for _ in range(self.n_devices)]

    def __repr__(self):  # pragma: no cover - debugging nicety
        return (f"DeviceFleet(n_devices={self.n_devices}, "
                f"spec={self.spec.name!r}, makespan={self.makespan():.6f}s)")
