"""Cost model: converting kernel profiles into (modelled) seconds.

The model is a small set of additive/overlapping terms with V100-calibrated
constants.  It is intentionally interpretable: every term corresponds to one
of the effects the paper's algorithm design targets, so that the benchmark
*shapes* (method orderings, crossovers, distribution sensitivity) follow from
the algorithmic differences rather than from curve fitting.

Terms for one kernel launch
---------------------------
``launch``      fixed kernel-launch latency.
``compute``     flops / peak-flops of the precision in use.
``stream``      coalesced bytes / sustained DRAM bandwidth.
``gather``      uncoalesced sector ops: each costs one L2 sector access, and
                the missing fraction additionally moves a 64-byte line from
                DRAM (read-for-ownership + write-back).
``atomic``      global atomic sector ops priced like gather ops, *plus* a
                serialization penalty when the expected queue depth on a
                target address exceeds one (see :mod:`repro.gpu.atomics`).
``shared``      shared-memory atomics: cheap per-op cost plus bank-conflict
                style serialization within a thread block.

``compute`` overlaps with the memory terms (kernels are either bandwidth- or
compute-bound), so the kernel time is
``launch + max(compute, stream + gather + atomic_sector) + atomic_serial + shared``.

Calibration constants live in :class:`CostModelConstants`; tests pin the
qualitative behaviours (monotonicity, method orderings) rather than absolute
values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .atomics import expected_queue_depth, serialization_delay_ns
from .device import V100_SPEC
from .memory import TransferDirection, allocation_time_seconds, transfer_time_seconds

__all__ = ["CostModelConstants", "CostModel", "TimingBreakdown"]


@dataclass(frozen=True)
class CostModelConstants:
    """Calibration constants of the kernel cost model (V100 defaults)."""

    #: Sustained fraction of peak DRAM bandwidth for streaming access.
    stream_efficiency: float = 0.85
    #: Cost of one 32-byte L2 sector operation (uncoalesced access), ns.
    l2_sector_ns: float = 0.20
    #: Extra DRAM bytes moved per L2-missing sector op (fetch + eviction).
    dram_bytes_per_miss: float = 64.0
    #: Number of atomic operations simultaneously in flight on the device.
    inflight_atomics: float = 8192.0
    #: Serialization delay per queued-behind atomic op, ns.
    atomic_serial_ns: float = 0.010
    #: Cost of one shared-memory atomic op, ns (per thread, amortized).
    shared_atomic_ns: float = 0.015
    #: Serialization delay per queued shared-memory atomic, ns.
    shared_serial_ns: float = 0.008
    #: In-flight shared atomics per block (roughly the active warps * lanes).
    inflight_shared_atomics: float = 256.0
    #: Achievable fraction of peak FLOP/s for spreading-style kernels.
    compute_efficiency: float = 0.5
    #: Fixed cuFFT plan-creation cost the first time a plan is built, seconds
    #: (the paper measures 0.1-0.2 s and excludes it with a dummy call).
    cufft_startup_s: float = 0.15


@dataclass
class TimingBreakdown:
    """Per-term timing of one kernel (seconds), plus the total."""

    name: str
    launch: float = 0.0
    compute: float = 0.0
    stream: float = 0.0
    gather: float = 0.0
    atomic: float = 0.0
    atomic_serial: float = 0.0
    shared: float = 0.0

    @property
    def total(self):
        memory = self.stream + self.gather + self.atomic
        return (
            self.launch
            + max(self.compute, memory)
            + self.atomic_serial
            + self.shared
        )


class CostModel:
    """Converts :class:`~repro.gpu.profiler.KernelProfile` objects to seconds.

    Parameters
    ----------
    spec : DeviceSpec, optional
        Device being modelled (defaults to the paper's V100).
    constants : CostModelConstants, optional
        Calibration constants.
    precision_itemsize : int, optional
        Size in bytes of the real scalar type (4 = single, 8 = double); used
        to pick the FLOP rate.  Double-precision kernels also move twice the
        bytes, but that is already reflected in the profiles' byte counts.
    """

    def __init__(self, spec=None, constants=None, precision_itemsize=4):
        self.spec = spec if spec is not None else V100_SPEC
        self.constants = constants if constants is not None else CostModelConstants()
        if precision_itemsize not in (4, 8):
            raise ValueError(
                f"precision_itemsize must be 4 or 8, got {precision_itemsize}"
            )
        self.precision_itemsize = precision_itemsize

    def with_constants(self, **overrides):
        """Return a copy of the model with some calibration constants replaced."""
        return CostModel(
            spec=self.spec,
            constants=replace(self.constants, **overrides),
            precision_itemsize=self.precision_itemsize,
        )

    # ------------------------------------------------------------------ #
    # single kernel
    # ------------------------------------------------------------------ #
    def kernel_breakdown(self, profile):
        """Return a :class:`TimingBreakdown` for one kernel profile."""
        c = self.constants
        spec = self.spec

        launch = spec.kernel_launch_us * 1e-6

        flop_rate = spec.flops(self.precision_itemsize) * c.compute_efficiency
        compute = profile.flops / flop_rate if profile.flops else 0.0

        bandwidth = spec.global_mem_bandwidth * c.stream_efficiency
        stream = profile.stream_bytes / bandwidth if profile.stream_bytes else 0.0

        # Uncoalesced non-atomic accesses: per-sector L2 cost + DRAM traffic
        # for the missing fraction.
        gather = profile.gather_sector_ops * c.l2_sector_ns * 1e-9
        gather += (
            profile.gather_sector_ops
            * profile.gather_miss_fraction
            * c.dram_bytes_per_miss
            / bandwidth
        )

        # Global atomics: sector-level cost (+DRAM for misses), then the
        # serialization penalty from contention on hot addresses.
        atomic = profile.global_atomic_sector_ops * c.l2_sector_ns * 1e-9
        atomic += (
            profile.global_atomic_sector_ops
            * profile.global_atomic_miss_fraction
            * c.dram_bytes_per_miss
            / bandwidth
        )
        queue = expected_queue_depth(
            c.inflight_atomics, profile.global_atomic_distinct_addresses
        )
        atomic_serial = (
            serialization_delay_ns(profile.global_atomic_ops, queue, c.atomic_serial_ns)
            * 1e-9
        )

        # Shared-memory atomics: cheap per-op cost + intra-block serialization.
        shared = profile.shared_atomic_ops * c.shared_atomic_ns * 1e-9
        shared_queue = expected_queue_depth(
            min(c.inflight_shared_atomics, profile.block_threads),
            profile.shared_atomic_distinct_addresses,
        )
        shared += (
            serialization_delay_ns(profile.shared_atomic_ops, shared_queue, c.shared_serial_ns)
            * 1e-9
        )

        return TimingBreakdown(
            name=profile.name,
            launch=launch,
            compute=compute,
            stream=stream,
            gather=gather,
            atomic=atomic,
            atomic_serial=atomic_serial,
            shared=shared,
        )

    def kernel_time(self, profile, contention_factor=1.0):
        """Modelled wall-clock seconds for one kernel launch."""
        if contention_factor < 1.0:
            raise ValueError("contention_factor must be >= 1")
        return self.kernel_breakdown(profile).total * contention_factor

    # ------------------------------------------------------------------ #
    # pipelines
    # ------------------------------------------------------------------ #
    def transfer_time(self, record):
        """Seconds for one :class:`~repro.gpu.profiler.TransferRecord`."""
        if record.kind == "alloc":
            return allocation_time_seconds(record.nbytes, self.spec)
        direction = (
            TransferDirection.HOST_TO_DEVICE
            if record.kind == "h2d"
            else TransferDirection.DEVICE_TO_HOST
        )
        return transfer_time_seconds(record.nbytes, self.spec, direction)

    def pipeline_times(self, pipeline, contention_factor=1.0):
        """Return the paper's three timings for a pipeline profile.

        Returns
        -------
        dict with keys ``"exec"``, ``"setup"``, ``"total"``, ``"mem"``,
        ``"total+mem"``, all in seconds.
        """
        exec_t = sum(
            self.kernel_time(k, contention_factor) for k in pipeline.exec_kernels()
        )
        setup_t = sum(
            self.kernel_time(k, contention_factor) for k in pipeline.setup_kernels()
        )
        mem_t = sum(self.transfer_time(t) for t in pipeline.transfers)
        total = exec_t + setup_t
        return {
            "exec": exec_t,
            "setup": setup_t,
            "total": total,
            "mem": mem_t,
            "total+mem": total + mem_t,
        }

    def spread_fraction(self, pipeline, contention_factor=1.0):
        """Fraction of a pipeline's ``exec`` seconds spent in spread/interp kernels."""
        total = 0.0
        spread = 0.0
        for prof in pipeline.exec_kernels():
            t = self.kernel_time(prof, contention_factor)
            total += t
            if prof.name.startswith(("spread", "interp")):
                spread += t
        return spread / total if total > 0 else 0.0

    def breakdown_table(self, pipeline, contention_factor=1.0):
        """List of (phase, TimingBreakdown) rows for diagnostic printing."""
        rows = []
        for phase, k in pipeline.kernels:
            b = self.kernel_breakdown(k)
            if contention_factor != 1.0:
                b = TimingBreakdown(
                    name=b.name,
                    launch=b.launch * contention_factor,
                    compute=b.compute * contention_factor,
                    stream=b.stream * contention_factor,
                    gather=b.gather * contention_factor,
                    atomic=b.atomic * contention_factor,
                    atomic_serial=b.atomic_serial * contention_factor,
                    shared=b.shared * contention_factor,
                )
            rows.append((phase, b))
        return rows
