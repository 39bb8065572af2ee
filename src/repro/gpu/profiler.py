"""Kernel and pipeline profiles: the operation counts fed to the cost model.

A :class:`KernelProfile` records, for one simulated kernel launch, the
quantities that determine its runtime on the modelled device: arithmetic,
streaming traffic, uncoalesced sector operations and their cache behaviour,
atomic operations and their contention, and launch geometry.  The spreading /
interpolation / FFT / deconvolution implementations build these profiles from
the actual problem data (point coordinates, bin histograms, grid sizes), and
:class:`repro.gpu.costmodel.CostModel` converts them to seconds.

A :class:`PipelineProfile` is an ordered collection of kernel profiles plus
host<->device transfer and allocation records; it is what a
:class:`repro.core.plan.Plan` returns from ``execute`` alongside the numeric
result, and what the benchmark harness turns into "exec" / "total" /
"total+mem" rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["KernelProfile", "TransferRecord", "PipelineProfile"]


@dataclass
class KernelProfile:
    """Operation counts for one kernel launch.

    All count fields are floats so that analytic (expected-value) estimates
    can be stored without rounding.

    Attributes
    ----------
    name : str
        Kernel identifier, e.g. ``"spread_2d_sm"``.
    grid_blocks : float
        Number of thread blocks launched.
    block_threads : float
        Threads per block.
    flops : float
        Floating-point operations (kernel evaluations, multiplies, adds).
    stream_bytes : float
        Fully-coalesced global traffic in bytes (reading point data, writing
        contiguous output, copying arrays).
    gather_sector_ops : float
        Uncoalesced non-atomic global accesses, counted in 32-byte sector
        operations (e.g. interpolation reads of scattered grid cells).
    gather_miss_fraction : float
        Fraction of ``gather_sector_ops`` that miss L2 and go to DRAM.
    global_atomic_ops : float
        Individual global atomic add operations issued.
    global_atomic_sector_ops : float
        Sector-level operations after warp coalescing of the atomics (for
        bin-sorted spreading several atomics to one sector merge).
    global_atomic_distinct_addresses : float
        Estimate of distinct addresses targeted (contention model input).
    global_atomic_miss_fraction : float
        Fraction of atomic sector ops whose target line is not resident in L2.
    shared_atomic_ops : float
        Shared-memory atomic adds (SM method step 2).
    shared_atomic_distinct_addresses : float
        Distinct shared-memory addresses targeted per block.
    shared_mem_per_block : float
        Bytes of shared memory requested per block (checked against the
        device limit by the SM spreader).
    """

    name: str
    grid_blocks: float = 1.0
    block_threads: float = 128.0
    flops: float = 0.0
    stream_bytes: float = 0.0
    gather_sector_ops: float = 0.0
    gather_miss_fraction: float = 0.0
    global_atomic_ops: float = 0.0
    global_atomic_sector_ops: float = 0.0
    global_atomic_distinct_addresses: float = 1.0
    global_atomic_miss_fraction: float = 0.0
    shared_atomic_ops: float = 0.0
    shared_atomic_distinct_addresses: float = 1.0
    shared_mem_per_block: float = 0.0

    def validate(self):
        """Raise ``ValueError`` on physically meaningless counts."""
        for name in (
            "grid_blocks",
            "block_threads",
            "flops",
            "stream_bytes",
            "gather_sector_ops",
            "global_atomic_ops",
            "global_atomic_sector_ops",
            "shared_atomic_ops",
            "shared_mem_per_block",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{self.name}: {name} must be nonnegative")
        for name in ("gather_miss_fraction", "global_atomic_miss_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{self.name}: {name} must be in [0, 1], got {v}")
        if self.global_atomic_distinct_addresses <= 0:
            raise ValueError(f"{self.name}: distinct addresses must be positive")
        if self.shared_atomic_distinct_addresses <= 0:
            raise ValueError(f"{self.name}: shared distinct addresses must be positive")
        return self

    def scaled(self, batch):
        """Profile of one *fused* launch doing ``batch`` copies of this work.

        Every extensive count (blocks, flops, bytes, sector/atomic ops)
        scales; the intensive ones (miss fractions, distinct addresses per
        unit of work, threads per block) do not.  This is how the batched
        engine's fused ``n_trans`` kernels -- and cuFFT's batch API -- are
        priced: ``batch`` transforms' work behind a single launch latency.
        """
        batch = float(batch)
        if batch < 1.0:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch == 1.0:
            return self
        return replace(
            self,
            grid_blocks=self.grid_blocks * batch,
            flops=self.flops * batch,
            stream_bytes=self.stream_bytes * batch,
            gather_sector_ops=self.gather_sector_ops * batch,
            global_atomic_ops=self.global_atomic_ops * batch,
            global_atomic_sector_ops=self.global_atomic_sector_ops * batch,
            shared_atomic_ops=self.shared_atomic_ops * batch,
        )


@dataclass
class TransferRecord:
    """One host<->device transfer or device allocation event."""

    kind: str  # "h2d", "d2h", "alloc"
    nbytes: float
    label: str = ""


@dataclass
class PipelineProfile:
    """Ordered record of everything a Plan did during setup and execution.

    The three timing views reported by the paper map onto this record as:

    * ``exec``       -- kernels tagged ``phase="exec"`` only (spread/interp,
      FFT, deconvolution): the cost of a repeated transform with the same
      nonuniform points;
    * ``total``      -- exec plus the ``phase="setup"`` kernels (bin-index
      computation, sort, subproblem setup) for fresh points;
    * ``total+mem``  -- total plus host<->device transfers and allocations.

    ``allocs`` carries the :class:`~repro.metrics.allocs.AllocStats` of the
    execute call that produced this profile (None for setup/plan pipelines):
    the hot-path buffer-event counts the interop benchmark and its CI gate
    read to assert the zero-copy steady state.
    """

    kernels: list = field(default_factory=list)  # list[(phase, KernelProfile)]
    transfers: list = field(default_factory=list)  # list[TransferRecord]
    allocs: object = None  # AllocStats of the producing execute, if any

    def add_kernel(self, profile, phase="exec", checked=False):
        """Record one launch of ``profile``; it is validated unless ``checked``.

        Callers that keep a profile across executes validate it once, when
        they build it, and pass ``checked=True`` on every launch.
        """
        if phase not in ("exec", "setup"):
            raise ValueError(f"phase must be 'exec' or 'setup', got {phase!r}")
        if not checked:
            profile.validate()
        self.kernels.append((phase, profile))
        return profile

    def add_transfer(self, kind, nbytes, label=""):
        if kind not in ("h2d", "d2h", "alloc"):
            raise ValueError(f"kind must be 'h2d', 'd2h' or 'alloc', got {kind!r}")
        rec = TransferRecord(kind=kind, nbytes=float(nbytes), label=label)
        self.transfers.append(rec)
        return rec

    def merge(self, other):
        """Append another pipeline's records (used when chaining transforms)."""
        self.kernels.extend(other.kernels)
        self.transfers.extend(other.transfers)
        return self

    # convenience filters -------------------------------------------------
    def exec_kernels(self):
        return [k for phase, k in self.kernels if phase == "exec"]

    def setup_kernels(self):
        return [k for phase, k in self.kernels if phase == "setup"]
