"""Single-node multi-GPU weak-scaling experiment (paper Fig. 9).

Weak scaling fixes the *per-rank* problem size (the Table II slicing/merging
NUFFTs) and grows the number of MPI ranks from 1 to beyond one rank per GPU.
With ideal weak scaling the per-rank wall-clock time stays flat; the paper
observes exactly that up to one rank per GPU on both Cori GPU (8 V100) and
Summit (6 V100), followed by rapid deterioration once ranks start sharing
devices.  The driver here reproduces that by combining:

* the per-rank NUFFT model time (setup + exec + host-device transfers),
* the device contention factor from ranks sharing a GPU, and
* the collective-communication cost of the scatter/reduce around the NUFFTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.options import default_bin_shape
from ..metrics.modeling import model_cufinufft, sample_spread_stats
from .comm import CommCostModel
from .node import CORI_GPU_NODE, Node

__all__ = [
    "WeakScalingPoint",
    "WeakScalingResult",
    "run_weak_scaling",
    "FleetScalingPoint",
    "FleetScalingResult",
    "run_weak_scaling_fleet",
    "StrongScalingPoint",
    "StrongScalingResult",
    "run_strong_scaling_multinode",
]


@dataclass(frozen=True)
class WeakScalingPoint:
    """Per-rank timings for one rank count."""

    n_ranks: int
    setup_s: float
    exec_s: float
    transfer_s: float
    comm_s: float

    @property
    def total_s(self):
        return self.setup_s + self.exec_s + self.transfer_s + self.comm_s


@dataclass
class WeakScalingResult:
    """Weak-scaling curve for one node type and one NUFFT task."""

    node_name: str
    task_label: str
    n_gpus: int
    points: list = field(default_factory=list)

    def efficiency(self):
        """Weak-scaling efficiency relative to one rank (1.0 = ideal)."""
        if not self.points:
            return []
        base = self.points[0].total_s
        return [base / p.total_s for p in self.points]

    def rows(self):
        """Table rows: (ranks, setup ms, exec ms, total s, efficiency)."""
        eff = self.efficiency()
        return [
            (
                p.n_ranks,
                p.setup_s * 1e3,
                p.exec_s * 1e3,
                p.total_s,
                eff[i],
            )
            for i, p in enumerate(self.points)
        ]


def run_weak_scaling(nufft_type, n_modes, n_points_per_rank, eps, node_spec=None,
                     max_ranks=None, precision="double", task_label="",
                     rng=None, max_sample=1 << 20, tune="off", tuner=None):
    """Run the Fig. 9 weak-scaling sweep for one NUFFT task.

    Parameters
    ----------
    nufft_type, n_modes, n_points_per_rank, eps
        The per-rank NUFFT problem (Table II sizes at paper scale).
    node_spec : NodeSpec, optional
        Node to model (Cori GPU by default; pass ``SUMMIT_NODE`` for Summit).
    max_ranks : int, optional
        Largest rank count to sweep; defaults to twice the number of GPUs so
        the post-saturation regime is visible, as in the paper's plots.
    precision : str
        ``"double"`` for the M-TIP requirement of eps = 1e-12.
    tune : str
        ``"off"`` runs the paper's hard-coded plan parameters; ``"model"`` /
        ``"measure"`` price the per-rank NUFFT with an autotuned
        configuration instead (see :mod:`repro.tuning`).
    tuner : Autotuner, optional
        Tuner to consult when tuning is enabled (a shared-cache default
        otherwise).
    """
    node_spec = node_spec if node_spec is not None else CORI_GPU_NODE
    node = Node(spec=node_spec)
    if max_ranks is None:
        max_ranks = 2 * node_spec.n_gpus
    comm_cost = CommCostModel()

    # The per-rank NUFFT is identical for every rank, so model it once and
    # apply the rank-dependent contention/communication factors.
    opts = None
    method = "auto"
    bin_shape = default_bin_shape(len(n_modes))
    if tune == "off":
        if tuner is not None:
            raise ValueError(
                "tuner has no effect with tune='off'; pass tune='model' or "
                "tune='measure' to enable autotuning"
            )
    else:
        from ..tuning import TuningProblem, default_autotuner

        tuner = tuner if tuner is not None else default_autotuner()
        problem = TuningProblem(nufft_type, n_modes, n_points_per_rank, eps,
                                precision)
        opts = tuner.tuned_opts(problem, mode=tune, include_backend=False)
        method = opts.method
        bin_shape = opts.resolved_bin_shape(len(n_modes))
    stats = sample_spread_stats(
        "rand", n_points_per_rank, _fine_shape_for(n_modes, eps),
        bin_shape, rng=rng, max_sample=max_sample,
    )
    base = model_cufinufft(
        nufft_type, n_modes, n_points_per_rank, eps,
        method=method, distribution="rand", precision=precision, opts=opts,
        stats=stats,
    )

    result = WeakScalingResult(
        node_name=node_spec.name,
        task_label=task_label or f"type{nufft_type} N={n_modes[0]}^3",
        n_gpus=node_spec.n_gpus,
    )
    bytes_per_rank = n_points_per_rank * (16 if precision == "double" else 8)
    for n_ranks in range(1, max_ranks + 1):
        contention = node.contention_for_ranks(n_ranks)
        comm_s = comm_cost.collective_time(bytes_per_rank * n_ranks, n_ranks)
        point = WeakScalingPoint(
            n_ranks=n_ranks,
            setup_s=base.times["setup"] * contention,
            exec_s=base.times["exec"] * contention,
            transfer_s=base.times["mem"],
            comm_s=comm_s,
        )
        result.points.append(point)
    return result


def _fine_shape_for(n_modes, eps):
    from ..core.gridsize import fine_grid_shape
    from ..kernels.es_kernel import ESKernel

    kernel = ESKernel.from_tolerance(eps)
    return fine_grid_shape(n_modes, kernel.width)


# --------------------------------------------------------------------------- #
# service-backed fleet weak scaling
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FleetScalingPoint:
    """Serving metrics for one fleet size (fixed per-device request load)."""

    n_devices: int
    n_requests: int
    makespan_s: float
    throughput_rps: float
    mean_utilization: float


@dataclass
class FleetScalingResult:
    """Weak-scaling curve of the transform service over a device fleet."""

    task_label: str
    requests_per_device: int
    points: list = field(default_factory=list)

    def efficiency(self):
        """Scaling efficiency vs the 1-device point (1.0 = linear).

        Weak scaling: the per-device load is fixed, so with ideal scaling
        ``throughput(N) = N * throughput(1)``.
        """
        if not self.points:
            return []
        base = self.points[0].throughput_rps
        return [p.throughput_rps / (base * p.n_devices) for p in self.points]

    def rows(self):
        """Table rows: (devices, requests, makespan ms, req/s, util, efficiency)."""
        eff = self.efficiency()
        return [
            (p.n_devices, p.n_requests, p.makespan_s * 1e3, p.throughput_rps,
             p.mean_utilization, eff[i])
            for i, p in enumerate(self.points)
        ]


def run_weak_scaling_fleet(nufft_type=2, n_modes=(32, 32, 32),
                           n_points_per_rank=20_000, eps=1e-6,
                           requests_per_device=4, max_devices=4,
                           precision="double", backend="auto",
                           task_label="", seed=0, service_kwargs=None,
                           warmup=True, rounds=2, tune="off", tuner=None,
                           tuning_cache_path=None):
    """Weak-scale the transform service from 1 to ``max_devices`` devices.

    The serving analogue of the paper's Fig. 9 experiment: each simulated
    device ("rank") is given a fixed load -- ``requests_per_device`` one-shot
    transforms over its own point set of ``n_points_per_rank`` points -- and
    the fleet grows.  ``n_modes`` is always a tuple here: the uniform grid
    for types 1/2, and the per-dimension spectral extent of the random
    targets (its length giving the dimension) for type 3.  Per-rank point sets are seeded deterministically, so
    each sweep size serves an identical per-device workload.  Each rank's
    requests coalesce into one fused block, blocks land on distinct devices
    via least-loaded placement, and the modelled makespan includes the
    host-side dispatch serialization and the shared-host-link h2d contention
    that bend the curve below ideal.

    With ``warmup`` (default) one unmeasured round first fills the plan pool
    and the timelines are then rewound, so the reported makespan/throughput
    describe *steady-state* serving over ``rounds`` rounds -- plan creation
    amortized away, dispatch and host-link contention still in.

    ``tune`` applies the service-level autotuning policy (``"model"`` /
    ``"measure"``, see :mod:`repro.tuning`) to every fleet size of the
    sweep; one shared :class:`~repro.tuning.Autotuner` (``tuner``, or a
    fresh one over ``tuning_cache_path``) serves the whole sweep, so the
    per-rank problem is tuned exactly once.

    Returns a :class:`FleetScalingResult`; efficiency near 1.0 up to
    ``max_devices`` is the serving counterpart of the paper's flat region up
    to one rank per GPU.
    """
    from ..service import TransformService  # local import: service builds on cluster

    if max_devices < 1:
        raise ValueError(f"max_devices must be >= 1, got {max_devices}")
    if tune == "off":
        if tuner is not None or tuning_cache_path is not None:
            raise ValueError(
                "tuner/tuning_cache_path have no effect with tune='off'; "
                "pass tune='model' or tune='measure' to enable autotuning"
            )
    elif tuner is None:
        from ..tuning import Autotuner, TuningCache

        tuner = Autotuner(cache=TuningCache(tuning_cache_path))
    n_modes = tuple(int(n) for n in n_modes)
    ndim = len(n_modes)
    result = FleetScalingResult(
        task_label=task_label or f"type{nufft_type} N={n_modes[0]}^{ndim} service",
        requests_per_device=int(requests_per_device),
    )

    workload_cache = {}

    def rank_workload(rank):
        # Deterministic per rank, so generate once: every round and every
        # fleet size of the sweep serves the identical per-rank workload.
        if rank in workload_cache:
            return workload_cache[rank]
        rng = np.random.default_rng((seed, rank))
        coords = dict(zip("xyz", rng.uniform(-np.pi, np.pi, (ndim, n_points_per_rank))))
        if nufft_type == 3:
            # Type-3 targets span +-n_modes[d]/2, reading n_modes as the
            # per-dimension spectral extent (as bench_throughput does).
            coords.update(zip("stu", [
                rng.uniform(-0.5 * n_modes[d], 0.5 * n_modes[d], n_points_per_rank)
                for d in range(ndim)
            ]))
        if nufft_type in (1, 3):
            data_shape = (n_points_per_rank,)
        else:
            data_shape = n_modes
        datas = [
            rng.standard_normal(data_shape) + 1j * rng.standard_normal(data_shape)
            for _ in range(requests_per_device)
        ]
        workload_cache[rank] = (coords, datas)
        return workload_cache[rank]

    def submit_round(service, n_devices):
        for rank in range(n_devices):
            coords, datas = rank_workload(rank)
            for data in datas:
                service.submit(nufft_type=nufft_type, n_modes=n_modes, data=data,
                               eps=eps, precision=precision, backend=backend,
                               **coords)

    for n_devices in range(1, int(max_devices) + 1):
        service = TransformService(n_devices=n_devices, tune=tune, tuner=tuner,
                                   **(service_kwargs or {}))
        if warmup:
            submit_round(service, n_devices)
            service.flush()
            service.reset_metrics()
        for _ in range(max(1, int(rounds))):
            submit_round(service, n_devices)
            service.flush()
        result.points.append(FleetScalingPoint(
            n_devices=n_devices,
            n_requests=service.stats.requests_served,
            makespan_s=service.makespan(),
            throughput_rps=service.throughput_rps(),
            mean_utilization=float(np.mean(service.utilization())),
        ))
        service.close()
    return result


# --------------------------------------------------------------------------- #
# multi-node strong scaling over the distributed plan
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StrongScalingPoint:
    """One rank count of a fixed-total-problem (strong-scaling) sweep."""

    n_ranks: int
    compute_s: float
    comm_s: float
    overlap_s: float
    makespan_s: float
    halo_bytes: int
    transpose_bytes: int
    rel_err: float


@dataclass
class StrongScalingResult:
    """Strong-scaling curve of one distributed NUFFT problem.

    Unlike the weak-scaling sweeps above, the *total* problem is fixed and
    the rank count grows, so ideal scaling halves the makespan per doubling:
    ``efficiency(P) = T(P0) * P0 / (T(P) * P)`` relative to the first swept
    rank count ``P0``.
    """

    node_name: str
    task_label: str
    points: list = field(default_factory=list)

    def efficiency(self):
        """Strong-scaling efficiency relative to the first rank count."""
        if not self.points:
            return []
        base = self.points[0].makespan_s * self.points[0].n_ranks
        return [base / (p.makespan_s * p.n_ranks) for p in self.points]

    def rows(self):
        """Table rows: (ranks, compute ms, comm ms, overlap ms, makespan ms,
        efficiency, halo MB)."""
        eff = self.efficiency()
        return [
            (p.n_ranks, p.compute_s * 1e3, p.comm_s * 1e3, p.overlap_s * 1e3,
             p.makespan_s * 1e3, eff[i], p.halo_bytes / 1e6)
            for i, p in enumerate(self.points)
        ]


def run_strong_scaling_multinode(nufft_type=1, n_modes=(64, 64, 64),
                                 n_points=200_000, eps=1e-9,
                                 rank_counts=(1, 2, 4, 8), node_spec=None,
                                 precision="double", n_trans=1, seed=0,
                                 task_label="", check_equivalence=True):
    """Strong-scale one distributed NUFFT across growing rank counts.

    Fixes a single type-1 or type-2 problem (``n_modes`` x ``n_points`` at
    tolerance ``eps``) and executes it with a
    :class:`~repro.cluster.distributed.DistributedPlan` at every rank count
    in ``rank_counts`` over one ``node_spec`` node (Cori GPU by default,
    ranks round-robined onto its GPUs).  The identical seeded points and
    strengths are reused at every rank count, so the sweep isolates the
    decomposition: modelled makespans combine the slowest rank's kernel time
    (contention included), the SimComm charges of scatter / halo / transpose
    / gather, and the halo-behind-local-FFT overlap credit.

    With ``check_equivalence`` (default) a single-plan reference is computed
    once and every point carries its relative error against it -- the CI
    gate asserts it stays within ``10 * eps``.

    Returns a :class:`StrongScalingResult`.
    """
    from ..core.plan import Plan
    from .distributed import DistributedPlan

    node_spec = node_spec if node_spec is not None else CORI_GPU_NODE
    ndim = len(n_modes)
    rng = np.random.default_rng(seed)
    coords = [rng.uniform(-np.pi, np.pi, n_points) for _ in range(ndim)]
    shape = (n_points,) if nufft_type == 1 else tuple(n_modes)
    data = rng.standard_normal((n_trans,) + shape) \
        + 1j * rng.standard_normal((n_trans,) + shape)
    if n_trans == 1:
        data = data[0]

    reference = None
    ref_scale = 1.0
    if check_equivalence:
        with Plan(nufft_type, n_modes, n_trans=n_trans, eps=eps,
                  precision=precision) as single:
            single.set_pts(*coords)
            reference = np.asarray(single.execute(data))
        ref_scale = max(float(np.max(np.abs(reference))), 1e-300)

    result = StrongScalingResult(
        node_name=node_spec.name,
        task_label=task_label
        or f"type{nufft_type} N={'x'.join(str(n) for n in n_modes)} distributed",
    )
    for n_ranks in rank_counts:
        node = Node(spec=node_spec)
        with DistributedPlan(nufft_type, n_modes, n_ranks=n_ranks,
                             n_trans=n_trans, eps=eps, node=node,
                             precision=precision) as plan:
            plan.set_pts(*coords)
            output = plan.execute(data)
            b = plan.last_breakdown
            rel_err = 0.0
            if reference is not None:
                rel_err = float(
                    np.max(np.abs(np.asarray(output) - reference)) / ref_scale
                )
            result.points.append(StrongScalingPoint(
                n_ranks=int(n_ranks),
                compute_s=b.compute_s,
                comm_s=b.comm_s,
                overlap_s=b.overlap_s,
                makespan_s=b.makespan_s,
                halo_bytes=b.halo_bytes,
                transpose_bytes=b.transpose_bytes,
                rel_err=rel_err,
            ))
    return result
