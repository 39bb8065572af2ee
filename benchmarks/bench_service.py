"""Serving-layer benchmark: what plan pooling, coalescing and sharding buy.

The workload is a request mix a transform service would actually face:
several geometry groups (distinct mode grids and dimensionalities), many
one-shot requests per group sharing each group's nonuniform points, submitted
interleaved.  Four serving configurations answer it:

* ``unpooled``            -- every request plans, sorts, executes, destroys
                             (the per-request baseline: what one-shot
                             ``nufft*d*`` calls cost a server);
* ``pooled``              -- plans cached by geometry key and reused;
* ``pooled+coalesced``    -- same-geometry/same-points requests additionally
                             fused into ``n_trans`` blocks (PR 1's batched
                             engine);
* ``pooled+coalesced x4`` -- the fused blocks sharded over a 4-device fleet.

Reported per configuration: modelled requests/s (stream-level h2d/exec/d2h
timeline on the simulated V100 fleet), wall-clock requests/s of the numpy
engine, and mean per-device exec utilization.  A second sweep weak-scales the
service from 1 to 4 devices at fixed per-device load (the serving analogue of
the paper's Fig. 9) and reports scaling efficiency.

Results merge into ``BENCH_throughput.json`` under the ``"service"`` key;
every run checks ``GATES``.  ``--quick`` selects the CI smoke configuration.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_service.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro.core.env import bench_sample_size  # noqa: E402
from repro.cluster import run_weak_scaling_fleet  # noqa: E402
from repro.service import TransformService  # noqa: E402

SECTION = "service"

GATES = [
    ("pooled+coalesced vs unpooled modelled speedup",
     lambda s: s["speedup_pooled_coalesced"], ">=", 2.0),
    ("fleet efficiency at 4 devices", lambda s: s["fleet_efficiency"][-1], ">=", 0.7),
]

#: Serving configurations swept by the benchmark.
SCENARIOS = (
    ("unpooled", dict(pool_plans=False, coalesce=False, n_devices=1)),
    ("pooled", dict(pool_plans=True, coalesce=False, n_devices=1)),
    ("pooled+coalesced", dict(pool_plans=True, coalesce=True, n_devices=1)),
    ("pooled+coalesced x4", dict(pool_plans=True, coalesce=True, n_devices=4)),
)


def _geometry_groups(quick):
    """(name, nufft_type, n_modes) per geometry group in the request mix."""
    groups = [
        ("1d_4096", 1, (4096,)),
        ("2d_64", 1, (64, 64)),
        ("2d_96_t2", 2, (96, 96)),
    ]
    if not quick:
        groups.append(("3d_24", 1, (24, 24, 24)))
    return groups


def _build_requests(quick, rng):
    """The interleaved request mix: dicts of TransformRequest fields."""
    m = bench_sample_size(1 << 12 if quick else 1 << 14)
    per_group = 8 if quick else 16
    groups = []
    for name, nufft_type, n_modes in _geometry_groups(quick):
        ndim = len(n_modes)
        coords = dict(zip("xyz", rng.uniform(-np.pi, np.pi, (ndim, m))))
        reqs = []
        for _ in range(per_group):
            if nufft_type == 1:
                data = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            else:
                data = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
            reqs.append(dict(nufft_type=nufft_type, n_modes=n_modes, data=data,
                             eps=1e-6, precision="single", tag=name, **coords))
        groups.append(reqs)
    # Interleave across groups, as concurrent callers would: the coalescer
    # has to regroup them, not just batch an already-sorted queue.
    interleaved = []
    for i in range(per_group):
        for reqs in groups:
            interleaved.append(reqs[i])
    return interleaved, m


def _run_scenario(name, service_kwargs, requests):
    """Serve the mix twice: a cold round (fills the pool), then a measured
    steady-state round.  An unpooled service is oblivious to the warm-up (it
    re-plans regardless), so the comparison stays fair: every configuration
    is measured serving the identical second round."""
    service = TransformService(**service_kwargs)

    def serve_round():
        t0 = time.perf_counter()
        for fields in requests:
            service.submit(**fields)
        results = service.flush()
        wall_s = time.perf_counter() - t0
        failed = [r for r in results if r.error is not None]
        if failed:
            raise RuntimeError(f"{name}: {len(failed)} requests failed: {failed[0].error}")
        return wall_s

    serve_round()
    cold_makespan_s = service.makespan()
    cold_rps = service.throughput_rps()
    service.reset_metrics()
    wall_s = serve_round()

    stats = service.stats
    record = {
        "scenario": name,
        "n_requests": stats.requests_served,
        "modelled_makespan_s": service.makespan(),
        "modelled_rps": service.throughput_rps(),
        "cold_makespan_s": cold_makespan_s,
        "cold_rps": cold_rps,
        "wall_s": wall_s,
        "wall_rps": stats.requests_served / wall_s if wall_s > 0 else float("inf"),
        "mean_exec_utilization": float(np.mean(service.utilization())),
        "plans_created": stats.plans_created,
        "plan_cache_hits": stats.plan_cache_hits,
        "setpts_skipped": stats.setpts_skipped,
        "blocks": stats.blocks_executed,
        "shards": stats.shards_executed,
    }
    service.close()
    return record


def _run_fleet_scaling(quick):
    result = run_weak_scaling_fleet(
        nufft_type=2,
        n_modes=(24, 24, 24) if quick else (32, 32, 32),
        n_points_per_rank=(1 << 12) if quick else (1 << 14),
        eps=1e-6,
        requests_per_device=4 if quick else 8,
        max_devices=4,
        precision="double",
        task_label="slicing-style type-2 service",
    )
    return result


def run_service_bench(quick=False):
    rng = np.random.default_rng(0)
    requests, m = _build_requests(quick, rng)

    records = [_run_scenario(name, kwargs, requests) for name, kwargs in SCENARIOS]
    by_name = {r["scenario"]: r for r in records}
    speedup = (by_name["pooled+coalesced"]["modelled_rps"]
               / by_name["unpooled"]["modelled_rps"])
    pooled_speedup = by_name["pooled"]["modelled_rps"] / by_name["unpooled"]["modelled_rps"]

    fleet = _run_fleet_scaling(quick)
    efficiency = fleet.efficiency()

    summary = {
        "quick": quick,
        "sample_points": m,
        "n_requests": records[0]["n_requests"],
        "scenarios": records,
        "speedup_pooled": pooled_speedup,
        "speedup_pooled_coalesced": speedup,
        "fleet_task": fleet.task_label,
        "fleet_points": [
            {"n_devices": p.n_devices, "n_requests": p.n_requests,
             "makespan_s": p.makespan_s, "throughput_rps": p.throughput_rps,
             "mean_utilization": p.mean_utilization}
            for p in fleet.points
        ],
        "fleet_efficiency": efficiency,
    }

    emit(
        "service_throughput",
        f"Transform service (M={m}, {records[0]['n_requests']} mixed requests)",
        ["configuration", "req/s (model)", "req/s (wall)", "makespan ms",
         "util", "plans", "pool hits", "setpts skipped"],
        [[r["scenario"], r["modelled_rps"], r["wall_rps"],
          1e3 * r["modelled_makespan_s"], r["mean_exec_utilization"],
          r["plans_created"], r["plan_cache_hits"], r["setpts_skipped"]]
         for r in records],
    )
    emit(
        "service_weak_scaling",
        f"Service weak scaling, fixed per-device load ({fleet.task_label})",
        ["devices", "requests", "makespan ms", "req/s", "util", "efficiency"],
        [list(row) for row in fleet.rows()],
    )
    print(f"pooling alone vs unpooled: {pooled_speedup:.1f}x modelled throughput")
    print("fleet efficiency 1->4 devices: "
          + ", ".join(f"{e:.2f}" for e in efficiency))
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    run_service_bench(quick="--quick" in sys.argv[1:])
