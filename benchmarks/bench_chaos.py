"""Chaos benchmark: availability and goodput of the service under faults.

Measures what the resilience layer (``repro.faults`` + circuit breakers +
:class:`~repro.service.RetryPolicy`) buys a :class:`TransformService` facing
flaky simulated hardware:

* **Fault-rate sweep** -- a fixed mixed request load is served on a 4-device
  fleet while the per-launch transient-fault rate sweeps from 0 to 20%.
  Reported per point: availability (completed / submitted), goodput
  (modelled completed requests/s), retries, and *wrong results* -- outputs
  that differ from the fault-free run.  Wrong results must be zero at every
  rate: retries recompute, they never corrupt.
* **Hard-death scenario** -- one device of four dies mid-run.  Reported:
  availability (must stay 1.0 after the breaker/eviction reroutes work),
  throughput degradation vs the healthy fleet, and the failure taxonomy.

Everything is deterministic under ``REPRO_FAULT_SEED`` (the schedule, the
backoff jitter, the modelled timelines), so the numbers are exactly
reproducible.  Results merge into ``BENCH_throughput.json`` under the
``"chaos"`` key; every run checks ``GATES``.  ``--quick`` selects the CI
smoke configuration.
"""

from __future__ import annotations

import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_chaos.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro.core.env import bench_sample_size  # noqa: E402
from repro.faults import FaultInjector, FaultSpec, fault_seed_from_env  # noqa: E402
from repro.service import RetryPolicy, TransformService  # noqa: E402

SECTION = "chaos"

GATES = [
    ("availability at 10% transient rate",
     lambda s: next(p for p in s["sweep"]
                    if abs(p["fault_rate"] - 0.10) < 1e-12)["availability"],
     ">=", 0.99),
    ("max wrong results across sweep",
     lambda s: max(p["wrong_results"] for p in s["sweep"]), "==", 0),
    ("hard death: max of wrong results and errors",
     lambda s: max(s["hard_death"]["wrong_results"], s["hard_death"]["errors"]),
     "==", 0),
    ("hard death: throughput degradation",
     lambda s: s["hard_death"]["throughput_degradation"], "<=", 0.35),
]

N_DEVICES = 4
MAX_ATTEMPTS = 8


def _build_requests(quick, rng):
    """Mixed request load: groups of same-points one-shot requests."""
    m = bench_sample_size(1 << 10 if quick else 1 << 12)
    n_groups = 16 if quick else 32
    per_group = 3
    requests = []
    for g in range(n_groups):
        coords = {"x": rng.uniform(-np.pi, np.pi, m)}
        for i in range(per_group):
            data = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            requests.append(dict(nufft_type=1, n_modes=(64,), data=data,
                                 eps=1e-6, precision="single",
                                 tag=(g, i), **coords))
    return requests, m


def _serve(requests, injector=None, n_devices=N_DEVICES):
    service = TransformService(
        n_devices=n_devices, fault_injector=injector,
        retry=RetryPolicy(max_attempts=MAX_ATTEMPTS),
    )
    for fields in requests:
        service.submit(**fields)
    results = {r.tag: r for r in service.flush()}
    stats = service.stats
    makespan = service.makespan()
    service.close()
    return results, stats, makespan


def _availability_point(rate, requests, baseline, seed):
    injector = None
    if rate > 0.0:
        injector = FaultInjector([FaultSpec("transient", rate=rate)],
                                 seed=seed)
    results, stats, makespan = _serve(requests, injector)
    completed = [r for r in results.values() if r.error is None]
    wrong = sum(
        1 for r in completed
        if not np.array_equal(r.output, baseline[r.tag].output)
    )
    n = len(requests)
    return {
        "fault_rate": rate,
        "n_requests": n,
        "completed": len(completed),
        "availability": len(completed) / n,
        "goodput_rps": len(completed) / makespan if makespan > 0 else 0.0,
        "retries": stats.retries,
        "breaker_trips": stats.breaker_trips,
        "wrong_results": wrong,
        "injected": dict(injector.stats.injected) if injector else {},
    }


def _death_scenario(requests, baseline, healthy_makespan, seed):
    """One of four devices dies mid-run; work must reroute with zero errors."""
    injector = FaultInjector(
        [FaultSpec("death", rate=1.0, device_ids=(1,), after_events=40)],
        seed=seed,
    )
    results, stats, makespan = _serve(requests, injector)
    completed = [r for r in results.values() if r.error is None]
    wrong = sum(
        1 for r in completed
        if not np.array_equal(r.output, baseline[r.tag].output)
    )
    n = len(requests)
    degradation = (makespan - healthy_makespan) / healthy_makespan
    return {
        "n_requests": n,
        "completed": len(completed),
        "availability": len(completed) / n,
        "errors": n - len(completed),
        "wrong_results": wrong,
        "device_died": injector.is_dead(1),
        "throughput_degradation": degradation,
        "makespan_s": makespan,
        "healthy_makespan_s": healthy_makespan,
        "failures_by_type": dict(stats.failures_by_type),
    }


def run_chaos_bench(quick=False):
    seed = fault_seed_from_env(default=1234)
    rng = np.random.default_rng(0)
    requests, m = _build_requests(quick, rng)

    baseline, _, healthy_makespan = _serve(requests)
    baseline_results = {tag: r for tag, r in baseline.items()}

    rates = (0.0, 0.05, 0.10) if quick else (0.0, 0.02, 0.05, 0.10, 0.20)
    sweep = [_availability_point(rate, requests, baseline_results, seed)
             for rate in rates]
    death = _death_scenario(requests, baseline_results, healthy_makespan, seed)

    summary = {
        "quick": quick,
        "seed": seed,
        "sample_points": m,
        "n_devices": N_DEVICES,
        "max_attempts": MAX_ATTEMPTS,
        "sweep": sweep,
        "hard_death": death,
    }

    emit(
        "chaos_availability",
        f"Availability vs transient-fault rate (M={m}, "
        f"{len(requests)} requests, {N_DEVICES} devices, "
        f"max_attempts={MAX_ATTEMPTS}, seed={seed})",
        ["fault rate", "availability", "goodput req/s", "retries",
         "breaker trips", "wrong results"],
        [[p["fault_rate"], p["availability"], p["goodput_rps"],
          p["retries"], p["breaker_trips"], p["wrong_results"]]
         for p in sweep],
    )
    emit(
        "chaos_hard_death",
        "Hard death of 1/4 devices mid-run",
        ["availability", "errors", "wrong results", "degradation",
         "makespan ms", "healthy ms"],
        [[death["availability"], death["errors"], death["wrong_results"],
          death["throughput_degradation"], 1e3 * death["makespan_s"],
          1e3 * death["healthy_makespan_s"]]],
    )
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    run_chaos_bench(quick="--quick" in sys.argv[1:])
