"""QoS benchmark: what the async micro-batching front-end buys (and costs).

Open-loop arrival traces are replayed against an
:class:`~repro.service.AsyncFrontend` in two modes: **windowed** (bounded
micro-batching windows fuse same-signature requests into ``n_trans`` blocks)
and **per_request** (``max_batch=1`` -- every request dispatches alone, the
baseline a server without a batching front-end would run).  Three traces:

* ``uniform`` -- one signature, saturating Poisson-free arrivals at 8x the
  single-request service rate: the batchable steady state where windows fill
  to ``max_batch`` and fusion's per-execute amortization shows up directly;
* ``bursty``  -- the same load arriving in window-sized bursts separated by
  idle gaps: the arrival pattern micro-batching is built for;
* ``skewed``  -- two tenants, one flooding and one light, exercising the
  deficit-round-robin fair share: reported per-tenant p50/p95/p99 and the
  light tenant's bounded max queue wait.

The windowed and per-request runs of the uniform trace serve *identical*
request data, and the benchmark asserts their outputs are **bit-identical**
-- fusion changes scheduling, never numerics.  Plan creation is not charged
(``charge_plan_creation=False``) and the pool is pre-warmed: this is a
steady-state serving measurement, the regime the front-end targets.

Results merge into ``BENCH_throughput.json`` under the ``"qos"`` key; every
run checks ``GATES``.  ``--quick`` selects the CI smoke configuration.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_qos.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro.core.env import bench_sample_size  # noqa: E402
from repro.service import AsyncFrontend, TransformRequest, TransformService  # noqa: E402

SECTION = "qos"

GATES = [
    ("windowed vs per-request modelled speedup (uniform trace)",
     lambda s: s["speedup_windowed_uniform"], ">=", 2.0),
    ("windowed outputs bit-identical to per-request",
     lambda s: bool(s["bit_identical"]), "==", True),
    ("every trace's p99 finite and positive",
     lambda s: all(math.isfinite(r["p99_e2e_s"]) and r["p99_e2e_s"] > 0
                   for r in s["traces"]), "==", True),
    ("light tenant's max queue wait within its fair-share bound",
     lambda s: bool(s["fair_share_ok"]
                    and s["light_max_queue_wait_s"] <= s["light_wait_bound_s"]),
     "==", True),
]

#: Front-end knobs shared by every windowed run.
MAX_BATCH = 16
WINDOW_OVER_DT = 24  # window_s = WINDOW_OVER_DT * inter-arrival time


def _problem(quick, rng):
    """One shared geometry + point set (the fusable signature).

    Sized for the front-end's target regime -- many *small* transforms,
    where fixed per-execute costs (launches, per-call transfer latency,
    dispatch) rival the per-transform spread/FFT work and fusion pays.
    Large solo transforms saturate a device on their own; batching them
    buys little and a front-end would pass them straight through.
    """
    m = bench_sample_size(1 << 11 if quick else 1 << 12)
    n_modes = (32, 32) if quick else (48, 48)
    x = rng.uniform(-np.pi, np.pi, m)
    y = rng.uniform(-np.pi, np.pi, m)
    return m, n_modes, x, y


def _request(rng, m, n_modes, x, y, tenant="default"):
    data = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return TransformRequest(nufft_type=1, n_modes=n_modes, data=data,
                            x=x, y=y, eps=1e-6, tenant=tenant)


def _make_service():
    return TransformService(charge_plan_creation=False)


def _warm_frontend(window_s, max_batch, rng, m, n_modes, x, y, **kwargs):
    """A frontend whose service pool already holds the trace's plans.

    Warms both the fused (``max_batch``) and the single (``n_trans=1``)
    plan so neither mode pays creation or first-``set_pts`` inside the
    measured trace, then rewinds the timelines and counters.
    """
    service = _make_service()
    for n in {max_batch, 1}:
        for _ in range(n):
            service.submit(_request(rng, m, n_modes, x, y))
        service.flush()
    service.reset_metrics()
    return AsyncFrontend(service, window_s=window_s, max_batch=max_batch,
                         **kwargs)


def _probe_single_cost(rng, m, n_modes, x, y):
    """Steady-state modelled seconds of one unfused request (warm plan)."""
    service = _make_service()
    for _ in range(4):
        service.submit(_request(rng, m, n_modes, x, y))
        service.flush()
    service.reset_metrics()
    n = 8
    for _ in range(n):
        service.submit(_request(rng, m, n_modes, x, y))
        service.flush()
    cost = service.makespan() / n
    service.close()
    return cost


def _replay(frontend, arrivals):
    """Drain one (request, at_s) trace; returns (results, record)."""
    for request, at_s in arrivals:
        frontend.submit(request, at_s=at_s)
    results = frontend.drain()
    failed = [r for r in results if r.error is not None]
    if failed:
        raise RuntimeError(f"{len(failed)} requests failed: {failed[0].error}")
    first_arrival = min(at_s for _, at_s in arrivals)
    last_done = max(r.completed_at for r in results)
    span = last_done - first_arrival
    e2e = np.array([r.e2e_s for r in results])
    record = {
        "n_requests": len(results),
        "throughput_rps": len(results) / span if span > 0 else float("inf"),
        "span_s": span,
        "p50_e2e_s": float(np.percentile(e2e, 50)),
        "p95_e2e_s": float(np.percentile(e2e, 95)),
        "p99_e2e_s": float(np.percentile(e2e, 99)),
        "max_e2e_s": float(e2e.max()),
        "windows": frontend.windows_dispatched,
        "largest_fusion": frontend.largest_fusion,
    }
    return results, record


def _run_trace(trace, mode, quick, seed, arrival_fn, **frontend_kwargs):
    """Build the trace with a fresh seeded rng and replay it in one mode."""
    rng = np.random.default_rng(seed)
    m, n_modes, x, y = _problem(quick, rng)
    dt = _probe_single_cost(np.random.default_rng(seed), m, n_modes, x, y) / 8
    window_s = WINDOW_OVER_DT * dt
    max_batch = MAX_BATCH if mode == "windowed" else 1
    frontend = _warm_frontend(window_s, max_batch, rng, m, n_modes, x, y,
                              **frontend_kwargs)
    # The trace gets its own rng: warm-up draw counts differ between modes,
    # and the bit-identity check needs both modes to serve identical data.
    arrivals = arrival_fn(np.random.default_rng(seed + 1), dt,
                          m, n_modes, x, y, quick)
    results, record = _replay(frontend, arrivals)
    record.update(trace=trace, mode=mode, window_s=window_s,
                  max_batch=max_batch)
    outputs = [r.output for r in results]
    tenants = {r.tenant for r in results}
    stats = frontend.service.stats
    per_tenant = (stats.latency_percentiles("tenant")
                  if len(tenants) > 1 else None)
    frontend.close()
    return record, outputs, per_tenant


def _uniform_arrivals(rng, dt, m, n_modes, x, y, quick):
    n = 64 if quick else 256
    return [(_request(rng, m, n_modes, x, y), k * dt) for k in range(n)]


def _bursty_arrivals(rng, dt, m, n_modes, x, y, quick):
    bursts = 4 if quick else 16
    gap = 2 * MAX_BATCH * dt  # idle stretch between bursts
    arrivals = []
    for b in range(bursts):
        for _ in range(MAX_BATCH):
            arrivals.append((_request(rng, m, n_modes, x, y), b * gap))
    return arrivals


def _skewed_arrivals(rng, dt, m, n_modes, x, y, quick):
    n_heavy = 64 if quick else 192
    n_light = 8 if quick else 16
    arrivals = [(_request(rng, m, n_modes, x, y, tenant="heavy"), 0.0)
                for _ in range(n_heavy)]
    # the light tenant trickles in while the heavy backlog drains
    light_dt = n_heavy * dt / n_light
    arrivals += [(_request(rng, m, n_modes, x, y, tenant="light"),
                  k * light_dt) for k in range(n_light)]
    return arrivals


def run_qos_bench(quick=False):
    seed = 0
    rng = np.random.default_rng(seed)
    m, n_modes, x, y = _problem(quick, rng)
    single_cost = _probe_single_cost(rng, m, n_modes, x, y)

    records = []
    traces = (("uniform", _uniform_arrivals), ("bursty", _bursty_arrivals))
    outputs = {}
    for trace, arrival_fn in traces:
        for mode in ("windowed", "per_request"):
            trace_record, outs, _ = _run_trace(trace, mode, quick, seed, arrival_fn)
            records.append(trace_record)
            outputs[(trace, mode)] = outs

    # Fusion must not change a single bit of any output.
    bit_identical = all(
        np.array_equal(a, b)
        for trace, _ in traces
        for a, b in zip(outputs[(trace, "windowed")],
                        outputs[(trace, "per_request")])
    )
    if not bit_identical:
        raise RuntimeError("windowed outputs differ from per-request outputs")

    skew_record, _, per_tenant = _run_trace(
        "skewed", "windowed", quick, seed, _skewed_arrivals)
    records.append(skew_record)

    by = {(r["trace"], r["mode"]): r for r in records}
    speedups = {
        trace: (by[(trace, "windowed")]["throughput_rps"]
                / by[(trace, "per_request")]["throughput_rps"])
        for trace, _ in traces
    }
    light = per_tenant["light"]
    heavy = per_tenant["heavy"]
    light_max_wait = light["queue_wait"]["max"]
    # Bound: one window plus draining the in-flight credit at the fused
    # rate -- what DRR guarantees a light tenant behind any backlog.
    frontend_inflight = 2 * MAX_BATCH  # default max_inflight, 1 device
    wait_bound = (skew_record["window_s"]
                  + 2 * frontend_inflight * single_cost)
    fair_share_ok = bool(
        light_max_wait <= wait_bound
        and light_max_wait <= 0.5 * heavy["queue_wait"]["max"]
    )

    summary = {
        "quick": quick,
        "sample_points": m,
        "n_modes": list(n_modes),
        "max_batch": MAX_BATCH,
        "single_request_cost_s": single_cost,
        "traces": records,
        "speedup_windowed_uniform": speedups["uniform"],
        "speedup_windowed_bursty": speedups["bursty"],
        "bit_identical": bit_identical,
        "tenants": {
            tenant: {kind: dict(entry) for kind, entry in kinds.items()}
            for tenant, kinds in per_tenant.items()
        },
        "light_max_queue_wait_s": light_max_wait,
        "light_wait_bound_s": wait_bound,
        "fair_share_ok": fair_share_ok,
    }

    emit(
        "qos_throughput",
        f"Async front-end (M={m}, modes {n_modes}, max_batch={MAX_BATCH})",
        ["trace", "mode", "requests", "req/s (model)", "p50 e2e ms",
         "p99 e2e ms", "windows", "largest fusion"],
        [[r["trace"], r["mode"], r["n_requests"], r["throughput_rps"],
          1e3 * r["p50_e2e_s"], 1e3 * r["p99_e2e_s"], r["windows"],
          r["largest_fusion"]]
         for r in records],
    )
    emit(
        "qos_tenants",
        "Per-tenant latency under adversarial skew (windowed)",
        ["tenant", "requests", "p50 e2e ms", "p99 e2e ms",
         "p50 queue ms", "p99 queue ms", "max queue ms"],
        [[tenant, kinds["e2e"]["n"], 1e3 * kinds["e2e"]["p50"],
          1e3 * kinds["e2e"]["p99"], 1e3 * kinds["queue_wait"]["p50"],
          1e3 * kinds["queue_wait"]["p99"], 1e3 * kinds["queue_wait"]["max"]]
         for tenant, kinds in sorted(per_tenant.items())],
    )
    print(f"windowed vs per-request (bursty trace): {speedups['bursty']:.1f}x "
          f"modelled throughput")
    print(f"light tenant max queue wait {1e3 * light_max_wait:.3f} ms "
          f"(bound {1e3 * wait_bound:.3f} ms)")
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    run_qos_bench(quick="--quick" in sys.argv[1:])
