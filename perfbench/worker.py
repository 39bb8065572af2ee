"""Run one workload in this process and print its record as the last line.

Started by ``perfbench/run.py`` in a fresh process per workload, with the
repository's ``src`` on ``PYTHONPATH`` and numeric libraries capped at one
thread.  With ``--trace 0`` every operation runs untraced and the record
carries the end-to-end metrics; with ``--trace 1`` blocks of operations
alternate between untraced and traced (see :mod:`layers`) and the record
carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median (the first pays process caches).
SETUPS = 3
#: Traced operations written to the Chrome trace file.
CHROME_OPS = 40


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_loop(wl, seconds, tracer=None):
    """Closed loop for ``seconds`` and at least ``wl.min_ops`` operations.

    With a tracer, odd blocks of ``wl.trace_block`` operations run traced.
    Returns ``(op, start_ns, end_ns, traced)`` per operation, the failed count,
    the failed operations' messages and the peak RSS (MB) after the first
    ``min_ops`` operations, a fixed amount of work whatever the host speed.
    """
    ops, errors = [], []
    failed = 0
    rss_mb = None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.min_ops or time.perf_counter() < deadline:
        block_traced = tracer is not None and (i // wl.trace_block) % 2 == 1
        with tracer.installed() if block_traced else contextlib.nullcontext():
            for op in range(i, i + wl.trace_block):
                args = wl.prepare(op)
                if block_traced:
                    tracer.op = op
                out = None
                t0 = time.perf_counter_ns()
                try:
                    out = wl.op(args)
                except Exception as exc:  # counted as a failed operation
                    errors.append(f"op{op}: {type(exc).__name__}: {exc}")
                ops.append((op, t0, time.perf_counter_ns(), block_traced))
                if out is None:
                    failed += 1
                else:
                    wl.keep(op, args, out)
                if op == wl.min_ops - 1:
                    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        i += wl.trace_block
    return ops, failed, errors, rss_mb


def end_to_end(wl, lat_ns, setup_s, attempted, failed, rss_mb):
    lat_ms = np.asarray(lat_ns, dtype=np.float64) / 1e6
    return {
        "throughput_pts_s": wl.pts_per_op * (attempted - failed) / (lat_ms.sum() / 1e3),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_tail_ms": float(np.percentile(lat_ms, wl.tail_pct)),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def service_counters(wl):
    """Cumulative pool and service counters (zeros without a service)."""
    service = getattr(wl, "service", None)
    if service is None:
        return dict.fromkeys(("hits", "misses", "skipped", "executed", "retries", "failed"), 0)
    s = service.stats
    return {"hits": s.plan_cache_hits, "misses": s.plan_cache_misses,
            "skipped": s.setpts_skipped, "executed": s.setpts_executed,
            "retries": s.retries, "failed": s.requests_failed}


def per_layer(wl, tracer, ops, counters):
    """Per-layer metrics of the traced operations, and their time budget.

    The budget holds the traced wall time, the summed self time of every
    layer and the unattributed time, all in ns, plus the number of outermost
    spans that lie outside their operation (0 when the budget adds up).
    """
    traced = [t1 - t0 for _, t0, t1, tr in ops if tr]
    untraced = [t1 - t0 for _, t0, t1, tr in ops if not tr]
    pts = wl.pts_per_op * len(traced)
    metrics = {}
    selfs = tracer.self_times()
    for layer in layers.LAYERS:
        ns, calls = selfs.get(layer, (0, 0))
        metrics[f"{layer}.self_ns_per_pt"] = ns / pts
        metrics[f"{layer}.calls_per_op"] = calls / len(traced)
    c = tracer.counters
    builds = c.get("stencil_builds", 0)
    metrics["stencil.bytes_per_pt"] = c["stencil_bytes"] / c["stencil_points"] if builds else 0.0
    metrics["stencil.operator_ratio"] = c["stencil_operators"] / builds if builds else 0.0
    executes = c.get("executes", 0)
    metrics["workspace.alloc_events_per_exec"] = (c["alloc_events"] / executes
                                                  if executes else 0.0)
    lookups = counters["hits"] + counters["misses"]
    runs = counters["skipped"] + counters["executed"]
    metrics["pool.hit_ratio"] = counters["hits"] / lookups if lookups else 0.0
    metrics["pool.setpts_skip_ratio"] = counters["skipped"] / runs if runs else 0.0
    warm = [t1 - t0 for op, t0, t1, tr in ops if not tr and op in wl.warm_ops]
    metrics["service.overhead_ratio"] = (
        statistics.median(warm) / 1e9 / wl.bare_execute_p50_s() if warm else 0.0)
    metrics["service.retries"] = counters["retries"]
    metrics["service.failed"] = counters["failed"]
    wall = sum(traced)
    unattributed = wall - tracer.covered_ns()
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["trace.unattributed_frac"] = unattributed / wall
    bounds = {op: (t0, t1) for op, t0, t1, tr in ops if tr}
    outside = sum(1 for sp in tracer.spans if sp.parent is None
                  and not bounds[sp.op][0] <= sp.start <= sp.end <= bounds[sp.op][1])
    budget = {"wall_ns": wall, "self_ns": sum(ns for ns, _ in selfs.values()),
              "unattributed_ns": unattributed, "spans_outside_ops": outside}
    return metrics, budget


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default=None,
                    help="Chrome trace-event JSON written by a traced run")
    args = ap.parse_args(argv)

    import repro

    wl = WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUPS):
        wl.close()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    # Objects alive now belong to set-up; keep the collector from rescanning
    # them during the timed loop.
    gc.collect()
    gc.freeze()

    tracer = layers.LayerTracer() if args.trace else None
    before = service_counters(wl)
    ops, failed, op_errors, rss_mb = run_loop(wl, args.seconds, tracer)
    attempted = len(ops)
    untraced = [t1 - t0 for _, t0, t1, tr in ops if not tr]
    counters = {k: v - before[k] for k, v in service_counters(wl).items()}

    checks = wl.errors()
    failed += len({label.split()[0] for label, err in checks if not err <= wl.tol})
    notes = []
    try:
        model_ns = wl.model_exec_ns_per_pt()
    except AssertionError as exc:
        model_ns = float("nan")
        notes.append(str(exc))

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "repro": os.path.dirname(repro.__file__),
        "host": host_fingerprint(),
        "ops": attempted,
        "tail_pct": wl.tail_pct,
        "beyond_tail": round(len(untraced) * (1 - wl.tail_pct / 100.0)),
        "setup_runs_s": setup_times,
        "model_exec_ns_per_pt": model_ns,
        "checks": [{"label": label, "rel_err": err, "tol": wl.tol} for label, err in checks],
    }
    if args.trace:
        metrics, budget = per_layer(wl, tracer, ops, counters)
        metrics["model_exec_ns_per_pt"] = model_ns
        record["trace_budget"] = budget
        if budget["spans_outside_ops"] or (budget["self_ns"] + budget["unattributed_ns"]
                                           != budget["wall_ns"]):
            notes.append(f"traced time does not add up: {budget}")
        if args.trace_file:
            layers.write_chrome_trace(
                args.trace_file,
                tracer.chrome_events([(op, t0, t1) for op, t0, t1, tr in ops if tr],
                                     max_ops=CHROME_OPS),
                {"workload": wl.name, "seed": args.seed})
    else:
        metrics = end_to_end(wl, untraced, statistics.median(setup_times),
                             attempted, failed, rss_mb)
    wl.close()
    record.update(correct=failed == 0 and not notes, errors=op_errors[:10] + notes,
                  attempted=attempted, failed=failed, metrics=metrics)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
