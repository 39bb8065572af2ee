"""Cold-start benchmark: process-start -> first-request latency, cold vs warm.

Measures what the unified warm-state artifact store (:mod:`repro.artifacts`)
buys a restarting :class:`~repro.service.TransformService`.  Two runs over
the *same* store directory:

* **cold** -- an empty store.  The first request pays the full warm-up bill:
  autotuning search, Horner kernel fit, stencil/CSR build, plan creation.
  Everything computed lands in the store.
* **warm** -- a fresh service (simulating a restarted process) over the
  now-populated store.  Service construction pre-warms the plan pool from
  recorded signatures; the first request's tuning, Horner fit and stencil
  cache all load from disk instead of being recomputed.

The measured interval covers service construction *and* the first request
(the operational "process start to first response" latency).  The warm run
must be **bit-identical** to the cold run -- the store serves the exact
arrays the cold path computed -- and must record **zero** artifact builds.
A direct Plan-level round-trip check covers all three transform types.

Results merge into ``BENCH_throughput.json`` under the ``"coldstart"`` key::

    "coldstart": {
      "quick": bool,
      "cold_first_request_s": float,     # median across repeats
      "warm_first_request_s": float,
      "speedup": float,                  # cold / warm
      "bit_identical": bool,             # warm output == cold output
      "warm_builds": int,                # artifact builds on warm path
      "plans_prewarmed": int,            # pool entries recreated at startup
      "roundtrip_t1": bool,              # per-type Plan store round-trips
      "roundtrip_t2": bool,
      "roundtrip_t3": bool,
    }

Every run checks ``GATES``; ``--quick`` shrinks the problem for the CI
smoke run.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_coldstart.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro.artifacts import ArtifactStore  # noqa: E402
from repro.core.plan import Plan  # noqa: E402
from repro.service import TransformService  # noqa: E402

SECTION = "coldstart"

GATES = [
    ("warm vs cold first-request speedup", lambda s: s["speedup"], ">=", 3.0),
    ("warm first response bit-identical to cold",
     lambda s: bool(s["bit_identical"]), "==", True),
    ("artifact builds on the warm path", lambda s: s["warm_builds"], "==", 0),
    ("per-type Plan store round-trips exact",
     lambda s: bool(s["roundtrip_t1"] and s["roundtrip_t2"] and s["roundtrip_t3"]),
     "==", True),
]

#: Cold/warm pairs timed per configuration; the medians cancel stragglers.
REPEATS = 3


def _problem(quick, rng):
    """A small burst of recurring request signatures, tuned: per signature
    the cold path pays the autotuner's measured search plus the Horner fit
    and stencil/CSR build -- exactly the warm-up bill a production restart
    would re-pay, once per distinct geometry it serves.  The warm run reads
    the cold run's tuning record, so both serve the same tuned config and
    the outputs compare bit-for-bit.  Sized for the latency
    regime cold-start dominates: modest transforms whose warm-up work dwarfs
    a single execute (huge transforms amortize their own warm-up)."""
    m = 1 << (11 if quick else 13)
    mode_sizes = ((32, 32), (48, 48)) if quick else ((64, 64), (96, 96))
    x = rng.uniform(-np.pi, np.pi, m)
    y = rng.uniform(-np.pi, np.pi, m)
    data = (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return m, mode_sizes, x, y, data


def _first_request(root, mode_sizes, x, y, data):
    """Seconds from service construction to the first flushed burst."""
    t0 = time.perf_counter()
    service = TransformService(artifact_store=root, tune="measure")
    for n_modes in mode_sizes:
        service.submit(nufft_type=1, n_modes=n_modes, x=x, y=y, data=data)
    outputs = [r.output for r in service.flush()]
    elapsed = time.perf_counter() - t0
    stats = service.stats
    service.close()
    return elapsed, outputs, stats


def _cold_warm_pair(mode_sizes, x, y, data):
    """(cold_s, warm_s, identical, warm_builds, prewarmed) over one store."""
    root = tempfile.mkdtemp(prefix="repro-coldstart-")
    try:
        cold_s, cold_out, _ = _first_request(root, mode_sizes, x, y, data)
        warm_s, warm_out, stats = _first_request(root, mode_sizes, x, y, data)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    identical = all(np.array_equal(c, w) for c, w in zip(cold_out, warm_out))
    return (cold_s, warm_s, bool(identical),
            int(stats.artifact_builds), int(stats.plans_prewarmed))


def _roundtrip(nufft_type, quick, rng):
    """Cold-build then warm-load one Plan through a store: exact match?"""
    m = 1 << (10 if quick else 12)
    n_modes = (32, 32) if quick else (64, 64)
    x = rng.uniform(-np.pi, np.pi, m)
    y = rng.uniform(-np.pi, np.pi, m)
    data = (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    if nufft_type == 2:
        data = (rng.standard_normal(n_modes)
                + 1j * rng.standard_normal(n_modes))
    kwargs = {}
    if nufft_type == 3:
        nk = max(64, m // 8)
        kwargs = {"s": rng.uniform(-30, 30, nk), "t": rng.uniform(-30, 30, nk)}

    root = tempfile.mkdtemp(prefix="repro-coldstart-rt-")
    try:
        outputs = []
        builds = []
        for _ in range(2):
            store = ArtifactStore(root=root)
            with Plan(nufft_type, n_modes if nufft_type != 3 else 2,
                      artifact_store=store) as plan:
                plan.set_pts(x, y, **kwargs)
                outputs.append(plan.execute(data))
            builds.append(store.stats.builds)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return bool(np.array_equal(outputs[0], outputs[1])
                and builds[1] == 0)


def run_coldstart_bench(quick=False):
    rng = np.random.default_rng(0)
    m, mode_sizes, x, y, data = _problem(quick, rng)

    cold_times, warm_times = [], []
    identical = True
    warm_builds = 0
    prewarmed = 0
    for _ in range(REPEATS):
        cold_s, warm_s, same, builds, pre = _cold_warm_pair(mode_sizes, x, y,
                                                            data)
        cold_times.append(cold_s)
        warm_times.append(warm_s)
        identical = identical and same
        warm_builds = max(warm_builds, builds)
        prewarmed = pre

    cold_med = float(np.median(cold_times))
    warm_med = float(np.median(warm_times))
    speedup = cold_med / warm_med if warm_med > 0 else float("inf")

    roundtrips = {tp: _roundtrip(tp, quick, rng) for tp in (1, 2, 3)}

    summary = {
        "quick": quick,
        "sample_points": m,
        "n_modes": [list(nm) for nm in mode_sizes],
        "cold_first_request_s": cold_med,
        "warm_first_request_s": warm_med,
        "speedup": speedup,
        "bit_identical": identical,
        "warm_builds": warm_builds,
        "plans_prewarmed": prewarmed,
        "roundtrip_t1": roundtrips[1],
        "roundtrip_t2": roundtrips[2],
        "roundtrip_t3": roundtrips[3],
    }

    emit(
        "coldstart",
        f"Process start -> first request burst (M={m}, modes {'+'.join('x'.join(map(str, nm)) for nm in mode_sizes)}, tuned)",
        ["run", "first request (ms)", "artifact builds", "plans pre-warmed"],
        [["cold", f"{1e3 * cold_med:.1f}", "-", 0],
         ["warm", f"{1e3 * warm_med:.1f}", warm_builds, prewarmed]],
    )
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    run_coldstart_bench(quick="--quick" in sys.argv[1:])
