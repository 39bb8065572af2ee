"""Wall-clock throughput benchmark of the execution-backend layer.

Unlike the Fig./Table benchmarks (which report *modelled* V100 times), this
module times the actual numpy implementation through each registered
execution backend:

* ``reference`` -- the seed implementation's per-transform loop with exact
  kernel evaluation (the baseline every speedup is measured against),
* ``cached``    -- the fused stencil-cache / CSR fast path,
* ``device_sim`` -- cached numerics plus the simulated-GPU cost profiles,

on 1D/2D/3D type-1 and type-2 workloads plus 1D/2D type-3 (nonuniform ->
nonuniform) compositions, single-transform and batched (``n_trans = 8``).

Results are printed as a table and merged into the top level of
``BENCH_throughput.json`` at the repository root; every run checks ``GATES``.
``REPRO_BENCH_SAMPLE`` scales the number of nonuniform points (default
2^16); ``--quick`` selects the CI smoke configuration (2^14 = 16384 points).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_throughput.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro.core.env import bench_sample_size  # noqa: E402
from repro import Plan  # noqa: E402

#: Backend sweep order; "reference" reproduces the seed implementation
#: (exact kernel evaluation, per-transform loop) and is the speedup baseline.
BACKENDS = ("reference", "cached", "device_sim")

#: Point count of the --quick (CI smoke) configuration.
QUICK_SAMPLE = 1 << 14

#: The summary's keys merge at the top level of BENCH_throughput.json.
SECTION = None

#: Type-1 is spread-dominated even at smoke scale; type-2 is FFT-bound
#: there, so only the batched type-1 speedups are gated.
GATES = [
    ("min batched type-1 speedup", lambda s: s["min_speedup_ntrans8_type1"], ">=", 2.0),
    ("geomean batched type-1 speedup", lambda s: s["geomean_speedup_ntrans8_type1"],
     ">=", 5.0),
]


def _sample_points(quick=False):
    default = QUICK_SAMPLE if quick else 1 << 16
    return bench_sample_size(default)


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _make_data(rng, nufft_type, n_modes, m, n_trans):
    if nufft_type in (1, 3):
        block = rng.standard_normal((n_trans, m)) + 1j * rng.standard_normal((n_trans, m))
    else:
        shape = (n_trans,) + tuple(n_modes)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return block if n_trans > 1 else block[0]


def _backend_opts(backend):
    # The reference backend replays the seed path: exact kernel evaluation.
    if backend == "reference":
        return dict(backend=backend, kernel_eval="exact")
    return dict(backend=backend)


def run_workload(name, nufft_type, n_modes, m, eps, n_trans, rng, repeats=3):
    """Time one configuration through every execution backend."""
    ndim = len(n_modes)
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    target_kw = {}
    if nufft_type == 3:
        targets = [rng.uniform(-0.5 * n_modes[d], 0.5 * n_modes[d], m)
                   for d in range(ndim)]
        target_kw = dict(zip(("s", "t", "u"), targets))
    data = _make_data(rng, nufft_type, n_modes, m, n_trans)

    backend_exec_s = {}
    setup_s = {}
    plan_modes = ndim if nufft_type == 3 else n_modes
    for backend in BACKENDS:
        reps = repeats if backend != "reference" else max(1, repeats - 1)
        plan = Plan(nufft_type, plan_modes, n_trans=n_trans, eps=eps,
                    **_backend_opts(backend))
        t0 = time.perf_counter()
        plan.set_pts(*coords, **target_kw)
        setup_s[backend] = time.perf_counter() - t0
        plan.execute(data)  # warm-up (imports, Horner coefficient fit, wisdom)
        backend_exec_s[backend] = _best_of(lambda: plan.execute(data), reps)
        plan.destroy()

    cached_s = backend_exec_s["cached"]
    legacy_s = backend_exec_s["reference"]
    return {
        "name": name,
        "nufft_type": nufft_type,
        "n_modes": list(n_modes),
        "n_points": m,
        "eps": eps,
        "n_trans": n_trans,
        "setup_s": setup_s["cached"],
        "backend_exec_s": backend_exec_s,
        "cached_exec_s": cached_s,
        "legacy_exec_s": legacy_s,
        "speedup": legacy_s / cached_s if cached_s > 0 else float("inf"),
    }


def run_throughput(repeats=3, quick=False):
    m = _sample_points(quick)
    rng = np.random.default_rng(0)
    configs = [
        # 1D modes kept well below M so the workload stays spread-dominated
        # (a paper-style density rho ~ 4) rather than FFT-bound.
        ("1d_type1", 1, (2048,), m, 1e-6),
        ("1d_type2", 2, (2048,), m, 1e-6),
        ("2d_type1", 1, (128, 128), m, 1e-6),
        ("2d_type2", 2, (128, 128), m, 1e-6),
        ("3d_type1", 1, (32, 32, 32), max(1024, m // 2), 1e-6),
        ("3d_type2", 2, (32, 32, 32), max(1024, m // 2), 1e-6),
        ("1d_type3", 3, (64,), m, 1e-6),
        ("2d_type3", 3, (48, 48), max(1024, m // 2), 1e-6),
    ]
    records = []
    for name, nufft_type, n_modes, points, eps in configs:
        for n_trans in (1, 8):
            records.append(
                run_workload(name, nufft_type, n_modes, points, eps, n_trans, rng,
                             repeats=repeats)
            )

    batched = [r for r in records if r["n_trans"] == 8]
    batched_t1 = [r for r in batched if r["nufft_type"] == 1]

    def geomean(values):
        return float(np.exp(np.mean([np.log(v) for v in values])))

    summary = {
        "sample_points": m,
        "quick": quick,
        "backends": list(BACKENDS),
        "workloads": records,
        "min_speedup_ntrans8": min(r["speedup"] for r in batched),
        "min_speedup_ntrans8_type1": min(r["speedup"] for r in batched_t1),
        "geomean_speedup_ntrans8": geomean([r["speedup"] for r in batched]),
        "geomean_speedup_ntrans8_type1": geomean([r["speedup"] for r in batched_t1]),
    }
    rows = [
        [r["name"], r["n_trans"], r["n_points"], 1e3 * r["setup_s"],
         1e3 * r["backend_exec_s"]["cached"],
         1e3 * r["backend_exec_s"]["device_sim"],
         1e3 * r["backend_exec_s"]["reference"], r["speedup"]]
        for r in records
    ]
    emit(
        "throughput",
        f"Wall-clock throughput (M={m}, execution backends vs seed reference loop)",
        ["workload", "n_trans", "M", "setup ms", "cached ms", "device_sim ms",
         "reference ms", "speedup"],
        rows,
    )
    print(f"n_trans=8 speedup over all types: min "
          f"{summary['min_speedup_ntrans8']:.2f}x, geomean "
          f"{summary['geomean_speedup_ntrans8']:.2f}x")
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    run_throughput(quick="--quick" in sys.argv[1:])
