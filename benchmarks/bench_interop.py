"""Interop benchmark: zero-copy steady state and facade fidelity.

Three measurements back the PR's memory-path claims:

* **Hot-path buffer events** -- with workspace reuse on and a
  caller-provided ``out=`` array, a steady-state ``execute`` must touch the
  allocator *zero* times: no fine-grid reallocation, no dtype-conversion
  copy, no terminal copy, no output allocation.  The
  :class:`~repro.metrics.allocs.AllocStats` attached to each execute's
  pipeline profile counts every such event; this benchmark reports the
  steady-state count per transform type.
* **Throughput vs the churn baseline** -- the same problem run with
  ``reuse_workspace=False`` (every execute reallocates its fine grid and
  FFT buffer, the pre-refactor behaviour).  Reported as wall-clock
  executes/second and the reuse/churn ratio (reuse must never lose).
* **Facade fidelity** -- an upstream-style script run verbatim through
  :mod:`repro.finufft` and :mod:`repro.cufinufft` must produce
  **bit-identical** results to the native API at matching settings.

Results merge into ``BENCH_throughput.json`` under the ``"interop"`` key::

    "interop": {
      "quick": bool,
      "hot_path_events":   {"type1": 0, "type2": 0, "type3": 0},
      "no_out_allocs":     {"type1": 1, ...},     # the fresh output block
      "churn_allocs":      {"type1": 2, ...},     # reuse_workspace=False
      "throughput": {"reuse_exec_per_s": float, "churn_exec_per_s": float,
                     "ratio": float},
      "facade_bit_identical": bool,
    }

Every run checks ``GATES``; ``--quick`` shrinks the problem for the CI
smoke run.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_interop.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro.core.plan import Plan  # noqa: E402
from repro.core.simple import skips_operator  # noqa: E402

SECTION = "interop"

GATES = [
    ("max hot-path events per execute with out=",
     lambda s: max(s["hot_path_events"].values()), "==", 0),
    ("every execute without out= allocates exactly one output block",
     lambda s: all(v == 1 for v in s["no_out_allocs"].values()), "==", True),
    ("min churn-baseline allocs per execute",
     lambda s: min(s["churn_allocs"].values()), ">=", 2),
    ("reuse/churn wall-clock throughput ratio", lambda s: s["throughput"]["ratio"], ">=", 1.0),
    ("facades bit-identical to the native API",
     lambda s: bool(s["facade_bit_identical"]), "==", True),
]

#: Steady state needs a couple of warm-up executes: the first run allocates
#: workspace views and (for type 3) the inner plan's buffers.
WARMUP = 2


def _problem(quick, rng):
    """Sized so churn *costs*: the fine grid + FFT buffer reallocated per
    execute must be large enough that allocator traffic and fresh-page
    faults register against the transform's own work (tiny grids drown the
    difference in numerics noise and the throughput gate turns into a coin
    flip)."""
    m = 1 << (11 if quick else 14)
    n_modes = (128, 128) if quick else (192, 192)
    x = rng.uniform(-np.pi, np.pi, m)
    y = rng.uniform(-np.pi, np.pi, m)
    return m, n_modes, x, y


def _plans(n_modes, x, y, **opts):
    """One warm plan per transform type over the same 2D point set."""
    plans = {}
    for tp in (1, 2, 3):
        plan = Plan(tp, n_modes if tp != 3 else 2, eps=1e-6,
                    precision="single", **opts)
        if tp == 3:
            nk = max(64, x.size // 8)
            rng = np.random.default_rng(7)
            plan.set_pts(x, y, s=rng.uniform(-30, 30, nk),
                         t=rng.uniform(-30, 30, nk))
        else:
            plan.set_pts(x, y)
        plans[tp] = plan
    return plans


def _inputs_outputs(plans, n_modes, m, rng):
    """(input, preallocated out) pair for each plan, correct shape/dtype."""
    pairs = {}
    for tp, plan in plans.items():
        cplx = plan.precision.complex_dtype
        if tp == 2:
            data = (rng.standard_normal(n_modes)
                    + 1j * rng.standard_normal(n_modes)).astype(cplx)
            out = np.empty(m, dtype=cplx)
        elif tp == 1:
            data = (rng.standard_normal(m)
                    + 1j * rng.standard_normal(m)).astype(cplx)
            out = np.empty(n_modes, dtype=cplx)
        else:
            data = (rng.standard_normal(m)
                    + 1j * rng.standard_normal(m)).astype(cplx)
            out = np.empty(plan.n_targets, dtype=cplx)
        pairs[tp] = (data, out)
    return pairs


def _steady_state_events(plans, pairs, use_out=True):
    """Alloc+copy event count of a post-warm-up execute, per type."""
    events = {}
    for tp, plan in plans.items():
        data, out = pairs[tp]
        for _ in range(WARMUP):
            plan.execute(data, out=out if use_out else None)
        plan.execute(data, out=out if use_out else None)
        stats = plan.last_allocs
        events[f"type{tp}"] = int(stats.total_events)
    return events


def _paired_throughput(reuse, churn, n_iter, repeats=6):
    """Median executes/second for each mode, sampled interleaved.

    Alternating reuse/churn timing blocks within each repeat cancels
    machine-wide drift (CI neighbours, frequency scaling) that a
    back-to-back measurement would fold into the ratio; the median across
    repeats discards stragglers.
    """
    samples = {"reuse": [], "churn": []}
    for name, (plan, data, out) in (("reuse", reuse), ("churn", churn)):
        for _ in range(WARMUP):
            plan.execute(data, out=out)
    for _ in range(repeats):
        for name, (plan, data, out) in (("reuse", reuse), ("churn", churn)):
            t0 = time.perf_counter()
            for _ in range(n_iter):
                plan.execute(data, out=out)
            samples[name].append(n_iter / (time.perf_counter() - t0))
    return (float(np.median(samples["reuse"])),
            float(np.median(samples["churn"])))


def _facade_check(n_modes, x, y, rng):
    """Upstream-style scripts vs native plans: bit-identical or bust."""
    import repro.cufinufft as cufinufft
    import repro.finufft as finufft

    m = x.size
    c64 = (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    c_single = c64.astype(np.complex64)

    checks = []
    # CPU-flavoured facade, double precision, upstream type-1 default +1.
    with finufft.Plan(1, n_modes, eps=1e-6, dtype="complex128") as p:
        p.setpts(x, y)
        got = p.execute(c64)
    ref = Plan(1, n_modes, eps=1e-6, precision="double", isign=+1)
    ref.set_pts(x, y)
    checks.append(np.array_equal(got, ref.execute(c64)))
    ref.destroy()

    # GPU-flavoured facade, single precision, SM method, simple call + out=.
    # A simple call reads its points once and plans no CSR operator where
    # the windowed engine pays (always for type 2).
    out = np.empty(n_modes, dtype=np.complex64)
    got = cufinufft.nufft2d1(x, y, c_single, n_modes, out=out, gpu_method=2)
    skip = skips_operator(1, (x, y), (), n_modes, 1e-6)
    ref = Plan(1, n_modes, eps=1e-6, precision="single", isign=+1,
               method="SM", **({"stencil_budget": 0} if skip else {}))
    ref.set_pts(x, y)
    checks.append(got is out and np.array_equal(out, ref.execute(c_single)))
    ref.destroy()

    # Type-2 upstream default -1 matches the native type-2 convention.
    modes = (rng.standard_normal(n_modes)
             + 1j * rng.standard_normal(n_modes)).astype(np.complex64)
    got = cufinufft.nufft2d2(x, y, modes)
    ref = Plan(2, n_modes, eps=1e-6, precision="single", isign=-1, stencil_budget=0)
    ref.set_pts(x, y)
    checks.append(np.array_equal(got, ref.execute(modes)))
    ref.destroy()
    return bool(all(checks))


def run_interop_bench(quick=False):
    rng = np.random.default_rng(0)
    m, n_modes, x, y = _problem(quick, rng)

    plans = _plans(n_modes, x, y)
    pairs = _inputs_outputs(plans, n_modes, m, rng)
    hot_path = _steady_state_events(plans, pairs, use_out=True)
    no_out = _steady_state_events(plans, pairs, use_out=False)

    churn_plans = _plans(n_modes, x, y, reuse_workspace=False)
    churn = _steady_state_events(churn_plans, _inputs_outputs(
        churn_plans, n_modes, m, rng), use_out=True)

    n_iter = 10 if quick else 40
    data, out = pairs[1]
    churn_data, churn_out = _inputs_outputs(churn_plans, n_modes, m, rng)[1]
    reuse_rate, churn_rate = _paired_throughput(
        (plans[1], data, out), (churn_plans[1], churn_data, churn_out),
        n_iter)
    ratio = reuse_rate / churn_rate

    for p in plans.values():
        p.destroy()
    for p in churn_plans.values():
        p.destroy()

    facade_ok = _facade_check(n_modes, x, y, rng)

    summary = {
        "quick": quick,
        "sample_points": m,
        "n_modes": list(n_modes),
        "hot_path_events": hot_path,
        "no_out_allocs": no_out,
        "churn_allocs": churn,
        "throughput": {
            "reuse_exec_per_s": reuse_rate,
            "churn_exec_per_s": churn_rate,
            "ratio": ratio,
        },
        "facade_bit_identical": facade_ok,
    }

    emit(
        "interop",
        f"Zero-copy execute path (M={m}, modes {n_modes}, single)",
        ["type", "hot-path events (out=)", "events (no out=)",
         "events (churn baseline)"],
        [[k, hot_path[k], no_out[k], churn[k]] for k in sorted(hot_path)],
    )
    print(f"throughput: reuse {reuse_rate:.1f} exec/s vs churn "
          f"{churn_rate:.1f} exec/s")
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    run_interop_bench(quick="--quick" in sys.argv[1:])
