"""Autotuning benchmark: AUTO defaults vs cost-model-tuned plan parameters.

For every problem class of the 1D/2D/3D x type-1/2/3 sweep this benchmark

1. scores the paper's hard-coded configuration (Remark 1 bins, ``Msub=1024``,
   the Remark-2/Sec.-III-B AUTO method table) with the simulated-GPU cost
   model,
2. runs the :class:`repro.tuning.Autotuner` over the candidate grid (method x
   bin shape x ``Msub`` x threads per block) and scores the winner through
   the *identical* model path, and
3. checks on a small real problem that the tuned configuration's numerics
   deliver the same accuracy (they must: the kernel width depends only on
   ``eps``, and every spread method computes the same sums).

The default configuration is always one of the candidates, so per-class
speedup is >= 1.0 by construction; the interesting output is *where* and by
*how much* the tuner beats the paper's one-size-fits-all choices (sparse
problems flip to GM/GM-sort, dense 3D problems prefer cubic bins and a
different ``Msub``, ...).

Results are printed as a table, saved to ``results/autotune.txt`` and merged
into ``BENCH_throughput.json`` under the ``"autotune"`` key; every run checks
``GATES``.  ``--quick`` shrinks the sampling caps for the CI smoke run;
``--measure`` re-ranks finalists by measured execution (slower).
"""

from __future__ import annotations

import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_autotune.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro import Plan  # noqa: E402
from repro.core.exact import nudft_type1, nudft_type2, nudft_type3  # noqa: E402
from repro.core.errors import relative_l2_error  # noqa: E402
from repro.core.options import Opts  # noqa: E402
from repro.tuning import Autotuner, TuningProblem  # noqa: E402

SECTION = "autotune"

GATES = [
    ("geomean tuned-vs-AUTO speedup", lambda s: s["geomean_speedup"], ">=", 1.0),
    ("classes strictly improved", lambda s: s["n_improved"], ">=", 3),
    ("max tuned/default error ratio", lambda s: s["max_error_ratio"], "<=", 1.05),
]

#: Tolerance for "strictly improved" (guards against float round-off).
IMPROVED_EPS = 1e-6

#: The 1D/2D/3D x type-1/2/3 sweep.  For type 3, ``n_modes`` is the
#: composition-grid size (the ``Plan``-derived rescaled spread grid).  The
#: point counts put each class at a paper-flavoured density; ``sparse``
#: variants exercise the regime where the sorted methods stop paying off.
def sweep_configs(quick):
    shrink = 4 if quick else 1
    return [
        ("1d_type1", 1, (1 << 20,), (1 << 23) // shrink, 1e-6, "single"),
        ("1d_type2", 2, (1 << 20,), (1 << 23) // shrink, 1e-6, "single"),
        ("1d_type3", 3, (4096,), (1 << 20) // shrink, 1e-6, "single"),
        ("2d_type1", 1, (4096, 4096), (1 << 24) // shrink, 1e-6, "single"),
        ("2d_type2", 2, (4096, 4096), (1 << 24) // shrink, 1e-6, "single"),
        ("2d_type3", 3, (256, 256), (1 << 20) // shrink, 1e-6, "single"),
        ("3d_type1", 1, (256, 256, 256), (1 << 25) // shrink, 1e-6, "single"),
        ("3d_type2", 2, (256, 256, 256), (1 << 25) // shrink, 1e-6, "single"),
        ("3d_type3", 3, (64, 64, 64), (1 << 20) // shrink, 1e-6, "single"),
        ("3d_type1_sparse", 1, (256, 256, 256), (1 << 19) // shrink, 1e-6, "single"),
        ("3d_type1_double", 1, (128, 128, 128), (1 << 23) // shrink, 1e-9, "double"),
    ]


#: Small real problems of each (type, ndim) for the accuracy cross-check.
_ACCURACY_MODES = {1: (48,), 2: (24, 24), 3: (12, 12, 12)}
_ACCURACY_POINTS = 2048


def _accuracy_pair(nufft_type, ndim, eps, precision, tuned_opts, rng):
    """Relative l2 error vs the exact NUDFT for default and tuned options."""
    n_modes = _ACCURACY_MODES[ndim]
    m = _ACCURACY_POINTS
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    default_opts = Opts(precision=precision)

    def run(opts):
        if nufft_type == 3:
            targets = [rng.uniform(-0.5 * n, 0.5 * n, m) for n in n_modes]
            with Plan(3, ndim, eps=eps, opts=opts) as plan:
                plan.set_pts(*coords, **dict(zip(("s", "t", "u"), targets)))
                out = plan.execute(c)
            exact = nudft_type3(coords, c, targets)
            return relative_l2_error(out, exact)
        if nufft_type == 1:
            with Plan(1, n_modes, eps=eps, opts=opts) as plan:
                plan.set_pts(*coords)
                out = plan.execute(c)
            return relative_l2_error(out, nudft_type1(coords, c, n_modes))
        modes = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        with Plan(2, n_modes, eps=eps, opts=opts) as plan:
            plan.set_pts(*coords)
            out = plan.execute(modes)
        return relative_l2_error(out, nudft_type2(coords, modes))

    # The tuned options were searched at the paper-scale problem; reusing the
    # method/bin choice at the check size only exercises the numerics, which
    # are method-independent by construction.
    rng_state = rng.bit_generator.state
    err_default = run(default_opts)
    rng.bit_generator.state = rng_state  # identical data for both runs
    err_tuned = run(tuned_opts)
    return float(err_default), float(err_tuned)


def run_autotune(quick=False, mode="model"):
    max_sample = (1 << 13) if quick else (1 << 16)
    tuner = Autotuner(max_sample=max_sample, measure_sample=1 << 11 if quick else 1 << 12)
    rng = np.random.default_rng(0)

    records = []
    for name, nufft_type, n_modes, m, eps, precision in sweep_configs(quick):
        problem = TuningProblem(nufft_type, n_modes, m, eps, precision)
        result = tuner.tune(problem, mode=mode)
        tuned_opts = result.apply_to(Opts(precision=precision),
                                     include_backend=True)
        err_default, err_tuned = _accuracy_pair(
            nufft_type, len(n_modes), eps, precision, tuned_opts, rng
        )
        records.append({
            "name": name,
            "nufft_type": nufft_type,
            "n_modes": list(n_modes),
            "n_points": m,
            "eps": eps,
            "precision": precision,
            "auto_exec_s": result.baseline_score_s,
            "tuned_exec_s": result.score_s,
            "speedup": result.speedup,
            "tuned": dict(result.opts),
            "n_candidates": result.n_candidates,
            "error_default": err_default,
            "error_tuned": err_tuned,
        })

    speedups = [r["speedup"] for r in records]
    geomean = float(np.exp(np.mean(np.log(speedups))))
    n_improved = sum(1 for s in speedups if s > 1.0 + IMPROVED_EPS)
    max_error_ratio = max(
        r["error_tuned"] / r["error_default"] for r in records
    )
    summary = {
        "quick": quick,
        "mode": mode,
        "max_sample": max_sample,
        "classes": records,
        "geomean_speedup": geomean,
        "min_speedup": float(min(speedups)),
        "max_speedup": float(max(speedups)),
        "n_classes": len(records),
        "n_improved": n_improved,
        "max_error_ratio": float(max_error_ratio),
    }

    rows = [
        [r["name"], r["n_points"],
         f"{r['tuned']['method']} {tuple(r['tuned']['bin_shape'])} "
         f"Msub={r['tuned']['max_subproblem_size']} tpb={r['tuned']['threads_per_block']}",
         1e3 * r["auto_exec_s"], 1e3 * r["tuned_exec_s"], r["speedup"],
         r["error_tuned"] / r["error_default"]]
        for r in records
    ]
    emit(
        "autotune",
        f"Autotuned vs AUTO plan parameters (modelled exec, mode={mode})",
        ["class", "M", "tuned config", "auto ms", "tuned ms", "speedup",
         "err ratio"],
        rows,
    )
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    args = sys.argv[1:]
    run_autotune(quick="--quick" in args,
                 mode="measure" if "--measure" in args else "model")
