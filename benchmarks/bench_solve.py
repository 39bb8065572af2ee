"""Inverse-NUFFT benchmark: Toeplitz-accelerated CG vs explicit ``A^H A`` CG.

Each configuration reconstructs an image from samples over an MRI-style
trajectory (radial / golden-angle spiral / 3D random) by CG on the
density-compensated normal equations, once with the explicit normal operator
(a type-2 *and* a type-1 NUFFT per iteration -- spread, FFTs, interpolation)
and once with the :class:`~repro.solve.ToeplitzNormalOperator` (a one-time
PSF build, then one padded FFT pair + pointwise multiply per iteration -- no
nonuniform work in the loop).

Reported per configuration: the modelled per-iteration kernel seconds of both
normal operators (priced through the same cost model the paper figures use),
their ratio (the Toeplitz speedup), the one-time PSF build cost and its
break-even iteration count, the operator agreement (relative l2 of one
apply), and the CG solution agreement / final residuals (the "equal solution
accuracy" check).

Results merge into ``BENCH_throughput.json`` under the ``"solve"`` key;
every run checks ``GATES``.  ``--quick`` selects the CI smoke configuration.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_solve.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro.core.errors import relative_l2_error  # noqa: E402
from repro.solve import SolveRequest, execute_solve, pipe_menon_weights  # noqa: E402
from repro.solve.operators import (  # noqa: E402
    AdjointOperator,
    ForwardOperator,
    NormalOperator,
)
from repro.solve.toeplitz import ToeplitzNormalOperator  # noqa: E402
from repro.workloads import make_distribution  # noqa: E402

SECTION = "solve"

GATES = [
    ("min Toeplitz per-iteration speedup", lambda s: s["min_iter_speedup"], ">=", 2.0),
    ("max Toeplitz-vs-explicit operator rel err / eps",
     lambda s: s["max_operator_rel_err"] / s["eps"], "<=", 10),
    ("max final-residual ratio", lambda s: s["max_residual_ratio"], "<=", 1.05),
]

EPS = 1e-6
TOL = 1e-6
MAXITER = 20


def _configs(quick):
    """(name, n_modes, n_points, distribution, dist_kwargs) per config."""
    if quick:
        return [
            ("2d_radial_32", (32, 32), 1 << 13, "radial", dict(n_spokes=64)),
            ("2d_spiral_32", (32, 32), 1 << 13, "spiral",
             dict(n_interleaves=16, n_turns=8)),
        ]
    return [
        ("2d_radial_64", (64, 64), 1 << 16, "radial", dict(n_spokes=256)),
        ("2d_spiral_64", (64, 64), 1 << 16, "spiral",
         dict(n_interleaves=48, n_turns=16)),
        ("2d_radial_128", (128, 128), 1 << 18, "radial", dict(n_spokes=512)),
        ("3d_rand_24", (24, 24, 24), 1 << 16, "rand", {}),
    ]


def _run_config(name, n_modes, n_points, distribution, dist_kwargs, rng):
    ndim = len(n_modes)
    points = make_distribution(distribution, n_points, ndim, rng=0, **dist_kwargs)
    weights = pipe_menon_weights(points, n_modes, n_iter=6, eps=EPS)
    # Ground truth in range(A^H): recoverable regardless of how the
    # trajectory conditions the corner modes.
    with AdjointOperator(points, n_modes, eps=EPS, precision="double",
                         backend="cached") as adj:
        f_true = np.asarray(adj.apply(
            weights * (rng.standard_normal(n_points)
                       + 1j * rng.standard_normal(n_points))))
    f_true /= np.linalg.norm(f_true)
    with ForwardOperator(points, n_modes, eps=EPS, precision="double",
                         backend="cached") as fwd:
        data = np.asarray(fwd.apply(f_true))

    # Operator agreement: one explicit apply vs one Toeplitz apply.
    fwd_op = ForwardOperator(points, n_modes, eps=EPS, precision="double")
    adj_op = AdjointOperator(points, n_modes, eps=EPS, precision="double")
    explicit_normal = NormalOperator(fwd_op, adj_op, weights=weights)
    toeplitz_normal = ToeplitzNormalOperator(points, n_modes, eps=EPS,
                                             precision="double",
                                             weights=weights)
    probe = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    op_rel_err = relative_l2_error(toeplitz_normal.apply(probe),
                                   explicit_normal.apply(probe))
    explicit_iter_s = explicit_normal.modelled_iteration_seconds()
    toeplitz_iter_s = toeplitz_normal.modelled_iteration_seconds()
    explicit_normal.close()

    results = {}
    for normal in ("toeplitz", "explicit"):
        request = SolveRequest(
            n_modes=n_modes, data=data, eps=EPS, precision="double",
            weights=weights, normal=normal, tol=TOL, maxiter=MAXITER,
            **dict(zip("xyz", points)),
        )
        t0 = time.perf_counter()
        results[normal] = execute_solve(request)
        results[normal].wall_s = time.perf_counter() - t0

    toep, expl = results["toeplitz"], results["explicit"]
    speedup = explicit_iter_s / toeplitz_iter_s if toeplitz_iter_s > 0 else 0.0
    psf_s = toep.modelled_seconds["psf_build"]
    breakeven = (psf_s / (explicit_iter_s - toeplitz_iter_s)
                 if explicit_iter_s > toeplitz_iter_s else float("inf"))
    record = {
        "config": name,
        "n_modes": list(n_modes),
        "n_points": n_points,
        "distribution": distribution,
        "explicit_iter_s": explicit_iter_s,
        "toeplitz_iter_s": toeplitz_iter_s,
        "iter_speedup": speedup,
        "psf_build_s": psf_s,
        "breakeven_iters": breakeven,
        "operator_rel_err": op_rel_err,
        "toeplitz_final_res": toep.residual_norms[0][-1],
        "explicit_final_res": expl.residual_norms[0][-1],
        "toeplitz_iters": toep.n_iter[0],
        "explicit_iters": expl.n_iter[0],
        "solution_rel_diff": relative_l2_error(toep.x, expl.x),
        "toeplitz_recon_err": relative_l2_error(toep.x, f_true),
        "explicit_recon_err": relative_l2_error(expl.x, f_true),
        "toeplitz_wall_s": toep.wall_s,
        "explicit_wall_s": expl.wall_s,
    }
    return record


def run_solve_bench(quick=False):
    rng = np.random.default_rng(0)
    records = [_run_config(*cfg, rng) for cfg in _configs(quick)]

    speedups = [r["iter_speedup"] for r in records]
    res_ratios = [
        max(r["toeplitz_final_res"], 1e-300)
        / max(r["explicit_final_res"], 1e-300)
        for r in records
    ]
    summary = {
        "quick": quick,
        "eps": EPS,
        "tol": TOL,
        "maxiter": MAXITER,
        "configs": records,
        "min_iter_speedup": min(speedups),
        "geomean_iter_speedup": float(np.exp(np.mean(np.log(speedups)))),
        "max_operator_rel_err": max(r["operator_rel_err"] for r in records),
        "max_residual_ratio": max(res_ratios),
        "max_solution_rel_diff": max(r["solution_rel_diff"] for r in records),
    }

    emit(
        "solve_toeplitz_cg",
        f"Inverse NUFFT: Toeplitz-CG vs explicit A^H A CG (eps={EPS:g}, "
        f"tol={TOL:g})",
        ["config", "M", "explicit it/s", "toeplitz it/s", "speedup",
         "psf build s", "op rel err", "recon err (toep)", "sol rel diff"],
        [[r["config"], r["n_points"], r["explicit_iter_s"],
          r["toeplitz_iter_s"], r["iter_speedup"], r["psf_build_s"],
          r["operator_rel_err"], r["toeplitz_recon_err"],
          r["solution_rel_diff"]]
         for r in records],
    )
    print(f"geomean per-iteration speedup: "
          f"{summary['geomean_iter_speedup']:.2f}x")
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    run_solve_bench(quick="--quick" in sys.argv[1:])
