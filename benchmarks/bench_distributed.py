"""Distributed NUFFT benchmark: strong scaling, halo traffic, comm overlap.

One oversized type-1 (and, in the full run, type-2) problem is fixed and
executed by :class:`~repro.cluster.distributed.DistributedPlan` at growing
rank counts on a simulated Cori GPU node (Sec. V's environment).  Reported
per rank count: the slowest rank's modelled compute, the SimComm-charged
communication phases (scatter / halo / transpose / gather), the
halo-behind-local-FFT overlap credit, the resulting makespan, the
strong-scaling efficiency relative to one rank, and the exact halo volume.
Beside the modelled sweeps, the in-process wall clock of ``set_pts`` and
``execute`` (best of 3) is recorded for one ``Plan`` against a 4-rank plan
on two fixed type-1 shapes; it carries no gate, since wall-clock bounds
flake on shared runners.

Results merge into ``BENCH_throughput.json`` under the ``"distributed"``
key; every run checks ``GATES``.  Measured halo bytes must equal the
analytic halo-volume formula exactly; that is asserted per point.
``--quick`` selects the CI smoke configuration.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # allow `python benchmarks/bench_distributed.py`
    sys.path.insert(0, REPO_ROOT)

from benchmarks.common import emit, record  # noqa: E402
from repro.cluster import DistributedPlan, run_strong_scaling_multinode  # noqa: E402
from repro.core.plan import Plan  # noqa: E402
from repro.core.gridsize import fine_grid_shape  # noqa: E402
from repro.core.slab import analytic_halo_bytes  # noqa: E402
from repro.kernels import ESKernel  # noqa: E402

SECTION = "distributed"

GATES = [
    ("4-rank strong-scaling efficiency", lambda s: s["min_efficiency_4_ranks"], ">=", 0.7),
    ("max distributed-vs-single-plan rel err / eps",
     lambda s: s["max_rel_err"] / s["eps"], "<=", 10),
    ("halo bytes equal the analytic formula",
     lambda s: bool(s["halo_bytes_exact"]), "==", True),
]


#: In-process wall-clock shapes ``(label, n_modes, n_points)``: type 1,
#: double precision, eps 1e-6.
WALL_CLOCK_SHAPES = (
    ("2D type1", (128, 128), 1 << 16),
    ("3D type1", (32, 32, 32), 1 << 15),
)


def _best_ms(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def wall_clock_records(n_ranks=4, repeats=3):
    """Best-of-``repeats`` ms of ``set_pts`` and ``execute``: one ``Plan``
    (``plan_*``) against ``n_ranks`` ranks (``ranks_*``), per shape."""
    records = []
    for label, n_modes, m in WALL_CLOCK_SHAPES:
        rng = np.random.default_rng(0)
        # New points for every repeat: re-setting a plan's own points keeps
        # its point set, which would time a lookup instead of a build.  The
        # plan executes on the last set.
        point_sets = [[rng.uniform(-np.pi, np.pi, m) for _ in n_modes]
                      for _ in range(repeats)]
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        row = {"label": label, "n_modes": list(n_modes), "n_points": m,
               "n_ranks": n_ranks}
        for key, plan in (
            ("plan", Plan(1, n_modes, eps=1e-6, precision="double")),
            ("ranks", DistributedPlan(1, n_modes, n_ranks, eps=1e-6,
                                      precision="double")),
        ):
            with plan:
                pending = iter(point_sets)
                row[f"{key}_set_pts_ms"] = _best_ms(
                    lambda: plan.set_pts(*next(pending)), repeats)
                row[f"{key}_execute_ms"] = _best_ms(lambda: plan.execute(c), repeats)
        records.append(row)
    return records


def _sweeps(quick):
    """(label, kwargs) per strong-scaling sweep."""
    if quick:
        return [("type1 32^3", dict(
            nufft_type=1, n_modes=(32, 32, 32), n_points=60_000,
            eps=1e-9, rank_counts=(1, 2, 4), precision="double",
        ))]
    return [
        ("type1 48^3", dict(
            nufft_type=1, n_modes=(48, 48, 48), n_points=200_000,
            eps=1e-9, rank_counts=(1, 2, 4, 8), precision="double",
        )),
        ("type2 48^3", dict(
            nufft_type=2, n_modes=(48, 48, 48), n_points=200_000,
            eps=1e-9, rank_counts=(1, 2, 4, 8), precision="double",
        )),
    ]


def _sweep_record(label, kwargs, result):
    """JSON record of one sweep, halo bytes cross-checked analytically."""
    kernel = ESKernel.from_tolerance(kwargs["eps"])
    fine_shape = fine_grid_shape(kwargs["n_modes"], kernel.width)
    itemsize = 16 if kwargs["precision"] == "double" else 8
    efficiency = result.efficiency()
    points = []
    for i, p in enumerate(result.points):
        expected_halo = analytic_halo_bytes(
            fine_shape, p.n_ranks, kernel.width, itemsize
        )
        assert p.halo_bytes == expected_halo, (
            f"{label} P={p.n_ranks}: measured halo bytes {p.halo_bytes} != "
            f"analytic {expected_halo}"
        )
        comm_hidden = p.overlap_s / p.comm_s if p.comm_s > 0 else 0.0
        points.append({
            "n_ranks": p.n_ranks,
            "compute_s": p.compute_s,
            "comm_s": p.comm_s,
            "overlap_s": p.overlap_s,
            "makespan_s": p.makespan_s,
            "efficiency": efficiency[i],
            "halo_bytes": p.halo_bytes,
            "transpose_bytes": p.transpose_bytes,
            "comm_hidden_fraction": comm_hidden,
            "rel_err": p.rel_err,
        })
    return {
        "label": label,
        "nufft_type": kwargs["nufft_type"],
        "n_modes": list(kwargs["n_modes"]),
        "n_points": kwargs["n_points"],
        "eps": kwargs["eps"],
        "precision": kwargs["precision"],
        "node": result.node_name,
        "points": points,
    }


def run_distributed_bench(quick=False):
    records = []
    for label, kwargs in _sweeps(quick):
        result = run_strong_scaling_multinode(task_label=label, **kwargs)
        records.append(_sweep_record(label, kwargs, result))
        emit(
            f"distributed_strong_scaling_{'quick' if quick else label.split()[0]}",
            f"Distributed strong scaling ({label}, {result.node_name})",
            ["ranks", "compute ms", "comm ms", "overlap ms", "makespan ms",
             "efficiency", "halo MB"],
            [list(row) for row in result.rows()],
        )

    eff_at_4 = [
        p["efficiency"] for r in records for p in r["points"]
        if p["n_ranks"] == 4
    ]
    max_rel_err = max(p["rel_err"] for r in records for p in r["points"])
    wall_clock = wall_clock_records()
    emit(
        f"distributed_wall_clock_{'quick' if quick else 'full'}",
        "Wall clock, one Plan against 4 ranks (type 1, double, eps 1e-6, best of 3)",
        ["shape", "M", "plan set_pts ms", "plan execute ms",
         "4-rank set_pts ms", "4-rank execute ms"],
        [[r["label"], r["n_points"], r["plan_set_pts_ms"], r["plan_execute_ms"],
          r["ranks_set_pts_ms"], r["ranks_execute_ms"]] for r in wall_clock],
    )
    summary = {
        "quick": quick,
        "sweeps": records,
        "eps": records[0]["eps"],
        "min_efficiency_4_ranks": min(eff_at_4),
        "max_rel_err": max_rel_err,
        "halo_bytes_exact": True,  # asserted per point in _sweep_record
        "wall_clock_ms": wall_clock,
    }

    for r in records:
        hidden = np.mean([p["comm_hidden_fraction"] for p in r["points"]
                          if p["n_ranks"] > 1]) if len(r["points"]) > 1 else 0.0
        print(f"{r['label']}: mean comm hidden behind local FFTs "
              f"{hidden:.1%} (ranks > 1)")
    record(SECTION, summary, GATES)
    return summary


if __name__ == "__main__":
    run_distributed_bench(quick="--quick" in sys.argv[1:])
