"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one of the paper's tables or figures as an
ASCII table: the same rows/series the paper reports, with modelled device
times (see ``DESIGN.md`` for the simulation substitution).  The pytest-benchmark
entry point in each module simply times the harness run itself; the scientific
output is the printed/saved table.

Scale control: set the environment variable ``REPRO_BENCH_SAMPLE`` to change
the number of nonuniform points actually sampled per configuration (default
2^18; the statistics are rescaled to the paper-scale point counts).

The engine benchmarks also hand their summary to :func:`record`, which
merges it into ``BENCH_throughput.json`` and checks the bench's ``GATES``
table: rows ``(label, value_fn, op, bound)`` with ``op`` one of ``>=``,
``<=`` or ``==`` and ``value_fn`` reading the summary.
"""

from __future__ import annotations

import json
import operator
import os
import sys

from repro.baselines import get_library
from repro.core.env import bench_sample_size as env_bench_sample_size
from repro.core.gridsize import fine_grid_shape
from repro.core.options import default_bin_shape
from repro.kernels import ESKernel
from repro.metrics import format_table, sample_spread_stats
from repro.metrics.tables import write_results

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_throughput.json")

_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}

__all__ = [
    "bench_sample_size",
    "stats_for",
    "library_times",
    "emit",
    "record",
]


def bench_sample_size():
    """Number of points sampled per configuration for the occupancy statistics."""
    return env_bench_sample_size()


def stats_for(distribution, n_points, n_modes, eps, fine_shape=None, rng=0):
    """Sampled (and rescaled) occupancy statistics for one configuration."""
    ndim = len(n_modes)
    if fine_shape is None:
        kernel = ESKernel.from_tolerance(eps)
        fine_shape = fine_grid_shape(n_modes, kernel.width)
    return sample_spread_stats(
        distribution,
        n_points,
        fine_shape,
        default_bin_shape(ndim),
        rng=rng,
        max_sample=bench_sample_size(),
    )


def library_times(library, nufft_type, n_modes, n_points, eps, distribution="rand",
                  precision="single", stats=None, **kwargs):
    """ModelResult for one library / configuration (None if unsupported)."""
    lib = get_library(library) if isinstance(library, str) else library
    if not lib.supports(nufft_type, len(n_modes), precision, eps):
        return None
    return lib.model_times(
        nufft_type, n_modes, n_points, eps, distribution=distribution,
        precision=precision, stats=stats, rng=0, **kwargs,
    )


def emit(name, title, headers, rows, floatfmt=".3g"):
    """Print a benchmark table and persist it under ``results/``."""
    text = format_table(headers, rows, title=title, floatfmt=floatfmt)
    print("\n" + text)
    write_results(name, text)
    return text


def record(section, summary, gates):
    """Merge ``summary`` into ``BENCH_throughput.json``, then check ``gates``.

    ``section=None`` merges the summary's keys at the top level; otherwise
    the summary replaces ``section``.  Every other key of the file is kept.
    Each gate row prints as label, value, comparison, bound and verdict;
    the file is written first, so a failed run can still be inspected.
    Exits non-zero naming every failed row.
    """
    data = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as fh:
            data = json.load(fh)
    if section is None:
        data.update(summary)
    else:
        data[section] = summary
    with open(JSON_PATH, "w") as fh:
        json.dump(data, fh, indent=2)
    print(f"\nwrote {JSON_PATH}" + (f" ({section} section)" if section else ""))

    failed = []
    for label, value_fn, op, bound in gates:
        value = value_fn(summary)
        ok = _OPS[op](value, bound)
        shown = f"{value:.4g}" if isinstance(value, float) else value
        print(f"gate {label}: {shown} {op} {bound} -> {'pass' if ok else 'FAIL'}")
        if not ok:
            failed.append(label)
    if failed:
        sys.exit(f"failed gates: {'; '.join(failed)}")
