"""Timing, modeling and table-emission utilities shared by the benchmarks.

:mod:`.modeling` is loaded lazily (PEP 562): it imports the backend and plan
layers, while :mod:`repro.core.plan` itself imports the dependency-free
:mod:`.allocs` counter from this package -- eager loading would be a cycle.
"""

from . import allocs
from .allocs import AllocStats, track_allocs
from .tables import format_table, speedup
from .timing import ns_per_point

__all__ = [
    "allocs",
    "AllocStats",
    "track_allocs",
    "ModelResult",
    "model_cufinufft",
    "sample_spread_stats",
    "format_table",
    "speedup",
    "ns_per_point",
]

_MODELING_NAMES = ("ModelResult", "model_cufinufft", "sample_spread_stats")


def __getattr__(name):
    if name in _MODELING_NAMES or name == "modeling":
        from . import modeling

        return getattr(modeling, name) if name != "modeling" else modeling
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
