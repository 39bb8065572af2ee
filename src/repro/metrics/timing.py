"""Unit conversions for reported timings.

The paper reports execution time *per nonuniform point* in nanoseconds.
"""

from __future__ import annotations

__all__ = ["ns_per_point"]


def ns_per_point(seconds, n_points, n_trans=1):
    """Convert a transform time to nanoseconds per nonuniform point."""
    if n_points <= 0:
        raise ValueError("n_points must be positive")
    if n_trans <= 0:
        raise ValueError("n_trans must be positive")
    return 1e9 * float(seconds) / (float(n_points) * float(n_trans))
