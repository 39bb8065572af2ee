"""Thread-block launch geometry helpers for the simulated device.

These helpers mirror the small amount of launch-configuration arithmetic the
CUDA code performs: how many blocks cover a work list, how much shared memory
a padded bin needs, and whether a configuration is launchable on the device.
They are used by the SM spreader and by tests that pin the paper's Remark 2
(3D double precision exceeds the 49 kB shared-memory budget for w > 8);
:func:`sm_fits` is the one place that turns that limit into the SM-or-GM-sort
choice, for plans, the paper-scale model, the tuner and the library registry.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "blocks_for_work",
    "padded_bin_shape",
    "padded_bin_shared_bytes",
    "check_shared_memory_fit",
    "sm_fits",
    "LaunchConfigError",
]


class LaunchConfigError(RuntimeError):
    """Raised when a kernel configuration cannot run on the device."""


def blocks_for_work(n_items, threads_per_block):
    """Number of thread blocks needed for ``n_items`` one-thread-per-item work."""
    if n_items < 0:
        raise ValueError("n_items must be nonnegative")
    if threads_per_block <= 0:
        raise ValueError("threads_per_block must be positive")
    return int(max(1, -(-int(n_items) // int(threads_per_block))))


def padded_bin_shape(bin_shape, kernel_width):
    """Shape of the shared-memory padded bin (paper Eq. (13)).

    ``p_i = m_i + 2 * ceil(w / 2)`` in every dimension.
    """
    pad = 2 * int(np.ceil(kernel_width / 2.0))
    return tuple(int(m) + pad for m in bin_shape)


def padded_bin_shared_bytes(bin_shape, kernel_width, complex_itemsize):
    """Shared-memory bytes needed by one subproblem's padded bin copy.

    The paper's constraint (Remark 2) is written for single-precision complex
    (8 bytes): ``8 (m1+w)(m2+w)(m3+w) <= 49000`` -- note it uses ``m_i + w``
    which equals ``m_i + 2 ceil(w/2)`` for even ``w``; we use the padded shape
    exactly.
    """
    shape = padded_bin_shape(bin_shape, kernel_width)
    return int(np.prod(shape)) * int(complex_itemsize)


def check_shared_memory_fit(bin_shape, kernel_width, complex_itemsize, spec):
    """Return the shared bytes needed, raising if it exceeds the device limit."""
    need = padded_bin_shared_bytes(bin_shape, kernel_width, complex_itemsize)
    if need > spec.shared_mem_per_block:
        raise LaunchConfigError(
            f"padded bin of shape {padded_bin_shape(bin_shape, kernel_width)} needs "
            f"{need} B of shared memory but the device allows "
            f"{spec.shared_mem_per_block} B per block; use the GM-sort method "
            f"(paper Remark 2) or a smaller bin"
        )
    return need


def sm_fits(bin_shape, kernel_width, complex_itemsize, spec):
    """Whether the SM method can launch: paper Remark 2's fit test.

    False when the padded bin exceeds ``spec``'s shared memory per block,
    where SM falls back to GM-sort.
    """
    try:
        check_shared_memory_fit(bin_shape, kernel_width, complex_itemsize, spec)
    except LaunchConfigError:
        return False
    return True
