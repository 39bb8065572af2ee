"""Fine (upsampled) grid sizing.

As in FINUFFT and cuFINUFFT, the fine grid size in each dimension is the
smallest integer of the form ``2^q 3^p 5^r`` that is at least
``max(sigma * N_i, 2 w)`` -- such "5-smooth" sizes keep the (cu)FFT fast.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_smooth_235",
    "next_smooth_235",
    "next_smooth_even_235",
    "fine_grid_size",
    "fine_grid_shape",
    "type3_axis",
]


def is_smooth_235(n):
    """True if ``n`` has no prime factors other than 2, 3 and 5."""
    n = int(n)
    if n < 1:
        return False
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def next_smooth_235(n):
    """Smallest integer ``>= n`` whose prime factors are all in {2, 3, 5}.

    Uses an explicit enumeration of 5-smooth candidates rather than trial
    increment, so it is fast even for large ``n``.
    """
    n = int(n)
    if n <= 1:
        return 1
    best = None
    # 2^a alone can always exceed n, giving an upper bound for the search.
    limit = 1
    while limit < n:
        limit *= 2
    best = limit
    p5 = 1
    while p5 <= best:
        p35 = p5
        while p35 <= best:
            # smallest power of two >= n / p35
            q = -(-n // p35)  # ceil division
            p2 = 1
            while p2 < q:
                p2 *= 2
            candidate = p35 * p2
            if n <= candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def next_smooth_even_235(n):
    """Smallest *even* 5-smooth integer ``>= n``.

    Type-3 transforms centre their rescaled fine grid, which requires an even
    grid size so the ``fftshift`` between spatial and mode ordering is an
    exact half-rotation (FINUFFT's ``next235even``).
    """
    n = max(2, int(n))
    candidate = next_smooth_235(n)
    while candidate % 2:
        candidate = next_smooth_235(candidate + 1)
    return candidate


def fine_grid_size(n_modes, kernel_width, upsampfac=2.0):
    """Fine grid size for one dimension: smallest 5-smooth >= max(sigma N, 2w)."""
    if n_modes < 1:
        raise ValueError(f"number of modes must be >= 1, got {n_modes}")
    if kernel_width < 1:
        raise ValueError(f"kernel width must be >= 1, got {kernel_width}")
    target = max(int(np.ceil(upsampfac * n_modes)), 2 * int(kernel_width))
    return next_smooth_235(target)


def fine_grid_shape(modes_shape, kernel_width, upsampfac=2.0):
    """Fine grid shape for a multi-dimensional transform."""
    return tuple(fine_grid_size(n, kernel_width, upsampfac) for n in modes_shape)


def type3_axis(x, s, kernel_width, upsampfac=2.0):
    """One axis of a type-3 fine grid for sources ``x`` and targets ``s``.

    Returns ``(nf, cx, cs, half_s)``: the grid size
    ``nf ~ 2 sigma S X / pi + w`` (an even 5-smooth size, at least ``2w``),
    the sources' and targets' centres, and the targets' half-extent ``S``
    (``X`` is the sources').  Degenerate extents (all sources and/or
    targets coincident) keep ``X * S`` bounded away from zero, as
    FINUFFT's ``set_nhg`` does.
    """
    cx = 0.5 * (float(x.max()) + float(x.min()))
    cs = 0.5 * (float(s.max()) + float(s.min()))
    half_x = float(np.abs(x - cx).max())
    half_s = float(np.abs(s - cs).max())
    if half_x == 0.0:
        half_x = 1.0 if half_s == 0.0 else max(half_x, 1.0 / half_s)
    if half_s == 0.0:
        half_s = max(half_s, 1.0 / half_x)
    nf = int(2.0 * upsampfac * half_s * half_x / np.pi + (kernel_width + 1))
    return next_smooth_even_235(max(nf, 2 * kernel_width)), cx, cs, half_s
