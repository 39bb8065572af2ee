"""Plan options: spreading method, precision, bin geometry, tuning knobs.

Mirrors cuFINUFFT's ``cufinufft_opts`` / the Python interface's keyword
options.  Defaults follow the paper:

* upsampling factor ``sigma = 2`` (fixed; Sec. I-B limitation (3)),
* bins of 32 x 32 in 2D and 16 x 16 x 2 in 3D (Remark 1),
* maximum subproblem size ``Msub = 1024`` (Remark 1),
* method ``AUTO``: SM for type 1 where it is supported (2D single/double,
  3D single), GM-sort otherwise (Remark 2), and GM-sort for type 2
  interpolation (Sec. III-B).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SpreadMethod", "Precision", "Opts", "default_bin_shape",
           "validate_isign", "integral_mode_counts", "integral_count"]


def validate_isign(value, allow_none=False):
    """Normalize an exponent sign to ``+1``/``-1`` (or ``None`` if allowed).

    The single validator behind ``Opts.isign``, the exact reference sums and
    the solve-layer requests, so every entry point accepts and rejects the
    same forms (ints, floats, numpy scalars equal to +-1).
    """
    if value is None:
        if allow_none:
            return None
        raise ValueError("isign must be +1 or -1, got None")
    value_f = float(value)
    if value_f not in (1.0, -1.0):
        suffix = " or None (per-type default)" if allow_none else ""
        raise ValueError(f"isign must be +1, -1{suffix}, got {value!r}")
    return int(value_f)


def integral_mode_counts(n_modes):
    """One to three positive mode counts as a tuple of ints, else ``ValueError``.

    The one check behind ``Plan``, the service's requests and plan keys and
    the solve requests and operators, so ``(16.7, 16)`` is rejected
    everywhere instead of truncated to ``(16, 16)``; ``(16.0, 16)`` is the
    same geometry as ``(16, 16)``.
    """
    modes_f = tuple(float(n) for n in n_modes)
    if not all(math.isfinite(n) and n == int(n) for n in modes_f):
        raise ValueError(f"n_modes must hold integral mode counts, got {modes_f}")
    modes = tuple(int(n) for n in modes_f)
    if len(modes) not in (1, 2, 3) or min(modes) < 1:
        raise ValueError(f"n_modes must hold 1 to 3 mode counts >= 1, got {modes}")
    return modes


def integral_count(name, value, minimum):
    """``value`` as an int >= ``minimum``, else ``ValueError`` naming ``name``.

    The one check behind counts such as ``Plan(n_trans=)``, the plan pool's
    ``max_plans``, the service's queue and routing bounds and the fleet's
    device, stream and breaker counts and ``DistributedPlan``'s rank count:
    ``1.5`` is rejected instead of truncated to 1, while ``2.0`` is 2.  A
    string such as ``"3"`` is not a count.
    """
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{name} must be an integral count, got {value!r}")
    value_f = float(value)
    if not math.isfinite(value_f) or value_f != int(value_f):
        raise ValueError(f"{name} must be an integral count, got {value!r}")
    if value_f < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value_f)


class SpreadMethod(enum.Enum):
    """Spreading / interpolation parallelization strategy (paper Sec. III)."""

    #: Input-driven baseline: one thread per point, global atomics, no sort.
    GM = "GM"
    #: Input-driven with bin-sorted point ordering (coalesced access).
    GM_SORT = "GM-sort"
    #: Hybrid subproblem scheme in shared memory (type 1 only).
    SM = "SM"
    #: Pick the best supported method for the transform.
    AUTO = "auto"

    @classmethod
    def parse(cls, value):
        """Accept enum members or their string names/values (case-insensitive)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            key = value.strip().lower().replace("_", "-")
            for member in cls:
                if member.value.lower() == key or member.name.lower().replace("_", "-") == key:
                    return member
        raise ValueError(f"unknown spread method {value!r}; expected one of "
                         f"{[m.value for m in cls]}")


class Precision(enum.Enum):
    """Floating-point precision of the transform."""

    SINGLE = "single"
    DOUBLE = "double"

    @classmethod
    def parse(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            key = value.strip().lower()
            aliases = {
                "single": cls.SINGLE,
                "float32": cls.SINGLE,
                "f32": cls.SINGLE,
                "complex64": cls.SINGLE,
                "double": cls.DOUBLE,
                "float64": cls.DOUBLE,
                "f64": cls.DOUBLE,
                "complex128": cls.DOUBLE,
            }
            if key in aliases:
                return aliases[key]
        if value in (np.float32, np.complex64):
            return cls.SINGLE
        if value in (np.float64, np.complex128):
            return cls.DOUBLE
        raise ValueError(f"unknown precision {value!r}")

    @property
    def real_dtype(self):
        return np.float32 if self is Precision.SINGLE else np.float64

    @property
    def complex_dtype(self):
        return np.complex64 if self is Precision.SINGLE else np.complex128

    @property
    def real_itemsize(self):
        return 4 if self is Precision.SINGLE else 8

    @property
    def complex_itemsize(self):
        return 8 if self is Precision.SINGLE else 16


def default_bin_shape(ndim):
    """Hand-tuned bin sizes: 1024 (1D), 32x32 (2D, Remark 1), 16x16x2 (3D).

    The paper only evaluates 2D and 3D; the 1D default follows cuFINUFFT's
    1024-cell bins (one subproblem per bin at the default ``Msub``).
    """
    if ndim == 1:
        return (1024,)
    if ndim == 2:
        return (32, 32)
    if ndim == 3:
        return (16, 16, 2)
    raise ValueError(f"only 1D, 2D and 3D transforms are supported, got ndim={ndim}")


@dataclass
class Opts:
    """Tuning options of a :class:`repro.core.plan.Plan`.

    Attributes
    ----------
    method : SpreadMethod
        Spreading strategy for type-1 (and ordering strategy for type-2).
    precision : Precision
        Single or double precision.
    isign : int or None
        Sign of the imaginary unit in the transform exponent (``+1`` or
        ``-1``), as in the FINUFFT/cuFINUFFT API.  ``None`` (the default)
        selects the paper's convention per transform type: ``-1`` for type 1
        (Eq. (1) uses ``e^{-i k.x}``) and ``+1`` for types 2 and 3 (Eq. (3)).
        Flipping the sign conjugates the exponentials only -- strengths and
        coefficients are never implicitly conjugated.
    upsampfac : float
        Fine-grid upsampling factor sigma (only 2.0 supported).
    bin_shape : tuple of int or None
        Bin dimensions ``m_i`` in fine-grid cells; ``None`` selects the
        paper's defaults for the dimensionality.
    max_subproblem_size : int
        ``Msub``, the blocked load-balancing cap of the SM method.
    threads_per_block : int
        Threads per block used by the simulated launches (cost model only).
    spread_only : bool
        Debug switch: skip FFT + deconvolution (used by the Fig. 2/3
        benchmarks which time spreading/interpolation kernels in isolation).
    sort_points : bool
        Whether set_pts performs the bin sort (GM ignores the permutation but
        the flag lets benchmarks price the sort separately).
    kernel_eval : str
        "horner" evaluates the ES kernel through its precomputed
        piecewise-polynomial (Horner) approximation, "exact" through
        ``exp(beta*(sqrt(1-z^2)-1))`` directly.
    stencil_budget : int
        Maximum fused stencil entry count ``M * w^d`` the cache may
        materialize (indices + weights + sparse operator).
    reuse_workspace : bool
        Whether the plan's :class:`~repro.core.workspace.Workspace` reuses
        its fine-grid/FFT/staging buffers across executes (the zero-copy
        steady state).  ``False`` restores the pre-refactor
        allocate-per-execute churn, kept as the measurable baseline of
        ``benchmarks/bench_interop.py``.
    backend : str
        Execution backend name (see :mod:`repro.backends`): ``"reference"``
        (exact per-transform numpy loop), ``"cached"`` (fused stencil-cache /
        CSR fast path, no profiling) or ``"device_sim"`` (cached/reference
        numerics with the simulated-GPU cost profiles attached).  ``"auto"``
        resolves to ``device_sim``, preserving the paper's modelled timings.
    """

    method: SpreadMethod = SpreadMethod.AUTO
    precision: Precision = Precision.SINGLE
    isign: int = None
    upsampfac: float = 2.0
    bin_shape: tuple = None
    max_subproblem_size: int = 1024
    threads_per_block: int = 128
    spread_only: bool = False
    sort_points: bool = True
    kernel_eval: str = "horner"
    stencil_budget: int = 1 << 25
    reuse_workspace: bool = True
    backend: str = "auto"

    def __post_init__(self):
        self.method = SpreadMethod.parse(self.method)
        self.precision = Precision.parse(self.precision)
        self.isign = validate_isign(self.isign, allow_none=True)
        from ..backends.base import backend_name  # the backends import core

        self.backend = backend_name(self.backend)
        if self.upsampfac != 2.0:
            raise ValueError("only upsampfac = 2.0 is supported (paper limitation (3))")
        if self.max_subproblem_size <= 0:
            raise ValueError("max_subproblem_size must be positive")
        if self.threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        if self.kernel_eval not in ("horner", "exact"):
            raise ValueError(
                f"kernel_eval must be 'horner' or 'exact', got {self.kernel_eval!r}"
            )
        if self.stencil_budget < 0:
            raise ValueError("stencil_budget must be non-negative")
        if self.bin_shape is not None:
            self.bin_shape = tuple(int(m) for m in self.bin_shape)
            if any(m <= 0 for m in self.bin_shape):
                raise ValueError(f"bin_shape entries must be positive, got {self.bin_shape}")

    def resolved_bin_shape(self, ndim):
        """Bin shape to use for an ``ndim``-dimensional transform."""
        if self.bin_shape is not None:
            if len(self.bin_shape) != ndim:
                raise ValueError(
                    f"bin_shape {self.bin_shape} does not match transform dimension {ndim}"
                )
            return self.bin_shape
        return default_bin_shape(ndim)

    def resolve_method(self, nufft_type, ndim, precision=None):
        """Resolve ``AUTO`` into a concrete method for this transform.

        Follows the paper: SM gives the best type-1 performance wherever it is
        implemented; it is not implemented for 3D double precision (Remark 2),
        and interpolation (type 2) always uses GM-sort (Sec. III-B).  Type 3's
        only spreading step is its type-1-style stage onto the rescaled fine
        grid, so it resolves like type 1; 1D padded bins always fit shared
        memory, so 1D spreading keeps SM in both precisions.
        """
        precision = precision if precision is not None else self.precision
        if self.method is not SpreadMethod.AUTO:
            return self.method
        if nufft_type == 2:
            return SpreadMethod.GM_SORT
        if ndim == 3 and precision is Precision.DOUBLE:
            return SpreadMethod.GM_SORT
        return SpreadMethod.SM

    def resolve_backend(self):
        """Resolve the ``"auto"`` backend name (the profiled default)."""
        return "device_sim" if self.backend == "auto" else self.backend

    def resolve_isign(self, nufft_type):
        """Resolve ``isign=None`` into the paper's per-type sign convention.

        Type 1 defaults to ``-1`` (Eq. (1): ``f_k = sum_j c_j e^{-i k.x_j}``),
        types 2 and 3 to ``+1`` (Eq. (3) and the type-3 sum) -- exactly the
        hard-coded signs of earlier revisions, so the default is
        backward-compatible.  An explicit ``isign`` always wins.
        """
        if self.isign is not None:
            return self.isign
        return -1 if int(nufft_type) == 1 else 1

    def copy(self, **overrides):
        """Return a copy of the options with some fields replaced."""
        data = {
            "method": self.method,
            "precision": self.precision,
            "isign": self.isign,
            "upsampfac": self.upsampfac,
            "bin_shape": self.bin_shape,
            "max_subproblem_size": self.max_subproblem_size,
            "threads_per_block": self.threads_per_block,
            "spread_only": self.spread_only,
            "sort_points": self.sort_points,
            "kernel_eval": self.kernel_eval,
            "stencil_budget": self.stencil_budget,
            "reuse_workspace": self.reuse_workspace,
            "backend": self.backend,
        }
        data.update(overrides)
        return Opts(**data)
