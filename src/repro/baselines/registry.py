"""Uniform adapter registry over cuFINUFFT and the baseline libraries.

The benchmark harness compares "libraries" by name exactly as the paper's
figure legends do: ``finufft``, ``cufinufft (SM)``, ``cufinufft (GM-sort)``,
``cunfft`` and ``gpunufft``.  Each adapter exposes the same three methods:

``supports(nufft_type, ndim, precision, eps)``
    capability matrix (e.g. gpuNUFFT is single-precision only);
``model_times(...)``
    returns a :class:`~repro.metrics.modeling.ModelResult`;
``error_estimate(eps, precision)``
    heuristic delivered relative error at the requested tolerance.
"""

from __future__ import annotations

from ..core.options import Precision, SpreadMethod, default_bin_shape
from ..gpu.device import V100_SPEC
from ..gpu.threadblock import sm_fits
from ..kernels.es_kernel import ESKernel
from ..metrics.modeling import model_cufinufft
from .cunfft import CunfftLibrary
from .finufft_cpu import FinufftCPU
from .gpunufft import GpuNufftLibrary

__all__ = [
    "CufinufftAdapter",
    "FacadeAdapter",
    "get_library",
    "available_libraries",
]


class CufinufftAdapter:
    """Adapter presenting the core library through the baseline interface.

    Parameters
    ----------
    method : str
        Spreading method shown in the figure legends: ``"SM"`` or
        ``"GM-sort"`` (``"GM"`` is also accepted for the Fig. 2/3 baselines).
    backend : str
        Execution backend (see :mod:`repro.backends`) of the plans
        :meth:`make_plan` builds; the default ``"device_sim"`` keeps the
        modelled timings attached.  :meth:`model_times` always prices
        through the ``device_sim`` stage profiles.
    """

    device_kind = "gpu"

    def __init__(self, method="SM", backend="device_sim"):
        self.method = SpreadMethod.parse(method)
        self.backend = str(backend)
        self.name = f"cufinufft ({self.method.value})"

    def supports(self, nufft_type, ndim, precision, eps):
        """Capability matrix.  Types 1-3 in dimensions 1-3 are covered, but
        an SM spread (types 1 and 3) is unavailable where its padded default
        bin does not fit shared memory (paper Remark 2: 3D double precision
        beyond low accuracy), the configurations the model prices as GM-sort."""
        if nufft_type not in (1, 2, 3) or ndim not in (1, 2, 3):
            return False
        if self.method is SpreadMethod.SM and nufft_type in (1, 3):
            return sm_fits(default_bin_shape(ndim), ESKernel.from_tolerance(eps).width,
                           Precision.parse(precision).complex_itemsize, V100_SPEC)
        return True

    def error_estimate(self, eps, precision="single"):
        precision = Precision.parse(precision)
        floor = 1e-7 if precision is Precision.SINGLE else 1e-14
        return max(ESKernel.from_tolerance(eps).estimated_error(), floor)

    def make_plan(self, nufft_type, n_modes, **kwargs):
        """Build a :class:`~repro.core.plan.Plan` preconfigured with this
        adapter's spreading method and execution backend, for callers that
        want real numerics from a figure-legend library name."""
        from ..core.plan import Plan

        kwargs.setdefault("method", self.method)
        kwargs.setdefault("backend", self.backend)
        return Plan(nufft_type, n_modes, **kwargs)

    def model_times(self, nufft_type, n_modes, n_points, eps, **kwargs):
        return model_cufinufft(
            nufft_type, n_modes, n_points, eps, method=self.method, **kwargs
        )


class FacadeAdapter(CufinufftAdapter):
    """Adapter running the upstream-compatible API facades.

    ``make_plan`` builds a :class:`repro.finufft.Plan` or
    :class:`repro.cufinufft.Plan` (upstream constructor signature, upstream
    ``iflag``/``eps`` defaults) instead of a native plan, so harness code can
    exercise the exact entry points an upstream script would use while the
    capability matrix and modelled timings stay those of the underlying
    library.  Callers pass upstream option names (``gpu_method=2``,
    ``spread_sort=0``, ...) through ``make_plan``'s kwargs.

    Parameters
    ----------
    flavor : str
        ``"finufft"`` (CPU-library vocabulary, double-precision default) or
        ``"cufinufft"`` (``gpu_*`` vocabulary, single-precision default).
    """

    def __init__(self, flavor="cufinufft"):
        flavor = str(flavor).strip().lower()
        if flavor not in ("finufft", "cufinufft"):
            raise ValueError(
                f"flavor must be 'finufft' or 'cufinufft', got {flavor!r}"
            )
        super().__init__(method="SM" if flavor == "cufinufft" else "GM-sort")
        self.flavor = flavor
        self.name = f"repro ({flavor})"
        if flavor == "finufft":
            self.device_kind = "cpu"

    def make_plan(self, nufft_type, n_modes, **kwargs):
        """Build a facade plan through the upstream constructor signature.

        kwargs are upstream names (``iflag``, ``eps``, ``dtype``,
        ``n_trans`` plus the flavor's opts vocabulary), not native
        ``Opts`` fields.
        """
        if self.flavor == "finufft":
            from .. import finufft as facade
        else:
            from .. import cufinufft as facade
        return facade.Plan(nufft_type, n_modes, **kwargs)


_FACTORIES = {
    "finufft": FinufftCPU,
    "cunfft": CunfftLibrary,
    "gpunufft": GpuNufftLibrary,
    "cufinufft (SM)": lambda: CufinufftAdapter("SM"),
    "cufinufft (GM-sort)": lambda: CufinufftAdapter("GM-sort"),
    "cufinufft (GM)": lambda: CufinufftAdapter("GM"),
    "repro (finufft)": lambda: FacadeAdapter("finufft"),
    "repro (cufinufft)": lambda: FacadeAdapter("cufinufft"),
}


def available_libraries():
    """Names accepted by :func:`get_library`, in figure-legend order."""
    return list(_FACTORIES.keys())


def get_library(name):
    """Instantiate a library adapter by its figure-legend name."""
    key = str(name).strip()
    lowered = key.lower()
    for candidate, factory in _FACTORIES.items():
        if candidate.lower() == lowered:
            return factory()
    raise KeyError(
        f"unknown library {name!r}; available: {', '.join(available_libraries())}"
    )
