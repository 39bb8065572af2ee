"""Execution-backend protocol and registry.

A :class:`repro.core.plan.Plan` no longer hard-wires how its pipeline stages
run: ``execute`` is an explicit stage pipeline (spread -> FFT -> deconvolve
for type 1, its transpose for type 2, and the type-2∘scale∘type-1 composition
for type 3) where every stage is dispatched through an
:class:`ExecutionBackend`.  Three backends ship with the library:

``reference``
    Exact dense numpy numerics: the seed implementation's per-transform loop
    with on-the-fly (exact) kernel evaluation and no stencil cache, through
    the one cache-free spread/interp path whatever the spreading method.
    Slow but dependency-free ground truth for the other backends.
``cached``
    The fast path: plan-level stencil cache and fused ``n_trans`` passes.
    Spread/interp use the CSR sparse operator within the fusion budget and
    the windowed engine (:mod:`repro.core.windowed`) beyond it, whatever the
    plan's spreading method.  Pure numerics -- no simulated-GPU profiling
    overhead.
``device_sim``
    Runs the numerics of ``cached`` and routes every stage through the simulated GPU kernel
    profiles, so the paper's cost-model timings (``exec`` / ``total`` /
    ``total+mem``) stay attached to each execute call.  The spreading method
    changes only those profiles, never the numbers.  This is the default.

The registry mirrors :mod:`repro.baselines.registry`: backends are selected
by name (``Opts.backend``) and new ones can be plugged in with
:func:`register_backend` -- the seam later real-GPU or distributed backends
slot into.
"""

from __future__ import annotations

__all__ = [
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "backend_name",
]


class ExecutionBackend:
    """Protocol for one execution strategy of the transform stages.

    Every stage receives the owning :class:`~repro.core.plan.Plan` (which
    carries the geometry: kernel, fine grid, correction factors, and the
    :class:`~repro.core.pointset.PointSet` with the bin sort and stencils),
    the batched data block, and the
    :class:`~repro.gpu.profiler.PipelineProfile` of the current execute call
    (ignored by backends that do not record profiles).

    Data contracts (``B = n_trans`` leading axis, always present):

    * ``spread``:      ``(B, M)`` strengths      -> ``(B, *fine_shape)`` grid
    * ``fft_forward``: ``(B, *fine_shape)``      -> same, native precision
    * ``deconvolve``:  ``(B, *fine_shape)`` FFT  -> ``(B, *n_modes)`` modes
    * ``precorrect``:  ``(B, *n_modes)`` modes   -> ``(B, *fine_shape)`` grid
    * ``fft_inverse``: ``(B, *fine_shape)``      -> same, native precision
    * ``interp``:      ``(B, *fine_shape)`` grid -> ``(B, M)`` values

    Every non-FFT stage accepts an optional ``out=`` array of the stage's
    output shape: when given, the stage writes its result into that storage
    and returns it (the zero-copy workspace pipeline -- the plan passes its
    :class:`~repro.core.workspace.Workspace` buffers or the user's ``out=``
    array); when omitted, the stage allocates as before.  The FFT stages are
    inherently out-of-place (pocketfft, like cuFFT's workspace-backed
    transform, produces a new array); the plan re-adopts their results into
    the workspace instead.
    """

    #: Registry name of the backend.
    name = "abstract"
    #: Whether this backend records simulated-GPU kernel profiles into the
    #: execute pipeline (drives ``Plan.timings`` / ``spread_fraction``).
    records_profiles = False

    def wants_stencil_cache(self):
        """Whether ``Plan.set_pts`` should precompute the stencil cache."""
        return True

    # Stage hooks -------------------------------------------------------- #
    def spread(self, plan, strengths, pipeline, out=None):
        raise NotImplementedError

    def fft_forward(self, plan, fine, pipeline):
        raise NotImplementedError

    def fft_inverse(self, plan, fine, pipeline):
        raise NotImplementedError

    def deconvolve(self, plan, fine_hat, pipeline, out=None):
        raise NotImplementedError

    def precorrect(self, plan, modes, pipeline, out=None):
        raise NotImplementedError

    def interp(self, plan, fine, pipeline, out=None):
        raise NotImplementedError


_FACTORIES = {}
_INSTANCES = {}


def register_backend(name, factory):
    """Register an execution backend factory under ``name``.

    ``factory`` is called with no arguments and must return an
    :class:`ExecutionBackend`.  Re-registering a name replaces the previous
    factory (and drops its cached instance), so tests can shadow a backend.
    """
    key = backend_name(name, registered=False)
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)


def available_backends():
    """Names accepted by :func:`get_backend`, in registration order."""
    return list(_FACTORIES.keys())


def backend_name(name, registered=True):
    """A backend name normalized: stripped and lower-cased.

    The one normalization behind ``Opts.backend``, the service's plan keys,
    solve requests, :func:`register_backend` and :func:`get_backend`.  With
    ``registered`` the name must be ``"auto"`` or a registered backend, so
    a misspelt name fails at the front door, not at plan construction.
    """
    if not isinstance(name, str) or not name.strip():
        raise ValueError(f"backend must be a non-empty string, got {name!r}")
    key = name.strip().lower()
    if registered and key != "auto" and key not in _FACTORIES:
        raise ValueError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(available_backends())} (or 'auto')"
        )
    return key


def get_backend(name):
    """Resolve a backend name to its (shared, stateless) instance."""
    key = backend_name(name, registered=False)
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    if key not in _INSTANCES:
        _INSTANCES[key] = _FACTORIES[key]()
    return _INSTANCES[key]
