"""Drop-in facade mirroring the upstream ``cufinufft`` Python interface.

Scripts written against `cuFINUFFT <https://github.com/flatironinstitute/
cufinufft>`_ run verbatim against the reproduction by changing only the
import::

    import repro.cufinufft as cufinufft   # instead of: import cufinufft

    plan = cufinufft.Plan(1, (64, 64), eps=1e-6, gpu_method=2)
    plan.setpts(x, y)
    f = plan.execute(c)

The guru interface and the nine ``nufft{1,2,3}d{1,2,3}`` simple calls share
all their machinery with :mod:`repro.finufft` (same upstream ``iflag`` / sign
defaults, same ``eps`` defaults of ``1e-6`` single / ``1e-14`` double, same
``execute(data, out=None)`` contract); what differs is the options
vocabulary, which uses cuFINUFFT's GPU-flavoured names:

* ``gpu_method`` -- 1 selects the input-driven spreader (GM-sort, or plain
  GM when ``gpu_sort=0``); 2 selects the shared-memory subproblem spreader
  (SM).  Omitted -> the plan's per-transform AUTO choice.
* ``gpu_sort`` -- bin-sort the points before spreading (default on, as
  upstream).
* ``gpu_binsizex`` / ``gpu_binsizey`` / ``gpu_binsizez`` -- bin shape used
  by the sort and the SM subproblem decomposition.
* ``gpu_maxsubprobsize`` -- SM subproblem split threshold.
* ``gpu_kerevalmeth`` -- 0 exact kernel evaluation, 1 Horner (default).
* ``gpu_spreadinterponly`` -- skip FFT + deconvolution, returning the raw
  fine-grid spread / interpolation (types 1 and 2).
* ``dtype`` -- working precision; cuFINUFFT's historical default is single
  precision (``complex64``), unlike CPU finufft's double.

Backend selection follows the registry default for GPU execution
(``backend="cached"`` numerics under the device simulator's accounting when
driven through :mod:`repro.baselines`); pass ``backend=`` explicitly to pin
one.
"""

from __future__ import annotations

from .core import simple as _simple
from .finufft import Plan as _FinufftPlan, _simple_runner

__all__ = [
    "Plan",
    "nufft1d1", "nufft1d2", "nufft1d3",
    "nufft2d1", "nufft2d2", "nufft2d3",
    "nufft3d1", "nufft3d2", "nufft3d3",
]

#: cuFINUFFT opts accepted and ignored: stream/launch plumbing with no
#: equivalent in the simulation's options surface.
_IGNORED_OPTS = frozenset({
    "gpu_stream", "gpu_device_id", "gpu_maxbatchsize", "gpu_obinsizex",
    "gpu_obinsizey", "gpu_obinsizez", "debug",
})


def _translate_opts(kwargs):
    """Map cuFINUFFT opts names onto :class:`~repro.core.options.Opts` fields.

    ``gpu_method`` + ``gpu_sort`` jointly pick the spreading strategy
    (method 1 is GM-sort, degrading to GM when sorting is disabled; method 2
    is SM), matching the way upstream dispatches its spread kernels.
    Unknown names raise ``TypeError`` so typos fail loudly.
    """
    native = {}
    bins = {}
    sort = kwargs.get("gpu_sort")
    for name, value in kwargs.items():
        if name in _IGNORED_OPTS or value is None:
            continue
        if name == "gpu_method":
            value = int(value)
            if value not in (0, 1, 2):
                raise ValueError(f"gpu_method must be 0, 1 or 2, got {value}")
            if value == 1:
                native["method"] = "GM" if (sort is not None and not int(sort)) \
                    else "GM-sort"
            elif value == 2:
                native["method"] = "SM"
        elif name == "gpu_sort":
            native["sort_points"] = bool(int(value))
        elif name in ("gpu_binsizex", "gpu_binsizey", "gpu_binsizez"):
            bins["xyz".index(name[-1])] = int(value)
        elif name == "gpu_maxsubprobsize":
            native["max_subproblem_size"] = int(value)
        elif name == "gpu_kerevalmeth":
            native["kernel_eval"] = "horner" if int(value) else "exact"
        elif name == "gpu_spreadinterponly":
            native["spread_only"] = bool(value)
        elif name == "upsampfac":
            native["upsampfac"] = float(value)
        elif name == "backend":
            native["backend"] = value
        else:
            raise TypeError(f"unknown cufinufft option {name!r}")
    if bins:
        ndim = max(bins) + 1
        if set(bins) != set(range(ndim)):
            raise ValueError(
                "gpu_binsize must be given for contiguous leading axes "
                f"(got axes {sorted(bins)})"
            )
        native["bin_shape"] = tuple(bins[d] for d in range(ndim))
    return native


class Plan(_FinufftPlan):
    """Guru-interface plan with the upstream ``cufinufft.Plan`` signature.

    Identical lifecycle to :class:`repro.finufft.Plan` (``setpts`` /
    ``execute(data, out=None)`` / ``destroy``, context-manager support,
    upstream ``iflag`` and ``eps`` defaults) but speaking cuFINUFFT's
    ``gpu_*`` options vocabulary and defaulting to single precision, the
    GPU library's historical default dtype.

    Examples
    --------
    >>> import numpy as np
    >>> import repro.cufinufft as cufinufft
    >>> rng = np.random.default_rng(0)
    >>> x = rng.uniform(-np.pi, np.pi, 400).astype(np.float32)
    >>> c = (rng.standard_normal(400) + 1j * rng.standard_normal(400))
    >>> with cufinufft.Plan(1, (48,), gpu_method=2) as plan:
    ...     _ = plan.setpts(x)
    ...     f = plan.execute(c.astype(np.complex64))
    >>> f.shape, f.dtype
    ((48,), dtype('complex64'))
    """

    _translate_opts = staticmethod(_translate_opts)

    def __init__(self, nufft_type, n_modes_or_dim, iflag=None, n_trans=1,
                 eps=None, dtype="complex64", **kwargs):
        super().__init__(nufft_type, n_modes_or_dim, iflag, n_trans, eps, dtype,
                         **kwargs)


_run = _simple_runner(_translate_opts)
(nufft1d1, nufft1d2, nufft1d3,
 nufft2d1, nufft2d2, nufft2d3,
 nufft3d1, nufft3d2, nufft3d3) = _simple.define_calls(globals(), "_run", upstream=True)
