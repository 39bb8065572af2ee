"""Drop-in facade mirroring the upstream ``finufft`` Python interface.

Scripts written against `FINUFFT <https://finufft.readthedocs.io>`_ run
verbatim against the reproduction by changing only the import::

    import repro.finufft as finufft   # instead of: import finufft

    plan = finufft.Plan(1, (64, 64), eps=1e-6)
    plan.setpts(x, y)
    f = plan.execute(c)

The facade translates upstream conventions onto :class:`repro.core.plan.Plan`
without touching the numerics, so results are bit-identical to the native API
at equal settings:

* **Signature and naming** -- guru ``Plan(nufft_type, n_modes_or_dim,
  iflag=None, n_trans=1, eps=None, **kwargs)`` with ``setpts`` /
  ``execute(data, out=None)`` / ``destroy`` methods, and the nine
  ``nufft{1,2,3}d{1,2,3}`` simple calls with upstream argument order and
  ``out=`` support (written from :data:`repro.core.simple.CALLS`).
* **Sign defaults** -- upstream ``iflag`` defaults to ``+1`` for types 1 and
  3 and ``-1`` for type 2 (the *opposite* of the paper's type-1 convention
  used by the native API, whose type-1 default is ``-1``); as upstream, any
  non-negative ``iflag``/``isign`` means ``+1`` and a negative one ``-1``.
* **Tolerance defaults** -- upstream ``eps`` defaults to ``1e-6`` in single
  precision and ``1e-14`` in double; precision itself comes from ``dtype=``
  (``"complex64"``/``"complex128"``, upstream's plan dtype option).
* **Options mapping** -- upstream opts names (``modeord``, ``spread_sort``,
  ``spread_kerevalmeth``, ``upsampfac``, ``nthreads``, ``debug``, ``fftw``)
  are translated to :class:`~repro.core.options.Opts` fields where they have
  a reproduction equivalent and accepted as no-ops where they only tune the
  CPU library (thread counts, FFTW planner flags, debug printing).

Only ``modeord=0`` (CMCL ordering: modes ascending from ``-N//2``, the
native layout) is supported; ``modeord=1`` (FFT ordering) raises.
"""

from __future__ import annotations

import numpy as np

from .core.options import Opts
from .core.plan import Plan as _NativePlan
from .core import simple as _simple

__all__ = [
    "Plan",
    "nufft1d1", "nufft1d2", "nufft1d3",
    "nufft2d1", "nufft2d2", "nufft2d3",
    "nufft3d1", "nufft3d2", "nufft3d3",
]

#: Upstream eps defaults per precision (finufft's plan defaults).
_DEFAULT_EPS = {"single": 1e-6, "double": 1e-14}

#: Upstream opts accepted and ignored: they tune the CPU library's threading,
#: FFTW planner or logging, none of which exists in the simulation.
_IGNORED_OPTS = frozenset({
    "nthreads", "debug", "spread_debug", "showwarn", "fftw", "spread_thread",
    "maxbatchsize", "spread_nthr_atomic", "spread_max_sp_size", "chkbnds",
})


def _parse_dtype(dtype):
    """Upstream ``dtype=`` plan option -> native precision name."""
    key = np.dtype(dtype if dtype is not None else "complex128")
    if key == np.dtype(np.complex64):
        return "single"
    if key == np.dtype(np.complex128):
        return "double"
    raise TypeError(
        f"dtype must be complex64 or complex128, got {np.dtype(dtype).name}"
    )


def _upstream_sign(iflag):
    """Upstream's sign rule for ``iflag``/``isign``: non-negative -> +1, else -1."""
    return 1 if float(iflag) >= 0 else -1


def _translate_opts(kwargs):
    """Map upstream opts names onto :class:`~repro.core.options.Opts` fields.

    Returns a dict of native ``Opts`` overrides.  Unknown names raise (as the
    upstream binding does), so typos fail loudly instead of silently running
    with defaults.
    """
    native = {}
    for name, value in kwargs.items():
        if name in _IGNORED_OPTS or value is None:
            continue
        if name == "modeord":
            if int(value) != 0:
                raise NotImplementedError(
                    "only modeord=0 (CMCL ordering, modes ascending from "
                    "-N//2) is supported; FFT-style modeord=1 is not"
                )
        elif name == "spread_sort":
            # 0 = never sort, 1 = always, 2 = heuristic (sorts here).
            native["sort_points"] = int(value) != 0
        elif name == "spread_kerevalmeth":
            # 0 = exact exp(sqrt) evaluation, 1 = Horner approximation.
            native["kernel_eval"] = "horner" if int(value) else "exact"
        elif name == "upsampfac":
            native["upsampfac"] = float(value)
        elif name == "spreadinterponly":
            native["spread_only"] = bool(value)
        else:
            raise TypeError(f"unknown finufft option {name!r}")
    return native


class Plan:
    """Guru-interface plan with the upstream ``finufft.Plan`` signature.

    Parameters
    ----------
    nufft_type : int
        1, 2 or 3.
    n_modes_or_dim : int or tuple of int
        Mode counts ``(N1[, N2[, N3]])`` for types 1 and 2; the dimension
        for type 3 (as upstream: a type-3 plan has no uniform grid).
    iflag : int, optional
        Sign of ``i`` in the transform exponent: non-negative -> ``+1``,
        negative -> ``-1``.  Defaults to upstream's convention: ``+1`` for
        types 1 and 3, ``-1`` for type 2.
    n_trans : int
        Number of transforms sharing one point set (vectorized interface).
    eps : float, optional
        Requested tolerance; defaults to upstream's ``1e-6`` (single
        precision) or ``1e-14`` (double).
    dtype : str or numpy dtype
        ``"complex64"`` or ``"complex128"`` (default) -- selects the working
        precision, as upstream's plan ``dtype`` option.
    **kwargs
        Upstream opts names (``modeord``, ``spread_sort``,
        ``spread_kerevalmeth``, ``upsampfac``, ``nthreads``, ``debug``,
        ``fftw``, ...), translated or accepted as documented in the module
        docstring.

    Examples
    --------
    >>> import numpy as np
    >>> import repro.finufft as finufft
    >>> rng = np.random.default_rng(0)
    >>> x = rng.uniform(-np.pi, np.pi, 400)
    >>> c = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    >>> plan = finufft.Plan(1, (48,), eps=1e-6)
    >>> _ = plan.setpts(x)
    >>> plan.execute(c).shape
    (48,)
    """

    #: This facade's options translator (upstream names -> ``Opts`` fields).
    _translate_opts = staticmethod(_translate_opts)

    def __init__(self, nufft_type, n_modes_or_dim, iflag=None, n_trans=1,
                 eps=None, dtype="complex128", **kwargs):
        precision = _parse_dtype(dtype)
        isign = (-1 if int(nufft_type) == 2 else 1) if iflag is None else _upstream_sign(iflag)
        opts = Opts(precision=precision, isign=isign, **self._translate_opts(kwargs))
        self._plan = _NativePlan(nufft_type, n_modes_or_dim, n_trans=n_trans,
                                 eps=_DEFAULT_EPS[precision] if eps is None else eps,
                                 opts=opts)

    # Upstream-facing attributes ---------------------------------------- #
    @property
    def nufft_type(self):
        """Transform type (1, 2 or 3)."""
        return self._plan.nufft_type

    @property
    def n_trans(self):
        """Number of stacked transforms per execute."""
        return self._plan.n_trans

    @property
    def dtype(self):
        """Complex working dtype of the plan."""
        return np.dtype(self._plan.precision.complex_dtype)

    def setpts(self, x=None, y=None, z=None, s=None, t=None, u=None):
        """Register nonuniform points (and type-3 target frequencies)."""
        self._plan.set_pts(x, y=y, z=z, s=s, t=t, u=u)
        return self

    def execute(self, data, out=None):
        """Run the planned transform; ``out=`` receives the result in place."""
        return self._plan.execute(data, out=out)

    def destroy(self):
        """Free the plan's (simulated) device resources."""
        self._plan.destroy()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.destroy()
        return False


def _simple_runner(translate):
    """The facades' simple-call runner: their options and sign onto
    :func:`repro.core.simple.invoke`."""
    def run(nufft_type, coords, data, targets, n_modes, kwargs, out, eps, isign):
        native = translate(kwargs)
        native["isign"] = _upstream_sign(isign)
        return _simple.invoke(nufft_type, coords, data, targets, n_modes, native,
                              eps=eps, out=out)
    return run


_run = _simple_runner(_translate_opts)
(nufft1d1, nufft1d2, nufft1d3,
 nufft2d1, nufft2d2, nufft2d3,
 nufft3d1, nufft3d2, nufft3d3) = _simple.define_calls(globals(), "_run", upstream=True)
