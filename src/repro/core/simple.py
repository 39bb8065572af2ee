"""One-shot convenience wrappers around :class:`repro.core.plan.Plan`.

These mirror FINUFFT/cuFINUFFT's "simple" interfaces: a single call that
plans, sets points, executes and cleans up.  Use a :class:`Plan` directly when
repeating transforms with the same nonuniform points (the whole reason the
plan interface exists -- see the paper's discussion of "exec" timings), and
:func:`repro.tuning.tune_opts` to autotune the plan parameters the wrappers
would otherwise take from the paper's defaults.

The nine calls here and the eighteen of the upstream facades
(:mod:`repro.finufft`, :mod:`repro.cufinufft`) are one call surface:
:data:`CALLS` names each call's arguments, :func:`define_calls` writes each
call (signature and docstring) from that table, and every call runs through
:func:`invoke`.  Unknown keyword arguments go to :class:`Plan`, so any
:class:`~repro.core.options.Opts` field works here too.

Precision inference (as in cuFINUFFT): without ``precision=`` or ``opts=``,
``complex64``/``float32`` data runs in single precision and returns
``complex64``, ``complex128``/``float64`` data in double; other dtypes keep
the :class:`~repro.core.options.Opts` default.

A simple call is one ``set_pts`` and one ``execute``, so it reads a CSR
operator once: without ``stencil_budget=`` or ``opts=``, it builds one only
where the windowed engine (:mod:`repro.core.windowed`) would be slower
(:func:`skips_operator`).  2D/3D type-2 calls never build it; 2D/3D type-1
and type-3 calls skip it when their points fill the grid densely enough
for the tile regime to pay; 1D calls keep it.
"""

from __future__ import annotations

import numpy as np

from ..kernels.es_kernel import kernel_params_for_tolerance
from .gridsize import fine_grid_shape, type3_axis
from .options import integral_mode_counts
from .plan import Plan
from .pointset import validated_point_arrays
from .windowed import tiles_pay

__all__ = [
    "nufft1d1", "nufft1d2", "nufft1d3",
    "nufft2d1", "nufft2d2", "nufft2d3",
    "nufft3d1", "nufft3d2", "nufft3d3",
    "skips_operator",
]

#: The simple calls, ``(dim, nufft_type) -> (coordinates, data, targets)``:
#: the coordinate argument names, the data argument (strengths ``c`` or, for
#: type 2, modes ``f``) and the type-3 target frequency names.
CALLS = {
    (dim, nufft_type): (("x", "y", "z")[:dim], "f" if nufft_type == 2 else "c",
                        ("s", "t", "u")[:dim] if nufft_type == 3 else ())
    for dim in (1, 2, 3) for nufft_type in (1, 2, 3)
}

_PRECISION_OF = {np.dtype(np.complex64): "single", np.dtype(np.float32): "single",
                 np.dtype(np.complex128): "double", np.dtype(np.float64): "double"}


def invoke(nufft_type, coords, data, targets, n_modes, kwargs, eps=1e-6, out=None):
    """Run one simple call on a guru :class:`Plan`: plan, set points, execute.

    ``coords`` and ``targets`` hold the call's coordinate and type-3 target
    arrays, ``data`` its strengths or modes, and ``kwargs`` the
    :class:`Plan` keywords, in a dict the call owns (it is filled in place).
    A leading axis on ``data`` beyond the transform's rank is an ``n_trans``
    stack, which sets ``n_trans`` unless the call passes it.  The working
    precision follows ``data``'s dtype.  A type-1 ``n_modes`` of ``None`` is
    read from ``out``'s trailing axes; either way it must hold ``dim``
    integral mode counts.
    """
    dim = len(coords)
    data = np.asarray(data)
    rank = dim if nufft_type == 2 else 1
    if data.ndim == rank + 1:
        kwargs.setdefault("n_trans", data.shape[0])
    elif data.ndim != rank:
        name = CALLS[dim, nufft_type][1]
        raise ValueError(f"{name} must be a {rank}-D array or a stacked (n_trans, ...) "
                         f"block of them, got shape {data.shape}")
    if "precision" not in kwargs and "opts" not in kwargs \
            and data.dtype in _PRECISION_OF:
        kwargs["precision"] = _PRECISION_OF[data.dtype]
    if nufft_type == 1:
        if n_modes is None:
            if out is None:
                raise ValueError("either n_modes or out= must be provided")
            n_modes = np.shape(out)[-dim:]
        shape = integral_mode_counts(n_modes if np.ndim(n_modes) else (n_modes,))
        if len(shape) != dim:
            raise ValueError(f"n_modes must hold {dim} mode count(s), got {n_modes!r}")
    else:
        shape = data.shape[-dim:] if nufft_type == 2 else dim
    # The operator rule: decided here for types 1 and 2, and by a type-3
    # plan's set_pts, on the grid it derives from the points' extents.
    auto = "stencil_budget" not in kwargs and "opts" not in kwargs
    if auto and nufft_type != 3 and skips_operator(nufft_type, coords, targets, shape, eps):
        kwargs["stencil_budget"] = 0
    with Plan(nufft_type, shape, eps=eps, **kwargs) as plan:
        plan._one_shot = auto
        plan.set_pts(*coords, **dict(zip(("s", "t", "u"), targets)))
        return plan.execute(data, out=out)


def skips_operator(nufft_type, coords, targets, n_modes, eps):
    """Whether a simple call plans without the CSR operator (``stencil_budget=0``).

    The call reads its points once, so the operator's build is pure cost
    where the windowed engine is as fast.  In 2D/3D a type-2 call always
    skips it: the window gather reads each window once, as the operator
    would, without building it.  Type-1 and type-3 calls skip it when the
    tile regime pays on the grid they spread to
    (:func:`~repro.core.windowed.tiles_pay`): their points fill it densely
    enough.  1D calls keep it, and so does an invalid ``eps``, which the
    plan rejects.  The arguments are as for :func:`invoke`; ``n_modes`` is
    the mode shape (types 1 and 2).  A type-3 simple call does not call
    this: its plan applies the same rule in ``set_pts``, to the grid it
    derives anyway.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.simple import skips_operator
    >>> x, y = np.random.default_rng(0).uniform(-np.pi, np.pi, (2, 65536))
    >>> skips_operator(1, (x, y), (), (128, 128), 1e-6)
    True
    >>> skips_operator(1, (x[:4096], y[:4096]), (), (256, 256), 1e-6)
    False
    >>> skips_operator(2, (x[:4096], y[:4096]), (), (256, 256), 1e-6)
    True
    """
    dim = len(coords)
    if dim == 1 or not 0.0 < float(eps) < 1.0:
        return False
    if nufft_type == 2:
        return True
    width, _ = kernel_params_for_tolerance(eps)
    if nufft_type == 1:
        fine_shape = fine_grid_shape(n_modes, width)
    else:
        names = CALLS[dim, 3]
        coords = validated_point_arrays(coords, dim, names[0])
        targets = validated_point_arrays(targets, dim, names[2], "target frequency")
        fine_shape = [type3_axis(x, s, width)[0] for x, s in zip(coords, targets)]
    return tiles_pay(np.size(coords[0]), fine_shape, width)


#: Per transform type, as documented: the sum, the data argument, the result
#: and the facades' note.
_TYPE_DOCS = {
    1: ("``f_k = sum_j c_j exp(-i k.x_j)`` (paper Eq. (1))",
        "Complex strengths; a stacked block runs as one batched transform\n"
        "    sharing the plan and its stencil cache.",
        "Fourier coefficients, each axis ordered by ascending frequency\n"
        "    from ``-N//2``.",
        "  ``n_modes`` may be\nomitted when ``out=`` is given: its trailing axes are the "
        "mode counts."),
    2: ("``c_j = sum_k f_k exp(+i k.x_j)`` (paper Eq. (3))",
        "Mode coefficients, each axis ordered by ascending frequency from\n"
        "    ``-N//2``; a stacked block sets ``n_trans`` from its leading axis.",
        "The series evaluated at each point.", ""),
    3: ("``f_k = sum_j c_j exp(+i s_k.x_j)``",
        "Complex strengths; a stacked block runs as one batched transform.",
        "The sums at each target frequency.", ""),
}
_EXAMPLE_MODES = {1: (64,), 2: (32, 32), 3: (12, 12, 12)}
#: The 2D/3D calls' operator note, for types 1 and 3 and for type 2.
_OPERATOR_DOCS = {
    False: ("\n    The call reads its points once: unless ``stencil_budget=`` or\n"
            "    ``opts=`` is given, it builds no CSR operator when its points fill\n"
            "    the fine grid densely enough for the windowed engine's tiles to\n"
            "    pay (:func:`~repro.core.simple.skips_operator`)."),
    True: ("\n    The call reads its points once, so it builds no CSR operator\n"
           "    (``stencil_budget=0`` unless ``stencil_budget=`` or ``opts=`` is\n"
           "    given): the windowed engine interpolates."),
}

_TEMPLATE = """{dim}D type-{t} NUFFT: {sum}.

Parameters
----------
{coords} : array_like, shape (M,)
    {points}
{data} : array_like, shape {data_shape} or (n_trans, {data_inner})
    {data_doc}
{extra}eps : float
    Requested relative tolerance.
out : ndarray, optional
    Preallocated output array of exactly the result shape and the
    transform's complex dtype; the terminal stage writes into it (no
    intermediate output buffer) and it is returned.  A mismatched shape
    or dtype raises ``ValueError``.
**kwargs
    Forwarded to :class:`~repro.core.plan.Plan` (``method=``,
    ``precision=``, ``backend=``, ``isign=``, ``n_trans=``, ``tune=``, ...).
    ``isign=`` sets the exponent sign (default ``{sign:+d}``, as above).
    Without an explicit ``precision=``, the working precision is inferred
    from ``{data}``'s dtype (``complex64``/``float32`` -> single,
    ``complex128``/``float64`` -> double) and the output dtype matches.{operator}

Returns
-------
ndarray, shape {out_shape} or (n_trans, {out_inner})
    {returns}

Examples
--------
>>> import numpy as np
>>> from repro import {name}
>>> rng = np.random.default_rng(0)
{example}"""

_UPSTREAM_TEMPLATE = """{dim}D type-{t} simple call in upstream ``{module}`` argument order.

Upstream defaults: ``isign={sign:+d}``, ``eps=1e-6``.  Same transform, bit for
bit, as :func:`repro.core.simple.{name}` at the same sign and precision.
``isign`` follows upstream's rule (non-negative -> ``+1``, negative ->
``-1``) and the other keywords are ``{module}`` options.{note}
"""


def _uniform(names, bound, size, dim):
    """One example line drawing ``dim`` uniform arrays of ``size`` values."""
    shape = size if dim == 1 else f"({dim}, {size})"
    return f">>> {', '.join(names)} = rng.uniform(-{bound}, {bound}, {shape})"


def _docstring(dim, nufft_type, upstream_module=None):
    """Docstring of one call: the native template, or the upstream one for a facade."""
    coords, data, targets = CALLS[dim, nufft_type]
    summed, data_doc, returns, note = _TYPE_DOCS[nufft_type]
    name = f"nufft{dim}d{nufft_type}"
    if upstream_module is not None:
        return _UPSTREAM_TEMPLATE.format(dim=dim, t=nufft_type, module=upstream_module,
                                         name=name, sign=-1 if nufft_type == 2 else 1,
                                         note=note)
    inner = ", ".join(f"N{d + 1}" for d in range(dim))
    modes_doc = inner + ("," if dim == 1 else "")
    modes = _EXAMPLE_MODES[dim]
    extra, args = "", [*coords, data]
    example = [_uniform(coords, "1.0" if nufft_type == 3 else "np.pi", 500, dim)]
    if nufft_type == 2:
        example.append(f">>> f = rng.standard_normal({modes}) + 1j * rng.standard_normal({modes})")
    else:
        example.append(">>> c = rng.standard_normal(500) + 1j * rng.standard_normal(500)")
    if nufft_type == 1:
        extra = (f"n_modes : int or tuple of {dim} int\n"
                 f"    Output mode counts ``({modes_doc})``.\n")
        args.append(str(modes))
    elif nufft_type == 3:
        extra = (f"{', '.join(targets)} : array_like, shape (N_k,)\n"
                 "    Target frequencies (arbitrary reals).\n")
        example.append(_uniform(targets, "10.0", 100, dim))
        args += targets
    example += [f">>> {name}({', '.join(args)}).shape",
                str({1: modes, 2: (500,), 3: (100,)}[nufft_type])]
    return _TEMPLATE.format(
        dim=dim, t=nufft_type, sum=summed, name=name, coords=", ".join(coords),
        points=("Source points (arbitrary reals)." if nufft_type == 3 else
                "Nonuniform points in ``[-pi, pi)`` (any reals are folded in)."),
        data=data, data_doc=data_doc, extra=extra, sign=-1 if nufft_type == 1 else 1,
        operator="" if dim == 1 else _OPERATOR_DOCS[nufft_type == 2],
        data_shape=f"({modes_doc})" if nufft_type == 2 else "(M,)",
        data_inner=inner if nufft_type == 2 else "M",
        out_shape={1: f"({modes_doc})", 2: "(M,)", 3: "(N_k,)"}[nufft_type],
        out_inner={1: inner, 2: "M", 3: "N_k"}[nufft_type],
        returns=returns, example="\n".join(example) + "\n")


def define_calls(namespace, runner, upstream=False):
    """Define the nine simple calls in ``namespace``, a module's globals.

    Each call is an ordinary module function written from :data:`CALLS`, in
    the native argument order ``(coords, data[, n_modes][, targets],
    eps=1e-6, out=None, **kwargs)`` or, for a facade (``upstream``), in
    upstream's ``(coords, data[, n_modes=None][, targets], out=None,
    eps=1e-6, isign=+-1, **kwargs)``.  Its body hands the arguments to the
    namespace's ``runner``: ``runner(nufft_type, coords, data, targets,
    n_modes, kwargs, eps=, out=[, isign=])``.  Generating the source (as
    :mod:`dataclasses` does for ``__init__``) keeps the real signatures, the
    doctests and the zero per-call cost of hand-written functions.  Returns
    the nine functions in table order.
    """
    calls = []
    for (dim, nufft_type), (coords, data, targets) in CALLS.items():
        name = f"nufft{dim}d{nufft_type}"
        if upstream:
            tail = {"out": None, "eps": 1e-6, "isign": -1 if nufft_type == 2 else 1}
        else:
            tail = {"eps": 1e-6, "out": None}
        modes = ["n_modes=None" if upstream else "n_modes"] if nufft_type == 1 else []
        params = [*coords, data, *modes, *targets, *(f"{k}={v!r}" for k, v in tail.items())]
        exec(f"def {name}({', '.join(params)}, **kwargs):\n"
             f"    return {runner}({nufft_type}, [{', '.join(coords)}], {data}, "
             f"[{', '.join(targets)}], "
             f"{'n_modes' if modes else None}, kwargs, "
             f"{', '.join(f'{k}={k}' for k in tail)})\n", namespace)
        namespace[name].__doc__ = _docstring(
            dim, nufft_type, namespace["__name__"].rpartition(".")[2] if upstream else None)
        calls.append(namespace[name])
    return calls


(nufft1d1, nufft1d2, nufft1d3,
 nufft2d1, nufft2d2, nufft2d3,
 nufft3d1, nufft3d2, nufft3d3) = define_calls(globals(), "invoke")
