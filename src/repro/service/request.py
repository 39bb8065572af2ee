"""Request/response types of the transform service.

A :class:`TransformRequest` is one *one-shot* NUFFT: the caller supplies the
transform geometry (type, modes, tolerance, precision, method, backend), the
nonuniform points and a single strength/coefficient vector, exactly the
arguments of the ``nufft*d*`` simple API.  Unlike the simple API the service
does not plan per call: requests are validated eagerly at construction (the
service front door), grouped by :meth:`TransformRequest.plan_key` for plan
pooling and by :meth:`TransformRequest.points_key` for ``n_trans``
coalescing, and answered with a :class:`TransformResult` carrying the output
alongside the serving telemetry (device, cache hits, modelled timings).

The points key is a checksum that only finds candidates: the service fuses
requests, and skips a pooled plan's ``set_pts``, only for coordinates equal
value for value (:func:`~repro.service.pool.equal_points`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..core.options import Opts, integral_mode_counts
from ..core.pointset import validated_point_arrays

__all__ = ["PlanKey", "TransformRequest", "TransformResult", "plan_key_for",
           "front_door", "signature_label"]

_COORD_FIELDS = ("x", "y", "z")
_TARGET_FIELDS = ("s", "t", "u")
_POINT_FIELDS = _COORD_FIELDS + _TARGET_FIELDS
_KEY_MASK = (1 << 64) - 1


class PlanKey(NamedTuple):
    """The geometry key plans are pooled under (built by :func:`plan_key_for`).

    A tuple to the pool: it hashes and compares by value, field by field.
    ``modes`` holds the mode counts, or ``("ndim", d)`` for type 3.
    """

    nufft_type: int
    modes: tuple
    eps: float
    precision: str
    method: str
    backend: str
    isign: int

    @property
    def plan_modes(self):
        """The ``n_modes`` argument of ``Plan``: the counts, or type 3's dimension."""
        return self.modes[1] if self.nufft_type == 3 else self.modes

    def record(self, n_trans):
        """``(name, fields)`` of this key's version-1 ``"plans"`` store record."""
        return (f"{tuple(self)}.n{n_trans}",
                {"version": 1, **self._asdict(), "modes": list(self.modes),
                 "n_trans": n_trans})

    @classmethod
    def from_record(cls, rec):
        """``(key, n_trans)`` read back from a ``"plans"`` record's fields."""
        fields = {name: rec[name] for name in cls._fields}
        fields["modes"] = tuple(fields["modes"])
        return cls(**fields), rec["n_trans"]


def plan_key_for(nufft_type, n_modes, eps, precision, method, backend, isign=None):
    """The :class:`PlanKey` plans are pooled under.

    The single normalization point shared by :meth:`TransformRequest.plan_key`
    and :meth:`repro.service.TransformService.lease_plan` -- both paths must
    produce identical keys or the pool would silently stop sharing plans
    between coalesced requests and external lessees.  For type 3, ``n_modes``
    may be the dimension or a tuple whose length gives it (the ``Plan(3, .)``
    convention).  Precision, method, backend and ``isign`` are normalized by
    :class:`~repro.core.options.Opts` (an unknown backend raises
    ``ValueError`` here); ``isign=None`` and the explicit per-type default
    produce the same key (they are the same plan), while ``"auto"`` stays
    unresolved.

    Keys are memoized on the arguments and their types (and the types of a
    tuple ``n_modes``'s entries), so a repeated geometry skips the
    normalization; unhashable arguments (a list or array ``n_modes``) are
    normalized afresh.  Invalid arguments raise on every call.
    """
    args = (nufft_type, n_modes, eps, precision, method, backend, isign)
    memo = (args, tuple(map(type, args)),
            tuple(map(type, n_modes)) if type(n_modes) is tuple else None)
    try:
        hash(memo)
    except TypeError:
        return _plan_key(*args)
    return _memo_plan_key(memo)


@functools.lru_cache(maxsize=256)
def _memo_plan_key(memo):
    return _plan_key(*memo[0])


def _plan_key(nufft_type, n_modes, eps, precision, method, backend, isign):
    """The normalization behind :func:`plan_key_for`."""
    if nufft_type not in (1, 2, 3):
        raise ValueError(f"nufft_type must be 1, 2 or 3, got {nufft_type}")
    nufft_type = int(nufft_type)
    if nufft_type == 3:
        ndim = int(n_modes) if np.isscalar(n_modes) else len(tuple(n_modes))
        if ndim not in (1, 2, 3):
            raise ValueError(f"type-3 transforms support dimensions 1-3, got {ndim}")
        modes = ("ndim", ndim)
    else:
        modes = integral_mode_counts(np.atleast_1d(n_modes))
    opts = Opts(method=method, precision=precision, isign=isign, backend=backend)
    return PlanKey(nufft_type, modes, float(eps), opts.precision.value,
                   opts.method.value, opts.backend, opts.resolve_isign(nufft_type))


def signature_label(plan_key, points_key):
    """Compact label of a ``(plan_key, points_key)`` signature.

    E.g. ``"t1:64x64:eps1e-06:single:isign-1:pts=1a2b3c4d"``: the geometry
    fields plus the points checksum in hex, the key
    :class:`~repro.service.ServiceStats` reports pool and latency counts by.
    """
    modes = (f"{plan_key.modes[1]}d" if plan_key.nufft_type == 3
             else "x".join(str(n) for n in plan_key.modes))
    return (f"t{plan_key.nufft_type}:{modes}:eps{plan_key.eps:g}:{plan_key.precision}"
            f":isign{plan_key.isign:+d}:pts={points_key >> 32:08x}")


def front_door(cls, request, fields):
    """The request a service entry point serves: ``request`` or ``cls(**fields)``.

    Every front door (``submit``, ``execute_distributed``, ``solve`` and the
    async front-end's ``submit``) accepts a prebuilt request or its fields
    as keywords, not both.
    """
    if request is None:
        return cls(**fields)
    if fields:
        raise ValueError(f"pass either a {cls.__name__} or keyword fields, not both")
    if not isinstance(request, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(request).__name__}")
    return request


@dataclass(eq=False)
class TransformRequest:
    """One one-shot NUFFT request.

    Parameters mirror :class:`repro.core.plan.Plan` plus the per-call data:

    ``nufft_type``/``n_modes``/``eps``/``precision``/``method``/``backend``
        The plan geometry.  For type 3, ``n_modes`` is the dimension (or a
        tuple whose length gives it), as in ``Plan(3, ndim)``.
    ``isign``
        Exponent sign ``+1``/``-1``; ``None`` selects the per-type default
        (``-1`` for type 1, ``+1`` for types 2 and 3).  Part of the plan
        key: opposite-sign requests never share a pooled plan.
    ``data``
        One strength vector ``(M,)`` (types 1 and 3) or one mode-coefficient
        array of shape ``n_modes`` (type 2).
    ``x[, y[, z]]``
        Nonuniform coordinates, one 1-D array per dimension.
    ``s[, t[, u]]``
        Type-3 target frequencies, one 1-D array per dimension.
    ``tag``
        Opaque caller token echoed on the :class:`TransformResult`.
    ``tenant``
        Caller identity for the async front-end's fair-share scheduling and
        per-tenant latency accounting (``"default"`` when unset).  Tenants
        share fused blocks freely -- the tenant id never enters the plan or
        points keys.
    ``priority``
        Load-shedding rank (higher = more important), an integral value.
        When a bounded intake queue overflows, the *lowest*-priority queued
        request *of the same shedding scope* (the whole queue for the
        service, the tenant sub-queue for the front-end) is shed first.
    ``deadline_s``
        Optional modelled-time budget (seconds) from the request's first
        dispatch; a request whose completion would land past it fails with
        :class:`~repro.service.DeadlineExceededError`.

    Validation is eager: malformed shapes, non-integral mode counts, unknown
    backends and non-finite points raise ``ValueError`` here, complex points or targets
    ``TypeError`` (as :class:`~repro.core.plan.Plan` does), *before* the
    request can reach a (possibly shared, possibly coalesced) plan, so one
    bad request can never poison a fused block serving other callers.

    Requests carry arrays, so they compare by identity (``eq=False``), not
    element-wise; group by :meth:`plan_key` / :meth:`points_key` instead.
    """

    nufft_type: int
    n_modes: object
    data: np.ndarray
    x: np.ndarray
    y: np.ndarray = None
    z: np.ndarray = None
    s: np.ndarray = None
    t: np.ndarray = None
    u: np.ndarray = None
    eps: float = 1e-6
    precision: str = "single"
    method: str = "auto"
    backend: str = "auto"
    isign: int = None
    tag: object = None
    tenant: str = "default"
    priority: int = 0
    deadline_s: float = None
    _points_key: int = field(default=None, init=False, repr=False, compare=False)
    _plan_key: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # The plan key is the one normalization of the geometry fields
        # (isign=None resolves to the per-type convention, anything else
        # must be +-1); the request keeps the normalized values.
        key = self._plan_key = plan_key_for(
            self.nufft_type, self.n_modes, self.eps, self.precision,
            self.method, self.backend, self.isign,
        )
        if not np.isfinite(key.eps) or key.eps <= 0.0:
            raise ValueError(f"eps must be a finite positive tolerance, got {key.eps}")
        self.nufft_type, self.eps, self.isign = key.nufft_type, key.eps, key.isign
        self.precision, self.method, self.backend = key.precision, key.method, key.backend
        self.n_modes = None if key.nufft_type == 3 else key.modes
        self.ndim = key.plan_modes if key.nufft_type == 3 else len(key.modes)
        self.tenant = str(self.tenant)
        if not self.tenant:
            raise ValueError("tenant must be a non-empty identifier")
        # Reject non-integral priorities (the n_trans rule): int() would
        # silently truncate 2.5 -> 2 and coerce True -> 1, scrambling the
        # shed order the caller asked for.
        if isinstance(self.priority, bool):
            raise ValueError(
                f"priority must be an integral rank, got {self.priority!r}"
            )
        priority_f = float(self.priority)
        if not np.isfinite(priority_f) or priority_f != int(priority_f):
            raise ValueError(
                f"priority must be an integral rank, got {self.priority!r}"
            )
        self.priority = int(priority_f)
        if self.deadline_s is not None:
            self.deadline_s = float(self.deadline_s)
            if not np.isfinite(self.deadline_s) or self.deadline_s <= 0.0:
                raise ValueError(
                    f"deadline_s must be a finite positive budget, "
                    f"got {self.deadline_s}"
                )

        self._validate_points()
        self._validate_data()

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def _validate_points(self):
        coords = validated_point_arrays([getattr(self, f) for f in _COORD_FIELDS],
                                        self.ndim, _COORD_FIELDS, owner="request")
        for name, arr in zip(_COORD_FIELDS, coords):
            setattr(self, name, arr)
        self.n_points = coords[0].shape[0]
        self.n_targets = 0
        targets = [getattr(self, f) for f in _TARGET_FIELDS]
        if self.nufft_type != 3:
            if any(tt is not None for tt in targets):
                raise ValueError(
                    "target frequencies (s, t, u) are only accepted by type-3 requests"
                )
            return
        targets = validated_point_arrays(targets, self.ndim, _TARGET_FIELDS, "target",
                                         owner="type-3 request")
        for name, arr in zip(_TARGET_FIELDS, targets):
            setattr(self, name, arr)
        self.n_targets = targets[0].shape[0]

    def _validate_data(self):
        self.data = np.asarray(self.data)
        if self.nufft_type in (1, 3):
            expected = (self.n_points,)
        else:
            expected = self.n_modes
        if self.data.shape != expected:
            raise ValueError(
                f"data shape {self.data.shape} does not match the expected "
                f"single-transform shape {expected} (the service coalesces "
                "batching itself; submit one transform per request)"
            )

    # ------------------------------------------------------------------ #
    # grouping keys
    # ------------------------------------------------------------------ #
    def plan_key(self):
        """Geometry key: requests with equal keys can share one pooled plan.

        Computed once, at construction, by :func:`plan_key_for`.
        """
        return self._plan_key

    def points_key(self):
        """Checksum of the nonuniform points (and type-3 targets).

        A 64-bit key over each array's field, length and wrapping sum of
        its values' bit patterns, computed once: one pass over the data,
        several times cheaper than a CRC.  Requests with equal
        :meth:`plan_key` and equal ``points_key`` are candidates for one
        point set -- the batched ``n_trans`` case the paper's plan interface
        vectorizes -- and the service fuses them into one block, or skips a
        pooled plan's ``set_pts``, only when their arrays are also equal
        value for value (:func:`~repro.service.pool.equal_points`).  A
        checksum alone never decides, so a collision (a permutation of the
        same points, say) costs one comparison, not a wrong answer.
        """
        if self._points_key is None:
            parts = tuple((f, arr.shape[0], int(np.add.reduce(arr.view(np.uint64))))
                          for f, arr in enumerate(getattr(self, name) for name in _POINT_FIELDS)
                          if arr is not None)
            self._points_key = hash(parts) & _KEY_MASK
        return self._points_key

    def point_arrays(self):
        """The coordinate arrays, then any type-3 target arrays, in field order."""
        return tuple(arr for f in _POINT_FIELDS if (arr := getattr(self, f)) is not None)

    def signature(self):
        """Micro-batching fusion key: ``(plan_key(), points_key())``.

        Requests with equal signatures and equal points are the same
        transform geometry over the same point set -- what the async
        front-end collects into one bounded window and the service fuses
        into a single ``n_trans`` block.
        """
        return (self.plan_key(), self.points_key())

    def signature_label(self):
        """Compact human-readable signature for reports and stats keys.

        E.g. ``"t1:64x64:eps1e-06:single:isign-1:pts=1a2b3c4d"``
        (:func:`signature_label`).
        """
        return signature_label(*self.signature())

    def setpts_kwargs(self):
        """Keyword arguments for ``Plan.set_pts``."""
        return {f: arr for f in _POINT_FIELDS
                if (arr := getattr(self, f)) is not None}


@dataclass(eq=False)
class TransformResult:
    """Answer to one :class:`TransformRequest`.  Compares by identity
    (``eq=False``): it carries the output array.

    Attributes
    ----------
    tag : object
        The request's ``tag``, echoed back.
    output : ndarray or None
        Transform output (``None`` when ``error`` is set).
    error : Exception or None
        The per-request failure, if the serving block raised.
    error_type : str or None
        Class name of ``error`` (the service's failure taxonomy key, e.g.
        ``"TransientKernelError"``); ``None`` on success.  Read-only.
    error_message : str or None
        ``str(error)``; ``None`` on success.  Read-only.
    attempts : int
        Dispatch attempts the serving block took (1 = no retries).
    degraded : bool
        Whether the request was served in whole-fleet-degraded mode (every
        device inadmissible; single fallback device).
    device_id : int
        Fleet device the request executed on.
    plan_reused : bool
        Whether a pooled plan was reused (no plan construction).
    setpts_reused : bool
        Whether even ``set_pts`` was skipped (pooled plan already held this
        exact point set -- the strongest amortization).
    block_size : int
        Number of requests fused into the executed ``n_trans`` block.
    modelled_seconds : dict
        Stream-level modelled occupancy this request's block added, split by
        engine (``h2d`` / ``exec`` / ``d2h``) plus ``plan_setup``.
    completed_at : float
        Timeline instant (seconds) the block's d2h finished.
    tenant : str or None
        Tenant the request was accounted under (front-end servings only).
    queue_wait_s : float or None
        Modelled seconds spent in the tenant sub-queue before the fair-share
        scheduler admitted the request to a batching window (front-end only).
    batch_wait_s : float or None
        Modelled seconds spent in the open batching window before its fused
        block dispatched (front-end only).
    e2e_s : float or None
        Modelled arrival-to-completion latency (front-end only; ``None`` on
        failures, which never completed).
    """

    tag: object = None
    output: np.ndarray = None
    error: Exception = None
    attempts: int = 1
    degraded: bool = False
    device_id: int = -1
    plan_reused: bool = False
    setpts_reused: bool = False
    block_size: int = 1
    modelled_seconds: dict = field(default_factory=dict)
    completed_at: float = 0.0
    tenant: str = None
    queue_wait_s: float = None
    batch_wait_s: float = None
    e2e_s: float = None

    @property
    def error_type(self):
        """Class name of ``error``, the failure taxonomy key (``None`` on success)."""
        return None if self.error is None else type(self.error).__name__

    @property
    def error_message(self):
        """``str(error)`` (``None`` on success)."""
        return None if self.error is None else str(self.error)
