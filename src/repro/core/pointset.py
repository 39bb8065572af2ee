"""One point set and everything derived from it alone.

A :class:`PointSet` holds the caller-order fine-grid coordinates, their
:class:`~repro.core.binsort.BinSort`, the stencils of
:func:`~repro.core.stencil.build_stencil_cache` (``None`` for backends that
evaluate kernels on the fly), the ``permutation`` that lists the caller's
index of each stencil point, and one memo of the values that depend on the
points alone: the CSC spreading view and the windowed engine's
:class:`~repro.core.windowed.Pencils`.  Values that also depend on a plan's
method, precision, ``n_trans`` or device stay with the plan
(``Plan._point_state_value``).

The stencils of a set with a CSR operator list the points in bin-sort
order.  Those of a windowed set (no operator) list them in engine order: the
points of the crowded pencils first, pencil by pencil, then the others tile
by tile (in 1D, in bin-sort order); every kernel value array is node-major,
``(w, M)``.  So each pencil piece and tile batch the windowed engine
multiplies is a column range of the set's own arrays, which it reads in
place on every execute.  ``permutation`` is the bin-sort permutation
composed with that order.

Plans on equal points share one set.  ``holders`` counts the plans holding
a set (:meth:`PointSet.hold` / :meth:`PointSet.release`), and while it is
above zero the set is listed in an index keyed by its :class:`PointSetKey`,
point count and first and last grid coordinate.  :func:`live_point_set`
finds it there: ``Plan.set_pts``, the outer set of a type-3 plan and each
``DistributedPlan`` rank ask it before they build, so a second plan given
equal coordinates -- in any array objects -- takes the held set instead of
sorting and stencilling them again.  A hit is confirmed by comparing the
stored caller-order ``grid_coords``; a miss costs one dict probe.  The index
holds sets weakly and drops each when its last holder lets go, so it never
outgrows the sets that plans hold.  ``t2.set_pts(points=t1.point_set)``
attaches a set explicitly.

A re-point writes its new CSR operator into the old set's arrays only once
no plan holds that set, and never into arrays served by an artifact store,
which other readers may share.  Such a set has left the index by then, so
no later lookup hands out recycled arrays.
"""

from __future__ import annotations

import hashlib
import weakref
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .binsort import bin_sort
from .interp import interp_cached
from .spread import spread_cached
from .stencil import build_stencil_cache
from .windowed import Pencils, interp_windowed, spread_windowed

__all__ = ["PointSet", "PointSetKey", "build_point_set", "live_point_set",
           "validated_point_arrays"]


def validated_point_arrays(arrays, ndim, names, what="coordinate", owner="plan"):
    """The first ``ndim`` of ``arrays`` as real, finite, equal-length 1-D float64.

    The one check behind ``Plan.set_pts``, ``DistributedPlan.set_pts``, the
    service's :class:`~repro.service.TransformRequest`, the solve requests
    and operators: the rest of ``arrays`` must be ``None``, and ``names``
    name the arrays in the errors.
    """
    listed = ", ".join(names[:ndim])
    if any(a is None for a in arrays[:ndim]):
        raise ValueError(f"{ndim}D {owner} requires {what} arrays {listed}")
    if any(a is not None for a in arrays[ndim:]):
        raise ValueError(f"{ndim}D {owner} takes only the {what} arrays {listed}")
    out = []
    for name, a in zip(names, arrays[:ndim]):
        if np.iscomplexobj(a):
            raise TypeError(f"{name} is complex; {what} array {name!r} must be real")
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 1 or a.shape[0] == 0:
            raise ValueError(f"{what} array {name!r} must be a non-empty 1-D array, "
                             f"got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{what} array {name!r} contains non-finite values "
                             "(NaN or Inf); nonuniform points must be finite reals")
        out.append(a)
    if any(a.shape[0] != out[0].shape[0] for a in out):
        raise ValueError(f"{what} arrays must have equal length")
    return out


class PointSetKey(NamedTuple):
    """What a point set's contents depend on besides the points.

    ``weights`` names the dtype of the CSR operator's weights (``"float32"``
    for single-precision plans, ``"float64"`` for double), so plans of the
    two precisions never share a set.
    """

    fine_shape: tuple
    width: int
    beta: float
    kernel_eval: str
    stencil_budget: int
    bin_shape: tuple
    stencils: bool
    weights: str

    def mismatch(self, other):
        """Name of the first field that differs from ``other``, else ``None``."""
        return next((name for name, a, b in zip(self._fields, self, other) if a != b),
                    None)


_ENDS = itemgetter(0, -1)


def _index_key(key, grid_coords):
    """``key``, the point count and each axis's first and last coordinate."""
    return key, grid_coords[0].shape[0], tuple(map(_ENDS, grid_coords))


#: A weak reference to each held set, by ``_index_key``; see
#: :func:`live_point_set`.
_LIVE = {}


def _forget(index, ref):
    if _LIVE.get(index) is ref:
        del _LIVE[index]


def live_point_set(grid_coords, key):
    """The held set under ``key`` whose grid coordinates equal ``grid_coords``.

    ``None`` on a miss.  Callers ask before they release their own set, so
    re-setting a plan's points finds the set it holds.  Releasing never
    rewrites a set's arrays (only a build recycles them), so a set found
    here stays intact until the caller holds it.
    """
    ref = _LIVE.get(_index_key(key, grid_coords))
    points = None if ref is None else ref()
    if points is None or points.holders == 0:
        return None
    if not all(np.array_equal(a, b) for a, b in zip(points.grid_coords, grid_coords)):
        return None
    return points


class PointSet:
    """A point set's sort, stencils and point-only memo; see module docstring."""

    def __init__(self, grid_coords, sort=None, stencil=None, key=None, stored=False):
        self.grid_coords = grid_coords
        self.sort = sort
        self.stencil = stencil
        #: Caller index of each stencil point (``None`` without a sort).
        self.permutation = None
        if sort is not None:
            order = None if stencil is None else stencil.order
            self.permutation = sort.permutation if order is None else sort.permutation[order]
        self.key = key
        #: Whether the stencils came through an artifact store.
        self.stored = stored
        self.holders = 0
        #: ``(index key, weak reference)`` of the set's entry in ``_LIVE``.
        self._entry = None
        self._memo = {}

    @property
    def n_points(self):
        return self.grid_coords[0].shape[0]

    def hold(self):
        """Count one more holder and list the set for :func:`live_point_set`."""
        self.holders += 1
        if self.key is not None:
            if self._entry is None:
                index = _index_key(self.key, self.grid_coords)
                # A set collected while still counted held (its holder was
                # dropped without releasing it) leaves the index too.
                self._entry = index, weakref.ref(self, lambda ref: _forget(index, ref))
            index, ref = self._entry
            _LIVE[index] = ref
        return self

    def release(self):
        """Count one holder less; the last one takes the set off the index."""
        self.holders -= 1
        if self.holders == 0 and self._entry is not None:
            _forget(*self._entry)

    def _value(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def spread_operator(self):
        """``stencil.interp_matrix.T``, the CSC spreading operator (a view)."""
        return self._value("spread operator", lambda: self.stencil.interp_matrix.T)

    def pencils(self):
        """The windowed engine's layout of the stencils (pieces, windows checked)."""
        return self._value("pencils", lambda: Pencils(self.stencil))

    def spread(self, strengths, out):
        """Spread a caller-order ``(B, M)`` strength block into ``out``.

        ``out`` is a ``(B, *fine_shape)`` array of any layout; it is
        returned.  The strengths are permuted into the stencils' order once,
        then spread by the CSR operator when the set has one, else by the
        windowed engine.
        """
        strengths = np.take(strengths, self.permutation, axis=1)
        if self.stencil.interp_matrix is not None:
            return spread_cached(strengths, self, out=out)
        return spread_windowed(strengths, self.stencil, out, self.pencils())

    def interp(self, fine, out):
        """Interpolate a ``(B, *fine_shape)`` grid block into ``out``, ``(B, M)``.

        The transpose of :meth:`spread`: the values come out in the
        stencils' order and are scattered back to the caller's point indices
        (``out[:, permutation] = values``, any ``out`` layout); ``out`` is
        returned.
        """
        if self.stencil.interp_matrix is not None:
            values = interp_cached(fine, self, out.dtype)
        else:
            values = interp_windowed(fine, self.stencil,
                                     np.empty(out.shape, dtype=out.dtype), self.pencils())
        out[:, self.permutation] = values
        return out


def build_point_set(grid_coords, key, kernel, store=None, previous=None):
    """Bin-sort ``grid_coords`` and build the stencils ``key`` asks for.

    The stencils are built from the bin-sorted coordinates; without a CSR
    operator they come back in the windowed engine's order, which the set's
    ``permutation`` composes with the sort.

    ``store`` is the plan's artifact store, which keys stencils by a digest
    of the points.  ``previous`` is the set the calling plan just released;
    its CSR arrays are reused when no plan holds it any more.
    """
    sort = bin_sort(grid_coords, key.fine_shape, key.bin_shape)
    stencil = None
    if key.stencils:
        points_digest = None
        if store is not None:
            h = hashlib.blake2b(digest_size=16)
            for c in grid_coords:
                h.update(np.ascontiguousarray(c).tobytes())
            points_digest = h.hexdigest()
        recycle = None
        if previous is not None and previous.holders == 0 and not previous.stored:
            recycle = previous.stencil
        perm = sort.permutation
        stencil = build_stencil_cache(
            [c[perm] for c in grid_coords], key.fine_shape, kernel,
            kernel_eval=key.kernel_eval, fuse_budget=key.stencil_budget,
            store=store, points_digest=points_digest, bin_shape=key.bin_shape,
            recycle=recycle, weight_dtype=np.dtype(key.weights),
        )
    return PointSet(grid_coords, sort, stencil, key, stored=store is not None)
