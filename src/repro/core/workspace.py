"""Per-plan reusable execution buffers, accounted on the device memory pool.

cuFINUFFT's performance story depends on buffer discipline: the fine grid,
the cuFFT workspace and the staging vectors are allocated once per plan and
reused by every ``execute`` call and every transform of an ``n_trans`` batch
(paper Sec. V-A: "the plan owns the device arrays").  The seed reproduction
instead allocated fresh arrays at every stage; a :class:`Workspace` restores
the library's discipline:

* named buffers are created on first request (or eagerly by the plan, so RAM
  reports include them before the first execute) through the device's
  :class:`~repro.gpu.memory.MemoryPool`, so capacity checks and the paper's
  Table-I RAM accounting see them;
* a request whose shape and dtype match the live buffer *reuses* it -- the
  zero-allocation steady state measured by :mod:`repro.metrics.allocs`;
* a mismatch (new point set on a type-3 plan, precision change) frees and
  reallocates, which the alloc counter reports as a miss;
* :meth:`adopt` swaps in a stage-produced array (the out-of-place FFT
  result) without copying, modelling cuFFT transforming into its workspace.

Setting ``Opts.reuse_workspace=False`` disables the reuse (every request
reallocates), which is the pre-refactor churn path the interop benchmark
measures its zero-copy claim against.
"""

from __future__ import annotations

import numpy as np

from ..metrics import allocs

__all__ = ["Workspace"]


class Workspace:
    """Named, reusable device-accounted buffers owned by one plan.

    Parameters
    ----------
    device : Device
        Simulated device whose :class:`~repro.gpu.memory.MemoryPool` accounts
        the buffers (and enforces capacity).
    reuse : bool
        When ``False``, every :meth:`array` request frees and reallocates its
        buffer -- the churny pre-refactor behaviour, kept as a measurable
        baseline for ``benchmarks/bench_interop.py``.
    """

    def __init__(self, device, reuse=True):
        self._device = device
        self._reuse = bool(reuse)
        self._buffers = {}

    # ------------------------------------------------------------------ #
    # acquisition
    # ------------------------------------------------------------------ #
    def array(self, name, shape, dtype, pipeline=None):
        """Return the named buffer's array, (re)allocating on mismatch.

        A matching live buffer is returned as-is (no allocation); a
        shape/dtype mismatch, a missing buffer, or ``reuse=False`` goes
        through the pool (counted by the alloc tracker, and recorded as an
        ``"alloc"`` transfer on ``pipeline`` when given).
        """
        shape = tuple(int(n) for n in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if (buf is not None and self._reuse
                and buf.array.shape == shape and buf.array.dtype == dtype):
            return buf.array
        if buf is not None:
            # Drop the entry before freeing: if the allocation below raises
            # (simulated OOM), the workspace must not hold a freed buffer it
            # could later mistake for a live, reusable one.
            del self._buffers[name]
            buf.free()
        new = self._device.memory.allocate(shape, dtype, label=name)
        self._buffers[name] = new
        allocs.record_alloc(new.nbytes, name)
        if pipeline is not None:
            pipeline.add_transfer("alloc", new.nbytes, name)
        return new.array

    def adopt(self, name, array, pipeline=None):
        """Take ownership of ``array`` as the named buffer, without copying.

        Models an out-of-place kernel (the batched FFT) writing into a
        plan-owned workspace buffer: the previous allocation is released and
        the produced array is registered in its place.  Equal-size swaps
        leave the pool's accounting untouched; size changes adjust it (and
        count as a workspace miss).
        """
        array = np.asarray(array)
        buf = self._buffers.get(name)
        if buf is not None and self._reuse and buf.array.nbytes == array.nbytes:
            buf.array = array
            return array
        if buf is not None:
            del self._buffers[name]
            buf.free()
        new = self._device.memory.adopt(array, label=name)
        self._buffers[name] = new
        allocs.record_alloc(new.nbytes, name)
        if pipeline is not None:
            pipeline.add_transfer("alloc", new.nbytes, name)
        return array

    # ------------------------------------------------------------------ #
    # lifecycle / reporting
    # ------------------------------------------------------------------ #
    def release_all(self):
        """Free every buffer (plan destroy / type-3 repointing)."""
        for buf in self._buffers.values():
            buf.free()
        self._buffers = {}

    @property
    def nbytes(self):
        """Total bytes currently held across all live buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def names(self):
        """Live buffer names, in creation order."""
        return list(self._buffers.keys())
