"""Multi-node distributed NUFFT: domain decomposition over SimComm ranks.

The paper's application study (Sec. V, Fig. 9) runs the NUFFT across MPI
ranks round-robined over the GPUs of Cori GPU / Summit nodes.  This module
executes one *oversized* transform across simulated ranks the way
FINUFFT-family distributed implementations do:

* **type 1** -- partition the nonuniform points by the axis-0 slab of the
  fine grid that owns their bin (:mod:`repro.core.slab`), scatter strengths,
  spread locally onto a kernel-half-width-padded slab, **halo-exchange** the
  pad rows over :class:`~repro.cluster.comm.SimComm` (charged through the
  :class:`~repro.cluster.comm.CommCostModel`), run a **slab-decomposed FFT**
  (local FFTs along the fully-owned axes, an all-to-all transpose, the FFT
  along the split axis, and the transpose back), deconvolve the locally-owned
  mode rows, and gather the coefficients at the root;
* **type 2** runs the pipeline in reverse: scatter mode rows, pre-correct
  onto the owned fine slab, distributed inverse FFT, **halo-import** the
  neighbour rows each rank's interpolation stencils reach, interpolate at the
  owned points, and gather the values back into the caller's point order.

Each rank runs the single-node plan engine on its padded slab: one
:class:`~repro.core.pointset.PointSet` built as a
:class:`~repro.core.plan.Plan` builds its own (same ``kernel_eval``,
stencil budget and bin shape), spread and interpolated through its
``spread`` / ``interp`` -- the CSR operator within the budget, the windowed
engine past it -- and priced through
:func:`~repro.backends.device_sim.stage_profiles` with the plan's resolved
method.  :class:`~repro.core.deconvolve.CorrectionFactors` and the
:class:`~repro.gpu.fft.DeviceFFT` are shared as well, so the distributed
result matches a single :class:`~repro.core.plan.Plan` to rounding error;
the tests in ``tests/test_distributed.py`` pin that equivalence
property-style, and pin the measured halo traffic against the analytic
slab-boundary volume (:func:`repro.core.slab.analytic_halo_bytes`)
*exactly*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.device_sim import stage_profiles
from ..core.binsort import to_grid_coordinates
from ..core.deconvolve import CorrectionFactors
from ..core.gridsize import fine_grid_shape
from ..core.options import Opts, SpreadMethod, integral_count, integral_mode_counts
from ..core.pointset import (PointSetKey, build_point_set, live_point_set,
                             validated_point_arrays)
from ..core.slab import (
    halo_pads,
    halo_row_map,
    padded_slab_shape,
    partition_points_by_slab,
    slab_partition,
)
from ..gpu.costmodel import CostModel
from ..gpu.fft import DeviceFFT, fft_kernel_profile
from ..gpu.profiler import PipelineProfile
from ..gpu.threadblock import sm_fits
from ..kernels.es_kernel import ESKernel
from .comm import CommCostModel, SimComm, exchange_all
from .node import Node, NodeSpec

__all__ = ["DistributedPlan", "DistributedBreakdown"]

_COORD_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class DistributedBreakdown:
    """Modelled time/traffic decomposition of one distributed execute.

    ``compute_s`` is the slowest rank's kernel time (device contention
    included); the four communication terms are the modelled SimComm charges
    of each phase.  ``overlap_s`` is the portion of the halo exchange hidden
    behind the slab-local FFT along the fully-owned axes -- that stage is
    row-independent, so interior rows transform while boundary rows are in
    flight -- and ``makespan_s`` credits it against the serial sum.
    """

    n_ranks: int
    compute_s: float
    scatter_s: float
    halo_s: float
    transpose_s: float
    gather_s: float
    local_fft_s: float
    halo_bytes: int
    transpose_bytes: int

    @property
    def comm_s(self):
        """Total modelled communication seconds across all four phases."""
        return self.scatter_s + self.halo_s + self.transpose_s + self.gather_s

    @property
    def overlap_s(self):
        """Halo time hidden behind the row-independent local FFT stage."""
        return min(self.halo_s, self.local_fft_s)

    @property
    def makespan_s(self):
        """Modelled wall-clock of the distributed execute (overlap credited)."""
        return self.compute_s + self.comm_s - self.overlap_s

    @property
    def comm_fraction(self):
        """Unhidden communication share of the makespan (0 when free)."""
        total = self.makespan_s
        return (self.comm_s - self.overlap_s) / total if total > 0 else 0.0


class DistributedPlan:
    """A type-1 or type-2 NUFFT executed across simulated MPI ranks.

    Mirrors the :class:`~repro.core.plan.Plan` lifecycle (``set_pts`` then
    repeatable ``execute``) but decomposes the fine grid into contiguous
    axis-0 slabs, one per rank of an in-process :class:`SimComm`
    communicator; each rank is mapped to a node GPU via
    :meth:`~repro.cluster.node.Node.assign_ranks`, so oversubscribed rank
    counts see the paper's contention slowdown in the modelled makespan.

    Parameters
    ----------
    nufft_type : int
        1 or 2.  Type 3 is not decomposed here: its rescaled fine grid
        depends on the point extents, so run it on a single
        :class:`~repro.core.plan.Plan`.
    n_modes : tuple of int
        Mode counts ``(N1[, N2[, N3]])``.
    n_ranks : int
        Number of simulated MPI ranks (slabs).
    n_trans : int, optional
        Batched transforms sharing the point set.
    eps : float, optional
        Requested tolerance (sets the kernel width, as for ``Plan``).
    node : Node or NodeSpec, optional
        Compute node whose GPUs host the ranks (Cori GPU by default).
    cost_model : CommCostModel, optional
        Interconnect latency/bandwidth model for the SimComm charges.
    **opt_overrides
        :class:`~repro.core.options.Opts` fields (``precision``, ``isign``,
        ``upsampfac``, ...); ``method``, ``bin_shape``, ``kernel_eval`` and
        ``stencil_budget`` act on every rank as on a ``Plan``.
        ``spread_only`` is rejected: the fine grid is never assembled in one
        place here.

    After each :meth:`execute` the plan exposes ``halo_bytes`` -- the exact
    payload bytes the halo exchange moved between distinct ranks -- and
    ``last_breakdown``, the :class:`DistributedBreakdown` of modelled
    compute/communication time.
    """

    def __init__(self, nufft_type, n_modes, n_ranks, n_trans=1, eps=1e-6,
                 node=None, cost_model=None, **opt_overrides):
        if nufft_type not in (1, 2):
            raise ValueError(
                "DistributedPlan supports types 1 and 2; a type-3 transform's "
                "fine grid depends on the point extents -- run it on a single "
                "Plan"
            )
        self.nufft_type = int(nufft_type)
        self.n_modes = integral_mode_counts(n_modes)
        self.ndim = len(self.n_modes)
        self.n_ranks = integral_count("n_ranks", n_ranks, 1)
        self.n_trans = integral_count("n_trans", n_trans, 1)
        self.eps = float(eps)

        self.opts = Opts().copy(**opt_overrides) if opt_overrides else Opts()
        if self.opts.spread_only:
            raise ValueError(
                "spread_only is not supported by DistributedPlan: the fine "
                "grid is slab-partitioned and never assembled in one place"
            )
        self.precision = self.opts.precision
        self.isign = self.opts.resolve_isign(self.nufft_type)

        self.kernel = ESKernel.from_tolerance(self.eps, upsampfac=self.opts.upsampfac)
        self.fine_shape = fine_grid_shape(
            self.n_modes, self.kernel.width, self.opts.upsampfac
        )
        self.correction = CorrectionFactors(self.kernel, self.n_modes, self.fine_shape)
        self.slabs = slab_partition(self.fine_shape[0], self.n_ranks)
        #: ``halo_row_map`` of every rank: where each padded row lives.
        self._row_maps = [
            halo_row_map(self.fine_shape, self.slabs, r, self.kernel.width)
            for r in range(self.n_ranks)
        ]
        self.method = self.opts.resolve_method(self.nufft_type, self.ndim,
                                               self.precision)
        self.bin_shape = self.opts.resolved_bin_shape(self.ndim)

        if node is None:
            self.node = Node()
        elif isinstance(node, NodeSpec):
            self.node = Node(spec=node)
        else:
            self.node = node
        self.devices = self.node.assign_ranks(self.n_ranks)
        # Paper Remark 2 per rank, as Plan applies it: SM falls back to
        # GM-sort where the padded bin exceeds the rank's shared memory.
        self._methods = [
            SpreadMethod.GM_SORT if self.method is SpreadMethod.SM and not sm_fits(
                self.bin_shape, self.kernel.width, self.precision.complex_itemsize,
                dev.spec,
            ) else self.method
            for dev in self.devices
        ]
        self._cost_models = [
            CostModel(spec=dev.spec, precision_itemsize=self.precision.real_itemsize)
            for dev in self.devices
        ]
        self._comms = SimComm.create(self.n_ranks, cost_model or CommCostModel())

        self._points_ready = False
        self._owned_idx = None
        #: Each rank's :class:`~repro.core.pointset.PointSet` on its padded
        #: slab (``None`` for a rank that owns no points).
        self.point_sets = None
        self.n_points = 0
        #: Exact data bytes the halo exchange of the last execute moved
        #: between distinct ranks (None before the first execute); equals
        #: :func:`repro.core.slab.analytic_halo_bytes` by construction.
        self.halo_bytes = None
        #: :class:`DistributedBreakdown` of the last execute (None before).
        self.last_breakdown = None

    # ------------------------------------------------------------------ #
    # point registration
    # ------------------------------------------------------------------ #
    def set_pts(self, x, y=None, z=None):
        """Register the nonuniform points and build each rank's point set.

        Coordinates follow the ``Plan`` convention (one 1-D array per
        dimension, values folded into ``[-pi, pi)``).  Ownership is the
        bin-sort cell of the axis-0 grid coordinate, so points exactly on a
        slab boundary land deterministically in the slab starting there.
        Each rank's points, shifted by ``start - pad_lo`` along axis 0, are
        sorted and stencilled on its padded slab exactly as a ``Plan``
        would on a grid of that shape; the pads cover the kernel's reach,
        so no stencil wraps along axis 0.  A rank takes the set a live plan
        or rank already holds for equal points under the same key
        (:func:`~repro.core.pointset.live_point_set`), so a type-1/type-2
        pair on one trajectory builds each rank's set once.
        """
        coords = validated_point_arrays((x, y, z), self.ndim, _COORD_NAMES)
        grid_coords = [
            to_grid_coordinates(coords[d], self.fine_shape[d])
            for d in range(self.ndim)
        ]
        owned_idx = partition_points_by_slab(grid_coords, self.fine_shape, self.slabs)
        width = self.kernel.width
        pad_lo, _ = halo_pads(width)
        ranks = []
        for slab, idx in zip(self.slabs, owned_idx):
            if idx.shape[0] == 0:
                ranks.append(None)
                continue
            local = [gc[idx] for gc in grid_coords]
            local[0] = local[0] - (slab[0] - pad_lo)
            key = PointSetKey(
                fine_shape=padded_slab_shape(self.fine_shape, slab, width)[1:],
                width=width, beta=self.kernel.beta,
                kernel_eval=self.opts.kernel_eval,
                stencil_budget=self.opts.stencil_budget, bin_shape=self.bin_shape,
                stencils=True, weights=np.dtype(self.precision.real_dtype).name,
            )
            ranks.append((local, key, live_point_set(local, key)))
        self._release_point_sets()
        self._owned_idx = owned_idx
        self.point_sets = [
            None if rank is None
            else (rank[2] or build_point_set(rank[0], rank[1], self.kernel)).hold()
            for rank in ranks
        ]
        self.n_points = coords[0].shape[0]
        self._points_ready = True
        return self

    # ------------------------------------------------------------------ #
    # collective drivers (all ranks live in-process; see SimComm)
    # ------------------------------------------------------------------ #
    def _scatter(self, payloads, root=0):
        received = [None] * self.n_ranks
        received[root] = self._comms[root].scatter(payloads, root=root)
        for r in range(self.n_ranks):
            if r != root:
                received[r] = self._comms[r].scatter(None, root=root)
        return received

    def _gather(self, payloads, root=0):
        for r in range(self.n_ranks):
            if r != root:
                self._comms[r].gather(payloads[r], root=root)
        return self._comms[root].gather(payloads[root], root=root)

    def _comm_mark(self):
        shared = self._comms[0]
        return shared.comm_seconds, shared.comm_bytes

    def _comm_delta(self, mark):
        s, b = self._comm_mark()
        return s - mark[0], b - mark[1]

    # ------------------------------------------------------------------ #
    # halo exchange
    # ------------------------------------------------------------------ #
    def _halo_export(self, padded_blocks):
        """Type-1 halo: ship pad rows to their owners, accumulate everywhere.

        Returns each rank's *unpadded* owned slab ``(n_trans, h_r, ...)``
        with every contribution -- interior, self-wrapped pads (local, free)
        and imported neighbour pads -- accumulated.  Payloads are pure
        ndarrays (row order is structurally determined by
        :func:`~repro.core.slab.halo_row_map`, so no index arrays travel),
        which keeps the charged bytes exactly the slab-boundary volume.
        """
        cplx = self.precision.complex_dtype
        pad_lo, _ = halo_pads(self.kernel.width)
        rest = self.fine_shape[1:]
        own = [
            np.zeros((self.n_trans, stop - start) + rest, dtype=cplx)
            for start, stop in self.slabs
        ]
        row_maps = self._row_maps
        send = [[None] * self.n_ranks for _ in range(self.n_ranks)]
        for r, (start, stop) in enumerate(self.slabs):
            if start == stop:
                continue
            h = stop - start
            rows, owners = row_maps[r]
            blk = padded_blocks[r]
            own[r][...] = blk[:, pad_lo:pad_lo + h]
            for i in range(blk.shape[1]):
                if pad_lo <= i < pad_lo + h:
                    continue
                if owners[i] == r:  # periodic wrap back onto our own slab
                    own[r][:, rows[i] - start] += blk[:, i]
            for d in range(self.n_ranks):
                if d == r:
                    continue
                sel = np.nonzero(owners == d)[0]
                if sel.size:
                    send[r][d] = np.ascontiguousarray(blk[:, sel])
        mark = self._comm_mark()
        recv = exchange_all(self._comms, send)
        halo_s, halo_bytes = self._comm_delta(mark)
        for d, (d_start, d_stop) in enumerate(self.slabs):
            for r in range(self.n_ranks):
                if r == d or recv[d][r] is None:
                    continue
                rows_r, owners_r = row_maps[r]
                sel = np.nonzero(owners_r == d)[0]
                block = recv[d][r]
                for j, i in enumerate(sel):
                    own[d][:, rows_r[i] - d_start] += block[:, j]
        return own, halo_s, halo_bytes

    def _halo_import(self, own):
        """Type-2 halo: fetch the neighbour rows each padded block reads.

        The exact transpose of :meth:`_halo_export` -- rank ``d`` needs every
        padded row of its block, and the rows owned by rank ``r`` travel
        ``r -> d`` in ``d``'s structural row order -- so the traffic volume
        is identical to the export direction (the accounting tests pin both
        against the same analytic formula).  Ranks with empty slabs own no
        points and import nothing.
        """
        cplx = self.precision.complex_dtype
        width = self.kernel.width
        rest = self.fine_shape[1:]
        row_maps = self._row_maps
        send = [[None] * self.n_ranks for _ in range(self.n_ranks)]
        for d, (d_start, d_stop) in enumerate(self.slabs):
            if d_start == d_stop:
                continue
            rows_d, owners_d = row_maps[d]
            for r in range(self.n_ranks):
                if r == d:
                    continue
                sel = np.nonzero(owners_d == r)[0]
                if sel.size:
                    r_start = self.slabs[r][0]
                    send[r][d] = np.ascontiguousarray(
                        own[r][:, rows_d[sel] - r_start]
                    )
        mark = self._comm_mark()
        recv = exchange_all(self._comms, send)
        halo_s, halo_bytes = self._comm_delta(mark)
        padded = []
        for d, (d_start, d_stop) in enumerate(self.slabs):
            h = d_stop - d_start
            if h == 0:
                padded.append(None)
                continue
            rows_d, owners_d = row_maps[d]
            blk = np.empty((self.n_trans, h + width) + rest, dtype=cplx)
            own_sel = np.nonzero(owners_d == d)[0]
            blk[:, own_sel] = own[d][:, rows_d[own_sel] - d_start]
            for r in range(self.n_ranks):
                if r == d or recv[d][r] is None:
                    continue
                sel = np.nonzero(owners_d == r)[0]
                blk[:, sel] = recv[d][r]
            padded.append(blk)
        return padded, halo_s, halo_bytes

    # ------------------------------------------------------------------ #
    # slab-decomposed FFT
    # ------------------------------------------------------------------ #
    def _distributed_fft(self, blocks, forward, ffts):
        """FFT the slab-partitioned fine grid; returns new slab blocks.

        For multi-dimensional grids: local (inverse) FFTs along the fully
        owned axes ``1..d-1`` (row-independent, hence overlappable with the
        halo exchange), an all-to-all transpose to axis-1 column slabs, the
        axis-0 FFT, and the transpose back.  1-D grids fall back to
        gather -> root FFT -> scatter (there is no owned axis to keep local).
        Unnormalized-inverse factors compose exactly: the two stages multiply
        by the sizes of their own axes, whose product is the full grid size.
        """
        cplx_sz = self.precision.complex_itemsize
        local_fft_s = 0.0
        transpose_s = 0.0
        transpose_bytes = 0

        def run(fft, blk, axes):
            return fft.forward(blk, axes=axes) if forward else fft.inverse(blk, axes=axes)

        if self.ndim == 1:
            mark = self._comm_mark()
            gathered = self._gather(blocks)
            full = np.concatenate(gathered, axis=1)
            full = run(ffts[0], full, (1,))
            out = self._scatter([
                np.ascontiguousarray(full[:, start:stop])
                for start, stop in self.slabs
            ])
            dt, db = self._comm_delta(mark)
            return out, local_fft_s, dt, db

        # Stage 1: local FFTs along the fully-owned axes (grid axes 1..d-1).
        owned_axes = tuple(range(2, self.ndim + 1))
        stage1 = []
        for r, blk in enumerate(blocks):
            if blk.size:
                blk = run(ffts[r], blk, owned_axes)
                prof = fft_kernel_profile(blk.shape[2:], cplx_sz).scaled(
                    blk.shape[0] * blk.shape[1]
                )
                t = self._cost_models[r].kernel_time(
                    prof, self.devices[r].contention_factor
                )
                local_fft_s = max(local_fft_s, t)
            stage1.append(blk)

        # Stage 2: all-to-all transpose to axis-1 column slabs.
        col_slabs = slab_partition(self.fine_shape[1], self.n_ranks)
        send = [
            [np.ascontiguousarray(stage1[r][:, :, c0:c1]) for c0, c1 in col_slabs]
            for r in range(self.n_ranks)
        ]
        mark = self._comm_mark()
        recv = exchange_all(self._comms, send)
        dt, db = self._comm_delta(mark)
        transpose_s += dt
        transpose_bytes += db
        stage2 = [np.concatenate(recv[d], axis=1) for d in range(self.n_ranks)]

        # Stage 3: the FFT along the split axis (grid axis 0, now complete).
        for d in range(self.n_ranks):
            if stage2[d].size:
                stage2[d] = run(ffts[d], stage2[d], (1,))

        # Stage 4: transpose back to axis-0 slabs.
        send = [
            [np.ascontiguousarray(stage2[d][:, r0:r1]) for r0, r1 in self.slabs]
            for d in range(self.n_ranks)
        ]
        mark = self._comm_mark()
        recv = exchange_all(self._comms, send)
        dt, db = self._comm_delta(mark)
        transpose_s += dt
        transpose_bytes += db
        out = [np.concatenate(recv[r], axis=2) for r in range(self.n_ranks)]
        return out, local_fft_s, transpose_s, transpose_bytes

    # ------------------------------------------------------------------ #
    # rank-local deconvolution geometry
    # ------------------------------------------------------------------ #
    def _mode_rows(self, rank):
        """Centred-mode positions and fine rows rank-local to ``rank``.

        Returns ``(k_positions, rows_local)``: the indices along the output
        mode axis 0 whose fine-grid row (``k mod nf0``) lives in this rank's
        slab, and those rows shifted into the unpadded local block.
        """
        start, stop = self.slabs[rank]
        idx0 = self.correction._mode_slices()[0]
        mask = (idx0 >= start) & (idx0 < stop)
        return np.nonzero(mask)[0], idx0[mask] - start

    def _mode_factors(self, k_positions, dtype):
        """Broadcast correction factors restricted to the owned mode rows."""
        fac = None
        for d in range(self.ndim):
            f = self.correction.factors[d]
            if d == 0:
                f = f[k_positions]
            shape = [1] * self.ndim
            shape[d] = f.shape[0]
            f = f.reshape(shape)
            fac = f if fac is None else fac * f
        real_dtype = np.real(np.zeros(1, dtype=dtype)).dtype
        return fac.astype(real_dtype, copy=False)

    def _launch(self, pipeline, rank, stage, n_modes=None):
        """Record ``rank``'s kernels of one exec stage, priced as a Plan's.

        One fused launch per kernel for the whole ``n_trans`` block, at the
        rank's resolved method and over its own slab sort
        (:func:`~repro.backends.device_sim.stage_profiles`).
        """
        points = self.point_sets[rank]
        for prof in stage_profiles(
            stage, self._methods[rank], None if points is None else points.sort,
            self.kernel, self.precision, self.opts, self.devices[rank].spec, n_modes,
        ):
            pipeline.add_kernel(prof.scaled(self.n_trans), phase="exec")

    # ------------------------------------------------------------------ #
    # execute
    # ------------------------------------------------------------------ #
    def execute(self, data):
        """Run the distributed transform on one or ``n_trans`` data vectors.

        Type 1 takes strengths ``(M,)`` / ``(n_trans, M)`` and returns mode
        coefficients; type 2 takes mode coefficients and returns point
        values, exactly as :meth:`repro.core.plan.Plan.execute` shapes them.
        The run is fully deterministic -- ranks are driven in a fixed order
        with no threading -- so two executes on identical inputs are
        bit-identical.  Sets :attr:`halo_bytes` and :attr:`last_breakdown`.
        """
        if not self._points_ready:
            raise RuntimeError("set_pts must be called before execute")
        data = np.asarray(data)
        cplx = self.precision.complex_dtype
        single = ((self.n_points,) if self.nufft_type == 1 else self.n_modes)
        if data.shape == single:
            if self.n_trans != 1:
                raise ValueError(
                    f"plan expects n_trans={self.n_trans} stacked inputs of "
                    f"shape {single}"
                )
            batched = False
        elif data.shape == (self.n_trans,) + single:
            batched = True
        else:
            raise ValueError(
                f"data shape {data.shape} does not match expected {single} "
                f"(or ({self.n_trans}, *{single}) for batched transforms)"
            )
        stack = np.ascontiguousarray(
            (data if batched else data[None]).astype(cplx, copy=False)
        )

        pipelines = [PipelineProfile() for _ in range(self.n_ranks)]
        ffts = [DeviceFFT(pipeline=p) for p in pipelines]
        if self.nufft_type == 1:
            out, phases = self._execute_type1(stack, pipelines, ffts)
        else:
            out, phases = self._execute_type2(stack, pipelines, ffts)

        compute_s = 0.0
        for r, pipeline in enumerate(pipelines):
            times = self._cost_models[r].pipeline_times(
                pipeline, contention_factor=self.devices[r].contention_factor
            )
            compute_s = max(compute_s, times["exec"])
        self.halo_bytes = phases["halo_bytes"]
        self.last_breakdown = DistributedBreakdown(
            n_ranks=self.n_ranks,
            compute_s=compute_s,
            scatter_s=phases["scatter_s"],
            halo_s=phases["halo_s"],
            transpose_s=phases["transpose_s"],
            gather_s=phases["gather_s"],
            local_fft_s=phases["local_fft_s"],
            halo_bytes=phases["halo_bytes"],
            transpose_bytes=phases["transpose_bytes"],
        )
        return out if batched else out[0]

    def _execute_type1(self, stack, pipelines, ffts):
        cplx = self.precision.complex_dtype
        # Scatter each rank its owned points' strengths.
        mark = self._comm_mark()
        strengths = self._scatter([
            np.ascontiguousarray(stack[:, idx]) for idx in self._owned_idx
        ])
        scatter_s, _ = self._comm_delta(mark)

        # Local spread onto the padded slabs.
        padded = []
        for r, (slab, points) in enumerate(zip(self.slabs, self.point_sets)):
            if slab[0] == slab[1]:
                padded.append(None)
                continue
            shape = padded_slab_shape(self.fine_shape, slab, self.kernel.width,
                                      self.n_trans)
            if points is None:
                padded.append(np.zeros(shape, dtype=cplx))
                continue
            padded.append(points.spread(strengths[r], np.empty(shape, dtype=cplx)))
            self._launch(pipelines[r], r, "spread")

        own, halo_s, halo_bytes = self._halo_export(padded)
        own, local_fft_s, transpose_s, transpose_bytes = self._distributed_fft(
            own, forward=self.isign < 0, ffts=ffts
        )

        # Rank-local deconvolution of the owned mode rows, then gather.
        payloads = []
        for r in range(self.n_ranks):
            k_positions, rows_local = self._mode_rows(r)
            if k_positions.size == 0:
                payloads.append(None)
                continue
            idx = self.correction._mode_slices()
            sel = [rows_local] + [idx[d] for d in range(1, self.ndim)]
            gathered = own[r][(slice(None),) + np.ix_(*sel)]
            scaled = (gathered * self._mode_factors(k_positions, cplx)).astype(
                cplx, copy=False
            )
            self._launch(pipelines[r], r, "deconvolve", scaled.shape[1:])
            payloads.append((k_positions, scaled))
        mark = self._comm_mark()
        parts = self._gather(payloads)
        gather_s, _ = self._comm_delta(mark)

        out = np.empty((self.n_trans,) + self.n_modes, dtype=cplx)
        for part in parts:
            if part is not None:
                k_positions, scaled = part
                out[:, k_positions] = scaled
        return out, {
            "scatter_s": scatter_s, "halo_s": halo_s,
            "transpose_s": transpose_s, "gather_s": gather_s,
            "local_fft_s": local_fft_s, "halo_bytes": halo_bytes,
            "transpose_bytes": transpose_bytes,
        }

    def _execute_type2(self, stack, pipelines, ffts):
        cplx = self.precision.complex_dtype
        rest = self.fine_shape[1:]
        # Scatter each rank its owned mode rows.
        mark = self._comm_mark()
        mode_blocks = self._scatter([
            np.ascontiguousarray(stack[:, self._mode_rows(r)[0]])
            for r in range(self.n_ranks)
        ])
        scatter_s, _ = self._comm_delta(mark)

        # Rank-local pre-correction onto the owned (unpadded) fine slab.
        own = []
        idx = self.correction._mode_slices()
        for r, (start, stop) in enumerate(self.slabs):
            fine_slab = np.zeros((self.n_trans, stop - start) + rest, dtype=cplx)
            k_positions, rows_local = self._mode_rows(r)
            if k_positions.size:
                sel = [rows_local] + [idx[d] for d in range(1, self.ndim)]
                fine_slab[(slice(None),) + np.ix_(*sel)] = (
                    mode_blocks[r] * self._mode_factors(k_positions, cplx)
                )
                self._launch(pipelines[r], r, "precorrect",
                             (k_positions.size,) + self.n_modes[1:])
            own.append(fine_slab)

        own, local_fft_s, transpose_s, transpose_bytes = self._distributed_fft(
            own, forward=self.isign < 0, ffts=ffts
        )
        padded, halo_s, halo_bytes = self._halo_import(own)

        # Local interpolation at the owned points, then gather by index.
        payloads = []
        for r in range(self.n_ranks):
            idx_r = self._owned_idx[r]
            if idx_r.shape[0] == 0:
                payloads.append(None)
                continue
            values = self.point_sets[r].interp(
                padded[r], np.empty((self.n_trans, idx_r.shape[0]), dtype=cplx)
            )
            self._launch(pipelines[r], r, "interp")
            payloads.append((idx_r, values))
        mark = self._comm_mark()
        parts = self._gather(payloads)
        gather_s, _ = self._comm_delta(mark)

        out = np.empty((self.n_trans, self.n_points), dtype=cplx)
        for part in parts:
            if part is not None:
                idx_r, values = part
                out[:, idx_r] = values
        return out, {
            "scatter_s": scatter_s, "halo_s": halo_s,
            "transpose_s": transpose_s, "gather_s": gather_s,
            "local_fft_s": local_fft_s, "halo_bytes": halo_bytes,
            "transpose_bytes": transpose_bytes,
        }

    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def comm_seconds(self):
        """Total modelled communication seconds accumulated so far."""
        return self._comms[0].comm_seconds

    def _release_point_sets(self):
        for points in self.point_sets or ():
            if points is not None:
                points.release()
        self.point_sets = None
        self._points_ready = False

    def destroy(self):
        """Release the ranks' point sets and the node's device contexts
        (idempotent)."""
        self._release_point_sets()
        self.node.release_all()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.destroy()
        return False
