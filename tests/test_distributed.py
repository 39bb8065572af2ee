"""Property-based distributed-equivalence suite for the multi-node NUFFT.

The headline contract of :class:`repro.cluster.distributed.DistributedPlan`:
for every seeded configuration -- dimension x transform type x precision x
rank count x point distribution -- the domain-decomposed execution matches a
single-node :class:`~repro.core.plan.Plan` within ``10 * eps``, the halo
traffic the SimComm counters measured equals the analytic halo-volume
formula *exactly* (byte-for-byte, not approximately), and re-running the
same seed is bit-identical.

The parametrized sweep below is the ">= 200 seeded cases" acceptance gate:
3 dims x 2 types x 2 precisions x 4 rank counts x 5 distributions = 240
cases, each on its own seed, run once at the default stencil budget (the
ranks' CSR operators) and once at ``stencil_budget=0`` (the windowed engine
on every rank and on the reference plan, ids ending ``-windowed``).  The
rank-8 paper-scale sweeps are marked ``slow`` (opt-in via ``--runslow``);
the default matrix already covers rank 8 at small sizes.
"""

import numpy as np
import pytest

from repro.cluster import DistributedPlan
from repro.core.gridsize import fine_grid_shape
from repro.core.plan import Plan
from repro.core.slab import (
    analytic_halo_bytes,
    halo_pads,
    halo_row_map,
    padded_slab_shape,
    partition_points_by_slab,
    slab_owner,
    slab_partition,
)
from repro.kernels import ESKernel

TWO_PI = 2.0 * np.pi

#: Per-precision tolerances paired per-case below; single precision cannot
#: resolve below its roundoff floor, so its eps choices sit well above it.
_EPS_CHOICES = {"single": (1e-3, 1e-4), "double": (1e-6, 1e-9)}

_DISTRIBUTIONS = ("uniform", "uniform-b", "uniform-c", "clustered", "boundary")


def _case_matrix():
    """240 seeded cases (dims x types x precisions x ranks x distributions),
    each at the default stencil budget (``None``) and then at 0."""
    cases = []
    cid = 0
    for ndim in (1, 2, 3):
        for nufft_type in (1, 2):
            for precision in ("single", "double"):
                for n_ranks in (1, 2, 4, 8):
                    for dist in _DISTRIBUTIONS:
                        cases.append((cid, ndim, nufft_type, precision,
                                      n_ranks, dist, None))
                        cid += 1
    return cases + [case[:-1] + (0,) for case in cases]


CASES = _case_matrix()


def _case_id(case):
    cid, ndim, nufft_type, precision, n_ranks, dist, budget = case
    suffix = "" if budget is None else "-windowed"
    return f"c{cid:03d}-{ndim}d-t{nufft_type}-{precision}-p{n_ranks}-{dist}{suffix}"


def _budget_opts(case):
    """The case's ``stencil_budget`` override, for both plans."""
    return {} if case[-1] is None else {"stencil_budget": case[-1]}


def _coords_for(rng, ndim, m, dist, n_modes, eps, n_ranks):
    """Seeded nonuniform points exercising one ownership distribution.

    ``clustered`` piles every point into a single randomly chosen slab
    (maximally imbalanced ownership); ``boundary`` places the axis-0
    coordinate exactly on slab-boundary grid rows, pinning the deterministic
    floor-based ownership rule.  Axes 1.. stay uniform throughout.
    """
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    if dist.startswith("uniform"):
        return coords
    kernel = ESKernel.from_tolerance(eps)
    nf0 = fine_grid_shape(n_modes, kernel.width)[0]
    slabs = slab_partition(nf0, n_ranks)
    if dist == "clustered":
        nonempty = [s for s in slabs if s[0] < s[1]]
        start, stop = nonempty[int(rng.integers(len(nonempty)))]
        rows = rng.uniform(start, stop, m)
    else:  # boundary: exact slab-boundary grid rows
        starts = np.array(sorted({s for s, e in slabs if s < e}),
                          dtype=np.float64)
        rows = starts[rng.integers(starts.size, size=m)]
    coords[0] = rows * (TWO_PI / nf0)  # grid rows -> periodic coords [0, 2pi)
    return coords


def _build_case(case):
    """Seeded problem instance (modes, eps, coords, data) for one case."""
    cid, ndim, nufft_type, precision, n_ranks, dist, _budget = case
    rng = np.random.default_rng(90_000 + cid)
    if ndim == 1:
        n_modes = (int(rng.integers(24, 40)),)
        m = 300
    elif ndim == 2:
        n_modes = tuple(int(n) for n in rng.integers(10, 16, size=2))
        m = 400
    else:
        n_modes = tuple(int(n) for n in rng.integers(6, 10, size=3))
        m = 500
    eps = _EPS_CHOICES[precision][cid % 2]
    coords = _coords_for(rng, ndim, m, dist, n_modes, eps, n_ranks)
    shape = (m,) if nufft_type == 1 else n_modes
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return n_modes, eps, coords, data


def _run_distributed(case, check_halo=True):
    """One distributed execution; returns (output, breakdown)."""
    cid, ndim, nufft_type, precision, n_ranks, dist, _budget = case
    n_modes, eps, coords, data = _build_case(case)
    with DistributedPlan(nufft_type, n_modes, n_ranks=n_ranks, eps=eps,
                         precision=precision, **_budget_opts(case)) as dplan:
        dplan.set_pts(*coords)
        out = dplan.execute(data)
        if check_halo:
            expected = analytic_halo_bytes(
                dplan.fine_shape, n_ranks, dplan.kernel.width,
                dplan.precision.complex_itemsize,
            )
            assert dplan.halo_bytes == expected, (
                f"measured halo bytes {dplan.halo_bytes} != analytic "
                f"{expected} for {_case_id(case)}"
            )
        return out, dplan.last_breakdown


def _run_reference(case):
    cid, ndim, nufft_type, precision, n_ranks, dist, _budget = case
    n_modes, eps, coords, data = _build_case(case)
    plan = Plan(nufft_type, n_modes, eps=eps, precision=precision,
                **_budget_opts(case))
    try:
        plan.set_pts(*coords)
        return plan.execute(data)
    finally:
        plan.destroy()


# --------------------------------------------------------------------- #
# the headline property sweep (240 seeded cases)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_distributed_equivalence(case):
    """Distributed == single plan within 10*eps; halo bytes exact."""
    _n_modes, eps, _coords, _data = _build_case(case)
    out, breakdown = _run_distributed(case)
    ref = _run_reference(case)
    assert out.shape == ref.shape
    assert out.dtype == ref.dtype
    err = np.linalg.norm(out - ref) / np.linalg.norm(ref)
    assert err <= 10.0 * eps, (
        f"{_case_id(case)}: distributed deviates from the single plan by "
        f"{err:.3e} > 10*eps = {10 * eps:.1e}"
    )
    assert breakdown.makespan_s > 0.0
    assert breakdown.comm_s >= 0.0
    assert breakdown.overlap_s <= min(breakdown.halo_s, breakdown.local_fft_s) + 1e-18


# --------------------------------------------------------------------- #
# determinism: same seed -> bit-identical outputs and accounting
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("case", [CASES[i] for i in (3, 37, 101, 158, 214, 239,
                                                     341, 479)],
                         ids=_case_id)
def test_distributed_bit_identical_across_runs(case):
    """Two fresh plans on the same seeded problem agree bit-for-bit."""
    out1, b1 = _run_distributed(case, check_halo=False)
    out2, b2 = _run_distributed(case, check_halo=False)
    assert np.array_equal(out1, out2), "same-seed reruns diverged bitwise"
    assert b1 == b2, "same-seed reruns produced different modelled breakdowns"


# --------------------------------------------------------------------- #
# halo accounting against a hand-computed volume
# --------------------------------------------------------------------- #
def test_analytic_halo_bytes_hand_computed():
    """Pin the formula to a case small enough to count rows by hand.

    ``n0=16`` over 4 ranks gives slabs of height 4; a width-5 kernel pads
    ``(2, 3)`` rows, and with height-4 neighbours every one of the 5 pad
    rows of each rank lands on a *different* rank: 4 ranks x 5 rows, each
    row ``12 * itemsize`` bytes.
    """
    itemsize = 8  # complex64
    assert halo_pads(5) == (2, 3)
    expected = 4 * 5 * 12 * itemsize
    assert analytic_halo_bytes((16, 12), 4, 5, itemsize) == expected
    # n_trans scales rows linearly; a single rank wraps everything onto
    # itself and ships nothing.
    assert analytic_halo_bytes((16, 12), 4, 5, itemsize, n_trans=3) == 3 * expected
    assert analytic_halo_bytes((16, 12), 1, 5, itemsize) == 0


def test_measured_halo_bytes_match_hand_computed_case():
    """End to end: the SimComm counter lands on the hand-computed volume."""
    rng = np.random.default_rng(7)
    m = 200
    x = rng.uniform(-np.pi, np.pi, m)
    y = rng.uniform(-np.pi, np.pi, m)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    with DistributedPlan(1, (8, 6), n_ranks=4, eps=1e-4,
                         precision="single") as dplan:
        assert dplan.fine_shape == (16, 12)
        assert dplan.kernel.width == 5
        dplan.set_pts(x, y)
        dplan.execute(c)
        assert dplan.halo_bytes == 4 * 5 * 12 * 8


# --------------------------------------------------------------------- #
# degenerate partitions and batched execution
# --------------------------------------------------------------------- #
def test_more_ranks_than_rows_leaves_empty_slabs_working():
    """n_ranks > nf0: empty slabs own nothing and ship nothing, yet the
    transform still matches the single plan."""
    rng = np.random.default_rng(11)
    m = 150
    x = rng.uniform(-np.pi, np.pi, m)
    y = rng.uniform(-np.pi, np.pi, m)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    n_ranks = 24
    with DistributedPlan(1, (2, 3), n_ranks=n_ranks, eps=1e-6,
                         precision="double") as dplan:
        assert dplan.fine_shape[0] < n_ranks  # genuinely more ranks than rows
        assert any(start == stop for start, stop in dplan.slabs)
        dplan.set_pts(x, y)
        out = dplan.execute(c)
        assert dplan.halo_bytes == analytic_halo_bytes(
            dplan.fine_shape, n_ranks, dplan.kernel.width,
            dplan.precision.complex_itemsize,
        )
    plan = Plan(1, (2, 3), eps=1e-6, precision="double")
    plan.set_pts(x, y)
    ref = plan.execute(c)
    plan.destroy()
    assert np.linalg.norm(out - ref) / np.linalg.norm(ref) <= 1e-5


def test_distributed_batched_n_trans():
    """Batched (n_trans > 1) distributed execution matches the batched plan
    and scales the halo volume by n_trans."""
    rng = np.random.default_rng(23)
    m, n_trans, modes = 500, 3, (12, 14)
    x = rng.uniform(-np.pi, np.pi, m)
    y = rng.uniform(-np.pi, np.pi, m)
    c = rng.standard_normal((n_trans, m)) + 1j * rng.standard_normal((n_trans, m))
    with DistributedPlan(1, modes, n_ranks=4, n_trans=n_trans, eps=1e-9,
                         precision="double") as dplan:
        dplan.set_pts(x, y)
        out = dplan.execute(c)
        assert dplan.halo_bytes == analytic_halo_bytes(
            dplan.fine_shape, 4, dplan.kernel.width,
            dplan.precision.complex_itemsize, n_trans=n_trans,
        )
    plan = Plan(1, modes, n_trans=n_trans, eps=1e-9, precision="double")
    plan.set_pts(x, y)
    ref = plan.execute(c)
    plan.destroy()
    assert out.shape == ref.shape == (n_trans,) + modes
    assert np.linalg.norm(out - ref) / np.linalg.norm(ref) <= 1e-8


def test_type1_type2_pair_builds_each_rank_set_once():
    """A type-1 and a type-2 plan on equal points share every rank's set,
    re-pointing or destroying one leaves the other's, and the pair's
    outputs are bit-identical to plans that built their own sets."""
    rng = np.random.default_rng(29)
    m, modes = 600, (12, 14)
    x, y = (rng.uniform(-np.pi, np.pi, m) for _ in range(2))
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    expected = []
    for nufft_type in (1, 2):
        with DistributedPlan(nufft_type, modes, n_ranks=3, eps=1e-9,
                             precision="double") as alone:
            alone.set_pts(x, y)
            expected.append(alone.execute(c if nufft_type == 1 else expected[0]))
    t1 = DistributedPlan(1, modes, n_ranks=3, eps=1e-9, precision="double")
    t2 = DistributedPlan(2, modes, n_ranks=3, eps=1e-9, precision="double")
    t1.set_pts(x, y)
    t2.set_pts(x.copy(), y.copy())
    sets = t1.point_sets
    assert all(s is not None for s in sets)
    assert all(a is b for a, b in zip(t2.point_sets, sets))
    assert all(s.holders == 2 for s in sets)
    assert np.array_equal(t1.execute(c), expected[0])
    assert np.array_equal(t2.execute(expected[0]), expected[1])
    t1.set_pts(*(rng.uniform(-np.pi, np.pi, m) for _ in range(2)))
    assert all(s.holders == 1 for s in sets)
    assert np.array_equal(t2.execute(expected[0]), expected[1])
    for plan in (t1, t2):
        plan.destroy()
    assert all(s.holders == 0 for s in sets)
    assert t2.point_sets is None


def test_type3_rejected():
    with pytest.raises(ValueError, match="type"):
        DistributedPlan(3, (16,), n_ranks=2)


@pytest.mark.parametrize("field, kwargs", [
    ("n_ranks", {"n_ranks": 2.7}),
    ("n_ranks", {"n_ranks": "3"}),
    ("n_trans", {"n_ranks": 2, "n_trans": 2.5}),
], ids=["n_ranks-2.7", "n_ranks-str", "n_trans-2.5"])
def test_counts_rejected_by_name(field, kwargs):
    """Rank and transform counts are integral counts, never truncated."""
    with pytest.raises(ValueError, match=f"^{field} must be an integral count"):
        DistributedPlan(1, (16, 16), **kwargs)


# --------------------------------------------------------------------- #
# slab geometry unit properties
# --------------------------------------------------------------------- #
def test_slab_partition_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        p = int(rng.integers(1, 17))
        slabs = slab_partition(n, p)
        assert len(slabs) == p
        assert slabs[0][0] == 0 and slabs[-1][1] == n
        heights = [stop - start for start, stop in slabs]
        assert all(h >= 0 for h in heights)
        assert sum(heights) == n
        assert max(heights) - min(heights) <= 1  # balanced
        for (a0, a1), (b0, b1) in zip(slabs, slabs[1:]):
            assert a1 == b0  # contiguous
        for row in range(n):
            start, stop = slabs[slab_owner(row, slabs)]
            assert start <= row < stop


def test_halo_pads_cover_kernel_reach_exactly():
    """The pads are the kernel's exact reach.

    The spreader's stencil starts at ``i0 = ceil(g - w/2)`` (see
    :func:`repro.core.spread.compute_kernel_stencil`); over all fractional
    offsets of ``g`` within its cell, the rows touched relative to the cell
    span exactly ``[-pad_lo, pad_hi]`` -- both extremes attained, so the
    pads are tight: one row less would truncate a stencil, one more would
    never be written.
    """
    for width in range(1, 17):
        pad_lo, pad_hi = halo_pads(width)
        assert pad_lo + pad_hi == width
        reach_lo, reach_hi = 0, 0
        for frac in np.linspace(0.0, 1.0, 257, endpoint=False):
            i0 = int(np.ceil(frac - width / 2.0))  # first stencil row offset
            reach_lo = min(reach_lo, i0)
            reach_hi = max(reach_hi, i0 + width - 1)
        assert reach_lo == -pad_lo
        assert reach_hi == pad_hi


def test_partition_points_is_a_permutation():
    rng = np.random.default_rng(5)
    m, nf0 = 1000, 24
    g0 = rng.uniform(0.0, nf0, m)
    slabs = slab_partition(nf0, 5)
    parts = partition_points_by_slab([g0], (nf0, 8), slabs)
    joined = np.concatenate(parts)
    assert np.array_equal(np.sort(joined), np.arange(m))
    for r, idx in enumerate(parts):
        start, stop = slabs[r]
        cells = np.floor(g0[idx]).astype(np.int64)
        assert np.all((cells >= start) & (cells < stop))


def test_boundary_points_owned_by_starting_slab():
    """A point exactly on a slab boundary belongs to the slab starting there."""
    slabs = slab_partition(16, 4)  # boundaries at 0, 4, 8, 12
    g0 = np.array([0.0, 4.0, 8.0, 12.0])
    parts = partition_points_by_slab([g0], (16,), slabs)
    for r in range(4):
        assert np.array_equal(parts[r], [r])


def test_halo_row_map_consistency():
    fine_shape = (20, 6)
    width = 7
    slabs = slab_partition(fine_shape[0], 4)
    pad_lo, pad_hi = halo_pads(width)
    for rank in range(4):
        start, stop = slabs[rank]
        rows, owners = halo_row_map(fine_shape, slabs, rank, width)
        assert rows.shape == owners.shape == (pad_lo + (stop - start) + pad_hi,)
        # interior rows map to themselves and are owned by this rank
        interior = rows[pad_lo:pad_lo + (stop - start)]
        assert np.array_equal(interior, np.arange(start, stop))
        assert np.all(owners[pad_lo:pad_lo + (stop - start)] == rank)
        for g, o in zip(rows, owners):
            s, e = slabs[o]
            assert s <= g < e


def test_padded_slab_shape():
    assert padded_slab_shape((16, 12), (4, 8), 5) == (1, 2 + 4 + 3, 12)
    assert padded_slab_shape((16, 12, 10), (0, 4), 8, n_trans=2) == (2, 4 + 4 + 4, 12, 10)


# --------------------------------------------------------------------- #
# serving-layer integration: oversized requests route across ranks
# --------------------------------------------------------------------- #
class TestServiceRouting:
    def _problem(self, m=2500, modes=(14, 12)):
        rng = np.random.default_rng(31)
        x = rng.uniform(-np.pi, np.pi, m)
        y = rng.uniform(-np.pi, np.pi, m)
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return x, y, c, modes

    def test_flush_routes_oversized_requests(self):
        from repro.service import TransformService
        from repro.service.request import TransformRequest

        x, y, c, modes = self._problem()
        svc = TransformService(n_devices=2, distributed_threshold_points=1000)
        svc.submit(TransformRequest(1, modes, c[:200], x[:200], y[:200],
                                    eps=1e-9, precision="double", tag="small"))
        svc.submit(TransformRequest(1, modes, c, x, y,
                                    eps=1e-9, precision="double", tag="big"))
        small, big = svc.flush()
        assert small.tag == "small" and small.device_id >= 0
        assert big.tag == "big" and big.device_id == -1
        assert big.error is None
        assert svc.stats.distributed_requests == 1
        assert {"makespan", "comm", "halo_bytes"} <= set(big.modelled_seconds)

        plan = Plan(1, modes, eps=1e-9, precision="double")
        plan.set_pts(x, y)
        ref = plan.execute(c)
        plan.destroy()
        assert np.linalg.norm(big.output - ref) / np.linalg.norm(ref) <= 1e-8

    def test_execute_distributed_direct_and_type3_rejected(self):
        from repro.service import TransformService

        x, y, c, modes = self._problem(m=800)
        svc = TransformService(n_devices=1)
        res = svc.execute_distributed(nufft_type=1, n_modes=modes, data=c,
                                      x=x, y=y, eps=1e-9, precision="double",
                                      n_ranks=3)
        assert res.error is None and res.device_id == -1
        assert res.modelled_seconds["n_ranks"] == 3.0
        with pytest.raises(ValueError, match="type"):
            svc.execute_distributed(
                nufft_type=3, n_modes=(16,), data=c, x=x,
                s=np.linspace(-3, 3, 20), eps=1e-6, precision="double",
            )

    def test_threshold_disabled_keeps_fleet_path(self):
        from repro.service import TransformService
        from repro.service.request import TransformRequest

        x, y, c, modes = self._problem()
        svc = TransformService(n_devices=1)  # no threshold configured
        [res] = svc.run([TransformRequest(1, modes, c, x, y, eps=1e-9,
                                          precision="double")])
        assert res.device_id >= 0
        assert svc.stats.distributed_requests == 0


# --------------------------------------------------------------------- #
# opt-in rank-8 paper-scale sweeps
# --------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.parametrize("nufft_type", [1, 2])
def test_rank8_large_sweep(nufft_type):
    """Rank-8 sweep at a paper-like 3D size (opt-in: --runslow)."""
    rng = np.random.default_rng(600 + nufft_type)
    m, modes, eps = 50_000, (32, 32, 32), 1e-9
    x, y, z = (rng.uniform(-np.pi, np.pi, m) for _ in range(3))
    shape = (m,) if nufft_type == 1 else modes
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    with DistributedPlan(nufft_type, modes, n_ranks=8, eps=eps,
                         precision="double") as dplan:
        dplan.set_pts(x, y, z)
        out = dplan.execute(data)
        assert dplan.halo_bytes == analytic_halo_bytes(
            dplan.fine_shape, 8, dplan.kernel.width,
            dplan.precision.complex_itemsize,
        )
    plan = Plan(nufft_type, modes, eps=eps, precision="double")
    plan.set_pts(x, y, z)
    ref = plan.execute(data)
    plan.destroy()
    assert np.linalg.norm(out - ref) / np.linalg.norm(ref) <= 10 * eps
