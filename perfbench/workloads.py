"""The benchmark's four workloads.

Each workload is a single-client closed loop: the next operation starts only
after the previous one returned.  Inputs come from
:mod:`repro.workloads.distributions` and depend only on the seed; per-operation
inputs are generated from ``(seed, operation index)`` just before the
operation's timer starts.  A workload keeps the outputs of its first
``n_checks`` operations and spot-checks them against the exact sums of
:mod:`repro.core.exact` after the timed loop.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Plan, nufft2d1
from repro.core.exact import mode_indices, nudft_type2, nudft_type3
from repro.core.errors import relative_l2_error
from repro.service import TransformService
from repro.workloads.distributions import (
    cluster_points,
    mixture_points,
    rand_points,
    strengths,
)

#: Modes (type 1) or targets (type 2) compared with the exact sum per check.
N_SAMPLES = 48


def _rng(seed, *stream):
    return np.random.default_rng([int(seed), *stream])


def _sample_modes(n_modes, rng):
    """``N_SAMPLES`` random mode multi-indices: (array index, frequency)."""
    idx = tuple(rng.integers(0, n, N_SAMPLES) for n in n_modes)
    freqs = [mode_indices(n)[i].astype(np.float64) for n, i in zip(n_modes, idx)]
    return idx, freqs


def type1_error(points, c, out, n_modes, rng, isign=-1):
    """Relative l2 error of a type-1 output over sampled modes.

    The exact type-1 sum at integer modes ``k`` is the type-3 sum at targets
    ``s = k``, which costs ``M * N_SAMPLES`` instead of ``M * prod(n_modes)``.
    """
    idx, freqs = _sample_modes(n_modes, rng)
    exact = nudft_type3(points, c, freqs, isign=isign)
    return relative_l2_error(out[idx], exact)


def type2_error(points, modes, out, rng, isign=1):
    """Relative l2 error of a type-2 output over sampled targets."""
    sel = rng.integers(0, points[0].shape[0], N_SAMPLES)
    exact = nudft_type2([p[sel] for p in points], modes, isign=isign)
    return relative_l2_error(out[sel], exact)


class Workload:
    """One workload: inputs, set-up, the timed operation and its check."""

    name = ""
    why = ""
    #: Nonuniform points x transforms completed by one operation.
    pts_per_op = 1
    #: Reported tail percentile; ``min_ops`` leaves >= 10 samples beyond it.
    tail_pct = 50.0
    #: Operations every run makes, even past its ``--seconds``.
    min_ops = 20
    #: Consecutive operations per traced or untraced block in a traced run.
    trace_block = 1
    #: Leading operations whose outputs are spot-checked.
    n_checks = 2
    #: Relative l2 error above which a checked output counts as failed.
    tol = 1e-5

    def __init__(self, seed):
        self.seed = int(seed)
        self.kept = []
        #: Operations that ran warm (no ``set_pts``); only the service says.
        self.warm_ops = set()

    def setup(self):
        """Build the state the timed operations run on."""

    def prepare(self, i):
        """Arguments of operation ``i`` (generated outside its timer)."""
        return None

    def op(self, args):
        """The timed call; returns its output."""
        raise NotImplementedError

    def keep(self, i, args, out):
        """Remember what the check of operation ``i`` needs."""
        if i < self.n_checks:
            self.kept.append((i, args, out))

    def errors(self):
        """``[(label, relative error)]`` of every kept 2D type-1 output."""
        return [(f"op{i} type1", type1_error([x, y], c, out, self.n_modes, _rng(0, i)))
                for i, (x, y, c), out in self.kept]

    def model_exec_ns_per_pt(self):
        """Modelled V100 execute ns per point of one operation."""
        raise NotImplementedError

    def close(self):
        """Drop the state of :meth:`setup`."""


class OneShot2D1(Workload):
    name = "oneshot-2d1"
    why = ("one-shot nufft2d1 on fresh rand points per call (M=2^16, 128^2, single): "
           "set_pts (bin sort, Horner, stencil/CSR build) is most of the work")
    M = 1 << 16
    n_modes = (128, 128)
    eps = 1e-6
    pts_per_op = M
    tail_pct = 90.0
    min_ops = 100
    n_checks = 3

    def prepare(self, i):
        rng = _rng(self.seed, 1, i)
        x, y = rand_points(self.M, 2, rng)
        return x, y, strengths(self.M, rng, dtype=np.complex64)

    def setup(self):
        # A warm-up call pays the process-level caches (Horner fit, FFT).
        self.op(self.prepare(0))

    def op(self, args):
        x, y, c = args
        return nufft2d1(x, y, c, self.n_modes, eps=self.eps)

    def model_exec_ns_per_pt(self):
        x, y, c = self.prepare(0)
        plan = Plan(1, self.n_modes, eps=self.eps, precision="single")
        plan.set_pts(x, y)
        plan.execute(c)
        ns = plan.ns_per_point()
        plan.execute(c)
        if plan.ns_per_point() != ns:
            raise AssertionError("modelled execute time is not deterministic")
        plan.destroy()
        return ns


class _PlanPair(Workload):
    """An A^H A step: one type-1 then one type-2 execute on shared points."""

    n_trans = 1
    out = False

    def __init__(self, seed):
        super().__init__(seed)
        rng = _rng(self.seed, 0)
        with Plan(1, self.n_modes, eps=self.eps, precision=self.precision) as probe:
            self.pts = self.points(rng, probe.fine_shape)
            dtype = probe.precision.complex_dtype
        shape = (self.n_trans, self.M) if self.n_trans > 1 else (self.M,)
        self.c = np.stack([strengths(self.M, rng, dtype=dtype)
                           for _ in range(self.n_trans)]).reshape(shape)

    def points(self, rng, fine_shape):
        raise NotImplementedError

    def setup(self):
        self.t1 = Plan(1, self.n_modes, n_trans=self.n_trans, eps=self.eps,
                       precision=self.precision)
        self.t2 = Plan(2, self.n_modes, n_trans=self.n_trans, eps=self.eps,
                       precision=self.precision)
        self.t1.set_pts(*self.pts)
        self.t2.set_pts(*self.pts)
        self.buffers = None
        if self.out:
            self.buffers = (np.empty((self.n_trans,) + self.n_modes, self.c.dtype),
                            np.empty((self.n_trans, self.M), self.c.dtype))
        self.op(None)

    def op(self, args):
        if self.buffers is None:
            f = self.t1.execute(self.c)
            return f, self.t2.execute(f)
        f, c = self.buffers
        self.t1.execute(self.c, out=f)
        self.t2.execute(f, out=c)
        return f, c

    def keep(self, i, args, out):
        if i < self.n_checks:
            self.kept.append((i, args, tuple(a.copy() for a in out)))

    def errors(self):
        rows = []
        c = self.c.reshape(self.n_trans, self.M)
        for i, _, (f, back) in self.kept:
            f = f.reshape((self.n_trans,) + self.n_modes)
            back = back.reshape(self.n_trans, self.M)
            for t in range(self.n_trans):
                rng = _rng(0, i, t)
                rows.append((f"op{i} t{t} type1",
                             type1_error(self.pts, c[t], f[t], self.n_modes, rng)))
                rows.append((f"op{i} t{t} type2",
                             type2_error(self.pts, f[t], back[t], rng)))
        return rows

    def _exec_ns(self):
        seconds = self.t1.timings()["exec"] + self.t2.timings()["exec"]
        return 1e9 * seconds / self.pts_per_op

    def model_exec_ns_per_pt(self):
        ns = self._exec_ns()
        self.op(None)
        if self._exec_ns() != ns:
            raise AssertionError("modelled execute time is not deterministic")
        return ns

    def close(self):
        for plan in (getattr(self, "t1", None), getattr(self, "t2", None)):
            if plan is not None:
                plan.destroy()


class Iterate3DDouble(_PlanPair):
    name = "iterate-3d-double"
    why = ("the paper's 1e-12 3D M-TIP/CG step (type 1 then type 2, n_trans=4, "
           "out=): CSR spread and interp; set_pts is paid once, in set-up")
    M = 8192
    n_modes = (24, 24, 24)
    eps = 1e-12
    precision = "double"
    n_trans = 4
    out = True
    pts_per_op = 2 * n_trans * M
    tail_pct = 75.0
    min_ops = 40
    n_checks = 1
    tol = 1e-10

    def points(self, rng, fine_shape):
        return mixture_points(self.M, 3, rng)


class Large3DCluster(_PlanPair):
    name = "large-3d-cluster"
    why = ("paper-scale clustered 3D points (M=2^17, 32^3) past the stencil budget: "
           "no CSR operator, the chunked SM spread and GM-sort interp do the work")
    M = 1 << 17
    n_modes = (32, 32, 32)
    eps = 1e-6
    precision = "single"
    pts_per_op = 2 * M
    tail_pct = 50.0
    min_ops = 20
    n_checks = 1

    def points(self, rng, fine_shape):
        return cluster_points(self.M, fine_shape, rng)


class Serve2D1(Workload):
    name = "serve-2d1"
    why = ("pooled TransformService requests (M=4096, 48^2), pool at capacity, 7 of "
           "8 on 4 hot point sets: pool churn, validation, digest, dispatch")
    M = 4096
    n_modes = (48, 48)
    n_hot = 4
    fresh_every = 8
    warmup_requests = 320
    pts_per_op = M
    tail_pct = 99.0
    min_ops = 1000
    trace_block = 8
    n_checks = 16

    def __init__(self, seed):
        super().__init__(seed)
        rng = _rng(self.seed, 0)
        self.hot = [rand_points(self.M, 2, rng) for _ in range(self.n_hot)]
        self.service = None
        self.model_exec = []

    def request(self, i, stream):
        rng = _rng(self.seed, stream, i)
        if i % self.fresh_every == self.fresh_every - 1:
            x, y = rand_points(self.M, 2, rng)
        else:
            # The hot-set order does not depend on the seed, so the pool sees
            # the same key sequence under every seed; only coordinates change.
            x, y = self.hot[int(_rng(0, stream, i).integers(self.n_hot))]
        return x, y, strengths(self.M, rng, dtype=np.complex64)

    def setup(self):
        self.close()
        self.service = TransformService()
        for i in range(self.warmup_requests):
            self.op(self.request(i, 2))

    def prepare(self, i):
        return self.request(i, 1)

    def op(self, args):
        x, y, c = args
        self.service.submit(nufft_type=1, n_modes=self.n_modes, data=c, x=x, y=y)
        (result,) = self.service.flush()
        if result.error is not None:
            raise result.error
        return result

    def keep(self, i, args, out):
        if out.setpts_reused:
            self.warm_ops.add(i)
            if i < self.min_ops:
                self.model_exec.append(out.modelled_seconds["exec"])
        if i < self.n_checks:
            self.kept.append((i, args, out.output))

    def model_exec_ns_per_pt(self):
        if not self.model_exec:
            raise AssertionError("no warm request among the first min_ops operations")
        return 1e9 * float(np.median(self.model_exec)) / self.M

    def bare_execute_p50_s(self):
        """Median wall time of a bare ``Plan.execute`` of a warm hot request."""
        x, y, c = self.request(0, 1)
        plan = Plan(1, self.n_modes, precision="single")
        plan.set_pts(*self.hot[0])
        plan.execute(c)
        times = []
        for _ in range(200):
            t0 = time.perf_counter()
            plan.execute(c)
            times.append(time.perf_counter() - t0)
        plan.destroy()
        return float(np.median(times))

    def close(self):
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (OneShot2D1, Iterate3DDouble, Large3DCluster, Serve2D1)}
