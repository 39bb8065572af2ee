"""Tests of the execution-backend layer: registry, stage-pipeline equivalence
across backends, and the AUTO method-selection matrix (paper Remark 2 plus the
new 1D rows)."""

import numpy as np
import pytest

from repro import Opts, Plan, Precision, SpreadMethod, relative_l2_error
from repro.backends import (
    ExecutionBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backends.base import _FACTORIES

BACKENDS = ("reference", "cached", "device_sim")


def _make_problem(rng, nufft_type, n_modes, m=700, n_trans=1):
    ndim = len(n_modes)
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    if nufft_type == 1:
        shape = (m,) if n_trans == 1 else (n_trans, m)
    else:
        shape = tuple(n_modes) if n_trans == 1 else (n_trans,) + tuple(n_modes)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return coords, data


class TestRegistry:
    def test_available_backends(self):
        names = available_backends()
        for expected in BACKENDS:
            assert expected in names

    def test_get_backend_shared_instance(self):
        assert get_backend("cached") is get_backend("cached")
        assert get_backend("CACHED") is get_backend("cached")

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            get_backend("definitely-not-a-backend")
        with pytest.raises(ValueError):
            Plan(1, (16, 16), backend="definitely-not-a-backend")

    def test_register_custom_backend(self):
        class EchoBackend(ExecutionBackend):
            name = "echo-test"

        try:
            register_backend("echo-test", EchoBackend)
            assert isinstance(get_backend("echo-test"), EchoBackend)
            assert "echo-test" in available_backends()
        finally:
            _FACTORIES.pop("echo-test", None)

    def test_opts_backend_resolution(self):
        assert Opts().resolve_backend() == "device_sim"
        assert Opts(backend="cached").resolve_backend() == "cached"
        assert Opts(backend=" Reference ").resolve_backend() == "reference"
        with pytest.raises(ValueError):
            Opts(backend="")

    def test_opts_copy_keeps_backend(self):
        assert Opts(backend="cached").copy().backend == "cached"
        assert Opts(backend="cached").copy(backend="reference").backend == "reference"


class TestBackendEquivalence:
    """All backends compute the same transform on shared fixtures."""

    @pytest.mark.parametrize("nufft_type", [1, 2])
    @pytest.mark.parametrize("n_modes", [(18,), (14, 18), (8, 10, 6)])
    def test_types12_match_reference(self, rng, nufft_type, n_modes):
        coords, data = _make_problem(rng, nufft_type, n_modes)
        results = {}
        for backend in BACKENDS:
            with Plan(nufft_type, n_modes, eps=1e-9, precision="double",
                      backend=backend) as plan:
                plan.set_pts(*coords)
                results[backend] = plan.execute(data)
        for backend in ("cached", "device_sim"):
            assert relative_l2_error(results[backend], results["reference"]) < 1e-8

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_type3_matches_reference(self, rng, ndim):
        m, nk = 350, 300
        coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
        targets = [rng.uniform(-25.0, 25.0, nk) for _ in range(ndim)]
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        kw = dict(zip(("s", "t", "u"), targets))
        results = {}
        for backend in BACKENDS:
            with Plan(3, ndim, eps=1e-9, precision="double", backend=backend) as plan:
                plan.set_pts(*coords, **kw)
                results[backend] = plan.execute(c)
        for backend in ("cached", "device_sim"):
            assert relative_l2_error(results[backend], results["reference"]) < 1e-8

    def test_batched_equivalence(self, rng):
        coords, data = _make_problem(rng, 1, (16, 16), n_trans=3)
        results = {}
        for backend in BACKENDS:
            with Plan(1, (16, 16), n_trans=3, eps=1e-8, precision="double",
                      backend=backend) as plan:
                plan.set_pts(*coords)
                results[backend] = plan.execute(data)
        assert results["cached"].shape == (3, 16, 16)
        for backend in ("cached", "device_sim"):
            assert relative_l2_error(results[backend], results["reference"]) < 1e-8

    def test_single_precision_equivalence(self, rng):
        coords, data = _make_problem(rng, 2, (20, 20))
        results = {}
        for backend in BACKENDS:
            with Plan(2, (20, 20), eps=1e-5, precision="single",
                      backend=backend) as plan:
                plan.set_pts(*coords)
                results[backend] = plan.execute(data.astype(np.complex64))
        for backend in ("cached", "device_sim"):
            assert results[backend].dtype == np.complex64
            assert relative_l2_error(results[backend], results["reference"]) < 1e-5


class TestBackendBehaviour:
    def test_profiles_only_on_device_sim(self, rng):
        coords, data = _make_problem(rng, 1, (24, 24))
        for backend, expect_kernels in (("reference", False), ("cached", False),
                                        ("device_sim", True)):
            with Plan(1, (24, 24), eps=1e-5, backend=backend) as plan:
                plan.set_pts(*coords)
                plan.execute(data.astype(np.complex64))
                kernels = plan._exec_pipeline.exec_kernels()
                assert bool(kernels) == expect_kernels
                if expect_kernels:
                    assert plan.timings()["exec"] > 0

    def test_stencil_cache_policy(self, rng):
        coords, _ = _make_problem(rng, 1, (16, 16))
        with Plan(1, (16, 16), backend="reference") as plan:
            plan.set_pts(*coords)
            assert plan.point_set.stencil is None
        # cached and device_sim both build the cache
        for backend in ("cached", "device_sim"):
            with Plan(1, (16, 16), backend=backend) as plan:
                plan.set_pts(*coords)
                assert plan.point_set.stencil is not None

    def test_device_sim_type3_records_inner_kernels(self, rng):
        m = 300
        x = rng.uniform(-np.pi, np.pi, m)
        s = rng.uniform(-20.0, 20.0, m)
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        with Plan(3, 1, eps=1e-6, precision="double", backend="device_sim") as plan:
            plan.set_pts(x, s=s)
            plan.execute(c)
            names = {k.name for k in plan._exec_pipeline.exec_kernels()}
        # outer spread + inner type-2 kernels (fft, precorrect, interp)
        assert any(n.startswith("spread") for n in names)
        assert any(n.startswith("interp") for n in names)
        assert "cufft_inverse" in names
        assert "precorrect" in names


class TestAutoMethodMatrix:
    """Remark 2: AUTO resolution per (type, dim, precision), incl. 1D rows."""

    CASES = [
        # (nufft_type, ndim, precision, expected)
        (1, 1, "single", SpreadMethod.SM),
        (1, 1, "double", SpreadMethod.SM),
        (1, 2, "single", SpreadMethod.SM),
        (1, 2, "double", SpreadMethod.SM),
        (1, 3, "single", SpreadMethod.SM),
        (1, 3, "double", SpreadMethod.GM_SORT),
        (2, 1, "single", SpreadMethod.GM_SORT),
        (2, 1, "double", SpreadMethod.GM_SORT),
        (2, 2, "single", SpreadMethod.GM_SORT),
        (2, 2, "double", SpreadMethod.GM_SORT),
        (2, 3, "single", SpreadMethod.GM_SORT),
        (2, 3, "double", SpreadMethod.GM_SORT),
        (3, 1, "single", SpreadMethod.SM),
        (3, 1, "double", SpreadMethod.SM),
        (3, 2, "single", SpreadMethod.SM),
        (3, 2, "double", SpreadMethod.SM),
        (3, 3, "single", SpreadMethod.SM),
        (3, 3, "double", SpreadMethod.GM_SORT),
    ]

    @pytest.mark.parametrize("nufft_type,ndim,precision,expected", CASES)
    def test_opts_resolution(self, nufft_type, ndim, precision, expected):
        opts = Opts(precision=precision)
        assert opts.resolve_method(nufft_type, ndim) is expected

    @pytest.mark.parametrize("nufft_type,ndim,precision,expected", CASES)
    def test_plan_resolution(self, nufft_type, ndim, precision, expected):
        n_modes = ndim if nufft_type == 3 else (16,) * ndim
        plan = Plan(nufft_type, n_modes, eps=1e-5, precision=precision)
        # moderate accuracy: no shared-memory fallback expected at w=6
        assert plan.method is expected
        plan.destroy()

    def test_sm_shared_memory_fallback_still_applies(self):
        # 3D single at extreme accuracy exceeds the padded-bin budget
        plan = Plan(1, (32, 32, 32), eps=1e-14, precision="single", method="auto")
        assert plan.method is SpreadMethod.GM_SORT
        plan.destroy()

    def test_interp_method_property(self):
        plan = Plan(1, (16, 16), method="SM")
        assert plan.interp_method is SpreadMethod.GM_SORT
        plan.destroy()
        plan = Plan(1, (16, 16), method="GM")
        assert plan.interp_method is SpreadMethod.GM
        plan.destroy()

    def test_precision_enum_accepted(self):
        opts = Opts(precision=Precision.DOUBLE)
        assert opts.resolve_method(1, 3) is SpreadMethod.GM_SORT
