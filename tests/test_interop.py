"""Tests of the upstream-compatible ``repro.finufft`` / ``repro.cufinufft``
facades: parity with the native API, upstream defaults, opts mapping, and the
baselines-registry adapters."""

import numpy as np
import pytest

import repro.core.simple as simple
import repro.cufinufft as cufinufft
import repro.finufft as finufft
from repro import Plan as NativePlan
from repro.baselines import available_libraries, get_library


def _points(rng, ndim, m=500):
    return [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]


def _targets(rng, ndim, nk=40):
    return [rng.uniform(-20, 20, nk) for _ in range(ndim)]


def _strengths(rng, m, dtype):
    return (rng.standard_normal(m) + 1j * rng.standard_normal(m)).astype(dtype)


MODES = {1: (24,), 2: (14, 12), 3: (8, 8, 6)}


def _call_opts(nufft_type, coords, targets=(), n_modes=None):
    """The options a simple call at eps 1e-6 plans with beyond the caller's:
    no CSR operator where the windowed engine pays (here: 2D type 1 and 2D/3D
    type 2; the 3D type-1 and the type-3 points are too sparse)."""
    skip = simple.skips_operator(nufft_type, coords, targets, n_modes, 1e-6)
    return {"stencil_budget": 0} if skip else {}


class TestSimpleCallParity:
    """Each of the nine simple calls is bit-identical to the native API at
    matching isign (upstream defaults: +1 for types 1/3, -1 for type 2)."""

    @pytest.mark.parametrize("module,dtype", [
        (finufft, np.complex128), (cufinufft, np.complex64)])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_type1(self, rng, module, dtype, ndim):
        coords = _points(rng, ndim)
        c = _strengths(rng, 500, dtype)
        fn = getattr(module, f"nufft{ndim}d1")
        got = fn(*coords, c, MODES[ndim])
        native = NativePlan(1, MODES[ndim], eps=1e-6, isign=+1,
                            precision="single" if dtype == np.complex64
                            else "double", **_call_opts(1, coords, n_modes=MODES[ndim]))
        native.set_pts(*coords)
        assert np.array_equal(got, native.execute(c))
        native.destroy()

    @pytest.mark.parametrize("module,dtype", [
        (finufft, np.complex128), (cufinufft, np.complex64)])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_type2(self, rng, module, dtype, ndim):
        coords = _points(rng, ndim)
        modes = _strengths(rng, int(np.prod(MODES[ndim])),
                           dtype).reshape(MODES[ndim])
        fn = getattr(module, f"nufft{ndim}d2")
        got = fn(*coords, modes)
        native = NativePlan(2, MODES[ndim], eps=1e-6, isign=-1,
                            precision="single" if dtype == np.complex64
                            else "double", **_call_opts(2, coords))
        native.set_pts(*coords)
        assert np.array_equal(got, native.execute(modes))
        native.destroy()

    @pytest.mark.parametrize("module,dtype", [
        (finufft, np.complex128), (cufinufft, np.complex64)])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_type3(self, rng, module, dtype, ndim):
        coords = _points(rng, ndim)
        targets = _targets(rng, ndim)
        c = _strengths(rng, 500, dtype)
        fn = getattr(module, f"nufft{ndim}d3")
        got = fn(*coords, c, *targets)
        native = NativePlan(3, ndim, eps=1e-6, isign=+1,
                            precision="single" if dtype == np.complex64
                            else "double", **_call_opts(3, coords, targets))
        native.set_pts(*coords, **dict(zip("stu", targets)))
        assert np.array_equal(got, native.execute(c))
        native.destroy()

    def test_simple_out_and_isign_override(self, rng):
        x, y = _points(rng, 2)
        c = _strengths(rng, 500, np.complex64)
        out = np.empty(MODES[2], dtype=np.complex64)
        got = cufinufft.nufft2d1(x, y, c, MODES[2], out=out, isign=-1)
        assert got is out
        native = NativePlan(1, MODES[2], eps=1e-6, isign=-1,
                            precision="single", **_call_opts(1, (x, y), n_modes=MODES[2]))
        native.set_pts(x, y)
        assert np.array_equal(out, native.execute(c))
        native.destroy()

    def test_finufft_n_modes_inferred_from_out(self, rng):
        x, y = _points(rng, 2)
        c = _strengths(rng, 500, np.complex128)
        out = np.empty(MODES[2], dtype=np.complex128)
        got = finufft.nufft2d1(x, y, c, out=out)
        assert got is out
        assert np.array_equal(out, finufft.nufft2d1(x, y, c, MODES[2]))
        with pytest.raises(ValueError):
            finufft.nufft2d1(x, y, c)  # neither n_modes nor out


class TestGuruLifecycle:
    def test_upstream_script_runs_verbatim(self, rng):
        """The module docstring's upstream-style script, bit-for-bit."""
        x, y = _points(rng, 2, 400)
        c = _strengths(rng, 400, np.complex128)

        plan = finufft.Plan(1, (20, 16), eps=1e-6, dtype="complex128")
        plan.setpts(x, y)
        f = plan.execute(c)
        plan.destroy()

        native = NativePlan(1, (20, 16), eps=1e-6, precision="double",
                            isign=+1)
        native.set_pts(x, y)
        assert np.array_equal(f, native.execute(c))
        native.destroy()

    def test_iflag_defaults(self):
        assert finufft.Plan(1, (16,))._plan.isign == +1
        assert finufft.Plan(2, (16,))._plan.isign == -1
        assert finufft.Plan(3, 1)._plan.isign == +1
        assert cufinufft.Plan(2, (16,))._plan.isign == -1

    def test_eps_defaults_follow_precision(self):
        assert finufft.Plan(1, (16,))._plan.eps == 1e-14  # double default
        assert finufft.Plan(1, (16,), dtype="complex64")._plan.eps == 1e-6
        assert cufinufft.Plan(1, (16,))._plan.eps == 1e-6  # single default
        assert cufinufft.Plan(1, (16,),
                              dtype="complex128")._plan.eps == 1e-14

    def test_dtype_property_and_parse(self):
        assert finufft.Plan(1, (16,)).dtype == np.dtype(np.complex128)
        assert cufinufft.Plan(1, (16,)).dtype == np.dtype(np.complex64)
        with pytest.raises(TypeError):
            finufft.Plan(1, (16,), dtype="float32x")
        with pytest.raises(TypeError):
            finufft.Plan(1, (16,), dtype=np.float64)  # must be complex

    def test_n_trans_batched(self, rng):
        x, = _points(rng, 1, 300)
        block = _strengths(rng, 4 * 300, np.complex64).reshape(4, 300)
        with cufinufft.Plan(1, (24,), n_trans=4) as plan:
            plan.setpts(x)
            f = plan.execute(block)
        assert f.shape == (4, 24)
        native = NativePlan(1, (24,), eps=1e-6, n_trans=4, isign=+1,
                            precision="single")
        native.set_pts(x)
        assert np.array_equal(f, native.execute(block))
        native.destroy()

    def test_context_manager_releases(self, rng):
        x, = _points(rng, 1, 200)
        with finufft.Plan(1, (16,)) as plan:
            plan.setpts(x)
            plan.execute(_strengths(rng, 200, np.complex128))
        assert plan._plan.workspace.nbytes == 0


class TestOptsMapping:
    def test_finufft_opts_names(self, rng):
        x, = _points(rng, 1, 300)
        c = _strengths(rng, 300, np.complex128)
        # ignored opts accepted; mapped opts change the native plan config
        plan = finufft.Plan(1, (24,), nthreads=8, debug=1, fftw=0,
                            spread_sort=0, spread_kerevalmeth=0)
        assert plan._plan.opts.sort_points is False
        assert plan._plan.opts.kernel_eval == "exact"
        plan.setpts(x)
        got = plan.execute(c)
        native = NativePlan(1, (24,), eps=1e-14, precision="double",
                            isign=+1, sort_points=False, kernel_eval="exact")
        native.set_pts(x)
        assert np.array_equal(got, native.execute(c))
        plan.destroy()
        native.destroy()

    def test_modeord_1_rejected(self):
        with pytest.raises(NotImplementedError):
            finufft.Plan(1, (16,), modeord=1)
        assert finufft.Plan(1, (16,), modeord=0) is not None

    def test_unknown_opts_raise(self):
        with pytest.raises(TypeError):
            finufft.Plan(1, (16,), gpu_method=2)  # gpu_* is cufinufft-only
        with pytest.raises(TypeError):
            cufinufft.Plan(1, (16,), spread_sort=1)  # and vice versa

    def test_cufinufft_method_mapping(self):
        from repro.core.options import SpreadMethod
        assert (cufinufft.Plan(1, (16,), gpu_method=2)._plan.opts.method
                is SpreadMethod.SM)
        assert (cufinufft.Plan(1, (16,), gpu_method=1)._plan.opts.method
                is SpreadMethod.GM_SORT)
        plan = cufinufft.Plan(1, (16,), gpu_method=1, gpu_sort=0)
        assert plan._plan.opts.method is SpreadMethod.GM
        assert plan._plan.opts.sort_points is False
        with pytest.raises(ValueError):
            cufinufft.Plan(1, (16,), gpu_method=3)

    def test_cufinufft_binsize_and_subprob(self):
        plan = cufinufft.Plan(1, (32, 32), gpu_binsizex=16, gpu_binsizey=8,
                              gpu_maxsubprobsize=256)
        assert plan._plan.opts.bin_shape == (16, 8)
        assert plan._plan.opts.max_subproblem_size == 256
        with pytest.raises(ValueError):
            cufinufft.Plan(1, (32, 32), gpu_binsizey=8)  # missing x axis

    def test_cufinufft_spreadinterponly_dtype(self, rng):
        x, y = _points(rng, 2, 300)
        with cufinufft.Plan(1, (16, 16), gpu_spreadinterponly=1) as plan:
            plan.setpts(x, y)
            grid = plan.execute(_strengths(rng, 300, np.complex64))
        assert grid.dtype == np.complex64


class TestRegistryAdapters:
    def test_facades_listed(self):
        names = available_libraries()
        assert "repro (finufft)" in names
        assert "repro (cufinufft)" in names

    @pytest.mark.parametrize("name,kind,dtype", [
        ("repro (finufft)", "cpu", np.complex128),
        ("repro (cufinufft)", "gpu", np.complex64)])
    def test_make_plan_runs_facade(self, rng, name, kind, dtype):
        lib = get_library(name)
        assert lib.device_kind == kind
        assert lib.supports(1, 2, "single", 1e-6)
        x, y = _points(rng, 2, 300)
        with lib.make_plan(1, (16, 16)) as plan:
            plan.setpts(x, y)
            f = plan.execute(_strengths(rng, 300, dtype))
        assert f.shape == (16, 16) and f.dtype == np.dtype(dtype)

    def test_model_times_inherited(self):
        lib = get_library("repro (cufinufft)")
        result = lib.model_times(1, (64, 64), 4096, 1e-6)
        assert result.times["exec"] > 0


class TestOneCallSurface:
    """The 27 simple calls share one argument table and one invoker."""

    def test_signatures_pinned(self):
        import inspect

        expected = {
            "repro.core.simple": [
                "(x, c, n_modes, eps=1e-06, out=None, **kwargs)",
                "(x, f, eps=1e-06, out=None, **kwargs)",
                "(x, c, s, eps=1e-06, out=None, **kwargs)",
                "(x, y, c, n_modes, eps=1e-06, out=None, **kwargs)",
                "(x, y, f, eps=1e-06, out=None, **kwargs)",
                "(x, y, c, s, t, eps=1e-06, out=None, **kwargs)",
                "(x, y, z, c, n_modes, eps=1e-06, out=None, **kwargs)",
                "(x, y, z, f, eps=1e-06, out=None, **kwargs)",
                "(x, y, z, c, s, t, u, eps=1e-06, out=None, **kwargs)",
            ],
        }
        expected["repro.finufft"] = expected["repro.cufinufft"] = [
            "(x, c, n_modes=None, out=None, eps=1e-06, isign=1, **kwargs)",
            "(x, f, out=None, eps=1e-06, isign=-1, **kwargs)",
            "(x, c, s, out=None, eps=1e-06, isign=1, **kwargs)",
            "(x, y, c, n_modes=None, out=None, eps=1e-06, isign=1, **kwargs)",
            "(x, y, f, out=None, eps=1e-06, isign=-1, **kwargs)",
            "(x, y, c, s, t, out=None, eps=1e-06, isign=1, **kwargs)",
            "(x, y, z, c, n_modes=None, out=None, eps=1e-06, isign=1, **kwargs)",
            "(x, y, z, f, out=None, eps=1e-06, isign=-1, **kwargs)",
            "(x, y, z, c, s, t, u, out=None, eps=1e-06, isign=1, **kwargs)",
        ]
        for module in (simple, finufft, cufinufft):
            names = [f"nufft{d}d{t}" for d in (1, 2, 3) for t in (1, 2, 3)]
            got = [str(inspect.signature(getattr(module, n))) for n in names]
            assert got == expected[module.__name__], module.__name__
            for name in names:
                fn = getattr(module, name)
                assert (fn.__name__, fn.__module__) == (name, module.__name__)
                assert fn.__doc__.startswith(f"{name[5]}D type-{name[7]} ")

    @pytest.mark.parametrize("module,dtype", [
        (finufft, np.complex128), (cufinufft, np.complex64)])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_stacked_type2_infers_n_trans(self, rng, module, dtype, ndim):
        coords = _points(rng, ndim)
        shape = (3,) + MODES[ndim]
        block = _strengths(rng, int(np.prod(shape)), dtype).reshape(shape)
        got = getattr(module, f"nufft{ndim}d2")(*coords, block)
        native = NativePlan(2, MODES[ndim], n_trans=3, eps=1e-6, isign=-1,
                            precision="single" if dtype == np.complex64
                            else "double", **_call_opts(2, coords))
        native.set_pts(*coords)
        assert got.shape == (3, 500)
        assert np.array_equal(got, native.execute(block))
        native.destroy()
        # The native call infers n_trans the same way and checks an explicit
        # one against f.
        native_call = getattr(simple, f"nufft{ndim}d2")
        assert np.array_equal(native_call(*coords, block, isign=-1), got)
        assert np.array_equal(native_call(*coords, block, n_trans=3, isign=-1), got)
        with pytest.raises(ValueError):
            native_call(*coords, block, n_trans=2)

    def test_mode_counts_checked(self, rng):
        from repro import nufft1d1, nufft2d1
        x, y = _points(rng, 2)
        c = _strengths(rng, 500, np.complex128)
        with pytest.raises(ValueError, match="n_modes"):
            nufft1d1(x, c, 16.5)  # no longer truncated to 16
        with pytest.raises(ValueError, match="n_modes"):
            nufft2d1(x, y, c, 16)  # a 1-D count for a 2-D call
        for module in (finufft, cufinufft):
            with pytest.raises(ValueError, match="n_modes"):
                module.nufft1d1(x, c, 16.5)
            with pytest.raises(ValueError, match="n_modes"):
                module.nufft2d1(x, y, c, out=np.empty(16, dtype=np.complex128))
        assert nufft1d1(x, c, 16.0).shape == (16,)

    def test_cufinufft_n_modes_inferred_from_out(self, rng):
        x, y = _points(rng, 2)
        c = _strengths(rng, 500, np.complex64)
        out = np.empty(MODES[2], dtype=np.complex64)
        assert cufinufft.nufft2d1(x, y, c, out=out) is out
        assert np.array_equal(out, cufinufft.nufft2d1(x, y, c, MODES[2]))

    @pytest.mark.parametrize("module", [finufft, cufinufft])
    @pytest.mark.parametrize("flag,sign", [
        (0, 1), (0.5, 1), (-0.5, -1), (2, 1), (-3, -1)])
    def test_upstream_sign_rule(self, rng, module, flag, sign):
        x, = _points(rng, 1)
        c = _strengths(rng, 500, np.complex128)
        native = NativePlan(1, (24,), eps=1e-6, isign=sign, precision="double")
        native.set_pts(x)
        expected = native.execute(c)
        native.destroy()
        assert np.array_equal(module.nufft1d1(x, c, (24,), isign=flag), expected)
        with module.Plan(1, (24,), iflag=flag, eps=1e-6, dtype="complex128") as plan:
            assert plan._plan.isign == sign
            _ = plan.setpts(x)
            assert np.array_equal(plan.execute(c), expected)
