"""Single-node randomized equivalence sweep: backends and facades.

The single-node companion of :mod:`tests.test_distributed`: over a seeded
randomized matrix of dimensions x transform types x precisions, the
``cached`` and ``device_sim`` backends must agree with the per-transform
``reference`` backend, and the upstream-style ``repro.finufft`` /
``repro.cufinufft`` facades must agree with the native :class:`repro.Plan`
on the same inputs.  Backend disagreement is bounded at ``eps / 10`` --
an order of magnitude tighter than the transform's own tolerance, since
all three run the same kernel and stencils and differ only in accumulation
order; facade parity is bit-exact (the facades delegate to the same plan
machinery, with only argument translation on top).
"""

import numpy as np
import pytest

from repro import Plan
from repro import cufinufft, finufft
from repro.core.simple import skips_operator

_EPS = {"single": 1e-4, "double": 1e-9}

#: Backend-vs-reference allowance: all three backends run the same kernel and
#: stencils, differing only in accumulation order, so they agree an order of
#: magnitude *tighter* than the tolerance requested of the transform itself.
_BACKEND_TOL = {p: eps / 10.0 for p, eps in _EPS.items()}


def _backend_cases():
    cases = []
    cid = 0
    for ndim in (1, 2, 3):
        for nufft_type in (1, 2, 3):
            for precision in ("single", "double"):
                for rep in range(2):
                    cases.append((cid, ndim, nufft_type, precision, rep))
                    cid += 1
    return cases


def _backend_case_id(case):
    cid, ndim, nufft_type, precision, rep = case
    return f"b{cid:02d}-{ndim}d-t{nufft_type}-{precision}-r{rep}"


def _build(case):
    cid, ndim, nufft_type, precision, rep = case
    rng = np.random.default_rng(40_000 + cid)
    m = 250 + 50 * ndim
    if ndim == 1:
        n_modes = (int(rng.integers(20, 36)),)
    elif ndim == 2:
        n_modes = tuple(int(n) for n in rng.integers(9, 15, size=2))
    else:
        n_modes = tuple(int(n) for n in rng.integers(6, 9, size=3))
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    targets = None
    if nufft_type == 3:
        nk = 80
        targets = [rng.uniform(-12.0, 12.0, nk) for _ in range(ndim)]
    if nufft_type == 2:
        shape = n_modes
    else:
        shape = (m,)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return n_modes, coords, targets, data


def _run_backend(case, backend):
    cid, ndim, nufft_type, precision, rep = case
    n_modes, coords, targets, data = _build(case)
    modes = ndim if nufft_type == 3 else n_modes
    plan = Plan(nufft_type, modes, eps=_EPS[precision], precision=precision,
                backend=backend)
    try:
        if nufft_type == 3:
            coord_kw = dict(zip(("x", "y", "z"), coords))
            target_kw = dict(zip(("s", "t", "u"), targets))
            plan.set_pts(**coord_kw, **target_kw)
        else:
            plan.set_pts(*coords)
        return plan.execute(data)
    finally:
        plan.destroy()


@pytest.mark.parametrize("case", _backend_cases(), ids=_backend_case_id)
@pytest.mark.parametrize("backend", ["cached", "device_sim"])
def test_backend_matches_reference(case, backend):
    """cached / device_sim == reference to within accumulation roundoff."""
    _cid, _ndim, _t, precision, _rep = case
    ref = _run_backend(case, "reference")
    out = _run_backend(case, backend)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    err = np.linalg.norm(out - ref) / np.linalg.norm(ref)
    assert err <= _BACKEND_TOL[precision], (
        f"{backend} deviates from reference by {err:.3e} on "
        f"{_backend_case_id(case)}"
    )


def test_backends_deterministic_same_seed():
    """Each backend is bit-identical across reruns of the same seed."""
    case = (7, 2, 1, "double", 0)
    for backend in ("reference", "cached", "device_sim"):
        a = _run_backend(case, backend)
        b = _run_backend(case, backend)
        assert np.array_equal(a, b), f"{backend} rerun diverged bitwise"


# --------------------------------------------------------------------- #
# facades vs native plans
# --------------------------------------------------------------------- #
def _facade_problem(rng, ndim, nufft_type, m=400):
    n_modes = {1: (28,), 2: (12, 14), 3: (8, 9, 7)}[ndim]
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    if nufft_type == 2:
        data = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    else:
        data = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return n_modes, coords, data


@pytest.mark.parametrize("module,name", [
    (finufft, "finufft"), (cufinufft, "cufinufft"),
])
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("nufft_type", [1, 2])
def test_facade_matches_native_plan(module, name, ndim, nufft_type):
    """Simple-interface facade calls == native Plan, bit for bit.

    The facades default to ``isign=+1`` (type 1) / ``-1`` (type 2) --
    the upstream convention, opposite the paper's -- so the native plan
    is pinned to the facade's sign.  A simple call reads its points once
    and plans no CSR operator where the windowed engine pays
    (``skips_operator``), so neither does the native plan.
    """
    rng = np.random.default_rng(5_000 + 10 * ndim + nufft_type)
    n_modes, coords, data = _facade_problem(rng, ndim, nufft_type)
    fn = getattr(module, f"nufft{ndim}d{nufft_type}")
    if nufft_type == 1:
        out = fn(*coords, data, n_modes)
        isign = +1
    else:
        out = fn(*coords, data)
        isign = -1
    skip = skips_operator(nufft_type, coords, (), n_modes, 1e-6)
    plan = Plan(nufft_type, n_modes, eps=1e-6, precision="double", isign=isign,
                **({"stencil_budget": 0} if skip else {}))
    plan.set_pts(*coords)
    ref = plan.execute(data)
    plan.destroy()
    assert out.shape == ref.shape
    assert np.array_equal(out, ref), (
        f"{name}.nufft{ndim}d{nufft_type} diverged from the native plan"
    )


def test_facade_plan_interface_matches_native(rng):
    """The facade Plan class (guru interface) == native Plan on one batch."""
    m, n_modes = 500, (16, 12)
    x = rng.uniform(-np.pi, np.pi, m)
    y = rng.uniform(-np.pi, np.pi, m)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    fplan = finufft.Plan(1, n_modes, iflag=-1, eps=1e-9, dtype="complex128")
    fplan.setpts(x, y)
    out = fplan.execute(c)
    nplan = Plan(1, n_modes, eps=1e-9, precision="double", isign=-1)
    nplan.set_pts(x, y)
    ref = nplan.execute(c)
    nplan.destroy()
    assert np.array_equal(out, ref)
