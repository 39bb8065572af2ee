"""Every engine layer boundary the benchmark traces still sees work.

``perfbench/layers.py`` times the engine from outside by wrapping the public
boundaries in its ``BOUNDARIES`` table.  A refactor that routes work around
one of them would make that layer read 0 ns/pt without failing anything;
this test runs a small 2D type-1 and type-2 ``set_pts`` + ``execute`` under
the tracer and requires a call on each engine layer.  The type-2 plan is
given the same points, so it shares the type-1 plan's point set and the
stencils are built once.
"""

import importlib.util
import os

import numpy as np

from repro import Plan

_LAYERS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "layers.py")

ENGINE_LAYERS = ("binsort", "es_kernel", "stencil", "spread", "interp", "fft",
                 "deconvolve", "device_sim")


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_layer_boundaries_see_work():
    layers = _load_layers()
    rng = np.random.default_rng(0)
    x, y = (rng.uniform(-np.pi, np.pi, 500) for _ in range(2))
    c = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    tracer = layers.LayerTracer()
    with tracer.installed():
        with Plan(1, (24, 24), eps=1e-6) as t1, Plan(2, (24, 24), eps=1e-6) as t2:
            t1.set_pts(x, y)
            modes = t1.execute(c)
            t2.set_pts(x, y)
            t2.execute(modes)
            assert t2.point_set is t1.point_set
    calls = {layer: n for layer, (_, n) in tracer.self_times().items()}
    missing = [layer for layer in ENGINE_LAYERS if calls.get(layer, 0) < 1]
    assert not missing, f"layers with no recorded call: {missing} (calls: {calls})"
    assert tracer.counters["stencil_builds"] == 1
