"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def fake_module():
    """A throwaway module whose ``outer`` calls ``inner`` twice."""
    mod = types.ModuleType("perfbench_fake")
    exec(
        "def inner():\n"
        "    return 1\n"
        "def outer():\n"
        "    return inner() + inner()\n",
        mod.__dict__,
    )
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_self_time_arithmetic_on_nested_calls(fake_module):
    # Clock reads in call order: outer start, inner start/end, inner
    # start/end, outer end.
    ticks = iter([0, 10, 30, 40, 45, 100])
    tracer = layers.LayerTracer(
        boundaries=[("outer_layer", "perfbench_fake", "outer"),
                    ("inner_layer", "perfbench_fake", "inner")],
        observers={}, clock=lambda: next(ticks))
    tracer.op = 7
    with tracer.installed():
        assert fake_module.outer() == 2
    selfs = tracer.self_times()
    assert selfs["inner_layer"] == (20 + 5, 2)
    assert selfs["outer_layer"] == (100 - 25, 1)
    assert tracer.covered_ns() == 100
    assert sum(ns for ns, _ in selfs.values()) == tracer.covered_ns()
    events = tracer.chrome_events([(7, 0, 120)])
    assert [e["name"] for e in events] == ["op", "outer", "inner", "inner"]
    assert events[0]["dur"] == 0.12


def _boundary_objects():
    """``{(namespace id, attr): object}`` for every traced boundary."""
    import importlib

    found = {}
    for _, module_name, qualname in layers.BOUNDARIES:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            found[(id(owner), attr)] = owner.__dict__[attr]
        else:
            original = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and mod.__dict__.get(attr) is original):
                    found[(id(mod), attr)] = original
    return found


def test_every_wrapped_boundary_is_restored_by_identity():
    from repro import Plan

    before = _boundary_objects()
    assert len(before) >= len(layers.BOUNDARIES)
    tracer = layers.LayerTracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            during = _boundary_objects()
            assert all(during[k] is not v for k, v in before.items() if k in during)
            plan = Plan(1, (16, 16), eps=1e-6)
            plan.set_pts(*np.random.default_rng(0).uniform(-np.pi, np.pi, (2, 200)))
            plan.execute(np.ones(200, np.complex64))
            1 / 0
    after = _boundary_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert {"plan", "binsort", "stencil", "fft"} <= {s.layer for s in tracer.spans}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    cls = WORKLOADS[name]

    def inputs(seed):
        wl = cls(seed)
        fixed = [getattr(wl, attr) for attr in ("pts", "c", "hot") if hasattr(wl, attr)]
        return fixed + [wl.prepare(i) for i in range(9)]

    def flat(obj):
        if isinstance(obj, np.ndarray):
            return [obj]
        if isinstance(obj, (list, tuple)):
            return [a for item in obj for a in flat(item)]
        return [obj]

    a, b, c = flat(inputs(3)), flat(inputs(3)), flat(inputs(4))
    assert len(a) == len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    arrays = [(x, y) for x, y in zip(a, c) if isinstance(x, np.ndarray)]
    assert arrays and not all(np.array_equal(x, y) for x, y in arrays)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_min_ops_leave_ten_samples_beyond_the_tail(name):
    cls = WORKLOADS[name]
    assert cls.min_ops * (1 - cls.tail_pct / 100.0) >= 10 - 1e-9
    lat = np.arange(cls.min_ops, dtype=float)
    tail = np.percentile(lat, cls.tail_pct)
    assert np.count_nonzero(lat > tail) >= 10


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    assert {m["name"] for m in spec["end_to_end"]} == set(
        worker.end_to_end(WORKLOADS["serve-2d1"], [1, 2, 3], 0.5, 3, 0, 10.0))
    ticks = iter(range(0, 10**6, 5))
    tracer = layers.LayerTracer(boundaries=[], observers={}, clock=lambda: next(ticks))
    ops = [(0, 0, 10, False), (1, 10, 25, True)]
    counters = worker.service_counters(WORKLOADS["oneshot-2d1"](0))
    metrics, budget = worker.per_layer(WORKLOADS["oneshot-2d1"](0), tracer, ops, counters)
    metrics["model_exec_ns_per_pt"] = 1.0
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert budget == {"wall_ns": 15, "self_ns": 0, "unattributed_ns": 15,
                      "spans_outside_ops": 0}
    assert metrics["trace.unattributed_frac"] == 1.0


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-2d1",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
