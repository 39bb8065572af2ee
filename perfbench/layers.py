"""Outside-in layer tracing for the benchmark.

The benchmark never edits ``src/``.  Instead, for the duration of a traced
operation, :class:`LayerTracer` replaces each public boundary listed in
:data:`BOUNDARIES` with a wrapper that records a span (layer, name, start,
end, parent span, operation id) and puts the original object back afterwards.
A module-level function is replaced in every loaded ``repro`` module that
holds it under that name, because ``from .binsort import bin_sort`` binds its
own reference; a method is replaced on its class.

A span's *self* time is its duration minus the durations of the spans nested
directly inside it.  Self times of all spans in one operation add up to the
time covered by its outermost spans; the rest of the operation's wall time is
*unattributed* (benchmark glue and code between layer boundaries).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

#: ``(layer, module, qualified name)`` of every timed boundary.  The layer
#: names are the repository modules they time (see ``perfbench/README.md``).
BOUNDARIES = (
    ("plan", "repro.core.plan", "Plan.__init__"),
    ("plan", "repro.core.plan", "Plan.set_pts"),
    ("plan", "repro.core.plan", "Plan.execute"),
    ("binsort", "repro.core.binsort", "bin_sort"),
    ("binsort", "repro.core.binsort", "to_grid_coordinates"),
    ("binsort", "repro.core.binsort", "make_subproblems"),
    ("es_kernel", "repro.kernels.es_kernel", "ESKernel.evaluate_offsets_horner"),
    ("stencil", "repro.core.stencil", "build_stencil_cache"),
    ("spread", "repro.backends.cached", "CachedBackend.spread"),
    ("interp", "repro.backends.cached", "CachedBackend.interp"),
    ("fft", "repro.gpu.fft", "DeviceFFT.forward"),
    ("fft", "repro.gpu.fft", "DeviceFFT.inverse"),
    ("deconvolve", "repro.core.deconvolve", "CorrectionFactors.truncate_and_scale"),
    ("deconvolve", "repro.core.deconvolve", "CorrectionFactors.pad_and_scale"),
    ("device_sim", "repro.backends.device_sim", "DeviceSimBackend.spread"),
    ("device_sim", "repro.backends.device_sim", "DeviceSimBackend.fft_forward"),
    ("device_sim", "repro.backends.device_sim", "DeviceSimBackend.fft_inverse"),
    ("device_sim", "repro.backends.device_sim", "DeviceSimBackend.deconvolve"),
    ("device_sim", "repro.backends.device_sim", "DeviceSimBackend.precorrect"),
    ("device_sim", "repro.backends.device_sim", "DeviceSimBackend.interp"),
    ("costmodel", "repro.gpu.costmodel", "CostModel.kernel_time"),
    ("costmodel", "repro.gpu.costmodel", "CostModel.transfer_time"),
    ("costmodel", "repro.gpu.costmodel", "CostModel.pipeline_times"),
    ("memory", "repro.gpu.memory", "MemoryPool.allocate"),
    ("memory", "repro.gpu.memory", "MemoryPool.from_host"),
    ("workspace", "repro.core.workspace", "Workspace.array"),
    ("workspace", "repro.core.workspace", "Workspace.adopt"),
    ("request", "repro.service.request", "TransformRequest.__post_init__"),
    ("request", "repro.service.request", "TransformRequest.points_key"),
    ("pool", "repro.service.pool", "PlanPool.lease"),
    ("pool", "repro.service.pool", "PlanPool.lease_unpointed"),
    ("pool", "repro.service.pool", "PlanPool.release"),
    ("service", "repro.service.service", "TransformService.submit"),
    ("service", "repro.service.service", "TransformService.flush"),
)

#: Layers in report order (every layer of :data:`BOUNDARIES`, once).
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BOUNDARIES))


def _plan_execute_observer(counters, args, result):
    """Buffer events of each execute (``Plan.last_allocs``, workspace layer)."""
    stats = args[0].last_allocs
    counters["executes"] = counters.get("executes", 0) + 1
    counters["alloc_events"] = (counters.get("alloc_events", 0)
                                + (stats.total_events if stats is not None else 0))


def _stencil_observer(counters, args, result):
    """Bytes per point and CSR-operator presence of each built cache."""
    counters["stencil_builds"] = counters.get("stencil_builds", 0) + 1
    counters["stencil_bytes"] = counters.get("stencil_bytes", 0) + result.nbytes()
    counters["stencil_points"] = counters.get("stencil_points", 0) + result.n_points
    counters["stencil_operators"] = (counters.get("stencil_operators", 0)
                                     + (result.interp_matrix is not None))


#: Counters read from a boundary's arguments and return value.
OBSERVERS = {
    ("repro.core.plan", "Plan.execute"): _plan_execute_observer,
    ("repro.core.stencil", "build_stencil_cache"): _stencil_observer,
}


class Span:
    """One timed call of a boundary."""

    __slots__ = ("layer", "name", "start", "end", "parent", "op")

    def __init__(self, layer, name, parent, op):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0


class LayerTracer:
    """Records spans at layer boundaries while installed.

    ``boundaries`` defaults to :data:`BOUNDARIES`; tests pass their own.
    Use :meth:`installed` around exactly the calls to trace: the originals are
    restored on exit, even when the traced code raises.
    """

    def __init__(self, boundaries=BOUNDARIES, observers=None, clock=time.perf_counter_ns):
        self.boundaries = tuple(boundaries)
        self.observers = OBSERVERS if observers is None else observers
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []
        self._saved = []  # (namespace, attribute, original object)

    # ------------------------------------------------------------------ #
    # installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def _wrap(self, layer, name, fn, observer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(layer, name, stack[-1] if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(span)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
            if observer is not None:
                observer(tracer.counters, args, result)
            return result

        return traced

    def install(self):
        for layer, module_name, qualname in self.boundaries:
            module = importlib.import_module(module_name)
            observer = self.observers.get((module_name, qualname))
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, qualname, original, observer))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, qualname, original, observer)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").split(".")[0] == module_name.split(".")[0]
                        and mod.__dict__.get(attr) is original):
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Context manager: boundaries are wrapped only inside the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    # arithmetic over the recorded spans
    # ------------------------------------------------------------------ #
    def self_times(self):
        """``{layer: (self ns, calls)}`` summed over every recorded span."""
        child_ns = {}
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] = (child_ns.get(span.parent, 0)
                                         + (span.end - span.start))
        out = {}
        for span in self.spans:
            self_ns = (span.end - span.start) - child_ns.get(span, 0)
            ns, calls = out.get(span.layer, (0, 0))
            out[span.layer] = (ns + self_ns, calls + 1)
        return out

    def covered_ns(self):
        """Time covered by outermost spans, summed over every operation."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def chrome_events(self, op_spans=(), max_ops=None):
        """Chrome trace-event list (``ph: "X"``, microseconds).

        ``op_spans`` holds ``(op, start_ns, end_ns)`` of each traced operation
        and becomes the top-level ``op`` row; ``max_ops`` caps the operations
        written so the file stays small.
        """
        keep = None
        if max_ops is not None:
            keep = {op for op, _, _ in list(op_spans)[:max_ops]}
        origin = min([s.start for s in self.spans] + [s for _, s, _ in op_spans],
                     default=0)
        events = []
        for op, start, end in op_spans:
            if keep is None or op in keep:
                events.append({"name": "op", "cat": "op", "ph": "X", "pid": 1, "tid": 1,
                               "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                               "args": {"op": op}})
        for s in self.spans:
            if keep is None or s.op in keep:
                events.append({"name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                               "tid": 1, "ts": (s.start - origin) / 1e3,
                               "dur": (s.end - s.start) / 1e3, "args": {"op": s.op}})
        return events


def write_chrome_trace(path, events, metadata=None):
    """Write ``events`` as a Chrome trace-event JSON file (Perfetto loads it)."""
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": metadata or {}}, fh)
