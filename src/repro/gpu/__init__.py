"""Simulated CUDA GPU substrate.

The paper's library runs CUDA kernels on an NVIDIA Tesla V100.  This
environment has no GPU, so -- per the substitution policy in ``DESIGN.md`` --
this subpackage provides a *simulated device*: the numerical work is done with
vectorized NumPy, while the performance-relevant behaviour of the hardware
(global-memory transactions and coalescing, L2 caching, atomic-operation
serialization, the 48 kB shared-memory-per-block limit, host<->device transfer
over PCIe, kernel-launch overhead, and multi-rank contention for one device)
is modelled explicitly and converted to nanoseconds by a calibrated cost
model.

The point of the model is to preserve the *shape* of the paper's results:
which spreading method wins, where the crossovers fall as grid size, accuracy
and point clustering change, and how the full pipelines compare across
libraries.  Absolute times are indicative only.

Public entry points
-------------------
* :class:`repro.gpu.device.DeviceSpec` / :class:`repro.gpu.device.Device` --
  hardware description and a device with allocation tracking.
* :class:`repro.gpu.profiler.KernelProfile` -- operation counts for one kernel
  launch.
* :class:`repro.gpu.costmodel.CostModel` -- converts profiles to seconds.
* :mod:`repro.gpu.transactions`, :mod:`repro.gpu.atomics` -- the memory and
  atomic models used by the spreading/interpolation cost estimators.
* :mod:`repro.gpu.fft` -- cuFFT-like wrapper over ``scipy.fft`` with cost
  accounting.
"""

from .device import DeviceSpec, Device, V100_SPEC, Stream, Event
from .memory import DeviceBuffer, MemoryPool, TransferDirection
from .profiler import KernelProfile, PipelineProfile
from .costmodel import CostModel
from .fft import DeviceFFT

__all__ = [
    "DeviceSpec",
    "Device",
    "V100_SPEC",
    "Stream",
    "Event",
    "DeviceBuffer",
    "MemoryPool",
    "TransferDirection",
    "KernelProfile",
    "PipelineProfile",
    "CostModel",
    "DeviceFFT",
]
