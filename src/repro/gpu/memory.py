"""Device memory: buffers, allocation tracking and host<->device transfers.

The paper reports three timings ("exec", "total", "total+mem") and a GPU RAM
column in Table I.  To reproduce those we track every simulated device
allocation in a :class:`MemoryPool` and model transfer/allocation costs with
the PCIe parameters of the :class:`~repro.gpu.device.DeviceSpec`.

A :class:`DeviceBuffer` simply wraps a NumPy array (the "device" data lives in
host memory -- numerics are exact) together with its accounting record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TransferDirection", "DeviceBuffer", "MemoryPool", "OutOfDeviceMemory"]


class OutOfDeviceMemory(MemoryError):
    """Raised when a simulated allocation exceeds the device capacity."""


class TransferDirection(enum.Enum):
    """Direction of a host<->device copy."""

    HOST_TO_DEVICE = "h2d"
    DEVICE_TO_HOST = "d2h"
    DEVICE_TO_DEVICE = "d2d"


@dataclass
class DeviceBuffer:
    """A simulated device allocation wrapping a NumPy array.

    Attributes
    ----------
    array : numpy.ndarray
        The underlying data.  Because the simulation computes real numerics,
        "device" arrays are ordinary NumPy arrays; only the accounting
        distinguishes host from device residence.
    pool : MemoryPool
        The owning pool (used by :meth:`free`).
    label : str
        Human-readable tag ("fine grid", "sort index", ...) used by RAM
        breakdown reports.
    """

    array: np.ndarray
    pool: "MemoryPool"
    label: str = ""
    _freed: bool = field(default=False, repr=False)

    @property
    def nbytes(self):
        return self.array.nbytes

    @property
    def shape(self):
        return self.array.shape

    @property
    def dtype(self):
        return self.array.dtype

    def free(self):
        """Release the allocation back to the pool (idempotent)."""
        if not self._freed:
            self.pool._release(self)
            self._freed = True

    def get(self):
        """Copy device data back to a host array (cuda ``memcpy DtoH``)."""
        return np.array(self.array, copy=True)


@dataclass
class MemoryPool:
    """Tracks simulated device allocations for one device.

    Parameters
    ----------
    capacity_bytes : int
        Device memory capacity; exceeding it raises :class:`OutOfDeviceMemory`.
    """

    capacity_bytes: int
    allocated_bytes: int = 0
    peak_bytes: int = 0
    n_allocations: int = 0
    live_buffers: list = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def allocate(self, shape, dtype, label=""):
        """Allocate a zero-initialized device buffer.

        Mirrors ``cudaMalloc`` + ``cudaMemset``; the returned buffer counts
        toward :attr:`allocated_bytes` and :attr:`peak_bytes` until freed.
        The simulated capacity is checked before any host memory is touched.
        """
        self._check_capacity(int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize)
        return self._register(np.zeros(shape, dtype=dtype), label)

    def from_host(self, host_array, label=""):
        """Allocate a device buffer holding a copy of ``host_array``.

        Capacity is checked before the copy is made.
        """
        host_array = np.asarray(host_array)
        self._check_capacity(host_array.nbytes)
        return self._register(np.array(host_array, copy=True), label)

    def adopt(self, array, label=""):
        """Account an existing array as a device buffer without copying it.

        The zero-copy registration used by :class:`repro.core.workspace.
        Workspace` to take ownership of stage outputs (e.g. the FFT result
        standing in for the cuFFT workspace buffer): capacity checking and
        accounting behave exactly like :meth:`allocate`, but the array is
        adopted as-is.
        """
        return self._register(np.asarray(array), label)

    def _check_capacity(self, nbytes):
        if self.allocated_bytes + nbytes > self.capacity_bytes:
            raise OutOfDeviceMemory(
                f"allocation of {nbytes} B would exceed device capacity "
                f"({self.allocated_bytes} B already in use, "
                f"{self.capacity_bytes} B total)"
            )

    def _register(self, array, label):
        nbytes = array.nbytes
        self._check_capacity(nbytes)
        buf = DeviceBuffer(array=array, pool=self, label=label)
        self.allocated_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        self.n_allocations += 1
        self.live_buffers.append(buf)
        return buf

    def _release(self, buf):
        self.allocated_bytes -= buf.nbytes
        try:
            self.live_buffers.remove(buf)
        except ValueError:  # pragma: no cover - double free is guarded upstream
            pass

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def allocated_mb(self):
        """Currently allocated device memory in MB (``nvidia-smi`` style)."""
        return self.allocated_bytes / (1024.0 * 1024.0)

    def breakdown(self):
        """Dict of label -> live bytes, for RAM-usage tables."""
        out = {}
        for buf in self.live_buffers:
            out[buf.label] = out.get(buf.label, 0) + buf.nbytes
        return out


# ---------------------------------------------------------------------- #
# transfer / allocation cost helpers
# ---------------------------------------------------------------------- #
def transfer_time_seconds(nbytes, spec, direction=TransferDirection.HOST_TO_DEVICE):
    """Time to move ``nbytes`` across PCIe (either direction).

    Device-to-device copies run at the device's effective DRAM bandwidth
    instead of the PCIe link.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be nonnegative")
    if direction is TransferDirection.DEVICE_TO_DEVICE:
        bandwidth = spec.effective_bandwidth()
    else:
        bandwidth = spec.pcie_bandwidth
    return spec.pcie_latency_us * 1e-6 + nbytes / bandwidth


def allocation_time_seconds(nbytes, spec):
    """Time for a ``cudaMalloc`` of ``nbytes`` (fixed cost + touch cost)."""
    if nbytes < 0:
        raise ValueError("nbytes must be nonnegative")
    return spec.malloc_overhead_us * 1e-6 + nbytes / spec.effective_bandwidth()
