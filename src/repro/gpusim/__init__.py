"""GPU execution/performance model used in place of real CUDA hardware.

The model is deliberately *trace-driven*: the real X-drop algorithm runs (in
NumPy) and records exactly the work a CUDA block would perform — per
anti-diagonal widths, sequence lengths — and this package maps that work onto
a V100-class device description (SMs, warp schedulers, INT32 issue rate,
occupancy limits, shared-memory/HBM capacities, host links).  See
:mod:`repro.gpusim.device` for the device parameters and
:mod:`repro.gpusim.kernel` for how a work trace becomes modeled time.
"""

from .device import TESLA_A100, TESLA_V100, DeviceSpec
from .kernel import KernelExecutionModel, KernelTiming
from .memory import MemoryEstimate, MemoryModel
from .multi_gpu import MultiGpuSystem, MultiGpuTiming
from .occupancy import OccupancyResult, occupancy
from .stream import StreamedTiming, compose_streams
from .trace import BlockWorkTrace, KernelWorkload
from .warp import KernelCostParameters, block_instruction_count, reduction_warp_instructions

__all__ = [
    "DeviceSpec",
    "TESLA_V100",
    "TESLA_A100",
    "OccupancyResult",
    "occupancy",
    "BlockWorkTrace",
    "KernelWorkload",
    "KernelCostParameters",
    "block_instruction_count",
    "reduction_warp_instructions",
    "MemoryModel",
    "MemoryEstimate",
    "KernelExecutionModel",
    "KernelTiming",
    "StreamedTiming",
    "compose_streams",
    "MultiGpuSystem",
    "MultiGpuTiming",
]
