"""LOGAN: the GPU X-drop batch aligner (kernel, host layer, load balancer).

Public surface:

* :class:`repro.logan.LoganAligner` — one traced sweep of the ``batched``
  engine plus the V100 multi-GPU execution model replayed over its band
  traces (the reproduction of the paper's contribution);
* :class:`repro.logan.LoadBalancer` — the multi-GPU work splitter;
* :func:`repro.logan.threads_for_xdrop` — the X-proportional thread
  scheduling rule;
* the host preprocessing helpers: :func:`prepare_batch`, which splits
  every job at its seed into the sides the batch engines' loop extends,
  and :class:`HostModel`, its modeled cost.

The kernel launch itself is :func:`repro.logan.kernel.sweep`, the
``extend`` function of the ``batched`` and ``logan`` engines.
"""

from .batch import LoganAligner, LoganBatchResult
from .host import (
    HostModel,
    PreparedBatch,
    prepare_batch,
    threads_for_xdrop,
)
from .scheduler import DeviceAssignment, LoadBalancer

__all__ = [
    "LoganAligner",
    "LoganBatchResult",
    "LoadBalancer",
    "DeviceAssignment",
    "HostModel",
    "PreparedBatch",
    "prepare_batch",
    "threads_for_xdrop",
]
