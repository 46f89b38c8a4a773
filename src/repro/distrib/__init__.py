"""Distributed serving tier: process workers, durable state, network front door.

This package extends the in-process serving layer (``repro.service``) across
three boundaries the coordinator previously never crossed:

* **Process boundary** — :class:`ProcessWorkerPool` spawns one
  ``multiprocessing`` worker and feeds it whole packed job blocks through
  shared memory (``repro.distrib.shm``), so engine dispatch runs outside the
  coordinator's GIL.  Results come back as packed ``int64`` tables; the
  worker's metric deltas and flight-recorder dumps ride along and are merged
  at the coordinator.  Parallel alignment is ``AlignConfig.workers``.
* **Restart boundary** — :class:`DurableStore` keeps the submission queue and
  the result cache in a WAL-mode SQLite file.  Jobs that were in flight when
  the process died are redelivered on the next start; completed results
  survive restarts and are content-addressed with the exact cache key the
  in-memory :class:`~repro.service.ResultCache` uses.
* **Network boundary** — :class:`AlignmentServer` / :class:`ServiceClient`
  speak a length-prefixed JSON protocol (``repro.distrib.wire``) so a client
  process can submit batches to a running ``repro-service serve --listen``
  server and read merged metrics back.

Everything stays bit-identical to the in-process path: the conformance
harness replays all workload profiles through the networked multi-process
tier and compares against the single-process oracle.
"""

from .client import ServiceClient
from .pool import ProcessWorkerPool
from .server import AlignmentServer, GracefulShutdown
from .store import DurableStore

__all__ = [
    "AlignmentServer",
    "DurableStore",
    "GracefulShutdown",
    "ProcessWorkerPool",
    "ServiceClient",
]
