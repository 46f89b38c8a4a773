"""Worker-process transport with shared-memory dispatch and crash recovery.

Drop-in peer of :class:`repro.service.ShardedWorkerPool` (same ``run_batch``
-> ``PoolRun`` contract, same ``shard="0"`` metrics), but the worker is a
spawned interpreter process instead of the calling thread, so engine
dispatch runs outside the coordinator's GIL.

One worker process runs every formed batch whole.  The service calls
:meth:`run_batch` under its lock and waits for the results, so a second
worker could only take turns with the first: two measured within host
noise of one on the 192-pair ``service_mp`` bench row.  The worker builds
its engine with ``workers=1`` and never splits a batch: it is a daemonic
process, which cannot start the process pool a split uses.  To align one
batch in parallel, use the thread transport with ``AlignConfig.workers``.

The worker's ``repro_worker_busy_seconds_total`` is its engine time; the
service's ``repro_service_busy_seconds_total`` is the coordinator's round
trip, so the gap between them is the shared-memory transfer cost.

Crash handling: a worker that dies mid-batch (detected by liveness checks
while waiting on the result queue) is respawned and the batch — whose
shared-memory block the coordinator still owns — is redelivered, up to
``max_redeliveries`` times.  Worker exceptions are *not* redelivered (they
are deterministic); the reply's traceback and flight-recorder dump surface
through :class:`~repro.errors.ServiceError` and ``last_crash_dump``.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
from dataclasses import dataclass
from typing import Sequence

from ..api import AlignConfig
from ..core.job import AlignmentJob, BatchWorkSummary
from ..errors import ConfigurationError, ServiceError
from ..perf.timers import Timer
from ..service.workers import PoolRun, WorkerStats
from .shm import SharedJobBlock, unpack_results
from .worker import worker_main

__all__ = ["ProcessWorkerPool"]

_POLL_SECONDS = 0.2


@dataclass
class _Shard:
    """One dispatched batch: its shm block and task."""

    block: SharedJobBlock
    task: dict
    redeliveries: int = 0


class ProcessWorkerPool:
    """One spawned worker process that runs each formed batch whole.

    Parameters
    ----------
    config:
        The full alignment config; the worker rebuilds its engine from
        ``config.to_dict()`` in its own interpreter.  Trace mode is
        rejected — packed result tables carry no band-width traces.
    fault_injection:
        Test hook: ``{"after": n}`` makes the worker hard-exit on its
        *n*-th task.  Consumed on first spawn only, so the respawned
        worker runs clean.
    max_redeliveries:
        How many times one batch may be redelivered after worker deaths
        before it fails.
    """

    def __init__(
        self,
        config: AlignConfig,
        *,
        obs=None,
        fault_injection: dict | None = None,
        max_redeliveries: int = 2,
    ) -> None:
        if config.trace:
            raise ConfigurationError(
                "transport='process' cannot carry band-width traces: packed "
                "result tables are fixed-width; use transport='thread' for "
                "trace mode"
            )
        self.config = config
        self.max_redeliveries = int(max_redeliveries)
        self.worker_stats = [WorkerStats(worker_index=0)]
        self.crashes = 0
        self.last_crash_dump: dict | None = None
        self._fault = fault_injection
        self._ctx = mp.get_context("spawn")
        self._result_queue = self._ctx.Queue()
        self._task_queue = None
        self._proc = None
        self._spec = {"config": config.to_dict()}
        self._seq = 0
        self._closed = False

        self._obs = obs
        if obs is not None:
            shard = ("shard",)
            self._shard_batches = obs.counter(
                "repro_worker_batches_total", "batches run per shard", shard
            )
            self._shard_jobs = obs.counter(
                "repro_worker_jobs_total", "jobs aligned per shard", shard
            )
            self._shard_cells = obs.counter(
                "repro_worker_cells_total", "DP cells aligned per shard", shard
            )
            self._shard_seconds = obs.counter(
                "repro_worker_busy_seconds_total",
                "wall seconds busy per shard",
                shard,
            )
            self._crash_c = obs.counter(
                "repro_worker_crash_total",
                "worker processes that died and were respawned",
            )
        else:
            self._shard_batches = None
            self._crash_c = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker process (idempotent)."""
        if self._proc is None and not self._closed:
            self._spawn()

    def _spawn(self) -> None:
        self._close_task_queue()
        spec = dict(self._spec)
        if self._fault:
            spec["fault"], self._fault = self._fault, None
        self._task_queue = self._ctx.Queue()
        self._proc = self._ctx.Process(
            target=worker_main,
            args=(0, self._task_queue, self._result_queue, spec),
            daemon=True,
            name="repro-worker-0",
        )
        self._proc.start()

    def _close_task_queue(self) -> None:
        if self._task_queue is not None:
            self._task_queue.close()
            self._task_queue.cancel_join_thread()

    def shutdown(self) -> None:
        """Send the sentinel, join the worker, drop the queues."""
        if self._closed:
            return
        self._closed = True
        proc = self._proc
        if proc is not None:
            if proc.is_alive():
                try:
                    self._task_queue.put(None)
                except (OSError, ValueError):
                    pass
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._close_task_queue()
        self._result_queue.close()
        self._result_queue.cancel_join_thread()

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- dispatch ---------------------------------------------------------

    def run_batch(self, jobs: Sequence[AlignmentJob]) -> PoolRun:
        """Align *jobs* on the worker process; results in job order."""
        if self._closed:
            raise ServiceError("process pool is shut down")
        jobs = list(jobs)
        if not jobs:
            return PoolRun(results=[], summary=BatchWorkSummary(), elapsed_seconds=0.0)
        self.start()
        timer = Timer()
        with timer:
            shard = self._dispatch(jobs)
            try:
                reply = self._collect(shard)
            finally:
                shard.block.close()
                shard.block.unlink()
        return self._merge(shard, reply, timer.elapsed)

    def _dispatch(self, jobs) -> _Shard:
        block = SharedJobBlock.create(jobs)
        task = {"seq": self._next_seq(), "shm": block.name, "count": len(jobs)}
        self._task_queue.put(task)
        return _Shard(block=block, task=task)

    def _collect(self, shard: _Shard) -> dict:
        """Wait for *shard*'s reply, redelivering it if the worker dies."""
        while True:
            try:
                reply = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                if not self._proc.is_alive():
                    self._respawn_and_redeliver(shard)
                continue
            if not reply.get("ok", False):
                self.last_crash_dump = reply.get("flight_recorder")
                detail = reply.get("error", "unknown worker failure")
                trace = reply.get("traceback")
                raise ServiceError(
                    f"worker {reply.get('worker')} failed: {detail}"
                    + (f"\n{trace}" if trace else "")
                )
            if reply.get("seq") == shard.task["seq"]:
                return reply
            # Otherwise a stale duplicate after a redelivery race.

    def _respawn_and_redeliver(self, shard: _Shard) -> None:
        self.crashes += 1
        if self._crash_c is not None:
            self._crash_c.inc()
        if self._obs is not None:
            self._obs.event(
                "worker_process_died", worker=0, exitcode=self._proc.exitcode
            )
        self._spawn()
        if shard.redeliveries >= self.max_redeliveries:
            raise ServiceError(
                f"worker died {shard.redeliveries + 1} times on the same "
                f"batch ({shard.task['count']} jobs); giving up after "
                f"{self.max_redeliveries} redeliveries"
            )
        shard.redeliveries += 1
        shard.task = dict(shard.task, seq=self._next_seq())
        self._task_queue.put(shard.task)

    def _merge(self, shard: _Shard, reply: dict, elapsed: float) -> PoolRun:
        results = unpack_results(reply["results"])
        count = shard.task["count"]
        if len(results) != count:
            raise ServiceError(
                f"worker {reply['worker']} returned {len(results)} results "
                f"for a {count}-job batch"
            )
        cells = int(reply["summary"][2])
        stats = self.worker_stats[0]
        stats.batches += 1
        stats.jobs += count
        stats.cells += cells
        stats.seconds += float(reply["elapsed"])
        if self._shard_batches is not None:
            self._shard_batches.inc(shard="0")
            self._shard_jobs.inc(count, shard="0")
            self._shard_cells.inc(cells, shard="0")
            self._shard_seconds.inc(float(reply["elapsed"]), shard="0")
        self._merge_counters(reply.get("counters") or ())
        kernel_stats = reply.get("kernel_stats")
        return PoolRun(
            results=results,
            summary=BatchWorkSummary(*reply["summary"]),
            elapsed_seconds=elapsed,
            extras={"kernel_stats": kernel_stats} if kernel_stats is not None else {},
        )

    def _merge_counters(self, entries) -> None:
        """Fold worker-side counter deltas into the coordinator registry."""
        if self._obs is None:
            return
        for entry in entries:
            labels = dict(entry["labels"])
            counter = self._obs.counter(
                entry["name"], entry.get("help", ""), tuple(labels.keys())
            )
            counter.inc(float(entry["delta"]), **labels)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq
