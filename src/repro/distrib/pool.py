"""Multi-process worker pool with shared-memory dispatch and crash recovery.

Drop-in peer of :class:`repro.service.ShardedWorkerPool` (same ``run_batch``
-> ``PoolRun`` contract, same per-shard metrics), but the workers are
spawned interpreter processes instead of the calling thread, so engine
dispatch runs outside the coordinator's GIL.

Each formed batch ships whole to one worker, round-robin across workers,
so no batch pays the per-step cost of being split into smaller kernel
calls.  Dispatch is serialized: the service calls :meth:`run_batch` under
its lock and the call blocks until the batch's results are back, so extra
workers take turns rather than overlap.  Two workers measured within host
noise of one on a 2-vCPU host (1.21 s against 1.25-1.40 s at batch 32,
1.49-1.61 s at batch 64); more workers pay only once dispatches overlap.

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
    """One dispatched batch: its worker, shm block and task."""

    worker_index: int
    block: SharedJobBlock
    task: dict
    redeliveries: int = 0


class ProcessWorkerPool:
    """Spawned worker processes, each formed batch sent whole to one of them.

    Parameters
    ----------
    config:
        The full alignment config; each worker rebuilds its engine from
        ``config.to_dict()`` in its own interpreter.  Trace mode is
        rejected — packed result tables carry no band-width traces.
    num_workers:
        Number of worker processes, fed round-robin.
    fault_injection:
        Test hook: ``{worker_index: {"after": n}}`` makes that worker
        hard-exit on its *n*-th task.  Consumed on first spawn only, so a
        respawned worker runs clean.
    max_redeliveries:
        How many times one batch may be redelivered after worker deaths
        before it fails.
    """

    def __init__(
        self,
        config: AlignConfig,
        num_workers: int = 2,
        obs=None,
        fault_injection: dict | None = None,
        max_redeliveries: int = 2,
    ) -> None:
        if num_workers <= 0:
            raise ServiceError(
                f"num_workers must be positive, got {num_workers}"
            )
        if config.trace:
            raise ConfigurationError(
                "transport='process' cannot carry band-width traces: packed "
                "result tables are fixed-width; use transport='thread' for "
                "trace mode"
            )
        self.config = config
        self.num_workers = int(num_workers)
        self.max_redeliveries = int(max_redeliveries)
        self.worker_stats = [
            WorkerStats(worker_index=i) for i in range(self.num_workers)
        ]
        self.crashes = 0
        self.last_crash_dump: dict | None = None
        self._fault_injection = dict(fault_injection or {})
        self._ctx = mp.get_context("spawn")
        self._result_queue = self._ctx.Queue()
        self._task_queues: list = [None] * self.num_workers
        self._procs: list = [None] * self.num_workers
        self._spec = {"config": config.to_dict()}
        self._seq = 0
        self._round_robin = 0
        self._started = False
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
        """Spawn the worker processes (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in range(self.num_workers):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        task_queue = self._ctx.Queue()
        spec = dict(self._spec)
        fault = self._fault_injection.pop(index, None)
        if fault is not None:
            spec["fault"] = fault
        proc = self._ctx.Process(
            target=worker_main,
            args=(index, task_queue, self._result_queue, spec),
            daemon=True,
            name=f"repro-worker-{index}",
        )
        proc.start()
        self._task_queues[index] = task_queue
        self._procs[index] = proc

    def shutdown(self) -> None:
        """Send sentinels, join workers, drop the queues."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            for task_queue, proc in zip(self._task_queues, self._procs):
                if proc is not None and proc.is_alive():
                    try:
                        task_queue.put(None)
                    except (OSError, ValueError):
                        pass
            for proc in self._procs:
                if proc is not None:
                    proc.join(timeout=5.0)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=1.0)
        for task_queue in self._task_queues:
            if task_queue is not None:
                task_queue.close()
                task_queue.cancel_join_thread()
        self._result_queue.close()
        self._result_queue.cancel_join_thread()

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- dispatch ---------------------------------------------------------

    def run_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring=None,
        xdrop: int | None = None,
    ) -> PoolRun:
        """Align *jobs* on the next worker process; results in job order."""
        if self._closed:
            raise ServiceError("process pool is shut down")
        jobs = list(jobs)
        if not jobs:
            return PoolRun(results=[], summary=BatchWorkSummary(), elapsed_seconds=0.0)
        self.start()
        timer = Timer()
        with timer:
            shard = self._dispatch(jobs, scoring, xdrop)
            try:
                reply = self._collect(shard)
            finally:
                shard.block.close()
                shard.block.unlink()
        return self._merge(shard, reply, timer.elapsed)

    def _dispatch(self, jobs, scoring, xdrop) -> _Shard:
        worker_index = self._round_robin % self.num_workers
        self._round_robin += 1
        block = SharedJobBlock.create(jobs)
        task = {
            "seq": self._next_seq(),
            "shm": block.name,
            "count": len(jobs),
            "scoring": None if scoring is None else scoring.as_tuple(),
            "xdrop": None if xdrop is None else int(xdrop),
        }
        self._task_queues[worker_index].put(task)
        return _Shard(worker_index=worker_index, block=block, task=task)

    def _collect(self, shard: _Shard) -> dict:
        """Wait for *shard*'s reply, redelivering it if its worker dies."""
        while True:
            try:
                reply = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                if not self._procs[shard.worker_index].is_alive():
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
        worker_index = shard.worker_index
        self.crashes += 1
        if self._crash_c is not None:
            self._crash_c.inc()
        if self._obs is not None:
            self._obs.event(
                "worker_process_died",
                worker=worker_index,
                exitcode=self._procs[worker_index].exitcode,
            )
        self._spawn(worker_index)
        if shard.redeliveries >= self.max_redeliveries:
            raise ServiceError(
                f"worker {worker_index} died "
                f"{shard.redeliveries + 1} times on the same batch "
                f"({shard.task['count']} jobs); giving up after "
                f"{self.max_redeliveries} redeliveries"
            )
        shard.redeliveries += 1
        shard.task = dict(shard.task, seq=self._next_seq())
        self._task_queues[worker_index].put(shard.task)

    def _merge(self, shard: _Shard, reply: dict, elapsed: float) -> PoolRun:
        results = unpack_results(reply["results"])
        count = shard.task["count"]
        if len(results) != count:
            raise ServiceError(
                f"worker {reply['worker']} returned {len(results)} results "
                f"for a {count}-job batch"
            )
        cells = int(reply["summary"][2])
        stats = self.worker_stats[shard.worker_index]
        stats.batches += 1
        stats.jobs += count
        stats.cells += cells
        stats.seconds += float(reply["elapsed"])
        if self._shard_batches is not None:
            label = str(shard.worker_index)
            self._shard_batches.inc(shard=label)
            self._shard_jobs.inc(count, shard=label)
            self._shard_cells.inc(cells, shard=label)
            self._shard_seconds.inc(float(reply["elapsed"]), shard=label)
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
