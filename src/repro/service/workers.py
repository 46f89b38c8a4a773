"""Inline worker pool: run each formed batch as one engine call.

The formed batch is the service's only unit of dispatch.
:class:`ShardedWorkerPool` hands it whole to
:meth:`~repro.engine.AlignmentEngine.align_batch` on the calling thread.
LOGAN splits a batch across GPUs because the devices then run their shares
at the same time; GIL-bound threads cannot, and every share would pay the
kernel's per-anti-diagonal-step floor again (on a 2-vCPU host, 1, 2 and 4
thread shards took 1.11 s, 2.60 s and 6.03 s on the same batch-32 service
workload).  Parallel alignment is ``AlignConfig.workers``, which splits one
engine call across processes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from ..core.job import AlignmentJob, BatchWorkSummary
from ..core.result import SeedAlignmentResult
from ..engine.base import AlignmentEngine
from ..perf.timers import Timer

__all__ = ["WorkerStats", "ShardedWorkerPool"]


@dataclass
class WorkerStats:
    """Cumulative accounting of one worker."""

    worker_index: int
    batches: int = 0
    jobs: int = 0
    cells: int = 0
    seconds: float = 0.0


@dataclass
class PoolRun:
    """Result of pushing one formed batch through a pool.

    ``results`` is in the order of the input jobs.
    """

    results: list[SeedAlignmentResult]
    summary: BatchWorkSummary
    elapsed_seconds: float
    extras: dict = field(default_factory=dict)


class ShardedWorkerPool:
    """One inline worker that aligns each formed batch with one engine call.

    Parameters
    ----------
    engine:
        The alignment engine the worker calls.
    obs:
        Optional observability scope for the per-worker counters and the
        ``pool.shard`` span (labelled ``shard="0"``, like the process
        pool's workers).
    """

    def __init__(self, engine: AlignmentEngine, obs=None) -> None:
        self.engine = engine
        self.worker_stats = [WorkerStats(worker_index=0)]
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
                "repro_worker_busy_seconds_total", "wall seconds busy per shard", shard
            )

    def run_batch(self, jobs: Sequence[AlignmentJob]) -> PoolRun:
        """Align *jobs* in one engine call; results in job order.

        The engine's scoring and X are the ones it was built with; the
        service builds it from the same config its cache key digests.
        """
        jobs = list(jobs)
        if not jobs:
            return PoolRun(results=[], summary=BatchWorkSummary(), elapsed_seconds=0.0)
        timer = Timer()
        span = (
            self._obs.span("pool.shard", shard=0, jobs=len(jobs))
            if self._obs is not None
            else nullcontext()
        )
        with timer, span:
            batch = self.engine.align_batch(jobs)
        stats = self.worker_stats[0]
        stats.batches += 1
        stats.jobs += len(jobs)
        stats.cells += batch.summary.cells
        stats.seconds += batch.elapsed_seconds
        if self._obs is not None:
            self._shard_batches.inc(shard="0")
            self._shard_jobs.inc(len(jobs), shard="0")
            self._shard_cells.inc(batch.summary.cells, shard="0")
            self._shard_seconds.inc(batch.elapsed_seconds, shard="0")
        # The batched engine returns a fresh per-call kernel accumulator;
        # the service merges it into its lifetime live fraction.
        kernel_stats = batch.extras.get("kernel_stats")
        return PoolRun(
            results=batch.results,
            summary=batch.summary,
            elapsed_seconds=timer.elapsed,
            extras={"kernel_stats": kernel_stats} if kernel_stats is not None else {},
        )
