"""The :class:`AlignmentService` facade: queue -> cache -> batcher -> workers.

The serving layer turns the library's batch engines into a front door for
individually submitted alignment requests:

1. ``submit`` computes the content-addressed cache key; a hit resolves the
   ticket immediately, a miss enqueues it on the bounded submission queue
   (backpressure);
2. the processing loop feeds tickets into the adaptive batcher; each
   flush sorts everything pending by length and cuts it into batches of
   at most ``max_batch_size`` (one batch unless more are pending);
3. each formed batch runs whole, as one engine call, on the worker pool
   (inline on the thread transport, in the one worker process on the
   process transport); results are scattered back to the tickets and
   inserted into the cache.

The service runs in two modes.  *Inline* (default): nothing happens until
:meth:`drain`, which processes everything synchronously — deterministic,
the mode tests, examples and bench rows use.  *Background*: :meth:`start`
spawns a daemon thread that sleeps on the queue until a request arrives,
then flushes everything queued and dispatches it at once — whatever
arrives during one engine call forms the next batches, so batch size
follows load.  This is the live-serving mode of the ``repro-service``
CLI.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.job import AlignmentJob
from ..core.xdrop_batch import BatchKernelStats
from ..core.result import SeedAlignmentResult
from ..engine.base import engine_from_config
from ..errors import ServiceError
from ..obs.provenance import build_provenance
from ..obs.runtime import get_observability
from ..perf.metrics import gcups
from ..prefilter import PREFILTER_OUTCOMES
from .batcher import AdaptiveBatcher, FormedBatch
from .cache import CacheStats, ResultCache, job_cache_key, result_digest
from .queue import AlignmentTicket, SubmissionQueue
from .workers import ShardedWorkerPool, WorkerStats

__all__ = ["ServiceStats", "AlignmentService"]


@dataclass
class ServiceStats:
    """Point-in-time snapshot of a service's counters.

    Attributes
    ----------
    submitted, completed:
        Jobs accepted / jobs resolved (cache hits count as both).
    queue_depth, batcher_pending:
        Work currently waiting in the queue / in the batcher.
    batches_formed, batched_jobs:
        Batches the batcher has flushed, by any reason, and the jobs in
        them (cache hits, durable-store hits and prefilter rejects never
        enter a batch).
    flush_reasons:
        Breakdown of flushes: ``idle`` (background loop, worker free) /
        ``drain`` (:meth:`AlignmentService.drain`, shutdown).
    cache:
        Cache counters (hits, misses, evictions, hit rate).
    cells, busy_seconds, throughput_gcups:
        Total aligned DP cells, wall-clock spent inside worker batches, and
        the resulting GCUPS (0.0 before any work ran).
    workers:
        Accounting (batches, jobs, cells, seconds) of the pool's one
        worker: the inline worker on the thread transport, the worker
        process on the process transport.
    kernel_live_fraction:
        Fraction of the carried kernel row-steps that were still extending,
        over every batch the service has run — the value of the exported
        ``repro_kernel_live_fraction`` gauge (``None`` until an engine
        reports kernel stats).
    prefilter_mode, prefilter_decisions:
        Admission triage mode (``"off"``/``"advise"``/``"enforce"``) and
        the per-outcome decision counts (empty when the prefilter is off).
    """

    submitted: int = 0
    completed: int = 0
    queue_depth: int = 0
    batcher_pending: int = 0
    batches_formed: int = 0
    batched_jobs: int = 0
    flush_reasons: dict = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    cells: int = 0
    busy_seconds: float = 0.0
    throughput_gcups: float = 0.0
    workers: list[WorkerStats] = field(default_factory=list)
    kernel_live_fraction: float | None = None
    prefilter_mode: str = "off"
    prefilter_decisions: dict = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Mean jobs per formed batch (0.0 before the first batch)."""
        if self.batches_formed == 0:
            return 0.0
        return self.batched_jobs / self.batches_formed

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the CLI and benchmarks)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "queue_depth": self.queue_depth,
            "batcher_pending": self.batcher_pending,
            "batches_formed": self.batches_formed,
            "batched_jobs": self.batched_jobs,
            "mean_batch_size": self.mean_batch_size,
            "flush_reasons": dict(self.flush_reasons),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_evictions": self.cache.evictions,
            "cache_hit_rate": self.cache.hit_rate,
            "cells": self.cells,
            "busy_seconds": self.busy_seconds,
            "throughput_gcups": self.throughput_gcups,
            "workers": [
                {
                    "worker": w.worker_index,
                    "batches": w.batches,
                    "jobs": w.jobs,
                    "cells": w.cells,
                    "seconds": w.seconds,
                }
                for w in self.workers
            ],
            "kernel_live_fraction": self.kernel_live_fraction,
            "prefilter_mode": self.prefilter_mode,
            "prefilter_decisions": dict(self.prefilter_decisions),
        }


class AlignmentService:
    """Asynchronous batch-alignment service over the engine registry.

    Parameters
    ----------
    config:
        The :class:`repro.api.AlignConfig` to serve (default:
        ``AlignConfig()``).  Its engine, engine options, scoring, X and
        trace mode define every alignment, and their
        :func:`~repro.service.cache.result_digest` is part of every cache
        key, in memory and in the durable store; the nested
        :class:`repro.api.ServiceConfig` supplies every serving knob —
        transport, batch size cap, cache and queue bounds, durable state and
        prefilter.
    """

    def __init__(self, config=None) -> None:
        if config is None:
            from ..api import AlignConfig

            config = AlignConfig()
        svc = config.service
        self.config = config
        self.scoring = config.scoring
        self.engine = engine_from_config(config)
        self._digest = result_digest(config)
        # Every service gets a private metrics registry (two services never
        # mix series) sharing the process-wide tracer and flight recorder.
        # ServiceStats is a *view* over this registry.
        self.obs = get_observability().scoped()
        self.queue = SubmissionQueue(capacity=svc.queue_capacity, obs=self.obs)
        self.batcher = AdaptiveBatcher(svc.max_batch_size, obs=self.obs)
        self.cache = ResultCache(capacity=svc.cache_capacity, obs=self.obs)
        self.transport = svc.transport
        if svc.transport == "process":
            # One spawned worker process fed through shared memory; it
            # rebuilds the engine from the config in its own interpreter.
            from ..distrib.pool import ProcessWorkerPool

            self.pool = ProcessWorkerPool(config, obs=self.obs)
        else:
            self.pool = ShardedWorkerPool(engine=self.engine, obs=self.obs)
        self.submit_timeout = svc.submit_timeout
        self.prefilter_mode = svc.prefilter
        self.prefilter = None
        if svc.prefilter != "off":
            from ..prefilter import PrefilterPolicy

            self.prefilter = PrefilterPolicy.from_options(svc.prefilter_options)
        self.store = None
        self._key_json = None
        if svc.state_path:
            from ..distrib.store import DurableStore
            from ..distrib.wire import cache_key_to_json

            self.store = DurableStore(svc.state_path, obs=self.obs)
            self._key_json = cache_key_to_json
        self._lock = threading.RLock()
        self._thread: threading.Thread | None = None
        self._shutdown = False
        self._submitted_c = self.obs.counter(
            "repro_service_submitted_total", "jobs accepted by submit()"
        )
        self._completed_c = self.obs.counter(
            "repro_service_completed_total", "jobs resolved (cache hits included)"
        )
        self._cells_c = self.obs.counter(
            "repro_service_cells_total", "DP cells aligned by the pool"
        )
        self._busy_c = self.obs.counter(
            "repro_service_busy_seconds_total", "wall seconds inside pool batches"
        )
        self._live_fraction_g = self.obs.gauge(
            "repro_kernel_live_fraction",
            "live fraction of the batched kernel's row-steps (lifetime)",
        )
        self._useful_fraction_g = self.obs.gauge(
            "repro_kernel_useful_fraction",
            "useful fraction of the batched kernel's window cells (lifetime)",
        )
        self._prefilter_c = self.obs.counter(
            "repro_prefilter_decisions_total",
            "admission triage decisions, by outcome",
            labelnames=("outcome",),
        )
        # Every batch's kernel telemetry merged into one lifetime
        # accumulator (None until an engine reports kernel stats).
        self._kernel_stats: BatchKernelStats | None = None
        self.crash_dump_path = None  # optional JSON path for crash dumps
        self.last_crash_dump: dict | None = None
        self._recovered_c = self.obs.counter(
            "repro_service_recovered_total",
            "durable jobs re-enqueued at startup (restart recovery)",
        )
        self.recovered_tickets: list[AlignmentTicket] = []
        if self.store is not None:
            self._recover_durable()

    def _recover_durable(self) -> None:
        """Re-enqueue every unfinished job found in the durable store.

        Jobs the previous process had in flight when it died come back
        first (the store counts them as redeliveries).  Recovery can
        exceed the queue bound, so full chunks are drained synchronously
        in between — by the time the constructor returns, every recovered
        job is either queued or already aligned and persisted.  Queue rows
        store no key: each one is computed from the stored job under this
        service's config.
        """
        for record in self.store.recover():
            ticket = AlignmentTicket(
                record.job, cache_key=job_cache_key(record.job, self._digest)
            )
            ticket.durable_id = record.row_id
            self._submitted_c.inc()
            self._recovered_c.inc()
            if self.queue.depth >= self.queue.capacity:
                self.drain()
            self.queue.put(ticket, timeout=self.submit_timeout)
            self.recovered_tickets.append(ticket)

    # ------------------------------------------------------------------ #
    # Submission side.
    def submit(self, job: AlignmentJob) -> AlignmentTicket:
        """Accept one job; returns a ticket immediately.

        Cache hits resolve the ticket before it returns.  Misses enqueue
        it: in background mode a full queue blocks the caller
        (backpressure) and raises :class:`ServiceError` after
        ``submit_timeout``; in inline mode — where nothing else could ever
        empty the queue — a full queue triggers a synchronous
        :meth:`drain` instead, so any number of submissions succeeds.
        """
        if self._shutdown:
            raise ServiceError("service has been shut down")
        with self.obs.span("service.submit", pair_id=job.pair_id):
            key = job_cache_key(job, self._digest)
            ticket = AlignmentTicket(job, cache_key=key)
            if self.prefilter is not None:
                # Admission triage runs on every submission — before the
                # cache, the durable store and (in the process transport)
                # any shared-memory packing, so rejected pairs never cost
                # more than the sketch.  Under "advise" the outcome is
                # only counted; under "enforce" a reject resolves
                # instantly with the seed-only placeholder and is kept
                # out of the content-addressed cache (its key must keep
                # meaning "real alignment" for every other mode).
                decision = self.prefilter.classify(job, self.scoring)
                ticket.prefilter = decision.outcome
                self._prefilter_c.inc(outcome=decision.outcome)
                if (
                    self.prefilter_mode == "enforce"
                    and decision.outcome == "reject"
                ):
                    from ..prefilter import rejected_result

                    with self._lock:
                        self._submitted_c.inc()
                        self._completed_c.inc()
                    ticket.resolve(
                        rejected_result(job, self.scoring), cache_hit=False
                    )
                    return ticket
            # The cache and counters are shared with the background loop's
            # _dispatch; all access goes through the service lock.
            with self._lock:
                self._submitted_c.inc()
                cached = self.cache.get(key)
                if cached is not None:
                    self._completed_c.inc()
            if cached is not None:
                ticket.resolve(cached, cache_hit=True)
                return ticket
            if self.store is not None:
                key_json = self._key_json(key)
                durable = self.store.lookup_result(key_json)
                if durable is not None:
                    # Restart-surviving hit: warm the in-memory cache so
                    # repeats stay off the disk path.
                    with self._lock:
                        self.cache.put(key, durable)
                        self._completed_c.inc()
                    ticket.resolve(durable, cache_hit=True)
                    return ticket
                ticket.durable_id = self.store.enqueue(job)
            if not self.running and self.queue.depth >= self.queue.capacity:
                self.drain()
            self.queue.put(ticket, timeout=self.submit_timeout)
            return ticket

    def submit_many(self, jobs: Iterable[AlignmentJob]) -> list[AlignmentTicket]:
        """Submit an iterable of jobs, one ticket each."""
        return [self.submit(job) for job in jobs]

    def map(self, jobs: Sequence[AlignmentJob]) -> list[SeedAlignmentResult]:
        """Submit, drain, and return results in submission order.

        The synchronous convenience for one whole batch, e.g. a workload
        run through admission triage (``examples/prefilter_triage.py``).
        """
        tickets = self.submit_many(jobs)
        self.drain()
        return [t.result(timeout=60.0) for t in tickets]

    # ------------------------------------------------------------------ #
    # Processing side.
    def _dispatch(self, batch: FormedBatch) -> None:
        """Run one formed batch on the pool and resolve its tickets."""
        durable_ids = (
            [t.durable_id for t in batch.tickets if t.durable_id is not None]
            if self.store is not None
            else []
        )
        if durable_ids:
            self.store.mark_inflight(durable_ids)
        try:
            with self.obs.span(
                "service.dispatch", size=batch.size, reason=batch.reason
            ):
                run = self.pool.run_batch(batch.jobs())
        except Exception as error:
            if not isinstance(error, ServiceError):
                # The thread transport runs the engine inline: fail its
                # tickets with a named ServiceError, as the process pool
                # does, chained to the engine's own exception.
                cause = error
                error = ServiceError(
                    f"engine failed on a batch of {batch.size} jobs: {cause!r}"
                )
                error.__cause__ = cause
            if durable_ids:
                # Back to pending: a restart will redeliver these jobs even
                # though this process's tickets fail now.
                self.store.release(durable_ids)
            self._record_crash(error, batch)
            for ticket in batch.tickets:
                ticket.fail(error)
            return
        if len(run.results) != batch.size:
            # A truncated (or padded) result list must fail the whole
            # batch loudly: zipping it against the tickets would silently
            # drop the tail and leave those submitters blocked forever.
            error = ServiceError(
                f"engine returned {len(run.results)} results for a batch "
                f"of {batch.size} jobs: refusing to scatter a mismatched batch"
            )
            if durable_ids:
                self.store.release(durable_ids)
            self._record_crash(error, batch)
            for ticket in batch.tickets:
                ticket.fail(error)
            return
        if self.store is not None:
            self.store.complete(
                (ticket.durable_id, self._key_json(ticket.cache_key), result)
                for ticket, result in zip(batch.tickets, run.results)
            )
        with self._lock:
            self._cells_c.inc(run.summary.cells)
            self._busy_c.inc(run.elapsed_seconds)
            self._completed_c.inc(batch.size)
            kernel_stats = run.extras.get("kernel_stats")
            if kernel_stats is not None:
                if self._kernel_stats is None:
                    self._kernel_stats = BatchKernelStats()
                self._kernel_stats.merge(kernel_stats)
                self._live_fraction_g.set(self._kernel_stats.live_fraction)
                self._useful_fraction_g.set(self._kernel_stats.useful_fraction)
            for ticket, result in zip(batch.tickets, run.results):
                self.cache.put(ticket.cache_key, result)
        for ticket, result in zip(batch.tickets, run.results):
            ticket.resolve(result, cache_hit=False, batch_size=batch.size)

    def _record_crash(self, error: BaseException, batch: FormedBatch) -> None:
        """Feed a worker failure into the flight recorder (when attached).

        The dump lands at :attr:`crash_dump_path` (when set) and is always
        kept on :attr:`last_crash_dump` so the conformance harness and the
        CLI can reference it from their failure reports.
        """
        self.obs.event(
            "worker_crash",
            error=repr(error),
            batch_size=batch.size,
            reason=batch.reason,
        )
        if self.obs.recorder is not None:
            self.last_crash_dump = self.obs.recorder.dump(
                path=self.crash_dump_path,
                reason="worker_crash",
                provenance=self._provenance(),
            )

    def _provenance(self) -> dict:
        """Provenance stamped onto exported snapshots and crash dumps."""
        return build_provenance(config=self.config)

    def _pump(self) -> None:
        """Move every queued ticket into the batcher."""
        for ticket in self.queue.pop(max_items=self.queue.capacity):
            self.batcher.add(ticket)

    def drain(self) -> int:
        """Synchronously process everything queued; returns jobs aligned.

        Safe to call whether or not the background thread is running (the
        loop and ``drain`` serialise on one lock).
        """
        aligned = 0
        with self._lock:
            while True:
                self._pump()
                batches = self.batcher.flush_all()
                if not batches:
                    break
                for batch in batches:
                    self._dispatch(batch)
                    aligned += batch.size
        return aligned

    # ------------------------------------------------------------------ #
    # Lifecycle.
    def start(self) -> "AlignmentService":
        """Start the background processing thread (idempotent)."""
        if self._shutdown:
            raise ServiceError("service has been shut down")
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._loop, name="alignment-service", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        # Block outside the lock, so submit() and drain() never wait on an
        # idle loop; pop under it, so drain() and shutdown() never miss a
        # ticket that has left the queue but not yet reached the batcher.
        while self.queue.wait():
            with self._lock:
                self._pump()
                for batch in self.batcher.due():
                    self._dispatch(batch)

    @property
    def running(self) -> bool:
        """True while the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the service; optionally align everything still pending."""
        if self._shutdown:
            return
        if drain:
            self.drain()
        self._shutdown = True
        self.queue.close()  # wakes the loop out of queue.wait()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if not drain:
            for ticket in self.queue.pop(max_items=self.queue.capacity):
                ticket.fail(ServiceError("service shut down before alignment"))
            for batch in self.batcher.flush_all():
                for ticket in batch.tickets:
                    ticket.fail(ServiceError("service shut down before alignment"))
        pool_shutdown = getattr(self.pool, "shutdown", None)
        if pool_shutdown is not None:  # process pools own OS resources
            pool_shutdown()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "AlignmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=exc_info[0] is None)

    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """Snapshot of every counter (throughput via :func:`gcups`).

        The numbers are read back from the service's private metrics
        registry — :class:`ServiceStats` is a back-compatible *view* over
        the same series :meth:`metrics_snapshot` exports.
        """
        with self._lock:
            cells = int(self._cells_c.value())
            busy = self._busy_c.value()
            return ServiceStats(
                submitted=int(self._submitted_c.value()),
                completed=int(self._completed_c.value()),
                queue_depth=self.queue.depth,
                batcher_pending=self.batcher.pending,
                batches_formed=self.batcher.batches_formed,
                batched_jobs=self.batcher.batched_jobs,
                flush_reasons=dict(self.batcher.flush_reasons),
                cache=self.cache.stats(),
                cells=cells,
                busy_seconds=busy,
                throughput_gcups=gcups(cells, busy),
                workers=list(self.pool.worker_stats),
                kernel_live_fraction=(
                    self._kernel_stats.live_fraction
                    if self._kernel_stats is not None
                    else None
                ),
                prefilter_mode=self.prefilter_mode,
                prefilter_decisions=(
                    {
                        outcome: int(self._prefilter_c.value(outcome=outcome))
                        for outcome in PREFILTER_OUTCOMES
                    }
                    if self.prefilter is not None
                    else {}
                ),
            )

    def metrics_snapshot(self, provenance: dict | None = None):
        """Provenance-stamped snapshot of the service's metrics registry."""
        return self.obs.registry.snapshot(
            provenance=provenance if provenance is not None else self._provenance()
        )
