"""Bounded submission queue and per-job tickets of the alignment service.

Submission is asynchronous: each accepted job yields an
:class:`AlignmentTicket` — a tiny future that the caller can poll
(:meth:`~AlignmentTicket.done`) or block on (:meth:`~AlignmentTicket.result`)
while the service batches and aligns in the background.  The queue is
bounded: when producers outrun the workers, ``put`` blocks (backpressure)
and eventually raises :class:`~repro.errors.ServiceError` instead of letting
memory grow without limit — the behaviour a batch-serving front door needs
under heavy traffic.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from ..core.job import AlignmentJob
from ..core.result import SeedAlignmentResult
from ..errors import ServiceError

__all__ = ["AlignmentTicket", "SubmissionQueue"]


class AlignmentTicket:
    """Future for one submitted alignment job.

    Attributes
    ----------
    job:
        The submitted :class:`~repro.core.job.AlignmentJob`.
    cache_key:
        The content-addressed key the service computed at submission time
        (stored so completion does not re-hash the sequences).
    cache_hit:
        True when the result was answered from the cache without aligning.
    batch_size:
        Size of the formed batch this job was aligned in (1 for cache hits).
    durable_id:
        Row id in the durable SQLite queue when the service persists
        submissions (``None`` otherwise); completion deletes the row.
    prefilter:
        Admission triage outcome (``"reject"``/``"duplicate"``/
        ``"contested"``) when the service runs a prefilter, ``None``
        otherwise.
    """

    def __init__(self, job: AlignmentJob, cache_key: Any = None) -> None:
        self.job = job
        self.cache_key = cache_key
        self.cache_hit = False
        self.batch_size = 0
        self.prefilter: str | None = None
        self.durable_id: int | None = None
        self.enqueued_at: float | None = None  # monotonic; set by the queue
        self._event = threading.Event()
        self._result: SeedAlignmentResult | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """True once a result (or an error) has been delivered."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> SeedAlignmentResult:
        """Block until the alignment finishes and return its result.

        Raises
        ------
        ServiceError
            If no result arrives within *timeout* seconds, or the batch
            failed (an engine's own exception is its ``__cause__``).
        """
        if not self._event.wait(timeout):
            raise ServiceError(
                f"alignment result not ready within {timeout} s "
                "(is the service running / drained?)"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    # ------------------------------------------------------------------ #
    # Completion side (called by the service, not by clients).
    def resolve(
        self,
        result: SeedAlignmentResult,
        cache_hit: bool = False,
        batch_size: int = 1,
    ) -> None:
        """Deliver the alignment result and wake any waiter."""
        self._result = result
        self.cache_hit = cache_hit
        self.batch_size = batch_size
        self._event.set()

    def fail(self, error: BaseException) -> None:
        """Deliver an error instead of a result."""
        self._error = error
        self._event.set()


class SubmissionQueue:
    """Thread-safe bounded FIFO of pending tickets.

    Parameters
    ----------
    capacity:
        Maximum number of queued tickets.  ``put`` blocks while the queue is
        full and raises :class:`ServiceError` after *timeout* seconds — the
        explicit backpressure contract of the service front door.
    """

    def __init__(self, capacity: int = 1024, obs=None) -> None:
        if capacity <= 0:
            raise ServiceError(f"queue capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._items: deque[AlignmentTicket] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # Optional repro.obs.Observability handle; instruments are created
        # up front so the series exist in snapshots taken before traffic.
        self._depth_gauge = (
            obs.gauge("repro_queue_depth", "tickets waiting in the submission queue")
            if obs is not None
            else None
        )
        self._wait_hist = (
            obs.histogram(
                "repro_queue_wait_seconds", "queue residency per popped ticket"
            )
            if obs is not None
            else None
        )

    @property
    def depth(self) -> int:
        """Number of tickets currently queued."""
        with self._lock:
            return len(self._items)

    def close(self) -> None:
        """Reject further ``put`` calls and wake every waiter."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def put(self, ticket: AlignmentTicket, timeout: float | None = 5.0) -> None:
        """Enqueue *ticket*, blocking while the queue is full.

        Raises
        ------
        ServiceError
            If the queue is closed, or stays full past *timeout* seconds.
        """
        with self._not_full:
            if self._closed:
                raise ServiceError("submission queue is closed")
            while len(self._items) >= self.capacity:
                if not self._not_full.wait(timeout):
                    raise ServiceError(
                        f"submission queue full ({self.capacity} jobs) for "
                        f"{timeout} s — backpressure limit reached"
                    )
                if self._closed:
                    raise ServiceError("submission queue is closed")
            ticket.enqueued_at = time.monotonic()
            self._items.append(ticket)
            if self._depth_gauge is not None:
                self._depth_gauge.set(len(self._items))
            self._not_empty.notify()

    def wait(self) -> bool:
        """Block until a ticket is queued or the queue closes.

        The consumer's only wait: it takes nothing, so the caller can pop
        under its own lock.  Returns False once the queue is closed.
        """
        with self._not_empty:
            while not self._items and not self._closed:
                self._not_empty.wait()
            return not self._closed

    def pop(self, max_items: int = 1) -> list[AlignmentTicket]:
        """Dequeue up to *max_items* tickets in FIFO order, without blocking.

        Returns whatever is immediately available (possibly nothing).
        """
        with self._not_empty:
            taken: list[AlignmentTicket] = []
            while self._items and len(taken) < max_items:
                taken.append(self._items.popleft())
            if taken:
                if self._depth_gauge is not None:
                    self._depth_gauge.set(len(self._items))
                if self._wait_hist is not None:
                    now = time.monotonic()
                    for ticket in taken:
                        if ticket.enqueued_at is not None:
                            self._wait_hist.observe(now - ticket.enqueued_at)
                self._not_full.notify_all()
            return taken
