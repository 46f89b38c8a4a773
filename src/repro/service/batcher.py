"""Adaptive batch former: coalesce single submissions into engine-sized batches.

The inter-sequence batched kernel sweeps every extension of a batch in
one call and pays a fixed cost per anti-diagonal step on every call, so
the batcher makes as few calls as it can.  Tickets wait in one pending
list until a flush, which happens when

* the worker is idle (:meth:`AdaptiveBatcher.due`, reason ``"idle"``), so
  whatever arrived during the last engine call forms the next batches and
  batch size follows load, or
* the service drains (:meth:`AdaptiveBatcher.flush_all`, reason
  ``"drain"``: shutdown or explicit flush).

A flush sorts the pending tickets by ``query + target`` length (stably,
so ties keep submission order) and cuts them into consecutive batches of
at most ``max_batch_size``: a flush within the cap is one engine call,
and a larger one is ``ceil(n / max_batch_size)`` calls, each over pairs
of similar length: a call sweeps as many anti-diagonals as its longest
pair needs, so short pairs grouped together make short calls.

This is the host-side batching of the paper's Section IV recast as a
serving policy: individually submitted requests amortise into the same
device-sized batches the offline pipeline builds up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ServiceError
from .queue import AlignmentTicket

__all__ = ["FormedBatch", "AdaptiveBatcher"]


@dataclass
class FormedBatch:
    """One batch the batcher decided to flush.

    Attributes
    ----------
    tickets:
        The member tickets, in length order (``query + target`` length,
        ties in submission order).
    reason:
        Why it flushed: ``"idle"`` (the worker was free) or ``"drain"``
        (explicit drain or shutdown).
    """

    tickets: list[AlignmentTicket]
    reason: str

    @property
    def size(self) -> int:
        """Number of jobs in the batch."""
        return len(self.tickets)

    def jobs(self) -> list:
        """The member jobs, in the order of :attr:`tickets`."""
        return [t.job for t in self.tickets]


#: Occupancy buckets: powers of two up to the default engine batch size x4.
_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def _pair_length(ticket: AlignmentTicket) -> int:
    return ticket.job.query_length + ticket.job.target_length


class AdaptiveBatcher:
    """Holds pending tickets and cuts each flush into length-sorted batches.

    Parameters
    ----------
    max_batch_size:
        Most jobs in one batch; it splits only flushes larger than itself.
    obs:
        Optional observability bundle for the flush counters, the
        occupancy histogram and the pending gauge.
    """

    def __init__(self, max_batch_size: int, obs=None) -> None:
        if max_batch_size <= 0:
            raise ServiceError(
                f"max_batch_size must be positive, got {max_batch_size}"
            )
        self.max_batch_size = max_batch_size
        self._pending: list[AlignmentTicket] = []
        self.batches_formed = 0
        #: Jobs in the flushed batches — the numerator of the mean batch
        #: size (cache hits and prefilter rejects never reach the batcher).
        self.batched_jobs = 0
        self.flush_reasons: dict[str, int] = {"idle": 0, "drain": 0}
        self._obs = obs
        if obs is not None:
            self._formed_counter = obs.counter(
                "repro_batches_formed_total",
                "batches flushed, by flush reason",
                ("reason",),
            )
            self._occupancy_hist = obs.histogram(
                "repro_batch_occupancy",
                "jobs per flushed batch",
                buckets=_OCCUPANCY_BUCKETS,
            )
            self._pending_gauge = obs.gauge(
                "repro_batcher_pending", "tickets waiting in the batcher"
            )
        else:
            self._formed_counter = None
            self._occupancy_hist = None
            self._pending_gauge = None

    @property
    def pending(self) -> int:
        """Number of tickets waiting for the next flush."""
        return len(self._pending)

    def add(self, ticket: AlignmentTicket) -> None:
        """Admit one ticket; it waits for the next flush."""
        self._pending.append(ticket)
        if self._pending_gauge is not None:
            self._pending_gauge.set(self.pending)

    def due(self) -> list[FormedBatch]:
        """Flush everything pending because the worker is idle."""
        return self._flush("idle")

    def flush_all(self) -> list[FormedBatch]:
        """Flush everything pending (drain / shutdown path)."""
        return self._flush("drain")

    def _flush(self, reason: str) -> list[FormedBatch]:
        tickets = sorted(self._pending, key=_pair_length)
        self._pending = []
        cap = self.max_batch_size
        batches = [
            FormedBatch(tickets=tickets[start : start + cap], reason=reason)
            for start in range(0, len(tickets), cap)
        ]
        for batch in batches:
            self.batches_formed += 1
            self.batched_jobs += batch.size
            self.flush_reasons[reason] += 1
            if self._formed_counter is not None:
                self._formed_counter.inc(reason=reason)
                self._occupancy_hist.observe(batch.size)
            if self._obs is not None:
                with self._obs.span("batcher.flush", reason=reason, size=batch.size):
                    pass
        if self._pending_gauge is not None:
            self._pending_gauge.set(self.pending)
        return batches
