"""Adaptive batch former: coalesce single submissions into engine-sized batches.

The inter-sequence batched kernel pads every extension in a batch to a
common anti-diagonal grid, so a batch of wildly different lengths wastes
cells on padding.  The batcher therefore groups pending jobs by *length
bin* (reusing :func:`repro.bella.binning.length_bin`, the same
``floor_divide`` edges BELLA's diagonal binning uses) and flushes a bin
when either

* it reaches ``max_batch_size`` jobs (the engine-sized batch), or
* the worker is idle (:meth:`AdaptiveBatcher.due` flushes every pending
  bin, so whatever arrived during the last engine call forms the next
  batches and batch size follows load), or
* the service drains (shutdown / explicit flush).

This is the host-side batching of the paper's Section IV recast as a
serving policy: individually submitted requests amortise into the same
device-sized batches the offline pipeline builds up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bella.binning import length_bin
from ..errors import ServiceError
from .queue import AlignmentTicket

__all__ = ["BatchPolicy", "FormedBatch", "AdaptiveBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the adaptive batch former.

    Attributes
    ----------
    max_batch_size:
        Flush a bin as soon as it holds this many jobs.
    bin_width:
        Length-bin width in bases; jobs whose ``query + target`` length
        falls in the same bin batch together.  ``0`` disables binning
        (everything shares one bin).
    """

    max_batch_size: int = 64
    bin_width: int = 500

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ServiceError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.bin_width < 0:
            raise ServiceError("bin_width must be non-negative")


@dataclass
class FormedBatch:
    """One batch the batcher decided to flush.

    Attributes
    ----------
    tickets:
        The member tickets, in submission order.
    length_bin:
        The bin the batch was formed from.
    reason:
        Why it flushed: ``"size"`` (the bin filled up), ``"idle"`` (the
        worker was free) or ``"drain"`` (explicit drain or shutdown).
    """

    tickets: list[AlignmentTicket]
    length_bin: int
    reason: str

    @property
    def size(self) -> int:
        """Number of jobs in the batch."""
        return len(self.tickets)

    def jobs(self) -> list:
        """The member jobs, in submission order."""
        return [t.job for t in self.tickets]


#: Occupancy buckets: powers of two up to the default engine batch size x4.
_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class AdaptiveBatcher:
    """Groups pending tickets into length bins and decides when to flush."""

    def __init__(self, policy: BatchPolicy | None = None, obs=None) -> None:
        self.policy = policy or BatchPolicy()
        # Length bin -> its pending tickets; a flush pops the bin outright,
        # so every bin present holds at least one ticket.
        self._bins: dict[int, list[AlignmentTicket]] = {}
        self.batches_formed = 0
        #: Jobs in the flushed batches — the numerator of the mean batch
        #: size (cache hits and prefilter rejects never reach a bin).
        self.batched_jobs = 0
        self.flush_reasons: dict[str, int] = {"size": 0, "idle": 0, "drain": 0}
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
                "repro_batcher_pending", "tickets waiting in the batcher bins"
            )
        else:
            self._formed_counter = None
            self._occupancy_hist = None
            self._pending_gauge = None

    @property
    def pending(self) -> int:
        """Number of tickets waiting in the bins."""
        return sum(len(bucket) for bucket in self._bins.values())

    def _bin_of(self, ticket: AlignmentTicket) -> int:
        if self.policy.bin_width == 0:
            return 0
        job = ticket.job
        return length_bin(
            job.query_length + job.target_length, self.policy.bin_width
        )

    def add(self, ticket: AlignmentTicket) -> FormedBatch | None:
        """Admit one ticket; return a batch iff its bin just filled up."""
        index = self._bin_of(ticket)
        bucket = self._bins.setdefault(index, [])
        bucket.append(ticket)
        formed = None
        if len(bucket) >= self.policy.max_batch_size:
            formed = self._flush_bin(index, "size")
        elif self._pending_gauge is not None:
            # The size-flush path refreshes the gauge inside _flush_bin;
            # this branch covers the still-pending admission, so the gauge
            # tracks ``pending`` after every add.
            self._pending_gauge.set(self.pending)
        return formed

    def due(self) -> list[FormedBatch]:
        """Flush every pending bin because the worker is idle."""
        return self._flush_every_bin("idle")

    def flush_all(self) -> list[FormedBatch]:
        """Flush every pending bin (drain / shutdown path)."""
        return self._flush_every_bin("drain")

    def _flush_every_bin(self, reason: str) -> list[FormedBatch]:
        return [self._flush_bin(index, reason) for index in list(self._bins)]

    def _flush_bin(self, index: int, reason: str) -> FormedBatch:
        tickets = self._bins.pop(index)
        self.batches_formed += 1
        self.batched_jobs += len(tickets)
        self.flush_reasons[reason] += 1
        if self._formed_counter is not None:
            self._formed_counter.inc(reason=reason)
            self._occupancy_hist.observe(len(tickets))
            self._pending_gauge.set(self.pending)
        if self._obs is not None:
            with self._obs.span(
                "batcher.flush",
                reason=reason,
                size=len(tickets),
                length_bin=index,
            ):
                pass
        return FormedBatch(tickets=tickets, length_bin=index, reason=reason)
