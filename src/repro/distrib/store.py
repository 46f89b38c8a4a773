"""Durable SQLite submission queue + result cache (WAL mode).

One file holds two tables:

* ``queue`` — submitted-but-unfinished jobs, each row the full wire-encoded
  job (recovery recomputes its cache key from the job, under the reopening
  service's config).  Rows move ``pending -> inflight`` when
  dispatched and are tombstoned (``state='deleted'``) on completion; rows
  still ``inflight`` when the store is reopened are crash leftovers and get
  redelivered.  :meth:`DurableStore.compact` purges the tombstones (and,
  given a TTL, expired results) so a long-lived store stops growing.
* ``results`` — completed results keyed by canonical cache-key JSON, i.e. a
  restart-surviving extension of the in-memory ``ResultCache`` with the
  identical content address.

WAL journaling keeps readers and the writer from blocking each other and is
the volume-mounted-SQLite deployment idiom: the ``.db`` file (plus ``-wal``)
is the only state a server needs to carry across restarts.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Iterable

from ..core.job import AlignmentJob
from ..core.result import SeedAlignmentResult
from ..errors import ServiceError
from ..obs import Observability, get_observability
from .wire import job_from_wire, job_to_wire, result_from_wire, result_to_wire

__all__ = ["DurableRecord", "DurableStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS queue (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    payload     TEXT NOT NULL,
    state       TEXT NOT NULL DEFAULT 'pending',
    attempts    INTEGER NOT NULL DEFAULT 0,
    enqueued_at REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    cache_key    TEXT PRIMARY KEY,
    payload      TEXT NOT NULL,
    completed_at REAL NOT NULL
);
"""


@dataclass
class DurableRecord:
    """One recovered queue row: the job plus its durable identity."""

    row_id: int
    job: AlignmentJob
    attempts: int
    redelivered: bool


class DurableStore:
    """SQLite-backed submission queue and result cache.

    Thread-safe behind one lock; the service's dispatch thread and submitter
    threads share a single connection (``check_same_thread=False``), which
    WAL mode makes cheap.

    Parameters
    ----------
    ttl_seconds:
        Age bound for durable results, applied whenever :meth:`compact`
        runs (including the automatic compaction inside :meth:`recover`).
        ``None`` keeps results forever; queue tombstones are always purged.
    """

    def __init__(
        self,
        path: str,
        obs: Observability | None = None,
        ttl_seconds: float | None = None,
    ) -> None:
        self.path = str(path)
        self.obs = obs if obs is not None else get_observability()
        if ttl_seconds is not None and ttl_seconds < 0:
            raise ValueError(f"ttl_seconds must be non-negative, got {ttl_seconds}")
        self.ttl_seconds = ttl_seconds
        self._lock = threading.Lock()
        self._closed = False
        try:
            self._conn = sqlite3.connect(
                self.path, check_same_thread=False, timeout=30.0
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            queue_columns = {
                row[1] for row in self._conn.execute("PRAGMA table_info(queue)")
            }
            if "cache_key" in queue_columns:
                # Written when queue rows still stored their key, which
                # nothing read; DROP COLUMN needs SQLite >= 3.35.
                self._conn.execute("ALTER TABLE queue DROP COLUMN cache_key")
            self._conn.commit()
        except sqlite3.Error as exc:
            raise ServiceError(
                f"cannot open durable store at {self.path!r}: {exc}"
            ) from exc

        self._enqueued_c = self.obs.counter(
            "repro_durable_enqueued_total",
            "Jobs written to the durable submission queue.",
        )
        self._completed_c = self.obs.counter(
            "repro_durable_completed_total",
            "Jobs completed and moved to the durable result table.",
        )
        self._redelivered_c = self.obs.counter(
            "repro_durable_redelivered_total",
            "In-flight jobs redelivered after a restart or worker failure.",
        )
        self._lookups_c = self.obs.counter(
            "repro_durable_lookups_total",
            "Durable result-cache lookups by outcome.",
            labelnames=("outcome",),
        )
        self._pending_g = self.obs.gauge(
            "repro_durable_pending",
            "Queue rows currently pending or in flight.",
        )
        self._compacted_c = self.obs.counter(
            "repro_durable_compacted_total",
            "Rows purged by compaction, by kind.",
            labelnames=("kind",),
        )
        self._refresh_pending()

    # -- queue ------------------------------------------------------------

    def enqueue(self, job: AlignmentJob) -> int:
        """Persist one submitted job; returns the durable row id."""
        payload = json.dumps(job_to_wire(job), separators=(",", ":"))
        now = time.time()
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO queue (payload, enqueued_at, updated_at)"
                " VALUES (?, ?, ?)",
                (payload, now, now),
            )
            self._conn.commit()
        self._enqueued_c.inc()
        self._refresh_pending()
        return int(cur.lastrowid)

    def mark_inflight(self, row_ids: Iterable[int]) -> None:
        ids = [int(i) for i in row_ids]
        if not ids:
            return
        now = time.time()
        with self._lock:
            self._conn.executemany(
                "UPDATE queue SET state='inflight', attempts=attempts+1,"
                " updated_at=? WHERE id=?",
                [(now, i) for i in ids],
            )
            self._conn.commit()

    def release(self, row_ids: Iterable[int]) -> None:
        """Put in-flight rows back to pending (dispatch failed)."""
        ids = [int(i) for i in row_ids]
        if not ids:
            return
        now = time.time()
        with self._lock:
            self._conn.executemany(
                "UPDATE queue SET state='pending', updated_at=?"
                " WHERE id=?",
                [(now, i) for i in ids],
            )
            self._conn.commit()

    def complete(
        self, finished: Iterable[tuple[int | None, str, SeedAlignmentResult]]
    ) -> None:
        """Tombstone finished queue rows and upsert their results.

        Rows are marked ``state='deleted'`` rather than removed so a crash
        between the queue update and the result upsert stays diagnosable;
        :meth:`compact` reclaims the tombstones.
        """
        now = time.time()
        rows = list(finished)
        if not rows:
            return
        with self._lock:
            for row_id, cache_key, result in rows:
                if row_id is not None:
                    self._conn.execute(
                        "UPDATE queue SET state='deleted', updated_at=?"
                        " WHERE id=?",
                        (now, int(row_id)),
                    )
                self._conn.execute(
                    "INSERT OR REPLACE INTO results (cache_key, payload,"
                    " completed_at) VALUES (?, ?, ?)",
                    (
                        cache_key,
                        json.dumps(
                            result_to_wire(result), separators=(",", ":")
                        ),
                        now,
                    ),
                )
            self._conn.commit()
        self._completed_c.inc(len(rows))
        self._refresh_pending()

    def recover(self) -> list[DurableRecord]:
        """All unfinished jobs, crash leftovers first.

        Rows found ``inflight`` were dispatched but never completed — the
        previous process died mid-batch — and count as redeliveries.  Every
        returned row is reset to ``pending`` so a subsequent crash-free run
        walks the normal dispatch path.  Finishes by compacting the store
        (tombstones plus, when a TTL is configured, expired results) so
        restart cycles do not accrete dead rows.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, payload, state, attempts FROM queue"
                " WHERE state IN ('pending', 'inflight')"
                " ORDER BY (state='inflight') DESC, id ASC"
            ).fetchall()
            self._conn.execute(
                "UPDATE queue SET state='pending' WHERE state='inflight'"
            )
            self._conn.commit()
        records = []
        redelivered = 0
        for row_id, payload, state, attempts in rows:
            was_inflight = state == "inflight"
            redelivered += int(was_inflight)
            records.append(
                DurableRecord(
                    row_id=int(row_id),
                    job=job_from_wire(json.loads(payload)),
                    attempts=int(attempts),
                    redelivered=was_inflight,
                )
            )
        if redelivered:
            self._redelivered_c.inc(redelivered)
        self.compact(self.ttl_seconds)
        return records

    def compact(self, ttl_seconds: float | None = None) -> dict[str, int]:
        """Purge tombstoned queue rows and, given a TTL, expired results.

        ``ttl_seconds`` bounds the age of retained results by their
        ``completed_at`` stamp; ``None`` leaves the result table alone.
        After the purges the WAL is checkpointed and the database vacuumed
        so the file on disk shrinks too.  Returns the purge counts per
        table, e.g. ``{"queue": 3, "results": 0}``.
        """
        if ttl_seconds is not None and ttl_seconds < 0:
            raise ValueError(f"ttl_seconds must be non-negative, got {ttl_seconds}")
        with self._lock:
            queue_purged = self._conn.execute(
                "DELETE FROM queue WHERE state='deleted'"
            ).rowcount
            results_purged = 0
            if ttl_seconds is not None:
                results_purged = self._conn.execute(
                    "DELETE FROM results WHERE completed_at < ?",
                    (time.time() - ttl_seconds,),
                ).rowcount
            self._conn.commit()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            self._conn.execute("VACUUM")
        if queue_purged:
            self._compacted_c.inc(queue_purged, kind="queue")
        if results_purged:
            self._compacted_c.inc(results_purged, kind="results")
        return {"queue": int(queue_purged), "results": int(results_purged)}

    def pending_count(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM queue"
                " WHERE state IN ('pending', 'inflight')"
            ).fetchone()
        return int(count)

    # -- results ----------------------------------------------------------

    def lookup_result(self, cache_key: str) -> SeedAlignmentResult | None:
        """Content-addressed durable result lookup (``None`` on miss)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE cache_key=?",
                (cache_key,),
            ).fetchone()
        if row is None:
            self._lookups_c.inc(outcome="miss")
            return None
        self._lookups_c.inc(outcome="hit")
        return result_from_wire(json.loads(row[0]))

    def result_count(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        return int(count)

    # -- lifecycle --------------------------------------------------------

    def flush(self) -> None:
        """Checkpoint the WAL so the main database file is current."""
        with self._lock:
            if not self._closed:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass
            self._conn.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _refresh_pending(self) -> None:
        self._pending_g.set(float(self.pending_count()))
