"""Durable SQLite submission queue + result cache (``repro.distrib.store``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AlignConfig
from repro.distrib.store import DurableStore
from repro.distrib.wire import cache_key_to_json
from repro.engine import get_engine
from repro.errors import ServiceError
from repro.obs import get_observability
from repro.service.cache import job_cache_key, result_digest


@pytest.fixture
def store_path(tmp_path) -> str:
    return str(tmp_path / "state.db")


def _keyed(jobs, scoring, xdrop=30):
    digest = result_digest(AlignConfig(scoring=scoring, xdrop=xdrop))
    return [(cache_key_to_json(job_cache_key(j, digest)), j) for j in jobs]


class TestQueue:
    def test_enqueue_and_recover_round_trip(self, store_path, small_jobs):
        with DurableStore(store_path, obs=get_observability().scoped()) as store:
            ids = [store.enqueue(j) for j in small_jobs]
            assert len(set(ids)) == len(small_jobs)
            assert store.pending_count() == len(small_jobs)
            records = store.recover()
        assert [r.row_id for r in records] == ids
        assert not any(r.redelivered for r in records)
        for record, job in zip(records, small_jobs):
            assert np.array_equal(record.job.query, job.query)
            assert np.array_equal(record.job.target, job.target)
            assert record.job.seed == job.seed

    def test_inflight_rows_survive_reopen_as_redeliveries(self, store_path, small_jobs):
        with DurableStore(store_path, obs=get_observability().scoped()) as store:
            ids = [store.enqueue(j) for j in small_jobs]
            store.mark_inflight(ids[:3])
            # No complete(): the process "crashes" here.

        obs = get_observability().scoped()
        with DurableStore(store_path, obs=obs) as reopened:
            records = reopened.recover()
            # Crash leftovers come first and are flagged.
            assert [r.redelivered for r in records].count(True) == 3
            assert all(r.redelivered for r in records[:3])
            assert {r.row_id for r in records[:3]} == set(ids[:3])
            assert all(r.attempts == 1 for r in records[:3])
            # recover() reset them to pending: a second recover is clean.
            assert not any(r.redelivered for r in reopened.recover())
        snap = obs.registry.snapshot()
        assert snap.value("repro_durable_redelivered_total") == 3.0

    def test_release_returns_rows_to_pending(self, store_path, small_jobs):
        with DurableStore(store_path, obs=get_observability().scoped()) as store:
            ids = [store.enqueue(j) for j in small_jobs[:2]]
            store.mark_inflight(ids)
            store.release(ids)
            assert not any(r.redelivered for r in store.recover())


class TestResults:
    def test_complete_moves_rows_to_results(self, store_path, small_jobs, scoring):
        engine = get_engine("batched", scoring=scoring, xdrop=30)
        results = engine.align_batch(small_jobs).results
        keyed = _keyed(small_jobs, scoring)
        obs = get_observability().scoped()
        with DurableStore(store_path, obs=obs) as store:
            ids = [store.enqueue(j) for _, j in keyed]
            store.mark_inflight(ids)
            store.complete(
                (row_id, key, result)
                for row_id, (key, _), result in zip(ids, keyed, results)
            )
            assert store.pending_count() == 0
            assert store.result_count() == len(small_jobs)
            for (key, _), expected in zip(keyed, results):
                assert store.lookup_result(key) == expected
            assert store.lookup_result("no-such-key") is None
            store.flush()
        snap = obs.registry.snapshot()
        assert snap.value("repro_durable_enqueued_total") == len(small_jobs)
        assert snap.value("repro_durable_completed_total") == len(small_jobs)
        assert snap.value("repro_durable_lookups_total", outcome="hit") == (
            len(small_jobs)
        )
        assert snap.value("repro_durable_lookups_total", outcome="miss") == 1.0
        assert snap.value("repro_durable_pending") == 0.0

    def test_results_survive_reopen(self, store_path, small_jobs, scoring):
        engine = get_engine("batched", scoring=scoring, xdrop=30)
        result = engine.align_batch(small_jobs[:1]).results[0]
        key = _keyed(small_jobs[:1], scoring)[0][0]
        with DurableStore(store_path, obs=get_observability().scoped()) as store:
            # row_id=None: results can be upserted without a queue row.
            store.complete([(None, key, result)])
        with DurableStore(store_path, obs=get_observability().scoped()) as reopened:
            assert reopened.lookup_result(key) == result


class TestCompaction:
    def test_complete_tombstones_then_compact_purges(
        self, store_path, small_jobs, scoring
    ):
        engine = get_engine("batched", scoring=scoring, xdrop=30)
        results = engine.align_batch(small_jobs).results
        keyed = _keyed(small_jobs, scoring)
        obs = get_observability().scoped()
        with DurableStore(store_path, obs=obs) as store:
            ids = [store.enqueue(j) for _, j in keyed]
            store.mark_inflight(ids)
            store.complete(
                (row_id, key, result)
                for row_id, (key, _), result in zip(ids, keyed, results)
            )
            # Tombstoned rows are invisible to pending_count but still on
            # disk until compact() purges them.
            assert store.pending_count() == 0
            purged = store.compact()
            assert purged == {"queue": len(small_jobs), "results": 0}
            assert store.compact() == {"queue": 0, "results": 0}
            assert store.result_count() == len(small_jobs)
        snap = obs.registry.snapshot()
        assert snap.value(
            "repro_durable_compacted_total", kind="queue"
        ) == len(small_jobs)

    def test_ttl_expires_old_results(self, store_path, small_jobs, scoring):
        engine = get_engine("batched", scoring=scoring, xdrop=30)
        result = engine.align_batch(small_jobs[:1]).results[0]
        key = _keyed(small_jobs[:1], scoring)[0][0]
        with DurableStore(store_path, obs=get_observability().scoped()) as store:
            store.complete([(None, key, result)])
            assert store.compact(ttl_seconds=3600) == {"queue": 0, "results": 0}
            assert store.lookup_result(key) == result
            assert store.compact(ttl_seconds=0) == {"queue": 0, "results": 1}
            assert store.lookup_result(key) is None

    def test_invalid_ttl_rejected(self, store_path):
        with pytest.raises(ValueError):
            DurableStore(store_path, ttl_seconds=-1)
        with DurableStore(store_path, obs=get_observability().scoped()) as store:
            with pytest.raises(ValueError):
                store.compact(ttl_seconds=-0.5)

    def test_store_stops_growing_across_restart_cycles(
        self, store_path, small_jobs, scoring
    ):
        """Regression: enqueue/complete/restart cycles must not accrete rows."""
        import os

        engine = get_engine("batched", scoring=scoring, xdrop=30)
        results = engine.align_batch(small_jobs).results
        keyed = _keyed(small_jobs, scoring)
        sizes = []
        for _ in range(4):
            with DurableStore(
                store_path, obs=get_observability().scoped(), ttl_seconds=0
            ) as store:
                store.recover()  # compacts tombstones + expired results
                ids = [store.enqueue(j) for _, j in keyed]
                store.mark_inflight(ids)
                store.complete(
                    (row_id, key, result)
                    for row_id, (key, _), result in zip(ids, keyed, results)
                )
                store.flush()
            sizes.append(os.path.getsize(store_path))
        # Same workload every cycle: once warm, the file must not grow.
        assert sizes[-1] <= sizes[1]
        with DurableStore(
            store_path, obs=get_observability().scoped(), ttl_seconds=0
        ) as store:
            store.recover()
            with store._lock:
                (rows,) = store._conn.execute(
                    "SELECT COUNT(*) FROM queue"
                ).fetchone()
            assert rows == 0


class TestLifecycle:
    def test_unopenable_path_raises_service_error(self, tmp_path):
        with pytest.raises(ServiceError):
            DurableStore(str(tmp_path / "missing-dir" / "state.db"))
