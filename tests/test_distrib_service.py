"""AlignmentService with the distributed knobs: process transport, durable
SQLite state and crash/restart recovery.

The one process-transport service here is class-scoped (spawning a worker
interpreter costs seconds); every durable-state test runs on the cheap
thread transport — the store integration is transport-independent.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing

import pytest

from repro.api import AlignConfig, ServiceConfig
from repro.core.scoring import ScoringScheme
from repro.distrib.store import DurableStore
from repro.distrib.wire import job_to_wire
from repro.engine import get_engine
from repro.obs import get_observability
from repro.service import AlignmentService
from repro.workloads import WorkloadSpec, generate_workload

XDROP = 30
_SCORING = ScoringScheme()


def _config(state_path=None, transport="thread", **service_overrides) -> AlignConfig:
    return AlignConfig(
        engine="batched",
        scoring=_SCORING,
        xdrop=XDROP,
        service=ServiceConfig(
            max_batch_size=8,
            transport=transport,
            state_path=state_path,
            **service_overrides,
        ),
    )


def _run(service: AlignmentService, jobs) -> list:
    tickets = service.submit_many(jobs)
    service.drain()
    return [t.result(timeout=60.0) for t in tickets]


#: The schema of state files written while queue rows still stored their
#: cache key.
_KEYED_QUEUE_SCHEMA = """
CREATE TABLE queue (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    cache_key   TEXT NOT NULL,
    payload     TEXT NOT NULL,
    state       TEXT NOT NULL DEFAULT 'pending',
    attempts    INTEGER NOT NULL DEFAULT 0,
    enqueued_at REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE results (
    cache_key    TEXT PRIMARY KEY,
    payload      TEXT NOT NULL,
    completed_at REAL NOT NULL
);
"""


@pytest.fixture(scope="module")
def module_jobs():
    from repro.data.pairs import PairSetSpec, generate_pair_set

    spec = PairSetSpec(
        num_pairs=12,
        min_length=150,
        max_length=300,
        pairwise_error_rate=0.12,
        seed_length=11,
        seed_placement="middle",
        rng_seed=515,
    )
    return generate_pair_set(spec)


@pytest.fixture(scope="module")
def expected(module_jobs):
    engine = get_engine("batched", scoring=_SCORING, xdrop=XDROP)
    return engine.align_batch(module_jobs).results


class TestProcessTransport:
    @pytest.fixture(scope="class")
    def mp_service(self):
        with AlignmentService(config=_config(transport="process")) as service:
            yield service

    def test_results_bit_identical(self, mp_service, module_jobs, expected):
        assert _run(mp_service, module_jobs) == expected

    def test_worker_process_metrics_reach_the_service_registry(
        self, mp_service, module_jobs
    ):
        _run(mp_service, module_jobs)
        snap = mp_service.metrics_snapshot()
        shard_jobs = snap.value("repro_worker_jobs_total", default=0.0, shard="0")
        assert shard_jobs >= len(module_jobs)
        # Engine counters tick inside the worker interpreter and are
        # folded back as deltas — nonzero proves the merge happened.
        assert snap.value("repro_engine_jobs_total", engine="batched") >= (
            len(module_jobs)
        )

    def test_worker_engine_time_fits_inside_the_round_trip(
        self, mp_service, module_jobs
    ):
        # The worker's busy seconds are its engine time; the service's are
        # the coordinator's round trip, so the gap is the transfer cost.
        _run(mp_service, module_jobs)
        snap = mp_service.metrics_snapshot()
        worker = snap.value("repro_worker_busy_seconds_total", shard="0")
        round_trip = snap.value("repro_service_busy_seconds_total")
        assert 0.0 < worker <= round_trip

    def test_batch_policy_is_the_default_on_the_thread_transport(self):
        config = ServiceConfig()
        assert config.worker_policy == "batch"
        assert config.transport == "thread"
        assert ServiceConfig(worker_policy="batch", transport="thread") == config


class TestDurableState:
    def test_submissions_flow_through_the_store(
        self, tmp_path, module_jobs, expected
    ):
        path = str(tmp_path / "state.db")
        with AlignmentService(config=_config(state_path=path)) as service:
            assert _run(service, module_jobs) == expected
            stats = service.stats()
            assert stats.completed == len(module_jobs)
            snap = service.metrics_snapshot()
            assert snap.value("repro_durable_enqueued_total") == len(module_jobs)
            assert snap.value("repro_durable_completed_total") == len(module_jobs)
            assert snap.value("repro_durable_pending") == 0.0

        # The queue drained durably; the results table holds everything.
        with DurableStore(path, obs=get_observability().scoped()) as store:
            assert store.pending_count() == 0
            assert store.result_count() > 0

    def test_state_file_reopened_under_another_engine(self, tmp_path):
        # The durable key names the engine: a result aligned by one engine
        # never answers for another, and the same engine still hits.
        spec = WorkloadSpec(count=4, seed=3, xdrop=20)
        jobs = generate_workload("pacbio", spec).jobs
        path = str(tmp_path / "state.db")

        def reopen(engine):
            config = AlignConfig(
                engine=engine, xdrop=20, service=ServiceConfig(state_path=path)
            )
            with AlignmentService(config=config) as service:
                tickets = service.submit_many(jobs)
                service.drain()
                return (
                    [t.result(timeout=60.0) for t in tickets],
                    [t.cache_hit for t in tickets],
                )

        batched, hits = reopen("batched")
        assert not any(hits)
        ksw2, hits = reopen("ksw2")
        assert not any(hits)
        own = get_engine("ksw2", xdrop=20).align_batch(jobs).scores()
        assert [r.score for r in ksw2] == own != [r.score for r in batched]
        logan, hits = reopen("logan")
        assert not any(hits)
        assert all(
            r.left.band_widths is not None and r.right.band_widths is not None
            for r in logan
        )
        again, hits = reopen("batched")
        assert all(hits)
        assert again == batched

    def test_restart_answers_from_durable_results(
        self, tmp_path, module_jobs, expected
    ):
        path = str(tmp_path / "state.db")
        with AlignmentService(config=_config(state_path=path)) as service:
            _run(service, module_jobs)

        # New process, same state file: the in-memory cache is cold but
        # the durable results are not — no alignment work is redone.
        with AlignmentService(config=_config(state_path=path)) as service:
            tickets = service.submit_many(module_jobs)
            assert [t.result(timeout=60.0) for t in tickets] == expected
            assert all(t.cache_hit for t in tickets)
            assert service.stats().batches_formed == 0

    def test_crash_restart_redelivers_inflight_jobs(
        self, tmp_path, module_jobs, expected
    ):
        path = str(tmp_path / "state.db")
        scoped = get_observability().scoped()
        with DurableStore(path, obs=scoped) as store:
            ids = [store.enqueue(job) for job in module_jobs]
            # Simulate a crash mid-batch: some rows were dispatched
            # (inflight), none completed, and the process died here.
            store.mark_inflight(ids[: len(ids) // 2])

        with AlignmentService(config=_config(state_path=path)) as service:
            recovered = service.recovered_tickets
            assert len(recovered) == len(module_jobs)
            service.drain()
            results = [t.result(timeout=60.0) for t in recovered]
            # Recovery re-enqueues crash leftovers first; map results back
            # to submission order via each ticket's job identity.
            by_id = {t.job.pair_id: r for t, r in zip(recovered, results)}
            assert [by_id[j.pair_id] for j in module_jobs] == expected
            snap = service.metrics_snapshot()
            assert snap.value("repro_service_recovered_total") == len(module_jobs)
            assert snap.value("repro_durable_redelivered_total") == (
                len(module_jobs) // 2
            )

        with DurableStore(path, obs=get_observability().scoped()) as store:
            assert store.pending_count() == 0

    def test_state_file_with_queue_keys_recovers_every_row(
        self, tmp_path, module_jobs, expected
    ):
        """Opening a file whose queue still has the ``cache_key`` column
        drops the column; its pending and in-flight rows all recover."""
        path = str(tmp_path / "state.db")
        inflight = len(module_jobs) // 2
        with closing(sqlite3.connect(path)) as conn:
            conn.executescript(_KEYED_QUEUE_SCHEMA)
            conn.executemany(
                "INSERT INTO queue (cache_key, payload, state, attempts,"
                " enqueued_at, updated_at) VALUES (?, ?, ?, ?, 0, 0)",
                [
                    (
                        f"key-{i}",
                        json.dumps(job_to_wire(job)),
                        "inflight" if i < inflight else "pending",
                        int(i < inflight),
                    )
                    for i, job in enumerate(module_jobs)
                ],
            )
            conn.commit()

        with AlignmentService(config=_config(state_path=path)) as service:
            recovered = service.recovered_tickets
            assert len(recovered) == len(module_jobs)
            service.drain()
            by_id = {t.job.pair_id: t.result(timeout=60.0) for t in recovered}
            assert [by_id[j.pair_id] for j in module_jobs] == expected
            snap = service.metrics_snapshot()
            assert snap.value("repro_durable_redelivered_total") == inflight

        with closing(sqlite3.connect(path)) as conn:
            columns = {row[1] for row in conn.execute("PRAGMA table_info(queue)")}
        assert "cache_key" not in columns
        with DurableStore(path, obs=get_observability().scoped()) as store:
            assert store.pending_count() == 0
