"""Tests of the asynchronous alignment service (repro.service).

Covers each stage in isolation — cache, queue, batcher, worker pool — and
the acceptance criterion end-to-end: jobs submitted individually through
the service must produce results bit-identical to one direct
``align_batch`` call on the batched engine, with real multi-job batches
formed and cache hits on resubmission.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api import AlignConfig, ServiceConfig
from repro.core import ScoringScheme, Seed
from repro.core.job import AlignmentJob
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.errors import ServiceError
from repro.service import (
    AdaptiveBatcher,
    AlignmentService,
    AlignmentTicket,
    ResultCache,
    ShardedWorkerPool,
    SubmissionQueue,
    job_cache_key,
    result_digest,
)

SCORING = ScoringScheme()


def mixed_jobs(num_pairs=16, rng_seed=11, min_length=120, max_length=700):
    """Deterministic mixed-length batch with mid-read seeds."""
    return generate_pair_set(
        PairSetSpec(
            num_pairs=num_pairs,
            min_length=min_length,
            max_length=max_length,
            pairwise_error_rate=0.15,
            unrelated_fraction=0.2,
            seed_placement="middle",
            rng_seed=rng_seed,
        )
    )


def batched_config(xdrop=100, **service) -> AlignConfig:
    """Batched-engine config with ``SCORING`` and the given service knobs."""
    return AlignConfig(
        engine="batched",
        scoring=SCORING,
        xdrop=xdrop,
        service=ServiceConfig(**service),
    )


def old_bins(jobs) -> set[int]:
    """The 500-bp pair-length bins *jobs* span (to show a mix of lengths)."""
    return {(j.query_length + j.target_length) // 500 for j in jobs}


def tiny_job(text="ACGTACGTACGTACGT"):
    return AlignmentJob(query=text, target=text, seed=Seed(0, 0, 4))


def digest(**fields) -> str:
    """``result_digest`` of a config with *fields* (scoring and X as above)."""
    fields = {"scoring": SCORING, "xdrop": 10, **fields}
    return result_digest(AlignConfig(**fields))


class TestResultCache:
    def test_key_is_content_addressed(self):
        a = tiny_job()
        b = tiny_job()  # equal content, different object / pair_id
        b.pair_id = 99
        assert job_cache_key(a, digest()) == job_cache_key(b, digest())

    def test_key_depends_on_parameters(self):
        job = tiny_job()
        base = job_cache_key(job, digest())
        assert job_cache_key(job, digest(xdrop=20)) != base
        assert job_cache_key(job, digest(scoring=ScoringScheme(match=2))) != base
        other = AlignmentJob(
            query="ACGTACGTACGTACGT", target="ACGTACGTACGTACGT", seed=Seed(4, 4, 4)
        )
        assert job_cache_key(other, digest()) != base

    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=4)
        key = job_cache_key(tiny_job(), digest())
        assert cache.get(key) is None
        cache.put(key, "result")
        assert cache.get(key) == "result"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_fresh_cache_gauge_refresh_is_safe(self):
        """Regression: zero-lookup snapshots must not divide by zero."""
        from repro.obs import get_observability

        obs = get_observability().scoped()
        cache = ResultCache(capacity=4, obs=obs)
        cache.refresh_gauges()
        stats = cache.stats()  # snapshot before any get()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0
        snap = obs.registry.snapshot()
        assert snap.value("repro_cache_hit_rate") == 0.0

    def test_hit_rate_gauge_tracks_lookups(self):
        from repro.obs import get_observability

        obs = get_observability().scoped()
        cache = ResultCache(capacity=4, obs=obs)
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        snap = obs.registry.snapshot()
        assert snap.value("repro_cache_hit_rate") == pytest.approx(0.5)


class TestCacheKeyConfigRegression:
    """Two configs must never collide on one content-addressed key.

    Regression guard: the key has to include every config field that
    decides a result — the engine, its options, the *full* scoring scheme,
    the X-drop threshold and trace mode — not just the sequence digests;
    otherwise a cache (or durable state file) shared across configurations
    would serve results computed under another one.
    """

    def test_full_scoring_scheme_participates(self):
        keys = {
            digest(scoring=ScoringScheme(match=1, mismatch=-1, gap=-1)),
            digest(scoring=ScoringScheme(match=2, mismatch=-1, gap=-1)),
            digest(scoring=ScoringScheme(match=1, mismatch=-2, gap=-1)),
            digest(scoring=ScoringScheme(match=1, mismatch=-1, gap=-2)),
        }
        assert len(keys) == 4  # every scoring field changes the address

    def test_xdrop_participates(self):
        assert len({digest(xdrop=x) for x in (0, 1, 10, 100)}) == 4

    def test_engine_options_and_trace_participate(self):
        keys = {
            digest(),
            digest(engine="reference"),
            digest(engine="ksw2"),
            digest(engine="ksw2", engine_options={"bandwidth": 5}),
            digest(trace=True),
        }
        assert len(keys) == 5

    def test_workers_and_service_fields_do_not(self):
        # Results are bit-identical across them, so they must not split hits.
        assert digest(workers=2) == digest()
        assert digest(service=ServiceConfig(max_batch_size=3)) == digest()

    def test_shared_cache_does_not_collide_across_configs(self):
        # Same sequences under two configs -> two distinct entries in one
        # physical cache, each lookup returning its own result.
        cache = ResultCache(capacity=8)
        job = tiny_job()
        key_a = job_cache_key(job, digest())
        key_b = job_cache_key(
            job, digest(scoring=ScoringScheme(match=2, mismatch=-2, gap=-2))
        )
        key_c = job_cache_key(job, digest(xdrop=99))
        cache.put(key_a, "result-a")
        cache.put(key_b, "result-b")
        cache.put(key_c, "result-c")
        assert cache.get(key_a) == "result-a"
        assert cache.get(key_b) == "result-b"
        assert cache.get(key_c) == "result-c"
        assert len(cache) == 3


class TestSubmissionQueue:
    def test_fifo_order_and_depth(self):
        queue = SubmissionQueue(capacity=8)
        tickets = [AlignmentTicket(tiny_job()) for _ in range(3)]
        for ticket in tickets:
            queue.put(ticket)
        assert queue.depth == 3
        assert queue.pop(max_items=2) == tickets[:2]
        assert queue.pop(max_items=5) == tickets[2:]
        assert queue.pop() == []

    def test_backpressure_timeout(self):
        queue = SubmissionQueue(capacity=1)
        queue.put(AlignmentTicket(tiny_job()))
        with pytest.raises(ServiceError, match="backpressure"):
            queue.put(AlignmentTicket(tiny_job()), timeout=0.05)

    def test_blocked_put_resumes_after_pop(self):
        queue = SubmissionQueue(capacity=1)
        queue.put(AlignmentTicket(tiny_job()))
        done = threading.Event()

        def producer():
            queue.put(AlignmentTicket(tiny_job()), timeout=5.0)
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.02)
        assert not done.is_set()  # still blocked on the full queue
        queue.pop()
        assert done.wait(2.0)
        thread.join(timeout=2.0)

    def test_closed_queue_rejects(self):
        queue = SubmissionQueue(capacity=2)
        queue.close()
        with pytest.raises(ServiceError, match="closed"):
            queue.put(AlignmentTicket(tiny_job()))

    def test_invalid_capacity(self):
        with pytest.raises(ServiceError):
            SubmissionQueue(capacity=0)


class TestAdaptiveBatcher:
    def _ticket(self, length):
        seq = "ACGT" * (length // 4 + 1)
        return AlignmentTicket(
            AlignmentJob(query=seq[:length], target=seq[:length], seed=Seed(0, 0, 4))
        )

    def test_add_only_appends(self):
        # However many tickets arrive, nothing flushes until due/flush_all.
        batcher = AdaptiveBatcher(max_batch_size=3)
        for _ in range(5):
            assert batcher.add(self._ticket(100)) is None
        assert batcher.pending == 5
        assert batcher.batches_formed == 0

    @pytest.mark.parametrize("flush", ["due", "flush_all"])
    def test_flush_within_cap_is_one_batch_across_old_bins(self, flush):
        # Pair lengths 200, 800 and 1 200 span three 500-bp length bins;
        # a flush within the cap is still one batch, in length order.
        batcher = AdaptiveBatcher(max_batch_size=8)
        tickets = [self._ticket(n) for n in (600, 100, 400, 100)]
        for ticket in tickets:
            batcher.add(ticket)
        (batch,) = getattr(batcher, flush)()
        reason = "idle" if flush == "due" else "drain"
        assert batch.reason == reason
        assert batch.tickets == [tickets[1], tickets[3], tickets[2], tickets[0]]
        assert batcher.pending == 0
        assert getattr(batcher, flush)() == []
        assert batcher.flush_reasons == {"idle": 0, "drain": 0} | {reason: 1}
        assert (batcher.batches_formed, batcher.batched_jobs) == (1, 4)

    def test_large_flush_cuts_length_sorted_chunks(self):
        batcher = AdaptiveBatcher(max_batch_size=3)
        lengths = (300, 100, 200, 100, 300, 200, 100)
        tickets = [self._ticket(n) for n in lengths]
        for ticket in tickets:
            batcher.add(ticket)
        batches = batcher.flush_all()
        assert [b.size for b in batches] == [3, 3, 1]
        # Stable sort: equal lengths keep their submission order.
        expected = sorted(
            tickets, key=lambda t: t.job.query_length + t.job.target_length
        )
        assert [t for b in batches for t in b.tickets] == expected
        assert batcher.batches_formed == 3 and batcher.batched_jobs == 7
        assert batcher.flush_reasons == {"idle": 0, "drain": 3}

    def test_batched_jobs_counts_idle_flushes(self):
        batcher = AdaptiveBatcher(max_batch_size=8)
        batcher.add(self._ticket(100))
        batcher.add(self._ticket(100))
        assert batcher.batched_jobs == 0
        (due,) = batcher.due()
        assert due.size == 2
        assert batcher.batches_formed == 1 and batcher.batched_jobs == 2

    def test_invalid_max_batch_size(self):
        with pytest.raises(ServiceError, match="max_batch_size"):
            AdaptiveBatcher(max_batch_size=0)

    def test_max_wait_seconds_removed(self):
        # The wait bound is gone: the background loop flushes on idle.
        with pytest.raises(TypeError, match="max_wait_seconds"):
            AdaptiveBatcher(max_batch_size=8, max_wait_seconds=0.05)


class TestShardedWorkerPool:
    def test_results_stay_in_job_order(self):
        jobs = mixed_jobs(num_pairs=10, rng_seed=5)
        engine = get_engine("batched", scoring=SCORING, xdrop=30)
        pool = ShardedWorkerPool(engine)
        run = pool.run_batch(jobs)
        direct = engine.align_batch(jobs)
        assert [r.score for r in run.results] == direct.scores()
        assert run.summary.cells == direct.summary.cells

    def test_empty_batch(self):
        pool = ShardedWorkerPool(get_engine("batched"))
        run = pool.run_batch([])
        assert run.results == []
        assert pool.worker_stats[0].batches == 0

    def test_per_worker_accounting(self):
        jobs = mixed_jobs(num_pairs=8, rng_seed=7)
        engine = get_engine("batched", scoring=SCORING, xdrop=25)
        pool = ShardedWorkerPool(engine)
        run = pool.run_batch(jobs)
        # One inline worker: the whole formed batch is one engine call.
        (stats,) = pool.worker_stats
        assert stats.batches == 1
        assert stats.jobs == len(jobs)
        assert stats.cells == run.summary.cells

    @pytest.mark.parametrize("field", ["scoring", "xdrop"])
    def test_run_batch_takes_only_jobs(self, field):
        pool = ShardedWorkerPool(get_engine("batched", scoring=SCORING, xdrop=25))
        value = {"scoring": SCORING, "xdrop": 25}[field]
        with pytest.raises(TypeError):
            pool.run_batch(mixed_jobs(num_pairs=2), **{field: value})


class TestAlignmentServiceEndToEnd:
    """The PR's acceptance criterion."""

    def test_individual_submissions_match_direct_batch(self):
        jobs = mixed_jobs(num_pairs=20, rng_seed=13)
        direct = get_engine("batched", scoring=SCORING, xdrop=30).align_batch(jobs)

        service = AlignmentService(
            config=batched_config(xdrop=30, max_batch_size=6)
        )
        tickets = [service.submit(job) for job in jobs]
        service.drain()
        results = [t.result(timeout=30.0) for t in tickets]

        # Bit-identical to the direct batch call.
        for got, ref in zip(results, direct.results):
            assert got.score == ref.score
            assert got.query_begin == ref.query_begin
            assert got.query_end == ref.query_end
            assert got.target_begin == ref.target_begin
            assert got.target_end == ref.target_end
            assert got.left.best_score == ref.left.best_score
            assert got.right.best_score == ref.right.best_score

        stats = service.stats()
        assert stats.completed == len(jobs)
        # At least one genuinely multi-job batch was formed.
        assert stats.batches_formed >= 1
        assert max(t.batch_size for t in tickets) > 1
        assert stats.cells == direct.summary.cells

        # Resubmission: nonzero cache hit rate, identical results, no new work.
        tickets2 = [service.submit(job) for job in jobs]
        service.drain()
        assert all(t.cache_hit for t in tickets2)
        assert [t.result().score for t in tickets2] == direct.scores()
        stats2 = service.stats()
        assert stats2.cache.hit_rate > 0
        assert stats2.cells == stats.cells  # nothing re-aligned
        service.shutdown()

    def test_background_thread_mode(self):
        jobs = mixed_jobs(num_pairs=9, rng_seed=17)
        direct = get_engine("batched", scoring=SCORING, xdrop=25).align_batch(jobs)
        service = AlignmentService(
            config=batched_config(xdrop=25, max_batch_size=4)
        ).start()
        try:
            tickets = service.submit_many(jobs)
            # No drain(): the background loop must flush on idle.
            results = [t.result(timeout=30.0) for t in tickets]
            assert [r.score for r in results] == direct.scores()
        finally:
            service.shutdown()
        assert not service.running

    def test_queued_tickets_form_one_idle_batch(self):
        # Tickets queued before start() are all taken on the loop's first
        # pass and, being within the cap, flushed as one batch whatever
        # their lengths.
        jobs = mixed_jobs(num_pairs=12, rng_seed=37)
        assert len(old_bins(jobs)) >= 3
        direct = get_engine("batched", scoring=SCORING, xdrop=25).align_batch(jobs)
        service = AlignmentService(config=batched_config(xdrop=25))
        try:
            tickets = service.submit_many(jobs)
            service.start()
            results = [t.result(timeout=30.0) for t in tickets]
            assert [r.score for r in results] == direct.scores()
            stats = service.stats()
            assert stats.batches_formed == 1
            assert stats.flush_reasons == {"idle": 1, "drain": 0}
        finally:
            service.shutdown()

    def test_idle_service_makes_no_loop_pass(self):
        # With nothing queued the loop blocks on the queue instead of
        # polling the batcher.
        service = AlignmentService(config=batched_config())
        calls = []
        due = service.batcher.due

        def counting_due(*args):
            calls.append(args)
            return due(*args)

        service.batcher.due = counting_due
        service.start()
        try:
            time.sleep(0.3)
            assert calls == []
        finally:
            service.shutdown()

    def test_shutdown_wakes_idle_loop(self):
        service = AlignmentService(config=batched_config()).start()
        time.sleep(0.05)  # let the loop block on the empty queue
        began = time.monotonic()
        service.shutdown()
        assert time.monotonic() - began < 1.0
        assert not service.running

    def test_map_convenience(self):
        jobs = mixed_jobs(num_pairs=6, rng_seed=19)
        with AlignmentService(config=batched_config(xdrop=20)) as svc:
            results = svc.map(jobs)
        direct = get_engine("batched", scoring=SCORING, xdrop=20).align_batch(jobs)
        assert [r.score for r in results] == direct.scores()

    def test_submit_after_shutdown_raises(self):
        service = AlignmentService(config=batched_config())
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit(tiny_job())

    def test_stats_snapshot_shape(self):
        service = AlignmentService(config=batched_config())
        service.map(mixed_jobs(num_pairs=4, rng_seed=23))
        payload = service.stats().to_dict()
        for key in (
            "submitted",
            "completed",
            "batches_formed",
            "cache_hit_rate",
            "throughput_gcups",
            "workers",
        ):
            assert key in payload
        assert payload["throughput_gcups"] >= 0
        assert len(payload["workers"]) == 1
        service.shutdown()

    def test_inline_overflow_drains_instead_of_deadlocking(self):
        # Inline mode has no background consumer, so a full queue must
        # trigger a synchronous drain rather than a backpressure timeout:
        # submitting far more jobs than queue_capacity has to succeed.
        service = AlignmentService(
            config=batched_config(
                xdrop=20, queue_capacity=3, submit_timeout=0.1, max_batch_size=64
            )
        )
        jobs = mixed_jobs(num_pairs=8, rng_seed=29)
        results = service.map(jobs)
        direct = get_engine("batched", scoring=SCORING, xdrop=20).align_batch(jobs)
        assert [r.score for r in results] == direct.scores()
        service.shutdown()

    def test_background_submit_counters_are_consistent(self):
        jobs = mixed_jobs(num_pairs=12, rng_seed=31)
        service = AlignmentService(
            config=batched_config(xdrop=20, max_batch_size=3)
        ).start()
        try:
            tickets = service.submit_many(jobs + jobs)  # duplicates race the loop
            for t in tickets:
                t.result(timeout=30.0)
            # Give the loop no chance to be mid-dispatch, then check books.
            service.drain()
            stats = service.stats()
            assert stats.submitted == 24
            assert stats.completed == 24
        finally:
            service.shutdown()


class TestServiceUnderLoad:
    """Concurrent producers hammering a background service.

    The serving contract under load: no ticket is ever dropped (every one
    resolves), the cache/submission books balance exactly, and every
    result is bit-identical to one direct ``align_batch`` call.
    """

    NUM_PRODUCERS = 4

    @staticmethod
    def _skewed_jobs():
        # A few huge jobs among many small ones, mid-read seeds.
        big = mixed_jobs(num_pairs=3, rng_seed=41, min_length=900, max_length=1200)
        small = mixed_jobs(num_pairs=21, rng_seed=43, min_length=80, max_length=220)
        return big + small

    def test_no_dropped_tickets_and_bit_identical_results(self):
        jobs = self._skewed_jobs()
        direct = get_engine("batched", scoring=SCORING, xdrop=25).align_batch(jobs)
        service = AlignmentService(
            config=batched_config(xdrop=25, max_batch_size=5)
        ).start()
        try:
            per_thread: list[list] = [[] for _ in range(self.NUM_PRODUCERS)]
            errors: list[BaseException] = []

            def producer(slot: int) -> None:
                try:
                    # Each producer submits the full skewed workload, one
                    # job at a time, racing the background loop.
                    for job in jobs:
                        per_thread[slot].append(service.submit(job))
                except BaseException as error:  # pragma: no cover - fail loud
                    errors.append(error)

            threads = [
                threading.Thread(target=producer, args=(slot,), daemon=True)
                for slot in range(self.NUM_PRODUCERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors
            assert all(not t.is_alive() for t in threads)

            # No dropped tickets: every single one resolves...
            all_tickets = [t for bucket in per_thread for t in bucket]
            assert len(all_tickets) == self.NUM_PRODUCERS * len(jobs)
            results = [t.result(timeout=30.0) for t in all_tickets]
            assert all(t.done() for t in all_tickets)

            # ...bit-identically to the direct batch call, per producer.
            for bucket in per_thread:
                got = [t.result(timeout=1.0) for t in bucket]
                for res, ref in zip(got, direct.results):
                    assert res.score == ref.score
                    assert res.query_begin == ref.query_begin
                    assert res.query_end == ref.query_end
                    assert res.target_begin == ref.target_begin
                    assert res.target_end == ref.target_end
                    assert res.left.best_score == ref.left.best_score
                    assert res.right.best_score == ref.right.best_score
            assert len(results) == len(all_tickets)

            service.drain()  # settle any jobs still in the batcher
            stats = service.stats()
            # Cache-hit accounting balances exactly: every submission is
            # either a hit or a miss, everything submitted completed, and
            # nothing waits in the queue or the batcher.
            total = self.NUM_PRODUCERS * len(jobs)
            assert stats.submitted == total
            assert stats.completed == total
            assert stats.cache.hits + stats.cache.misses == stats.cache.lookups
            assert stats.cache.lookups == total
            assert stats.queue_depth == 0 and stats.batcher_pending == 0
            # Every distinct pair misses at least once; whether duplicate
            # submissions hit depends on the race between producers and the
            # dispatch loop, so only the lower bound is deterministic here
            # (guaranteed hits are asserted by the settle-then-resubmit
            # test below).
            assert stats.cache.misses >= len(jobs)
        finally:
            service.shutdown()

    def test_resubmission_after_settle_is_all_hits(self):
        jobs = self._skewed_jobs()[:12]
        service = AlignmentService(
            config=batched_config(xdrop=25, max_batch_size=4)
        ).start()
        try:
            for t in service.submit_many(jobs):
                t.result(timeout=30.0)
            before = service.stats()

            hits: list[bool] = []
            lock = threading.Lock()

            def producer() -> None:
                tickets = [service.submit(job) for job in jobs]
                resolved = [t.result(timeout=30.0) for t in tickets]
                assert len(resolved) == len(jobs)
                with lock:
                    hits.extend(t.cache_hit for t in tickets)

            threads = [
                threading.Thread(target=producer, daemon=True)
                for _ in range(self.NUM_PRODUCERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)

            # The workload is fully cached: every concurrent resubmission
            # is a hit, and no new alignment work happens.
            assert len(hits) == self.NUM_PRODUCERS * len(jobs)
            assert all(hits)
            after = service.stats()
            assert after.cache.hits == before.cache.hits + len(hits)
            assert after.cells == before.cells
        finally:
            service.shutdown()

    def test_drain_races_the_loop_without_missing_a_ticket(self):
        # The loop pops under the service lock, so when drain() returns no
        # ticket submitted before it can still sit between the queue and
        # the batcher.  Producers outnumber the cores and the switch
        # interval is shortened so the loop is preempted everywhere.
        jobs = mixed_jobs(num_pairs=6, rng_seed=53, max_length=300)
        service = AlignmentService(
            config=batched_config(xdrop=20, max_batch_size=4, cache_capacity=0)
        ).start()
        errors: list[BaseException] = []

        def producer() -> None:
            try:
                for _ in range(4):
                    tickets = service.submit_many(jobs)
                    service.drain()
                    assert all(t.done() for t in tickets)
            except BaseException as error:  # pragma: no cover - fail loud
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=producer, daemon=True)
                for _ in range(self.NUM_PRODUCERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert all(not t.is_alive() for t in threads)
            assert not errors
            stats = service.stats()
            total = self.NUM_PRODUCERS * 4 * len(jobs)
            assert stats.submitted == stats.completed == total
        finally:
            sys.setswitchinterval(interval)
            service.shutdown()


class TestDispatchResultCountGuard:
    """Regression: a mismatched engine result list must fail the batch.

    Before the guard, ``_dispatch`` zipped a truncated result list against
    the batch's tickets — the zip stopped at the shorter side, silently
    dropping the tail and leaving those submitters blocked forever.
    """

    def truncate_pool(self, service):
        """Fault-inject the worker pool: drop the last result of a batch."""
        orig = service.pool.run_batch

        def run_batch(jobs):
            run = orig(jobs)
            if len(run.results) > 1:
                run.results.pop()
            return run

        service.pool.run_batch = run_batch
        return orig

    def test_truncated_results_fail_every_ticket_loudly(self):
        jobs = mixed_jobs(num_pairs=6, rng_seed=19)
        service = AlignmentService(
            config=batched_config(xdrop=30, max_batch_size=16)
        )
        try:
            self.truncate_pool(service)
            tickets = service.submit_many(jobs)
            service.drain()
            for ticket in tickets:
                with pytest.raises(
                    ServiceError, match="refusing to scatter"
                ) as excinfo:
                    ticket.result(timeout=10.0)
                # The error names both counts so the log is diagnosable.
                assert "5 results" in str(excinfo.value)
                assert "batch of 6" in str(excinfo.value)
            # No ticket was resolved from the truncated list.
            assert service.stats().completed == 0
        finally:
            service.shutdown()

    @pytest.mark.parametrize(
        "raised",
        [RuntimeError("kernel exploded"), ServiceError("worker 0 failed: boom")],
        ids=["engine-exception", "pool-service-error"],
    )
    def test_failed_run_resolves_tickets_with_named_service_error(self, raised):
        jobs = mixed_jobs(num_pairs=4, rng_seed=31)
        service = AlignmentService(
            config=batched_config(xdrop=30, max_batch_size=8)
        )

        def run_batch(jobs):
            raise raised

        service.pool.run_batch = run_batch
        try:
            tickets = service.submit_many(jobs)
            service.drain()
            for ticket in tickets:
                with pytest.raises(ServiceError) as excinfo:
                    ticket.result(timeout=10.0)
                if isinstance(raised, ServiceError):
                    # The process pool's own ServiceError passes through.
                    assert excinfo.value is raised
                else:
                    assert excinfo.value.__cause__ is raised
                    assert "kernel exploded" in str(excinfo.value)
        finally:
            service.shutdown()

    def test_service_survives_and_serves_after_the_failure(self):
        jobs = mixed_jobs(num_pairs=4, rng_seed=23)
        service = AlignmentService(
            config=batched_config(xdrop=30, max_batch_size=8)
        )
        try:
            original = self.truncate_pool(service)
            failed = service.submit_many(jobs)
            service.drain()
            for ticket in failed:
                with pytest.raises(ServiceError):
                    ticket.result(timeout=10.0)
            # Heal the pool: the same service keeps serving correctly.
            service.pool.run_batch = original
            direct = get_engine(
                "batched", scoring=SCORING, xdrop=30
            ).align_batch(jobs)
            retried = service.submit_many(jobs)
            service.drain()
            scores = [t.result(timeout=10.0).score for t in retried]
            assert scores == direct.scores()
        finally:
            service.shutdown()

    def test_durable_rows_are_released_for_redelivery(self, tmp_path):
        jobs = mixed_jobs(num_pairs=4, rng_seed=29)
        config = AlignConfig(
            engine="batched",
            scoring=SCORING,
            xdrop=30,
            service=ServiceConfig(
                max_batch_size=8,
                cache_capacity=0,
                state_path=str(tmp_path / "state.sqlite"),
            ),
        )
        service = AlignmentService(config=config)
        try:
            self.truncate_pool(service)
            tickets = service.submit_many(jobs)
            pending_before = service.store.pending_count()
            service.drain()
            for ticket in tickets:
                with pytest.raises(ServiceError):
                    ticket.result(timeout=10.0)
            # The rows went inflight for the dispatch, then back to
            # pending when the mismatched batch was refused — a restart
            # redelivers them instead of losing them.
            assert service.store.pending_count() == pending_before
        finally:
            service.shutdown()


class TestMeanBatchSize:
    """The mean divides the jobs that entered a batch, nothing else."""

    def test_durable_store_hits_stay_out_of_the_mean(self, tmp_path):
        jobs = mixed_jobs(num_pairs=12, rng_seed=37)
        config = batched_config(xdrop=30, state_path=str(tmp_path / "state.sqlite"))
        with AlignmentService(config=config) as first:
            first.map(jobs[:8])
        # A restarted service answers the first eight from disk; only the
        # four new pairs form the one batch.
        with AlignmentService(config=config) as restarted:
            restarted.map(jobs)
            stats = restarted.stats()
        assert stats.completed == 12 and stats.cache.hits == 0
        assert stats.batches_formed == 1
        assert stats.mean_batch_size == 4.0

    def test_prefilter_rejects_stay_out_of_the_mean(self):
        from repro.prefilter import PrefilterPolicy
        from repro.workloads import WorkloadSpec, generate_workload

        spec = WorkloadSpec(count=12, seed=23, min_length=600, max_length=1200)
        policy = PrefilterPolicy()
        outcomes = {"reject": [], "contested": []}
        for profile in ("unrelated", "pacbio"):
            for job in generate_workload(profile, spec).jobs:
                outcome = policy.classify(job, SCORING).outcome
                outcomes.setdefault(outcome, []).append(job)
        jobs = outcomes["reject"][:8] + outcomes["contested"][:4]
        assert len(jobs) == 12
        config = batched_config(prefilter="enforce")
        with AlignmentService(config=config) as service:
            service.map(jobs)
            stats = service.stats()
        assert stats.prefilter_decisions["reject"] == 8
        assert stats.batches_formed == 1
        assert stats.mean_batch_size == 4.0

    def test_memory_cache_hits_stay_out_of_the_mean(self):
        jobs = mixed_jobs(num_pairs=6, rng_seed=31)
        config = batched_config(xdrop=30, max_batch_size=8)
        with AlignmentService(config=config) as service:
            service.map(jobs)
            service.map(jobs)  # every pair answered from the result cache
            stats = service.stats()
        assert stats.completed == 12 and stats.cache.hits == 6
        assert stats.batches_formed == 1 and stats.batched_jobs == 6
        assert stats.mean_batch_size == 6.0


class TestBatchFormationInvariance:
    """The batch cap decides only how jobs are grouped into engine calls.

    Results, total DP cells and the kernel's row accounting must not
    depend on how the batcher splits one workload into batches.
    """

    @pytest.mark.parametrize("max_batch_size", [1, 3, 15, 16, 64])
    def test_results_independent_of_batch_formation(self, max_batch_size):
        jobs = mixed_jobs(num_pairs=16, rng_seed=19)
        assert len(old_bins(jobs)) > 1
        direct = get_engine("batched", scoring=SCORING, xdrop=30).align_batch(jobs)
        config = batched_config(xdrop=30, max_batch_size=max_batch_size)
        with AlignmentService(config=config) as service:
            tickets = service.submit_many(jobs)
            service.drain()
            results = [t.result(timeout=30.0) for t in tickets]
            stats = service.stats()

        for got, ref in zip(results, direct.results):
            assert got.score == ref.score
            assert (got.query_begin, got.query_end) == (ref.query_begin, ref.query_end)
            assert (got.target_begin, got.target_end) == (
                ref.target_begin,
                ref.target_end,
            )
            assert got.left.best_score == ref.left.best_score
            assert got.right.best_score == ref.right.best_score
        assert stats.cells == direct.summary.cells
        assert all(t.batch_size <= max_batch_size for t in tickets)
        assert stats.batched_jobs == len(jobs)
        assert stats.batches_formed == -(-len(jobs) // max_batch_size)
        assert stats.mean_batch_size == len(jobs) / stats.batches_formed
        assert 0.0 < stats.kernel_live_fraction <= 1.0

    def test_engine_calls_take_length_sorted_chunks(self):
        # A drain of more jobs than the cap runs ceil(n / cap) engine calls
        # over consecutive chunks of the jobs in length order, and each
        # ticket still gets its own job's result.
        jobs = mixed_jobs(num_pairs=7, rng_seed=41)
        direct = get_engine("batched", scoring=SCORING, xdrop=30).align_batch(jobs)
        service = AlignmentService(config=batched_config(xdrop=30, max_batch_size=3))
        calls: list[list] = []
        run_batch = service.pool.run_batch

        def recording_run_batch(batch_jobs, **kwargs):
            calls.append(list(batch_jobs))
            return run_batch(batch_jobs, **kwargs)

        service.pool.run_batch = recording_run_batch
        with service:
            tickets = service.submit_many(jobs)
            service.drain()
            results = [t.result(timeout=30.0) for t in tickets]
        assert [len(call) for call in calls] == [3, 3, 1]
        in_order = sorted(jobs, key=lambda j: j.query_length + j.target_length)
        assert [id(j) for j in in_order] != [id(j) for j in jobs]
        assert [id(j) for call in calls for j in call] == [id(j) for j in in_order]
        assert results == direct.results
