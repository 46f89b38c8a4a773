"""Multi-process worker pool: bit-identity, round-robin dispatch, crash recovery.

Process spawn costs ~1-2 s per pool on CI, so the happy-path tests share
one module-scoped pool; only the crash-injection test pays for its own.
"""

from __future__ import annotations

import pytest

from repro.api import AlignConfig
from repro.core.scoring import ScoringScheme
from repro.distrib import ProcessWorkerPool
from repro.engine import get_engine
from repro.errors import ConfigurationError, ServiceError
from repro.obs import get_observability

XDROP = 30
_SCORING = ScoringScheme()


def _config(**overrides) -> AlignConfig:
    return AlignConfig(engine="batched", scoring=_SCORING, xdrop=XDROP, **overrides)


@pytest.fixture(scope="module")
def pool_obs():
    return get_observability().scoped()


@pytest.fixture(scope="module")
def pool(pool_obs):
    with ProcessWorkerPool(_config(), num_workers=2, obs=pool_obs) as pool:
        yield pool


@pytest.fixture(scope="module")
def expected(module_jobs):
    engine = get_engine("batched", scoring=_SCORING, xdrop=XDROP)
    return engine.align_batch(module_jobs)


@pytest.fixture(scope="module")
def module_jobs():
    from repro.data.pairs import PairSetSpec, generate_pair_set

    spec = PairSetSpec(
        num_pairs=10,
        min_length=150,
        max_length=300,
        pairwise_error_rate=0.12,
        seed_length=11,
        seed_placement="middle",
        rng_seed=424,
    )
    return generate_pair_set(spec)


class TestBatchPolicy:
    def test_results_bit_identical_to_engine(self, pool, module_jobs, expected):
        run = pool.run_batch(module_jobs)
        assert run.results == expected.results
        assert run.summary.alignments == expected.summary.alignments
        assert run.summary.cells == expected.summary.cells

    def test_batches_round_robin_across_workers(self, pool, module_jobs):
        before = [w.batches for w in pool.worker_stats]
        pool.run_batch(module_jobs)
        pool.run_batch(module_jobs)
        after = [w.batches for w in pool.worker_stats]
        deltas = [b - a for a, b in zip(before, after)]
        # "batch" policy: each batch lands whole on exactly one worker,
        # alternating, so two batches touch both workers once each.
        assert deltas == [1, 1]

    def test_shard_metrics_and_kernel_stats_merge(
        self, pool, pool_obs, module_jobs
    ):
        run = pool.run_batch(module_jobs)
        assert "kernel_stats" in run.extras
        assert run.extras["kernel_stats"].rows >= len(module_jobs)
        snap = pool_obs.registry.snapshot()
        total_jobs = sum(
            snap.value("repro_worker_jobs_total", default=0.0, shard=str(i))
            for i in range(2)
        )
        assert total_jobs >= len(module_jobs)
        # Engine counters from the worker processes fold into the
        # coordinator's registry (they can never tick there locally).
        assert snap.value("repro_engine_jobs_total", engine="batched") >= (
            len(module_jobs)
        )

    def test_scoring_override_round_trips(self, pool, module_jobs):
        strict = ScoringScheme(match=2, mismatch=-3, gap=-4)
        engine = get_engine("batched", scoring=strict, xdrop=XDROP)
        run = pool.run_batch(module_jobs, scoring=strict)
        assert run.results == engine.align_batch(module_jobs).results

    def test_stale_reply_is_not_taken_for_the_batch(
        self, pool, module_jobs, expected
    ):
        # The reply of a batch's first delivery can still arrive after the
        # batch was redelivered under a new seq; only the current seq counts.
        pool._result_queue.put(
            {"ok": True, "seq": -1, "worker": 0, "results": None}
        )
        run = pool.run_batch(module_jobs)
        assert run.results == expected.results


class TestValidation:
    def test_trace_config_rejected(self):
        with pytest.raises(ConfigurationError, match="trace"):
            ProcessWorkerPool(_config(trace=True))

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ServiceError):
            ProcessWorkerPool(_config(), num_workers=0)


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_shard_redelivered(
        self, module_jobs, expected
    ):
        obs = get_observability().scoped()
        # Worker 0 hard-exits on its first task; the shard must be
        # redelivered (to the respawned, now-clean worker) bit-identically.
        with ProcessWorkerPool(
            _config(),
            num_workers=2,
            obs=obs,
            fault_injection={0: {"after": 1}},
        ) as pool:
            run = pool.run_batch(module_jobs)
            assert run.results == expected.results
            assert pool.crashes == 1
        snap = obs.registry.snapshot()
        assert snap.value("repro_worker_crash_total") == 1.0
