"""Process transport: bit-identity, shard metrics, crash recovery.

Process spawn costs ~1-2 s per pool on CI, so the happy-path tests share
one module-scoped pool; only the crash-injection test pays for its own.
"""

from __future__ import annotations

import pytest

from repro.api import AlignConfig
from repro.core.scoring import ScoringScheme
from repro.distrib import ProcessWorkerPool
from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.obs import get_observability

XDROP = 30
# Not the default scheme: a worker that aligned with its engine's defaults
# instead of the config's would fail every bit-identity check below.
_SCORING = ScoringScheme(match=2, mismatch=-3, gap=-4)


def _config(**overrides) -> AlignConfig:
    return AlignConfig(engine="batched", scoring=_SCORING, xdrop=XDROP, **overrides)


@pytest.fixture(scope="module")
def pool_obs():
    return get_observability().scoped()


@pytest.fixture(scope="module")
def pool(pool_obs):
    with ProcessWorkerPool(_config(), obs=pool_obs) as pool:
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

    def test_shard_metrics_and_kernel_stats_merge(
        self, pool, pool_obs, module_jobs
    ):
        run = pool.run_batch(module_jobs)
        assert "kernel_stats" in run.extras
        assert run.extras["kernel_stats"].rows >= len(module_jobs)
        assert len(pool.worker_stats) == 1
        assert pool.worker_stats[0].jobs >= len(module_jobs)
        snap = pool_obs.registry.snapshot()
        shard_jobs = snap.value("repro_worker_jobs_total", default=0.0, shard="0")
        assert shard_jobs == pool.worker_stats[0].jobs
        # Engine counters from the worker processes fold into the
        # coordinator's registry (they can never tick there locally).
        assert snap.value("repro_engine_jobs_total", engine="batched") >= (
            len(module_jobs)
        )

    def test_worker_runs_the_configs_scoring(self, pool, module_jobs, expected):
        default = get_engine("batched", xdrop=XDROP).align_batch(module_jobs)
        assert default.scores() != expected.scores()
        assert pool.run_batch(module_jobs).results == expected.results

    def test_task_carries_no_scoring_or_xdrop(self, pool, module_jobs, monkeypatch):
        sent = []
        put = pool._task_queue.put
        monkeypatch.setattr(
            pool._task_queue, "put", lambda task: (sent.append(task), put(task))
        )
        pool.run_batch(module_jobs)
        assert [set(task) for task in sent] == [{"seq", "shm", "count"}]

    @pytest.mark.parametrize("field", ["scoring", "xdrop"])
    def test_run_batch_takes_only_jobs(self, pool, module_jobs, field):
        value = {"scoring": _SCORING, "xdrop": XDROP}[field]
        with pytest.raises(TypeError):
            pool.run_batch(module_jobs, **{field: value})

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


class TestSplitConfig:
    def test_batch_above_the_split_gate_runs_whole(self, workload_above_split_gate):
        # A daemonic worker cannot start the process pool a split uses, so
        # it builds its engine with workers=1 whatever the config says.
        jobs = workload_above_split_gate.jobs
        xdrop = workload_above_split_gate.spec.xdrop
        config = AlignConfig(engine="batched", xdrop=xdrop, workers=2)
        expected = config.replace(workers=1).build_engine().align_batch(jobs)
        with ProcessWorkerPool(config) as pool:
            assert pool.run_batch(jobs).results == expected.results


class TestValidation:
    def test_trace_config_rejected(self):
        with pytest.raises(ConfigurationError, match="trace"):
            ProcessWorkerPool(_config(trace=True))

    def test_num_workers_removed(self):
        # One worker process; parallel alignment is AlignConfig.workers.
        with pytest.raises(TypeError):
            ProcessWorkerPool(_config(), num_workers=2)


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_shard_redelivered(
        self, module_jobs, expected
    ):
        obs = get_observability().scoped()
        # The worker hard-exits on its first task; the batch must be
        # redelivered (to the respawned, now-clean worker) bit-identically.
        with ProcessWorkerPool(
            _config(), obs=obs, fault_injection={"after": 1}
        ) as pool:
            run = pool.run_batch(module_jobs)
            assert run.results == expected.results
            assert pool.crashes == 1
            assert pool.worker_stats[0].batches == 1
        snap = obs.registry.snapshot()
        assert snap.value("repro_worker_crash_total") == 1.0
