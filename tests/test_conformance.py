"""Tests of the differential conformance/fuzz harness (repro.testing).

The tier-2 matrix (`-m tier2`) replays every workload-bank profile
through every registered engine, the service path (default and small
fixed batches, the latter also over the network) and the per-pair
kernel, the one exact aligner that lives outside the registry; the
remaining tests exercise the harness machinery itself — shrink-on-failure
with an injected off-by-one engine, fuzz determinism and bounds.
"""

from __future__ import annotations

import pytest

from repro.api import AlignConfig, ServiceConfig
from repro.core import extend_seed
from repro.core.job import summarize_results
from repro.engine import (
    EngineBatchResult,
    list_engines,
    register_engine,
    unregister_engine,
)
from repro.engine.engines import ReferenceEngine
from repro.errors import ConfigurationError
from repro.testing import (
    ConformanceRunner,
    compare_results,
    derive_round_seed,
    run_fuzz,
)
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

CONFIG = AlignConfig(engine="batched", xdrop=15)
TRACE_CONFIG = CONFIG.replace(trace=True)
SMALL = WorkloadSpec(count=4, seed=11, min_length=50, max_length=120, xdrop=15)


# --------------------------------------------------------------------------- #
# Tier-2 matrix: workload bank x engine grid, plus the service path
# --------------------------------------------------------------------------- #
@pytest.mark.tier2
@pytest.mark.parametrize("engine", sorted(set(list_engines()) - {"reference"}))
@pytest.mark.parametrize("profile", list_profiles())
class TestConformanceMatrix:
    def test_profile_engine_conformance(self, profile, engine):
        runner = ConformanceRunner(
            CONFIG, engines=["reference", engine], include_service=False
        )
        report = runner.run_workload(generate_workload(profile, SMALL))
        assert report.ok, report.summary()


@pytest.mark.tier2
@pytest.mark.parametrize("profile", list_profiles())
class TestServiceConformance:
    def test_service_path_bit_identical(self, profile):
        runner = ConformanceRunner(
            CONFIG, engines=["reference"], include_service=True
        )
        report = runner.run_workload(generate_workload(profile, SMALL))
        assert report.ok, report.summary()
        assert report.service_checked


@pytest.mark.tier2
@pytest.mark.parametrize("profile", list_profiles())
class TestTraceConformanceMatrix:
    def test_band_traces_bit_identical(self, profile):
        """Band traces are part of the exactness contract when tracing is on.

        ``wavefront`` is left out: it computes in cost space and reports no
        exact band traces (``work_exact = False``).
        """
        runner = ConformanceRunner(
            TRACE_CONFIG,
            engines=["reference", "batched", "logan"],
            include_service=False,
        )
        report = runner.run_workload(generate_workload(profile, SMALL))
        assert report.ok, report.summary()


class _PerPairKernelEngine(ReferenceEngine):
    """Per-job loop over ``xdrop_extend``, the per-pair vectorised kernel."""

    name = "per_pair_kernel"

    def _align_batch(self, jobs):
        # extend_seed's default kernel is xdrop_extend.
        results = [
            extend_seed(
                job.query, job.target, job.seed,
                scoring=self.scoring, xdrop=self.xdrop, trace=self.trace,
            )
            for job in jobs
        ]
        return EngineBatchResult(
            engine=self.name,
            results=results,
            summary=summarize_results(results),
            elapsed_seconds=0.0,
        )


@pytest.mark.tier2
@pytest.mark.parametrize("engine_cls", [_PerPairKernelEngine], ids=lambda c: c.name)
@pytest.mark.parametrize("profile", list_profiles())
class TestUnregisteredAlignerConformance:
    """Exact aligners outside the registry, under temporary registrations.

    ``xdrop_extend`` is ``extend_seed``'s default kernel, so it is held to
    the full-field (band traces included) contract on every profile.
    """

    def test_profile_conformance_with_traces(self, profile, engine_cls):
        register_engine(engine_cls.name, engine_cls)
        try:
            runner = ConformanceRunner(
                TRACE_CONFIG,
                engines=["reference", engine_cls.name],
                include_service=False,
            )
            report = runner.run_workload(generate_workload(profile, SMALL))
        finally:
            unregister_engine(engine_cls.name)
        assert report.ok, report.summary()


# --------------------------------------------------------------------------- #
# Harness machinery
# --------------------------------------------------------------------------- #
class _OffByOneEngine(ReferenceEngine):
    """Reference clone with an injected off-by-one on targets >= 40 bp."""

    name = "offbyone"
    exact = True
    THRESHOLD = 40

    def align_batch(self, jobs):
        batch = super().align_batch(jobs)
        for job, res in zip(jobs, batch.results):
            if job.target_length >= self.THRESHOLD:
                res.score += 1
        return batch


@pytest.fixture
def offbyone_engine():
    register_engine("offbyone", _OffByOneEngine)
    yield "offbyone"
    unregister_engine("offbyone")


class TestShrinkOnFailure:
    def test_injected_bug_is_caught_and_shrunk(self, offbyone_engine):
        runner = ConformanceRunner(
            CONFIG, engines=["reference", offbyone_engine], include_service=False
        )
        workload = generate_workload(
            "pacbio", WorkloadSpec(count=8, seed=21, min_length=80, max_length=160)
        )
        report = runner.run_workload(workload)
        assert not report.ok
        failure = report.failures[0]
        assert failure.engine == offbyone_engine
        assert failure.shrunk and failure.minimal_batch == 1
        # The shrinker must land exactly on the bug's boundary: the target
        # is pinned at the threshold, everything else trimmed away.
        assert len(failure.target) == _OffByOneEngine.THRESHOLD
        assert len(failure.query) < 80
        assert any(m.field == "score" for m in failure.mismatches)
        # Replayability: profile, workload seed and config travel along.
        assert failure.profile == "pacbio"
        assert failure.workload_seed == 21
        assert failure.config["xdrop"] == CONFIG.xdrop
        assert "AlignmentJob" in failure.replay_hint()

    def test_shrunk_failure_replays_standalone(self, offbyone_engine):
        runner = ConformanceRunner(
            CONFIG, engines=["reference", offbyone_engine], include_service=False
        )
        workload = generate_workload(
            "ont", WorkloadSpec(count=6, seed=33, min_length=80, max_length=160)
        )
        failure = runner.run_workload(workload).failures[0]
        # Rebuild the minimal pair from the printed failure alone.
        from repro.core.job import AlignmentJob
        from repro.core.seed_extend import Seed

        qpos, tpos, k = failure.seed
        job = AlignmentJob(failure.query, failure.target, Seed(qpos, tpos, k))
        replay = ConformanceRunner(
            AlignConfig.from_dict(failure.config),
            engines=["reference", offbyone_engine],
            include_service=False,
            shrink=False,
        ).run_jobs([job])
        assert not replay.ok

    def test_fuzz_surfaces_injected_bug(self, offbyone_engine):
        report = run_fuzz(
            CONFIG,
            seed=0,
            count=40,
            batch_size=8,
            min_length=60,
            max_length=120,
            engines=["reference", offbyone_engine],
            include_service=False,
        )
        assert not report.ok
        assert report.failures[0].shrunk
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["failures"][0]["engine"] == offbyone_engine

    def test_exhaustive_report_summary_mentions_failure(self, offbyone_engine):
        runner = ConformanceRunner(
            CONFIG, engines=["reference", offbyone_engine], include_service=False
        )
        report = runner.run_workload(
            generate_workload("pacbio", WorkloadSpec(count=4, seed=2))
        )
        text = report.summary()
        assert "FAILURE" in text and offbyone_engine in text


class _CrashingEngine(ReferenceEngine):
    """Raises on targets >= 60 bp (a crash, not a wrong answer)."""

    name = "crashy"
    exact = True

    def align_batch(self, jobs):
        for job in jobs:
            if job.target_length >= 60:
                raise RuntimeError("kernel exploded")
        return super().align_batch(jobs)


class _DroppingEngine(ReferenceEngine):
    """Silently drops the last result of every batch."""

    name = "droppy"
    exact = True

    def align_batch(self, jobs):
        batch = super().align_batch(jobs)
        if len(batch.results) > 1:
            batch.results.pop()
        return batch


class TestCrashAndCountViolations:
    def test_engine_exception_is_recorded_not_raised(self):
        register_engine("crashy", _CrashingEngine)
        try:
            runner = ConformanceRunner(
                CONFIG, engines=["reference", "crashy"], include_service=False
            )
            workload = generate_workload(
                "pacbio", WorkloadSpec(count=6, seed=5, min_length=80, max_length=120)
            )
            report = runner.run_workload(workload)  # must not raise
            assert not report.ok
            failure = report.failures[0]
            assert failure.engine == "crashy"
            assert any(m.field == "exception" for m in failure.mismatches)
            # The isolated crashing pair travels with the failure.
            assert len(failure.target) >= 60
            assert failure.workload_seed == 5
        finally:
            unregister_engine("crashy")

    def test_fuzz_always_produces_a_report_on_crash(self):
        register_engine("crashy", _CrashingEngine)
        try:
            report = run_fuzz(
                CONFIG, seed=0, count=12, batch_size=6,
                min_length=80, max_length=120,
                engines=["reference", "crashy"], include_service=False,
            )
            assert not report.ok
            assert report.to_dict()["failures"]  # artifact payload exists
        finally:
            unregister_engine("crashy")

    def test_dropped_results_fail_as_count_mismatch(self):
        register_engine("droppy", _DroppingEngine)
        try:
            runner = ConformanceRunner(
                CONFIG, engines=["reference", "droppy"], include_service=False,
                shrink=False,
            )
            report = runner.run_workload(generate_workload("pacbio", SMALL))
            assert not report.ok
            failure = report.failures[0]
            assert failure.engine == "droppy"
            assert any(m.field == "result_count" for m in failure.mismatches)
        finally:
            unregister_engine("droppy")


class TestRunnerSurface:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="available"):
            ConformanceRunner(CONFIG, engines=["warp-drive"])

    def test_empty_jobs_short_circuit(self):
        report = ConformanceRunner(CONFIG).run_jobs([])
        assert report.ok and report.jobs == 0

    def test_compare_results_is_reflexive(self):
        from repro.engine import get_engine

        jobs = generate_workload("pacbio", SMALL).jobs
        results = get_engine("reference", xdrop=15).align_batch(jobs).results
        for res in results:
            assert compare_results(res, res, trace=True) == []

    def test_inexact_engine_gets_determinism_check_only(self):
        # ksw2 is not score-exact by design; the runner must not flag it.
        runner = ConformanceRunner(
            CONFIG, engines=["reference", "ksw2"], include_service=False
        )
        report = runner.run_workload(generate_workload("pacbio", SMALL))
        assert report.ok, report.summary()

    def test_report_merge_accumulates(self):
        runner = ConformanceRunner(CONFIG, engines=["reference"], include_service=False)
        a = runner.run_workload(generate_workload("pacbio", SMALL))
        b = runner.run_workload(generate_workload("ont", SMALL))
        merged = a.merge(b)
        assert merged.jobs == 8


class TestFuzzRunner:
    def test_deterministic_round_seeds(self):
        assert derive_round_seed(0, 0) == derive_round_seed(0, 0)
        assert derive_round_seed(0, 1) != derive_round_seed(0, 0)
        assert derive_round_seed(1, 0) != derive_round_seed(0, 0)

    def test_count_bound_and_profile_rotation(self):
        report = run_fuzz(
            CONFIG,
            seed=3,
            count=30,
            batch_size=6,
            engines=["reference", "batched"],
            include_service=False,
        )
        assert report.ok
        assert report.jobs >= 30
        assert report.rounds == 5
        assert len(report.per_profile) == 5  # first five profiles of the cycle

    def test_time_bound_stops(self):
        report = run_fuzz(
            CONFIG,
            seed=4,
            time_budget=0.0,  # at least one check of the clock, zero rounds
            batch_size=4,
            engines=["reference"],
            include_service=False,
        )
        assert report.rounds == 0 and report.ok

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="available"):
            run_fuzz(CONFIG, count=1, profiles=["nope"])

    def test_fuzz_is_reproducible(self):
        kwargs = dict(
            seed=5, count=16, batch_size=8, min_length=50, max_length=100,
            engines=["reference", "batched"], include_service=False,
        )
        a = run_fuzz(CONFIG, **kwargs)
        b = run_fuzz(CONFIG, **kwargs)
        assert a.ok and b.ok
        assert a.jobs == b.jobs and a.comparisons == b.comparisons
        assert a.per_profile == b.per_profile


# --------------------------------------------------------------------------- #
# Small fixed batches: a service that flushes several batches per workload
# changes only *when* batches flush, never what they compute.
# --------------------------------------------------------------------------- #

#: Batch bound 2 splits every 4-job workload into two length-sorted
#: batches; with the cache off, the resubmission round goes through the
#: batcher again instead of being answered from memory.
SMALL_BATCH_CONFIG = CONFIG.replace(
    service=ServiceConfig(max_batch_size=2, cache_capacity=0)
)


def test_small_batch_service_bit_identical_on_one_profile():
    """Tier-1 canary for the tier-2 small-batch matrix below."""
    runner = ConformanceRunner(
        SMALL_BATCH_CONFIG, engines=["reference"], include_service=True
    )
    report = runner.run_workload(generate_workload("length_skew", SMALL))
    assert report.ok, report.summary()
    assert report.service_checked


@pytest.mark.tier2
@pytest.mark.parametrize("profile", list_profiles())
class TestSmallBatchServiceConformance:
    def test_small_batch_service_bit_identical(self, profile):
        with ConformanceRunner(
            SMALL_BATCH_CONFIG,
            engines=["reference"],
            include_service=True,
            include_network=True,
        ) as runner:
            report = runner.run_workload(generate_workload(profile, SMALL))
        assert report.ok, report.summary()
        assert report.service_checked and report.network_checked
