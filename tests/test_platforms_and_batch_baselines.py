"""Tests for the CPU platform cost models and the engine runs they model."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import (
    KSW2_SKYLAKE_BAND_MODEL,
    POWER9_PLATFORM,
    SEQAN_POWER9_MODEL,
    SKYLAKE_PLATFORM,
    CpuCostModel,
    CpuPlatformSpec,
    Ksw2CostModel,
)
from repro.core import AffineScoringScheme
from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

PROFILE_SPEC = WorkloadSpec(count=4, seed=11, min_length=50, max_length=120, xdrop=15)


def _assert_same_seqan_work(jobs, xdrop):
    """``logan``'s and ``batched``'s runs give the POWER9 model SeqAn's work.

    Tables II, IV and V model SeqAn from a ``logan`` run's summary and
    ``repro-align --baseline`` from a ``batched`` run's. SeqAn's X-drop is
    the scalar recurrence of the ``reference`` engine, so both summaries
    must carry its work and scores. ``logan`` may report another widest
    band (its kernel's), which the POWER9 model does not read.
    """
    runs = {
        name: get_engine(name, xdrop=xdrop).align_batch(jobs)
        for name in ("reference", "batched", "logan")
    }
    work = runs["reference"].summary
    assert runs["batched"].summary == work
    assert (
        dataclasses.replace(runs["logan"].summary, max_band_width=work.max_band_width)
        == work
    )
    seconds = SEQAN_POWER9_MODEL.seconds_for(work)
    for run in runs.values():
        assert SEQAN_POWER9_MODEL.seconds_for(run.summary) == seconds
        assert run.scores() == runs["reference"].scores()


class TestCpuPlatformSpec:
    def test_power9_topology(self):
        assert POWER9_PLATFORM.cores == 42
        assert POWER9_PLATFORM.threads == 168

    def test_skylake_topology(self):
        assert SKYLAKE_PLATFORM.cores == 40
        assert SKYLAKE_PLATFORM.threads == 80

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuPlatformSpec("bad", sockets=0, cores_per_socket=4, threads_per_core=1, clock_ghz=2.0)

    def test_invalid_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuPlatformSpec("bad", sockets=1, cores_per_socket=4, threads_per_core=1, clock_ghz=0.0)


class TestCpuCostModel:
    def test_time_scales_with_cells(self):
        model = SEQAN_POWER9_MODEL
        t1 = model.seconds(cells=10**9, iterations=10**6, alignments=10**5)
        t2 = model.seconds(cells=2 * 10**9, iterations=10**6, alignments=10**5)
        assert t2 > t1

    def test_time_scales_inverse_with_threads(self):
        few = CpuCostModel(POWER9_PLATFORM, threads=21, ns_per_cell=4.5,
                           ns_per_iteration=55.0, ns_per_alignment=12_000.0)
        many = SEQAN_POWER9_MODEL
        work = dict(cells=10**9, iterations=10**6, alignments=10**4)
        assert few.seconds(**work) > many.seconds(**work)

    def test_threads_beyond_platform_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuCostModel(POWER9_PLATFORM, threads=500, ns_per_cell=1.0,
                         ns_per_iteration=1.0, ns_per_alignment=1.0)

    def test_negative_work_rejected(self):
        with pytest.raises(ConfigurationError):
            SEQAN_POWER9_MODEL.seconds(cells=-1, iterations=0, alignments=0)

    def test_gcups(self):
        assert SEQAN_POWER9_MODEL.gcups(cells=10**9, iterations=0, alignments=0) > 0

    def test_invalid_efficiency(self):
        with pytest.raises(ConfigurationError):
            CpuCostModel(POWER9_PLATFORM, threads=8, ns_per_cell=1, ns_per_iteration=1,
                         ns_per_alignment=1, parallel_efficiency=0.0)


class TestKsw2CostModel:
    def test_band_degrades_per_cell_cost(self):
        model = KSW2_SKYLAKE_BAND_MODEL
        work = dict(cells=10**9, rows=10**6, alignments=10**4)
        assert model.seconds(band=2000, **work) > model.seconds(band=10, **work)

    def test_invalid_band_halfcost(self):
        with pytest.raises(ConfigurationError):
            Ksw2CostModel(SKYLAKE_PLATFORM, band_halfcost=0)

    def test_negative_band_rejected(self):
        with pytest.raises(ConfigurationError):
            KSW2_SKYLAKE_BAND_MODEL.seconds(cells=1, rows=1, alignments=1, band=-1)


class TestSeqAnModelOfAnEngineRun:
    def test_seconds_for_reads_an_extrapolated_summary(self, small_jobs, scoring):
        summary = get_engine("batched", scoring=scoring, xdrop=15).align_batch(
            small_jobs
        ).summary
        base = SEQAN_POWER9_MODEL.seconds_for(summary)
        assert base == SEQAN_POWER9_MODEL.seconds(
            cells=summary.cells,
            iterations=summary.iterations,
            alignments=summary.alignments,
        )
        assert base > 0
        scaled = SEQAN_POWER9_MODEL.seconds_for(summary.scaled(10))
        assert scaled == pytest.approx(10 * base, rel=0.01)

    @pytest.mark.parametrize("profile", list_profiles())
    def test_engine_runs_carry_seqan_work_on_every_profile(self, profile):
        jobs = generate_workload(profile, PROFILE_SPEC).jobs
        _assert_same_seqan_work(jobs, PROFILE_SPEC.xdrop)

    @pytest.mark.parametrize("xdrop", [10, 100, 500])
    def test_engine_runs_carry_seqan_work_at_x(self, small_jobs, xdrop):
        _assert_same_seqan_work(small_jobs, xdrop)


class TestKsw2Engine:
    """The ``ksw2`` engine, whose work summary Table III's Skylake model reads.

    A negative band and ``workers < 1`` are refused when it is built
    (``test_engine_registry.TestConstructionChecks``).
    """

    def test_align_batch_summary_feeds_the_skylake_model(self, small_jobs):
        batch = get_engine("ksw2", xdrop=50).align_batch(small_jobs)
        assert len(batch.results) == len(small_jobs)
        assert batch.summary.alignments == len(small_jobs)
        assert batch.summary.cells > 0
        assert batch.summary.max_band_width == 2 * 50 + 1
        seconds = KSW2_SKYLAKE_BAND_MODEL.seconds_for(batch.summary)
        assert seconds == KSW2_SKYLAKE_BAND_MODEL.seconds(
            cells=batch.summary.cells,
            rows=batch.summary.iterations,
            alignments=batch.summary.alignments,
            band=2 * 50 + 1,
        )
        assert seconds > 0

    def test_bandwidth_defaults_to_x(self):
        assert get_engine("ksw2", xdrop=123).bandwidth == 123
        assert get_engine("ksw2", xdrop=123, bandwidth=7).bandwidth == 7

    def test_explicit_bandwidth_is_the_summary_band(self, small_jobs):
        narrow = get_engine("ksw2", xdrop=50, bandwidth=7).align_batch(small_jobs)
        wide = get_engine("ksw2", xdrop=50).align_batch(small_jobs)
        assert narrow.summary.max_band_width == 2 * 7 + 1
        assert narrow.summary.cells < wide.summary.cells

    def test_scores_positive_for_related_pairs(self, small_jobs):
        engine = get_engine("ksw2", xdrop=100, bandwidth=100)
        assert engine.affine == AffineScoringScheme()
        batch = engine.align_batch(small_jobs)
        assert all(score > 0 for score in batch.scores())
