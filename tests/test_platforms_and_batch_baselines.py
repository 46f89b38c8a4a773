"""Tests for CPU platform cost models and the SeqAn/ksw2 batch runners."""

from __future__ import annotations

import pytest

from repro.baselines import (
    KSW2_SKYLAKE_BAND_MODEL,
    POWER9_PLATFORM,
    SEQAN_POWER9_MODEL,
    SKYLAKE_PLATFORM,
    CpuCostModel,
    CpuPlatformSpec,
    Ksw2BatchAligner,
    Ksw2CostModel,
    SeqAnBatchAligner,
)
from repro.core import AffineScoringScheme
from repro.errors import ConfigurationError


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


class TestSeqAnBatchAligner:
    def test_align_batch_produces_results_and_summary(self, small_jobs, scoring):
        aligner = SeqAnBatchAligner(scoring=scoring, xdrop=15)
        result = aligner.align_batch(small_jobs)
        assert len(result.results) == len(small_jobs)
        assert result.summary.alignments == len(small_jobs)
        assert result.summary.cells > 0
        assert result.elapsed_seconds > 0
        assert result.modeled_seconds > 0
        assert result.measured_gcups() > 0
        assert result.modeled_gcups() > result.measured_gcups()

    def test_scores_positive_for_related_pairs(self, small_jobs, scoring):
        aligner = SeqAnBatchAligner(scoring=scoring, xdrop=25)
        result = aligner.align_batch(small_jobs)
        assert all(r.score > 0 for r in result.results)

    def test_modeled_seconds_for_extrapolated_summary(self, small_jobs, scoring):
        aligner = SeqAnBatchAligner(scoring=scoring, xdrop=15)
        result = aligner.align_batch(small_jobs)
        base = aligner.modeled_seconds_for(result.summary)
        scaled = aligner.modeled_seconds_for(result.summary.scaled(10))
        assert scaled == pytest.approx(10 * base, rel=0.01)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            SeqAnBatchAligner(xdrop=15, workers=workers)


class TestKsw2BatchAligner:
    def test_align_batch(self, small_jobs):
        aligner = Ksw2BatchAligner(zdrop=50)
        result = aligner.align_batch(small_jobs)
        assert len(result.results) == len(small_jobs)
        assert len(result.scores) == len(small_jobs)
        assert result.summary.cells > 0
        assert result.band == 50
        assert result.modeled_seconds > 0
        assert result.modeled_gcups() > 0

    def test_bandwidth_defaults_to_zdrop(self):
        assert Ksw2BatchAligner(zdrop=123).bandwidth == 123
        assert Ksw2BatchAligner(zdrop=123, bandwidth=7).bandwidth == 7

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            Ksw2BatchAligner(zdrop=50, workers=workers)

    def test_scores_positive_for_related_pairs(self, small_jobs):
        aligner = Ksw2BatchAligner(
            scoring=AffineScoringScheme(), zdrop=100, bandwidth=100
        )
        result = aligner.align_batch(small_jobs)
        assert all(score > 0 for score in result.scores)
