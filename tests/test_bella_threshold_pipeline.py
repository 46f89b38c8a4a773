"""Tests for BELLA's adaptive threshold and the end-to-end pipeline."""

from __future__ import annotations

import pytest

from repro.api import AlignConfig
from repro.bella import AdaptiveThreshold, BellaPipeline
from repro.data import true_overlap
from repro.errors import ConfigurationError


class TestAdaptiveThreshold:
    def test_expected_score_per_base(self):
        threshold = AdaptiveThreshold(error_rate=0.0)
        assert threshold.expected_score_per_base == pytest.approx(1.0)
        noisy = AdaptiveThreshold(error_rate=0.15)
        assert 0.0 < noisy.expected_score_per_base < 1.0

    def test_threshold_scales_with_length(self):
        threshold = AdaptiveThreshold(error_rate=0.1)
        assert threshold.threshold_for(2000) == pytest.approx(
            2 * threshold.threshold_for(1000)
        )

    def test_passes_requires_min_overlap(self):
        threshold = AdaptiveThreshold(error_rate=0.1, min_overlap=1000)
        assert not threshold.passes(10_000, overlap_length=500)
        assert threshold.passes(10_000, overlap_length=2000)

    def test_low_scores_rejected(self):
        threshold = AdaptiveThreshold(error_rate=0.1, min_overlap=100)
        assert not threshold.passes(10, overlap_length=2000)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveThreshold(error_rate=1.2)
        with pytest.raises(ConfigurationError):
            AdaptiveThreshold(slack=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveThreshold(min_overlap=-1)
        with pytest.raises(ConfigurationError):
            AdaptiveThreshold().threshold_for(-5)


class TestBellaPipeline:
    @pytest.fixture
    def pipeline_kwargs(self):
        return dict(k=13, xdrop=15, min_overlap=200, error_rate=0.08)

    def _make_pipeline(self, engine, xdrop, **kwargs):
        defaults = dict(k=13, min_overlap=200, error_rate=0.08)
        defaults.update(kwargs)
        config = AlignConfig(engine=engine, xdrop=xdrop)
        return BellaPipeline(config=config, **defaults)

    def test_needs_at_least_two_reads(self, tiny_reads):
        pipeline = self._make_pipeline("batched", 10)
        with pytest.raises(ConfigurationError):
            pipeline.run(tiny_reads[:1])

    def test_end_to_end_with_logan_engine(self, tiny_reads):
        pipeline = self._make_pipeline("logan", 10)
        result = pipeline.run(tiny_reads)
        assert result.index.retained_kmers > 0
        assert result.candidates.num_candidates > 0
        assert result.num_alignments > 0
        assert len(result.accepted) > 0
        assert result.work.cells > 0
        assert "alignment" in result.timer.stages
        assert result.alignment_modeled_seconds is not None

    def test_recall_against_ground_truth(self, tiny_reads):
        pipeline = self._make_pipeline("batched", 15)
        result = pipeline.run(tiny_reads)
        truth = {
            (i, j)
            for i in range(len(tiny_reads))
            for j in range(i + 1, len(tiny_reads))
            if true_overlap(tiny_reads[i], tiny_reads[j]) >= 500
        }
        found = result.accepted_pairs()
        assert truth, "fixture must contain true overlaps"
        recall = len(found & truth) / len(truth)
        assert recall >= 0.7

    def test_equivalent_results_with_logan_kernel(self, tiny_reads):
        """The paper's claim: BELLA + LOGAN == BELLA + SeqAn output.

        The ``reference`` engine is the SeqAn-style scalar X-drop loop.
        """
        seqan_result = self._make_pipeline("reference", 10).run(tiny_reads)
        logan_result = self._make_pipeline("logan", 10).run(tiny_reads)
        assert seqan_result.accepted_pairs() == logan_result.accepted_pairs()
        assert [o.score for o in seqan_result.overlaps] == [
            o.score for o in logan_result.overlaps
        ]

    def test_alignment_dominates_runtime(self, tiny_reads):
        # Section V: pairwise alignment is ~90 % of BELLA's runtime with
        # the SeqAn-style scalar kernel.
        pipeline = self._make_pipeline("reference", 15)
        result = pipeline.run(tiny_reads)
        assert result.timer.fraction("alignment") > 0.5

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            BellaPipeline(k=0)

    def test_higher_x_never_reduces_scores(self, tiny_reads):
        low = self._make_pipeline("batched", 5).run(tiny_reads)
        high = self._make_pipeline("batched", 25).run(tiny_reads)
        low_scores = {(o.read_i, o.read_j): o.score for o in low.overlaps}
        high_scores = {(o.read_i, o.read_j): o.score for o in high.overlaps}
        for pair, score in low_scores.items():
            assert high_scores[pair] >= score

    def test_default_aligner_is_lazy_batched(self):
        pipeline = BellaPipeline()
        assert pipeline._aligner is None  # built lazily on first access
        from repro.engine import BatchedEngine

        assert isinstance(pipeline.aligner, BatchedEngine)
        assert pipeline.aligner.name == "batched"
