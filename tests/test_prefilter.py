"""Tests of the alignment-free prefilter (repro.prefilter).

Tier-1 covers the sketch/distance layer, the policy's triage rules —
including the headline guarantee that the reject class has zero false
rejections on the ``pacbio``/``ont`` profiles at default thresholds —
and the service admission wiring in both ``advise`` and ``enforce``
modes.  The tier-2 tests (`-m tier2`) sweep every workload-bank profile
for rejection soundness and replay the full conformance harness with
the prefilter enabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AlignConfig, ServiceConfig
from repro.core import ScoringScheme, Seed, random_sequence
from repro.core.job import AlignmentJob
from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.prefilter import (
    PREFILTER_OUTCOMES,
    PrefilterPolicy,
    d2_distance,
    d2star_distance,
    rejected_result,
    sketch_distance,
    sketch_sequence,
)
from repro.service import AlignmentService
from repro.testing import ConformanceRunner
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

SCORING = ScoringScheme(match=1, mismatch=-1, gap=-1)
XDROP = 20

#: Read-scale spec: long enough that the provable bounds never fire and
#: triage is decided by the sketch distance alone.
LONG = WorkloadSpec(
    count=12,
    seed=23,
    min_length=600,
    max_length=1200,
    xdrop=XDROP,
    scoring=SCORING,
)


def _service_config(mode: str, **options) -> AlignConfig:
    return AlignConfig(
        engine="batched",
        scoring=SCORING,
        xdrop=XDROP,
        service=ServiceConfig(
            max_batch_size=8,
            prefilter=mode,
            prefilter_options=options,
        ),
    )


def _mixed_jobs() -> tuple[list[AlignmentJob], list[bool]]:
    """Six related (pacbio) + six unrelated jobs, with ground truth."""
    related = generate_workload("pacbio", LONG).jobs[:6]
    unrelated = generate_workload("unrelated", LONG).jobs[:6]
    jobs = related + unrelated
    for pair_id, job in enumerate(jobs):
        job.pair_id = pair_id
    return jobs, [True] * 6 + [False] * 6


# --------------------------------------------------------------------------- #
# Sketches and distances
# --------------------------------------------------------------------------- #
class TestSketch:
    def test_identical_sequences_at_zero_distance(self, rng):
        seq = random_sequence(700, rng)
        a, b = sketch_sequence(seq), sketch_sequence(seq.copy())
        assert d2_distance(a, b) == pytest.approx(0.0, abs=1e-12)
        assert d2star_distance(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_unrelated_sequences_are_far(self, rng):
        a = sketch_sequence(random_sequence(800, rng))
        b = sketch_sequence(random_sequence(800, rng))
        assert d2_distance(a, b) > 0.4
        assert d2star_distance(a, b) > 0.4

    def test_short_and_all_wildcard_sketches_are_empty(self):
        assert sketch_sequence("ACG", 7).empty
        assert sketch_sequence("N" * 100, 7).empty
        full = sketch_sequence("ACGTACGTACGT", 7)
        assert d2_distance(sketch_sequence("N" * 100, 7), full) == 1.0

    def test_homopolymer_d2star_falls_back_to_d2(self):
        # The background correction annihilates a pure homopolymer
        # profile; d2star must degrade to d2 instead of reporting noise.
        a = sketch_sequence("A" * 120, 7)
        b = sketch_sequence("A" * 90, 7)
        assert d2star_distance(a, b) == d2_distance(a, b) == pytest.approx(0.0)

    def test_k_mismatch_raises(self, rng):
        seq = random_sequence(100, rng)
        with pytest.raises(ConfigurationError):
            d2_distance(sketch_sequence(seq, 5), sketch_sequence(seq, 7))

    def test_unknown_metric_raises(self, rng):
        sk = sketch_sequence(random_sequence(50, rng))
        with pytest.raises(ConfigurationError):
            sketch_distance(sk, sk, metric="mash")

    def test_invalid_k_raises(self):
        with pytest.raises(ConfigurationError):
            sketch_sequence("ACGT", 0)
        with pytest.raises(ConfigurationError):
            sketch_sequence("ACGT", 13)  # dense profile cap is k=12


# --------------------------------------------------------------------------- #
# Policy triage rules
# --------------------------------------------------------------------------- #
class TestPolicy:
    def test_options_round_trip(self):
        policy = PrefilterPolicy(k=6, metric="d2star", reject_distance=0.5)
        assert PrefilterPolicy.from_options(policy.to_dict()) == policy

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown prefilter"):
            PrefilterPolicy.from_options({"kmer": 9})

    def test_inverted_distance_band_rejected(self):
        with pytest.raises(ConfigurationError):
            PrefilterPolicy(duplicate_distance=0.5, reject_distance=0.4)

    def test_duplicate_fires_before_overlap_bound(self, rng):
        # Identical but *short* pair: the overlap bound would reject it,
        # yet the duplicate route must win so it keeps its cheap
        # content-address hit.
        seq = random_sequence(60, rng)
        job = AlignmentJob(query=seq, target=seq.copy(), seed=Seed(0, 0, 11))
        decision = PrefilterPolicy().classify(job, SCORING)
        assert decision.outcome == "duplicate"
        assert decision.distance == pytest.approx(0.0, abs=1e-12)

    def test_overlap_bound_rejects_short_pairs(self, rng):
        job = AlignmentJob(
            query=random_sequence(60, rng),
            target=random_sequence(60, rng),
            seed=Seed(0, 0, 11),
        )
        decision = PrefilterPolicy().classify(job, SCORING)
        assert (decision.outcome, decision.reason) == ("reject", "overlap-bound")

    def test_score_bound_rejects_capped_scores(self, rng):
        # Mean length clears min_overlap but the short side caps the
        # best possible score below the threshold at min_overlap.
        job = AlignmentJob(
            query=random_sequence(40, rng),
            target=random_sequence(1100, rng),
            seed=Seed(0, 0, 11),
        )
        decision = PrefilterPolicy().classify(job, SCORING)
        assert (decision.outcome, decision.reason) == ("reject", "score-bound")

    def test_sketch_distance_rejects_unrelated_long_pairs(self, rng):
        job = AlignmentJob(
            query=random_sequence(800, rng),
            target=random_sequence(800, rng),
            seed=Seed(0, 0, 11),
        )
        decision = PrefilterPolicy().classify(job, SCORING)
        assert (decision.outcome, decision.reason) == ("reject", "sketch-distance")
        assert decision.distance >= PrefilterPolicy().reject_distance

    def test_no_sketch_signal_stays_contested(self, rng):
        # All-N query: no k-mer signal, bounds don't fire -> the kernel
        # is the only way to know, so the pair must be admitted.
        job = AlignmentJob(
            query=np.full(700, np.uint8(4)),
            target=random_sequence(700, rng),
            seed=Seed(0, 0, 11),
        )
        decision = PrefilterPolicy().classify(job, SCORING)
        assert (decision.outcome, decision.reason) == ("contested", "no-sketch")
        assert decision.distance is None

    def test_rejected_result_is_seed_only(self, rng):
        job = AlignmentJob(
            query=random_sequence(100, rng),
            target=random_sequence(100, rng),
            seed=Seed(10, 20, 13),
        )
        result = rejected_result(job, SCORING)
        assert result.score == result.seed_score == SCORING.match * 13
        assert (result.query_begin, result.query_end) == (10, 23)
        assert (result.target_begin, result.target_end) == (20, 33)
        assert result.left.cells_computed == result.right.cells_computed == 0


class TestZeroFalseRejections:
    """Headline tier-1 guarantee: related reads are never rejected."""

    @pytest.mark.parametrize("profile", ["pacbio", "ont"])
    def test_default_policy_never_rejects_related_reads(self, profile):
        policy = PrefilterPolicy()
        workload = generate_workload(profile, LONG)
        decisions = [policy.classify(job, SCORING) for job in workload.jobs]
        assert all(d.outcome != "reject" for d in decisions), [
            (d.outcome, d.reason, d.distance) for d in decisions
        ]


# --------------------------------------------------------------------------- #
# Service admission
# --------------------------------------------------------------------------- #
class TestServiceAdmission:
    def test_advise_mode_is_bit_identical_and_counted(self):
        jobs, _ = _mixed_jobs()
        direct = get_engine("batched", scoring=SCORING, xdrop=XDROP)
        expected = direct.align_batch(jobs).results
        with AlignmentService(config=_service_config("advise")) as svc:
            assert svc.map(jobs) == expected
            stats = svc.stats()
        assert stats.prefilter_mode == "advise"
        assert sum(stats.prefilter_decisions.values()) == len(jobs)
        assert stats.prefilter_decisions["reject"] > 0
        assert stats.prefilter_decisions["contested"] > 0

    def test_enforce_mode_rejections_are_sound(self):
        jobs, related = _mixed_jobs()
        direct = get_engine("batched", scoring=SCORING, xdrop=XDROP)
        expected = direct.align_batch(jobs).results
        policy = PrefilterPolicy()
        threshold = policy.threshold(SCORING)
        with AlignmentService(config=_service_config("enforce")) as svc:
            actual = svc.map(jobs)
            stats = svc.stats()
        assert stats.prefilter_mode == "enforce"
        rejections = 0
        for job, is_related, exp, act in zip(jobs, related, expected, actual):
            if policy.classify(job, SCORING).outcome == "reject":
                rejections += 1
                assert act == rejected_result(job, SCORING)
                # Zero false rejections: the pair is truly unrelated and
                # its real alignment fails the BELLA threshold anyway.
                assert not is_related
                assert not threshold.passes(exp.score, exp.overlap_length)
            else:
                assert act == exp
        assert rejections > 0
        assert stats.prefilter_decisions["reject"] == rejections

    def test_enforced_rejections_never_enter_the_cache(self):
        job = generate_workload("unrelated", LONG).jobs[0]
        with AlignmentService(config=_service_config("enforce")) as svc:
            first = svc.map([job])[0]
            second = svc.map([job])[0]
            stats = svc.stats()
        assert first == second == rejected_result(job, SCORING)
        assert stats.cache.hits == 0 and stats.cache.size == 0

    def test_ticket_records_the_outcome(self):
        job = generate_workload("pacbio", LONG).jobs[0]
        with AlignmentService(config=_service_config("advise")) as svc:
            ticket = svc.submit(job)
            svc.drain()
            ticket.result()
        assert ticket.prefilter in PREFILTER_OUTCOMES

    def test_off_mode_reports_no_decisions(self):
        job = generate_workload("pacbio", LONG).jobs[0]
        with AlignmentService(config=_service_config("off")) as svc:
            svc.map([job])
            stats = svc.stats()
        assert stats.prefilter_mode == "off"
        assert stats.prefilter_decisions == {}

    def test_config_validates_mode_and_options(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(prefilter="sometimes")
        with pytest.raises(ConfigurationError):
            ServiceConfig(prefilter="advise", prefilter_options={"kmer": 9})
        with pytest.raises(ConfigurationError):
            ServiceConfig(prefilter="advise", prefilter_options={"k": 0})


# --------------------------------------------------------------------------- #
# Pipeline stage
# --------------------------------------------------------------------------- #
class TestPipelinePrefilter:
    def test_advise_stage_leaves_overlaps_identical(self, tiny_reads):
        from repro.bella import BellaPipeline

        config = AlignConfig(engine="batched", xdrop=15)
        plain = BellaPipeline(k=13, min_overlap=300, config=config).run(tiny_reads)
        advised = BellaPipeline(
            k=13, min_overlap=300, config=config, prefilter="advise"
        ).run(tiny_reads)
        assert advised.overlaps == plain.overlaps
        assert plain.prefilter is None
        assert advised.prefilter["mode"] == "advise"
        assert sum(advised.prefilter["decisions"].values()) == len(
            advised.overlaps
        )
        assert "prefilter" in advised.timer.stages

    def test_enforce_with_unreachable_overlap_rejects_everything(
        self, tiny_reads
    ):
        from repro.bella import BellaPipeline
        from repro.prefilter import PrefilterPolicy

        pipeline = BellaPipeline(
            k=13,
            min_overlap=300,
            config=AlignConfig(engine="batched", xdrop=15),
            prefilter="enforce",
            prefilter_policy=PrefilterPolicy(min_overlap=10**6),
        )
        result = pipeline.run(tiny_reads)
        decisions = result.prefilter["decisions"]
        assert decisions["reject"] == len(result.overlaps) > 0
        # Seed-only placeholders can never clear the BELLA threshold.
        assert result.accepted == []

    def test_invalid_mode_rejected(self):
        from repro.bella import BellaPipeline

        with pytest.raises(ConfigurationError):
            BellaPipeline(prefilter="maybe")


# --------------------------------------------------------------------------- #
# Tier-2: profile sweep + conformance with the prefilter on
# --------------------------------------------------------------------------- #
@pytest.mark.tier2
@pytest.mark.parametrize("profile", list_profiles())
def test_rejections_sound_on_every_profile(profile):
    """Any rejected pair's true alignment fails the BELLA threshold."""
    spec = WorkloadSpec(
        count=6,
        seed=31,
        min_length=600,
        max_length=1200,
        xdrop=XDROP,
        scoring=SCORING,
    )
    workload = generate_workload(profile, spec)
    policy = PrefilterPolicy()
    threshold = policy.threshold(SCORING)
    engine = get_engine("batched", scoring=SCORING, xdrop=XDROP)
    results = engine.align_batch(workload.jobs).results
    for job, meta, result in zip(workload.jobs, workload.meta, results):
        decision = policy.classify(job, SCORING)
        if decision.outcome == "reject":
            assert meta.get("related", True) is False or not threshold.passes(
                result.score, result.overlap_length
            ), (profile, decision, meta)


@pytest.mark.tier2
@pytest.mark.parametrize("profile", list_profiles())
def test_advise_conformance_stays_bit_identical(profile):
    config = AlignConfig(
        engine="batched",
        xdrop=15,
        service=ServiceConfig(max_batch_size=8, prefilter="advise"),
    )
    runner = ConformanceRunner(
        config, engines=["reference"], include_service=True, include_network=True
    )
    spec = WorkloadSpec(count=4, seed=11, min_length=50, max_length=120, xdrop=15)
    report = runner.run_workload(generate_workload(profile, spec))
    assert report.ok, report.summary()
    assert report.service_checked


@pytest.mark.tier2
def test_enforce_conformance_forgives_sound_rejections():
    config = AlignConfig(
        engine="batched",
        xdrop=XDROP,
        scoring=SCORING,
        service=ServiceConfig(max_batch_size=8, prefilter="enforce"),
    )
    runner = ConformanceRunner(
        config, engines=["reference"], include_service=True, include_network=True
    )
    report = runner.run_workload(generate_workload("unrelated", LONG))
    assert report.ok, report.summary()
