"""Tests for the LOGAN batch aligner (batched sweep + multi-GPU model)."""

from __future__ import annotations

import pytest

from repro.api import AlignConfig
from repro.core import ScoringScheme
from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.gpusim import (
    BlockWorkTrace,
    KernelExecutionModel,
    KernelWorkload,
    MultiGpuSystem,
)
from repro.gpusim.stream import compose_streams
from repro.logan import HostModel, LoadBalancer, LoganAligner, threads_for_xdrop
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

MODEL_XDROP = 20
MODEL_SPEC = WorkloadSpec(
    count=12, seed=7, min_length=60, max_length=240, xdrop=MODEL_XDROP
)


def hand_modeled(jobs, gpus, replication):
    """The V100 model of *jobs*, built by hand from the scalar reference.

    Each device of the ``LoadBalancer`` split runs its left and right
    extensions as two streams (the paper's layout); every non-empty side is
    one block carrying the reference engine's band trace.  Returns the
    per-device kernel timings, the per-device seconds and the modeled
    end-to-end seconds.
    """
    scoring = ScoringScheme()
    reference = get_engine(
        "reference", scoring=scoring, xdrop=MODEL_XDROP, trace=True
    ).align_batch(jobs).results
    system = MultiGpuSystem.homogeneous(gpus)
    assignments = LoadBalancer(
        num_devices=gpus, xdrop=MODEL_XDROP, gap_penalty=abs(scoring.gap)
    ).split(jobs)
    kernel_timings, streams = [], []
    for assignment, device in zip(assignments, system.devices):
        threads = threads_for_xdrop(MODEL_XDROP, device, gap_penalty=abs(scoring.gap))
        device_timings = []
        for side in ("left", "right"):
            blocks = []
            for index in assignment.job_indices:
                job, seed = jobs[index], jobs[index].seed
                if side == "left":
                    qlen, tlen = seed.query_pos, seed.target_pos
                else:
                    qlen = job.query_length - seed.query_end
                    tlen = job.target_length - seed.target_end
                if qlen and tlen:
                    ext = getattr(reference[index], side)
                    blocks.append(BlockWorkTrace(ext.band_widths, qlen, tlen))
            if blocks:
                device_timings.append(
                    KernelExecutionModel(device).execute(
                        KernelWorkload(blocks=blocks, replication=replication),
                        threads_per_block=threads,
                    )
                )
        kernel_timings.append(tuple(device_timings))
        streams.append(compose_streams(device_timings) if device_timings else None)
    multi = system.combine(streams)
    host = HostModel().seconds(
        total_bases=int(
            round(sum(j.query_length + j.target_length for j in jobs) * replication)
        ),
        alignments=int(round(len(jobs) * replication)),
    )
    return kernel_timings, multi.per_device_seconds, host + multi.total_seconds


def assert_matches_hand_model(jobs, gpus, replication=1000.0):
    batch = LoganAligner(
        system=MultiGpuSystem.homogeneous(gpus), xdrop=MODEL_XDROP
    ).align_batch(jobs, replication=replication)
    kernel_timings, per_device, modeled = hand_modeled(jobs, gpus, replication)
    assert batch.kernel_timings == kernel_timings
    assert batch.multi_gpu.per_device_seconds == per_device
    assert batch.modeled_seconds == modeled
    return batch


class TestModelAgainstHandBuiltStreams:
    @pytest.mark.parametrize("gpus", [1, 6, 8])
    def test_profile_batch(self, gpus):
        jobs = generate_workload("pacbio", MODEL_SPEC).jobs
        assert_matches_hand_model(jobs, gpus)

    @pytest.mark.parametrize("gpus", [1, 6, 8])
    def test_start_seed_batch_has_no_left_stream(self, start_seed_jobs, gpus):
        # Seeds at position 0 leave every left side empty: each busy device
        # launches the right stream only, one block per job.
        batch = assert_matches_hand_model(start_seed_jobs, gpus, replication=1.0)
        assert all(len(timings) <= 1 for timings in batch.kernel_timings)
        assert sum(t.blocks for d in batch.kernel_timings for t in d) == len(
            start_seed_jobs
        )


@pytest.mark.tier2
@pytest.mark.parametrize("gpus", [1, 6, 8])
@pytest.mark.parametrize("profile", list_profiles())
class TestModelAgainstHandBuiltStreamsMatrix:
    def test_profile_with_start_seeds(self, profile, gpus, start_seed_jobs):
        jobs = generate_workload(profile, MODEL_SPEC).jobs + start_seed_jobs
        assert_matches_hand_model(jobs, gpus)


class TestLoganAligner:
    def test_basic_batch(self, small_jobs):
        aligner = LoganAligner(xdrop=20)
        result = aligner.align_batch(small_jobs)
        assert len(result.results) == len(small_jobs)
        assert result.summary.alignments == len(small_jobs)
        assert result.modeled_seconds > 0
        assert result.host_seconds > 0
        assert result.multi_gpu.total_seconds > 0
        assert result.modeled_gcups > 0
        assert result.measured_gcups() > 0
        assert all(score > 0 for score in result.scores())

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            LoganAligner(xdrop=20).align_batch([])

    def test_invalid_replication_rejected(self, small_jobs):
        with pytest.raises(ConfigurationError):
            LoganAligner(xdrop=20).align_batch(small_jobs, replication=0)

    def test_negative_xdrop_rejected(self):
        with pytest.raises(ConfigurationError):
            LoganAligner(xdrop=-1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            LoganAligner(xdrop=20, workers=workers)

    def test_start_seed_jobs(self, start_seed_jobs):
        aligner = LoganAligner(xdrop=20)
        result = aligner.align_batch(start_seed_jobs)
        assert all(r.left.best_score == 0 for r in result.results)
        assert all(r.query_begin == 0 for r in result.results)

    def test_replication_scales_model_not_scores(self, small_jobs):
        aligner = LoganAligner(xdrop=20)
        base = aligner.align_batch(small_jobs, replication=1.0)
        scaled = aligner.align_batch(small_jobs, replication=250.0)
        assert scaled.scores() == base.scores()
        assert scaled.modeled_seconds > base.modeled_seconds
        # The variable part of the host time scales with replication; the
        # fixed per-batch setup cost does not.
        fixed = LoganAligner(xdrop=20).host_model.fixed_seconds
        assert scaled.host_seconds - fixed == pytest.approx(
            250 * (base.host_seconds - fixed), rel=0.01
        )

    def test_explicit_threads_override(self, small_jobs):
        aligner = LoganAligner(xdrop=20, threads_per_block=512)
        result = aligner.align_batch(small_jobs)
        assert result.threads_per_block == 512

    def test_invalid_explicit_threads(self):
        with pytest.raises(ConfigurationError, match="threads_per_block"):
            LoganAligner(xdrop=20, threads_per_block=-1)

    def test_multi_gpu_distributes_jobs(self, small_jobs):
        aligner = LoganAligner(system=MultiGpuSystem.homogeneous(4), xdrop=20)
        result = aligner.align_batch(small_jobs)
        assigned = sorted(i for a in result.assignments for i in a.job_indices)
        assert assigned == list(range(len(small_jobs)))
        assert len(result.per_device) >= 1
        assert result.multi_gpu.devices >= 1

    def test_multi_gpu_reduces_device_time_for_large_batches(self, small_jobs):
        one = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=20)
        six = LoganAligner(system=MultiGpuSystem.homogeneous(6), xdrop=20)
        # The fixture pairs are tiny (a few hundred bases); a large
        # replication factor makes the device work dominate the fixed
        # balancer overhead, which is the regime the paper's Tables show.
        replication = 2_000_000
        t1 = one.align_batch(small_jobs, replication=replication)
        t6 = six.align_batch(small_jobs, replication=replication)
        # The per-device execution time shrinks with more GPUs...
        assert max(t6.multi_gpu.per_device_seconds) < max(t1.multi_gpu.per_device_seconds)
        # ...and the end-to-end modeled time improves despite the balancer overhead.
        assert t6.modeled_seconds < t1.modeled_seconds

    def test_count_policy_option(self, small_jobs):
        aligner = LoganAligner(xdrop=20, balancer_policy="count")
        result = aligner.align_batch(small_jobs)
        assert len(result.results) == len(small_jobs)

    def test_model_existing_matches_full_run(self, small_jobs):
        # Re-modeling an aligned batch on the same system must reproduce the
        # full run's modeled time without re-running any alignment.
        aligner = LoganAligner(xdrop=25)
        full = aligner.align_batch(small_jobs, replication=1000.0)
        remodeled = aligner.model_existing(small_jobs, full.results, replication=1000.0)
        assert remodeled.modeled_seconds == pytest.approx(full.modeled_seconds, rel=1e-6)
        assert remodeled.scores() == full.scores()

    def test_model_existing_on_other_system(self, small_jobs):
        one = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=25)
        six = LoganAligner(system=MultiGpuSystem.homogeneous(6), xdrop=25)
        full1 = one.align_batch(small_jobs, replication=500_000.0)
        remodeled6 = six.model_existing(small_jobs, full1.results, replication=500_000.0)
        full6 = six.align_batch(small_jobs, replication=500_000.0)
        assert remodeled6.modeled_seconds == pytest.approx(full6.modeled_seconds, rel=1e-6)
        assert max(remodeled6.multi_gpu.per_device_seconds) < max(
            full1.multi_gpu.per_device_seconds
        )

    def test_six_gpu_batch_is_one_kernel_sweep(self, small_jobs, monkeypatch):
        import repro.logan.kernel as kernel

        real = kernel.xdrop_extend_batch
        calls = []

        def counting(pairs, *args, **kwargs):
            calls.append(len(pairs))
            return real(pairs, *args, **kwargs)

        monkeypatch.setattr(kernel, "xdrop_extend_batch", counting)
        LoganAligner(system=MultiGpuSystem.homogeneous(6), xdrop=20).align_batch(
            small_jobs
        )
        # Mid-read seeds: every job has a live left and right extension.
        assert calls == [2 * len(small_jobs)]

    def test_model_existing_rejects_untraced_results(self):
        jobs = generate_workload(
            "pacbio", WorkloadSpec(count=16, seed=1, xdrop=20)
        ).jobs
        untraced = (
            AlignConfig(engine="batched", xdrop=20).build_engine().align_batch(jobs)
        )
        assert untraced.summary.cells > 0
        with pytest.raises(ConfigurationError, match="trace=True"):
            LoganAligner(xdrop=20).model_existing(
                jobs, untraced.results, replication=1000.0
            )

    def test_model_existing_validation(self, small_jobs):
        aligner = LoganAligner(xdrop=25)
        full = aligner.align_batch(small_jobs)
        with pytest.raises(ConfigurationError):
            aligner.model_existing(small_jobs, full.results[:-1])
        with pytest.raises(ConfigurationError):
            aligner.model_existing([], [])
        with pytest.raises(ConfigurationError):
            aligner.model_existing(small_jobs, full.results, replication=0)


class TestLoganEngine:
    def test_engine_is_the_sweep_plus_the_model(self, small_jobs):
        batch = get_engine("logan", xdrop=20, gpus=6).align_batch(small_jobs)
        direct = LoganAligner(
            system=MultiGpuSystem.homogeneous(6), xdrop=20
        ).align_batch(small_jobs)
        assert batch.scores() == direct.scores()
        assert batch.modeled_seconds == direct.modeled_seconds
        assert batch.extras["batch"].kernel_timings == direct.kernel_timings
        assert batch.extras["kernel_stats"].rows == 2 * len(small_jobs)


class TestAccuracyEquivalence:
    """The paper's 'equivalent accuracy' claim: LOGAN == SeqAn scores.

    SeqAn's X-drop is the scalar recurrence of the ``reference`` engine.
    """

    @pytest.mark.parametrize("xdrop", [5, 15, 50])
    def test_scores_match_seqan_reference(self, small_jobs, xdrop):
        logan = LoganAligner(xdrop=xdrop).align_batch(small_jobs)
        seqan = get_engine("reference", xdrop=xdrop).align_batch(small_jobs)
        assert logan.scores() == seqan.scores()

    def test_extents_match_seqan_reference(self, small_jobs):
        logan = LoganAligner(xdrop=25).align_batch(small_jobs)
        seqan = get_engine("reference", xdrop=25).align_batch(small_jobs)
        for a, b in zip(logan.results, seqan.results):
            assert (a.query_begin, a.query_end) == (b.query_begin, b.query_end)
            assert (a.target_begin, a.target_end) == (b.target_begin, b.target_end)

    def test_multi_gpu_does_not_change_scores(self, small_jobs):
        one = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=30)
        eight = LoganAligner(system=MultiGpuSystem.homogeneous(8), xdrop=30)
        assert one.align_batch(small_jobs).scores() == eight.align_batch(small_jobs).scores()
