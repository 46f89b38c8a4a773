"""Tests for LOGAN: the ``logan`` engine and the V100 model it replays."""

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
from repro.logan import HostModel, LoadBalancer, LoganModel, threads_for_xdrop
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

MODEL_XDROP = 20
MODEL_SPEC = WorkloadSpec(
    count=12, seed=7, min_length=60, max_length=240, xdrop=MODEL_XDROP
)


def traced(jobs, xdrop):
    """Results of one traced ``batched`` sweep: what the model replays."""
    return get_engine("batched", xdrop=xdrop, trace=True).align_batch(jobs).results


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
    engine = get_engine("logan", xdrop=MODEL_XDROP, gpus=gpus)
    timing = engine.model.replay(jobs, engine.align_batch(jobs).results, replication)
    kernel_timings, per_device, modeled = hand_modeled(jobs, gpus, replication)
    assert timing.kernel_timings == kernel_timings
    assert timing.multi_gpu.per_device_seconds == per_device
    assert timing.modeled_seconds == modeled
    return timing


class TestModelAgainstHandBuiltStreams:
    @pytest.mark.parametrize("gpus", [1, 6, 8])
    def test_profile_batch(self, gpus):
        jobs = generate_workload("pacbio", MODEL_SPEC).jobs
        assert_matches_hand_model(jobs, gpus)

    @pytest.mark.parametrize("gpus", [1, 6, 8])
    def test_start_seed_batch_has_no_left_stream(self, start_seed_jobs, gpus):
        # Seeds at position 0 leave every left side empty: each busy device
        # launches the right stream only, one block per job.
        timing = assert_matches_hand_model(start_seed_jobs, gpus, replication=1.0)
        assert all(len(timings) <= 1 for timings in timing.kernel_timings)
        assert sum(t.blocks for d in timing.kernel_timings for t in d) == len(
            start_seed_jobs
        )


@pytest.mark.tier2
@pytest.mark.parametrize("gpus", [1, 6, 8])
@pytest.mark.parametrize("profile", list_profiles())
class TestModelAgainstHandBuiltStreamsMatrix:
    def test_profile_with_start_seeds(self, profile, gpus, start_seed_jobs):
        jobs = generate_workload(profile, MODEL_SPEC).jobs + start_seed_jobs
        assert_matches_hand_model(jobs, gpus)


class TestLoganModel:
    def test_basic_replay(self, small_jobs):
        sweep = get_engine("batched", xdrop=20, trace=True).align_batch(small_jobs)
        timing = LoganModel(xdrop=20).replay(small_jobs, sweep.results)
        assert timing.cells == sweep.summary.cells
        assert timing.replication == 1.0
        assert timing.modeled_seconds > 0
        assert timing.host_seconds > 0
        assert timing.multi_gpu.total_seconds > 0
        assert timing.modeled_gcups > 0

    def test_negative_xdrop_rejected(self):
        with pytest.raises(ConfigurationError):
            LoganModel(xdrop=-1)

    def test_workers_parameter_removed(self):
        # The model aligns nothing: the logan engine's workers split its
        # sweep.
        with pytest.raises(TypeError, match="workers"):
            LoganModel(xdrop=20, workers=2)

    def test_replication_scales_model(self, small_jobs):
        model = LoganModel(xdrop=20)
        results = traced(small_jobs, 20)
        base = model.replay(small_jobs, results, replication=1.0)
        scaled = model.replay(small_jobs, results, replication=250.0)
        assert scaled.modeled_seconds > base.modeled_seconds
        # The variable part of the host time scales with replication; the
        # fixed per-batch setup cost does not.
        fixed = model.host_model.fixed_seconds
        assert scaled.host_seconds - fixed == pytest.approx(
            250 * (base.host_seconds - fixed), rel=0.01
        )

    def test_explicit_threads_override(self, small_jobs):
        model = LoganModel(xdrop=20, threads_per_block=512)
        timing = model.replay(small_jobs, traced(small_jobs, 20))
        assert timing.threads_per_block == 512

    def test_invalid_explicit_threads(self):
        with pytest.raises(ConfigurationError, match="threads_per_block"):
            LoganModel(xdrop=20, threads_per_block=-1)

    def test_multi_gpu_distributes_jobs(self, small_jobs):
        model = LoganModel(system=MultiGpuSystem.homogeneous(4), xdrop=20)
        timing = model.replay(small_jobs, traced(small_jobs, 20))
        assigned = sorted(i for a in timing.assignments for i in a.job_indices)
        assert assigned == list(range(len(small_jobs)))
        assert len(timing.per_device) >= 1
        assert timing.multi_gpu.devices >= 1

    def test_multi_gpu_reduces_device_time_for_large_batches(self, small_jobs):
        one = LoganModel(system=MultiGpuSystem.homogeneous(1), xdrop=20)
        six = LoganModel(system=MultiGpuSystem.homogeneous(6), xdrop=20)
        results = traced(small_jobs, 20)
        # The fixture pairs are tiny (a few hundred bases); a large
        # replication factor makes the device work dominate the fixed
        # balancer overhead, which is the regime the paper's Tables show.
        replication = 2_000_000
        t1 = one.replay(small_jobs, results, replication=replication)
        t6 = six.replay(small_jobs, results, replication=replication)
        # The per-device execution time shrinks with more GPUs...
        assert max(t6.multi_gpu.per_device_seconds) < max(t1.multi_gpu.per_device_seconds)
        # ...and the end-to-end modeled time improves despite the balancer overhead.
        assert t6.modeled_seconds < t1.modeled_seconds

    def test_count_policy_option(self, small_jobs):
        model = LoganModel(xdrop=20, balancer_policy="count")
        timing = model.replay(small_jobs, traced(small_jobs, 20))
        assigned = sorted(i for a in timing.assignments for i in a.job_indices)
        assert assigned == list(range(len(small_jobs)))

    def test_replay_rejects_untraced_results(self):
        jobs = generate_workload(
            "pacbio", WorkloadSpec(count=16, seed=1, xdrop=20)
        ).jobs
        untraced = (
            AlignConfig(engine="batched", xdrop=20).build_engine().align_batch(jobs)
        )
        assert untraced.summary.cells > 0
        with pytest.raises(ConfigurationError, match="trace=True"):
            LoganModel(xdrop=20).replay(jobs, untraced.results, replication=1000.0)

    def test_replay_validation(self, small_jobs):
        model = LoganModel(xdrop=25)
        results = traced(small_jobs, 25)
        with pytest.raises(ConfigurationError, match="same length"):
            model.replay(small_jobs, results[:-1])
        with pytest.raises(ConfigurationError, match="at least one job"):
            model.replay([], [])
        for replication in (0, -2.0):
            with pytest.raises(ConfigurationError, match="replication"):
                model.replay(small_jobs, results, replication=replication)


class TestLoganEngine:
    def test_engine_is_the_sweep_plus_the_model(self, small_jobs):
        batch = get_engine("logan", xdrop=20, gpus=6).align_batch(small_jobs)
        sweep = get_engine("batched", xdrop=20, trace=True).align_batch(small_jobs)
        direct = LoganModel(
            system=MultiGpuSystem.homogeneous(6), xdrop=20
        ).replay(small_jobs, sweep.results)
        assert batch.scores() == sweep.scores()
        assert batch.modeled_seconds == direct.modeled_seconds
        assert batch.extras["timing"].kernel_timings == direct.kernel_timings
        assert batch.extras["kernel_stats"].rows == 2 * len(small_jobs)
        assert sorted(batch.extras) == ["kernel_stats", "timing"]

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            get_engine("logan", xdrop=20).align_batch([])

    def test_start_seed_jobs(self, start_seed_jobs):
        batch = get_engine("logan", xdrop=20).align_batch(start_seed_jobs)
        assert all(r.left.best_score == 0 for r in batch.results)
        assert all(r.query_begin == 0 for r in batch.results)

    def test_six_gpu_batch_is_one_kernel_sweep(self, small_jobs, monkeypatch):
        import repro.logan.kernel as kernel

        real = kernel.xdrop_extend_batch
        calls = []

        def counting(pairs, *args, **kwargs):
            calls.append(len(pairs))
            return real(pairs, *args, **kwargs)

        monkeypatch.setattr(kernel, "xdrop_extend_batch", counting)
        get_engine("logan", xdrop=20, gpus=6).align_batch(small_jobs)
        # Mid-read seeds: every job has a live left and right extension.
        assert calls == [2 * len(small_jobs)]


class TestAccuracyEquivalence:
    """The paper's 'equivalent accuracy' claim: LOGAN == SeqAn scores.

    SeqAn's X-drop is the scalar recurrence of the ``reference`` engine.
    """

    @pytest.mark.parametrize("xdrop", [5, 15, 50])
    def test_scores_match_seqan_reference(self, small_jobs, xdrop):
        logan = get_engine("logan", xdrop=xdrop).align_batch(small_jobs)
        seqan = get_engine("reference", xdrop=xdrop).align_batch(small_jobs)
        assert logan.scores() == seqan.scores()

    def test_extents_match_seqan_reference(self, small_jobs):
        logan = get_engine("logan", xdrop=25).align_batch(small_jobs)
        seqan = get_engine("reference", xdrop=25).align_batch(small_jobs)
        for a, b in zip(logan.results, seqan.results):
            assert (a.query_begin, a.query_end) == (b.query_begin, b.query_end)
            assert (a.target_begin, a.target_end) == (b.target_begin, b.target_end)

    def test_multi_gpu_does_not_change_scores(self, small_jobs):
        one = get_engine("logan", xdrop=30, gpus=1)
        eight = get_engine("logan", xdrop=30, gpus=8)
        assert one.align_batch(small_jobs).scores() == eight.align_batch(small_jobs).scores()
