"""Tests for LOGAN's host preprocessing layer."""

from __future__ import annotations

import pytest

from repro.core import Seed
from repro.core.job import AlignmentJob
from repro.core.scoring import block_width
from repro.errors import ConfigurationError
from repro.gpusim import TESLA_V100
from repro.logan import HostModel, prepare_batch, threads_for_xdrop


class TestThreadsForXdrop:
    def test_paper_value_for_x100(self):
        # Table I uses 128 threads per block at X = 100.
        assert threads_for_xdrop(100, TESLA_V100) == 128

    def test_minimum_two_warps(self):
        assert threads_for_xdrop(0, TESLA_V100) == 64
        assert threads_for_xdrop(5, TESLA_V100) == 64

    def test_capped_at_device_maximum(self):
        assert threads_for_xdrop(5000, TESLA_V100) == 1024

    def test_monotone_in_x(self):
        values = [threads_for_xdrop(x, TESLA_V100) for x in (10, 50, 100, 300, 600, 1200)]
        assert values == sorted(values)

    def test_multiple_of_warp_size(self):
        for x in (1, 37, 100, 450, 999):
            assert threads_for_xdrop(x, TESLA_V100) % TESLA_V100.warp_size == 0

    def test_gap_penalty_widens_band(self):
        assert threads_for_xdrop(100, TESLA_V100, gap_penalty=1) >= threads_for_xdrop(
            100, TESLA_V100, gap_penalty=4
        )

    def test_negative_x_rejected(self):
        with pytest.raises(ConfigurationError):
            threads_for_xdrop(-1, TESLA_V100)

    @pytest.mark.parametrize("gap", [-1, -2, -4])
    def test_is_the_batched_kernels_block(self, gap):
        # One formula sizes LOGAN's block and the kernel's wide-row split:
        # 64 columns at X = 50 for all three gap penalties.
        assert block_width(50, gap) == 64
        for x in (0, 20, 50, 100, 300, 5000):
            assert threads_for_xdrop(x, TESLA_V100, gap_penalty=-gap) == min(
                block_width(x, gap, TESLA_V100.warp_size),
                TESLA_V100.max_threads_per_block,
            )


class TestPrepareBatch:
    def test_split_and_reversal(self, scoring):
        # Query carries the seed "CGT" at position 3, target at position 2.
        job = AlignmentJob(query="AAACGTTTT", target="CCCGTGGGG", seed=Seed(3, 2, 3))
        batch = prepare_batch([job], scoring)
        assert len(batch.sides) == 2
        (left_q, left_t), (right_q, right_t) = batch.sides
        # Left-extension sequences are reversed prefixes.
        assert list(left_q) == list(job.query[:3][::-1])
        assert list(left_t) == list(job.target[:2][::-1])
        assert list(right_q) == list(job.query[6:])
        assert list(right_t) == list(job.target[5:])
        assert batch.seed_scores == [3 * scoring.match]

    def test_seed_flush_leaves_an_empty_side(self, scoring):
        job = AlignmentJob(query="ACGTACGT", target="ACGTACGT", seed=Seed(0, 0, 4))
        (left_q, left_t), (right_q, right_t) = prepare_batch([job], scoring).sides
        assert len(left_q) == len(left_t) == 0
        assert len(right_q) == len(right_t) == 4

    def test_all_lefts_then_all_rights_in_job_order(self, small_jobs, scoring):
        batch = prepare_batch(small_jobs, scoring)
        n = len(small_jobs)
        assert len(batch.sides) == 2 * n
        assert len(batch.seed_scores) == n
        for i, job in enumerate(small_jobs):
            left_q, _ = batch.sides[i]
            right_q, _ = batch.sides[n + i]
            assert len(left_q) == job.seed.query_pos
            assert len(right_q) == job.query_length - job.seed.query_end


class TestHostModel:
    def test_seconds_scale_with_bases(self):
        model = HostModel(ns_per_base=2.0, ns_per_alignment=0.0, fixed_seconds=0.0)
        assert model.seconds(1_000_000_000, 0) == pytest.approx(2.0)

    def test_seconds_scale_with_alignments(self):
        model = HostModel(ns_per_base=0.0, ns_per_alignment=1000.0, fixed_seconds=0.0)
        # 1e6 alignments x 1000 ns = 1 s of host-side bookkeeping.
        assert model.seconds(0, 1_000_000) == pytest.approx(1.0)

    def test_fixed_cost_sets_the_small_batch_floor(self):
        model = HostModel()
        tiny = model.seconds(10, 1)
        assert tiny == pytest.approx(model.fixed_seconds, rel=0.01)
        assert model.seconds(10**12, 10**8) > tiny

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            HostModel(ns_per_base=-1.0)
        with pytest.raises(ConfigurationError):
            HostModel(fixed_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            HostModel().seconds(-1, 0)
