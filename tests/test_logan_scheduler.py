"""Tests for the multi-GPU load balancer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Seed, random_sequence
from repro.core.job import AlignmentJob
from repro.errors import ConfigurationError
from repro.logan import LoadBalancer


def _jobs_with_lengths(lengths, rng):
    jobs = []
    for i, length in enumerate(lengths):
        seq = random_sequence(int(length), rng)
        jobs.append(AlignmentJob(query=seq, target=seq.copy(), seed=Seed(0, 0, 5), pair_id=i))
    return jobs


class TestLoadBalancerValidation:
    def test_invalid_device_count(self):
        with pytest.raises(ConfigurationError):
            LoadBalancer(num_devices=0)

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            LoadBalancer(num_devices=2, policy="random")

    def test_invalid_xdrop(self):
        with pytest.raises(ConfigurationError):
            LoadBalancer(num_devices=2, xdrop=-5)


class TestSplitConservation:
    @pytest.mark.parametrize("policy", ["cells", "count"])
    @pytest.mark.parametrize("devices", [1, 2, 3, 6, 8])
    def test_every_job_assigned_exactly_once(self, policy, devices, rng):
        jobs = _jobs_with_lengths(rng.integers(50, 400, size=23), rng)
        balancer = LoadBalancer(num_devices=devices, policy=policy, xdrop=50)
        assignments = balancer.split(jobs)
        assert len(assignments) == devices
        seen = sorted(i for a in assignments for i in a.job_indices)
        assert seen == list(range(len(jobs)))

    def test_fewer_jobs_than_devices(self, rng):
        jobs = _jobs_with_lengths([100, 200], rng)
        balancer = LoadBalancer(num_devices=6, xdrop=20)
        assignments = balancer.split(jobs)
        non_empty = [a for a in assignments if a.num_jobs]
        assert len(non_empty) == 2

    def test_empty_job_list(self):
        balancer = LoadBalancer(num_devices=4)
        assignments = balancer.split([])
        assert all(a.num_jobs == 0 for a in assignments)

    @settings(max_examples=20, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=20, max_value=500), min_size=1, max_size=40),
        devices=st.integers(min_value=1, max_value=8),
    )
    def test_conservation_property(self, make_rng, lengths, devices):
        rng = make_rng(0)
        jobs = _jobs_with_lengths(lengths, rng)
        balancer = LoadBalancer(num_devices=devices, xdrop=30)
        assignments = balancer.split(jobs)
        seen = sorted(i for a in assignments for i in a.job_indices)
        assert seen == list(range(len(jobs)))


class TestBalanceQuality:
    def test_cells_policy_balances_skewed_lengths(self, rng):
        # A few huge jobs plus many small ones: work-aware balancing should
        # spread the cells far better than naive round-robin by count.
        lengths = [3000] * 4 + [100] * 36
        jobs = _jobs_with_lengths(lengths, rng)
        smart = LoadBalancer(num_devices=4, policy="cells", xdrop=1000)
        naive = LoadBalancer(num_devices=4, policy="count", xdrop=1000)
        smart_imbalance = smart.imbalance(smart.split(jobs))
        naive_imbalance = naive.imbalance(naive.split(jobs))
        assert smart_imbalance <= naive_imbalance
        assert smart_imbalance < 1.3

    def test_uniform_jobs_are_evenly_counted(self, rng):
        jobs = _jobs_with_lengths([200] * 24, rng)
        balancer = LoadBalancer(num_devices=6, policy="cells", xdrop=20)
        assignments = balancer.split(jobs)
        counts = [a.num_jobs for a in assignments]
        assert max(counts) - min(counts) <= 1

    def test_imbalance_of_empty_assignments_is_one(self):
        balancer = LoadBalancer(num_devices=2)
        assert balancer.imbalance(balancer.split([])) == 1.0

    def test_estimated_cells_recorded(self, rng):
        jobs = _jobs_with_lengths([100, 200, 300], rng)
        balancer = LoadBalancer(num_devices=2, xdrop=10)
        assignments = balancer.split(jobs)
        total = sum(a.estimated_cells for a in assignments)
        expected = sum(j.estimated_cells(10, 1) for j in jobs)
        assert total == expected


class TestServiceFacingEdgeCases:
    """Edge cases the serving layer's sharded worker pool now exercises."""

    @pytest.mark.parametrize("policy", ["cells", "count"])
    def test_empty_batch_every_policy(self, policy):
        balancer = LoadBalancer(num_devices=3, policy=policy)
        assignments = balancer.split([])
        assert len(assignments) == 3
        assert all(a.num_jobs == 0 and a.estimated_cells == 0 for a in assignments)
        assert balancer.imbalance(assignments) == 1.0

    @pytest.mark.parametrize("policy", ["cells", "count"])
    @pytest.mark.parametrize("devices", [4, 7, 16])
    def test_more_workers_than_jobs(self, policy, devices, rng):
        jobs = _jobs_with_lengths([150, 300, 450], rng)
        balancer = LoadBalancer(num_devices=devices, policy=policy, xdrop=25)
        assignments = balancer.split(jobs)
        seen = sorted(i for a in assignments for i in a.job_indices)
        assert seen == list(range(len(jobs)))
        # No worker receives more than one job when workers outnumber jobs.
        assert max(a.num_jobs for a in assignments) == 1

    def test_take_materialises_assigned_jobs(self, rng):
        jobs = _jobs_with_lengths([100, 200, 300, 400], rng)
        balancer = LoadBalancer(num_devices=2, xdrop=10)
        assignments = balancer.split(jobs)
        for assignment in assignments:
            taken = assignment.take(jobs)
            assert all(
                taken[k] is jobs[i]
                for k, i in enumerate(assignment.job_indices)
            )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_cells_never_worse_than_count_on_skewed_lengths(self, seed, make_rng):
        # Parity check backing the service's default "cells" policy: on
        # skewed length distributions (a few huge jobs, many small ones),
        # LPT-by-cells must never produce a worse max-shard than naive
        # round-robin by count.
        rng = make_rng(seed)
        lengths = list(rng.integers(2000, 5000, size=3)) + list(
            rng.integers(80, 300, size=29)
        )
        jobs = _jobs_with_lengths(lengths, rng)
        for devices in (2, 4, 6):
            smart = LoadBalancer(num_devices=devices, policy="cells", xdrop=500)
            naive = LoadBalancer(num_devices=devices, policy="count", xdrop=500)
            smart_max = max(a.estimated_cells for a in smart.split(jobs))
            naive_max = max(a.estimated_cells for a in naive.split(jobs))
            assert smart_max <= naive_max
