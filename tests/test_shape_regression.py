"""Fast shape-regression tests for the paper's headline performance claims.

The full reproductions live in ``benchmarks/``; these tests re-check the same
qualitative shapes at a much smaller scale so that a change that silently
breaks a claim (e.g. a cost-model edit that makes the CPU baseline faster
than LOGAN at large X) is caught by the ordinary test run.
"""

from __future__ import annotations

import pytest

from repro.baselines import KSW2_SKYLAKE_BAND_MODEL, SEQAN_POWER9_MODEL
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.gpusim import MultiGpuSystem
from repro.logan import LoganAligner

PAPER_PAIRS = 100_000


@pytest.fixture(scope="module")
def shape_jobs():
    spec = PairSetSpec(
        num_pairs=3,
        min_length=900,
        max_length=1500,
        pairwise_error_rate=0.15,
        seed_placement="start",
        rng_seed=77,
    )
    return generate_pair_set(spec)


@pytest.fixture(scope="module")
def logan_runs(shape_jobs):
    """LOGAN runs at a small and a large X, reused across the tests below."""
    replication = PAPER_PAIRS / len(shape_jobs)
    runs = {}
    for x in (10, 1000):
        aligner = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=x)
        runs[x] = aligner.align_batch(shape_jobs, replication=replication)
    return runs


class TestTable2Shape:
    def test_seqan_grows_faster_than_logan_with_x(self, shape_jobs, logan_runs):
        replication = PAPER_PAIRS / len(shape_jobs)
        seqan = {
            x: SEQAN_POWER9_MODEL.seconds_for(run.summary.scaled(replication))
            for x, run in logan_runs.items()
        }
        logan_growth = logan_runs[1000].modeled_seconds / logan_runs[10].modeled_seconds
        seqan_growth = seqan[1000] / seqan[10]
        assert seqan_growth > logan_growth

    def test_logan_beats_seqan_at_large_x(self, shape_jobs, logan_runs):
        replication = PAPER_PAIRS / len(shape_jobs)
        seqan_large = SEQAN_POWER9_MODEL.seconds_for(
            logan_runs[1000].summary.scaled(replication)
        )
        assert seqan_large > logan_runs[1000].modeled_seconds

    def test_multi_gpu_helps_at_large_x(self, shape_jobs, logan_runs):
        replication = PAPER_PAIRS / len(shape_jobs)
        six = LoganAligner(system=MultiGpuSystem.homogeneous(6), xdrop=1000).model_existing(
            shape_jobs * 8, list(logan_runs[1000].results) * 8, replication=replication / 8
        )
        assert six.modeled_seconds < logan_runs[1000].modeled_seconds


class TestTable3Shape:
    def test_ksw2_explodes_with_x_while_logan_saturates(self, shape_jobs, logan_runs):
        replication = PAPER_PAIRS / len(shape_jobs)
        ksw2_times = {}
        for x in (10, 1000):
            batch = get_engine("ksw2", xdrop=x).align_batch(shape_jobs)
            ksw2_times[x] = KSW2_SKYLAKE_BAND_MODEL.seconds_for(
                batch.summary.scaled(replication)
            )
        ksw2_growth = ksw2_times[1000] / ksw2_times[10]
        logan_growth = logan_runs[1000].modeled_seconds / logan_runs[10].modeled_seconds
        assert ksw2_growth > 3 * logan_growth
        # And at large X LOGAN wins outright.
        assert ksw2_times[1000] > logan_runs[1000].modeled_seconds


class TestGcupsShape:
    def test_modeled_gcups_increase_with_x(self, logan_runs):
        # Wider bands keep more GPU lanes busy: throughput rises with X.
        assert logan_runs[1000].modeled_gcups > logan_runs[10].modeled_gcups

    def test_measured_python_gcups_are_far_below_modeled(self, logan_runs):
        # Sanity check on the honesty of the reporting: the measured pure
        # Python throughput must never be conflated with the modeled V100
        # throughput.
        run = logan_runs[1000]
        assert run.measured_gcups() < run.modeled_gcups
