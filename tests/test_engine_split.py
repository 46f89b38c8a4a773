"""``AlignConfig.workers``, the one way to align in parallel.

An engine with ``workers > 1`` splits one batch across processes, the CPU
counterpart of LOGAN dividing a batch across GPUs: ``batched``, ``logan``
and ``wavefront`` cut the non-empty extensions into one contiguous chunk
per worker, ``reference`` maps jobs (at least 4 per worker, so 8 pairs
split across 2).  The split must return what the unsplit call returns on
every field, band traces included, and report the same kernel work.  The
tier-2 matrix repeats the comparison on every workload-bank profile.
"""

from __future__ import annotations

import os

import pytest

import repro.perf.parallel as parallel_mod
from repro.api import AlignConfig
from repro.service import AlignmentService
from repro.testing import compare_results
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

SPLIT = WorkloadSpec(count=8, seed=13, min_length=60, max_length=200, xdrop=20)
ENGINES = ("batched", "logan", "reference", "wavefront")


def _batch(engine: str, workers: int, jobs):
    config = AlignConfig(engine=engine, xdrop=SPLIT.xdrop, workers=workers, trace=True)
    return config.build_engine().align_batch(jobs)


def _assert_split_matches_unsplit(profile: str, engine: str) -> None:
    jobs = generate_workload(profile, SPLIT).jobs
    assert len(jobs) >= 8
    unsplit = _batch(engine, 1, jobs)
    split = _batch(engine, 2, jobs)
    assert len(split.results) == len(unsplit.results) == len(jobs)
    for index, (expected, actual) in enumerate(zip(unsplit.results, split.results)):
        assert expected.left.band_widths is not None
        mismatches = compare_results(expected, actual, trace=True)
        assert mismatches == [], (profile, engine, index, mismatches)
    assert split.summary == unsplit.summary
    assert split.modeled_seconds == unsplit.modeled_seconds
    if engine == "logan":
        assert split.modeled_seconds is not None


@pytest.fixture
def started_pools(monkeypatch):
    """The ``max_workers`` of every process pool ``parallel_map`` starts."""
    started: list[int] = []
    real = parallel_mod.ProcessPoolExecutor

    def counting(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", counting)
    return started


@pytest.mark.parametrize("engine", ENGINES)
def test_split_is_bit_identical_on_pacbio(engine, started_pools):
    _assert_split_matches_unsplit("pacbio", engine)
    if (os.cpu_count() or 1) >= 2:
        # Only the workers=2 call starts a pool: the batch really split.
        assert started_pools == [2]


@pytest.mark.tier2
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("profile", list_profiles())
class TestSplitConformanceMatrix:
    def test_split_is_bit_identical(self, profile, engine):
        _assert_split_matches_unsplit(profile, engine)


def test_split_kernel_stats_count_the_unsplit_work():
    jobs = generate_workload("pacbio", SPLIT).jobs
    unsplit = _batch("batched", 1, jobs).extras["kernel_stats"]
    split = _batch("batched", 2, jobs).extras["kernel_stats"]
    assert unsplit.rows > 0
    assert split.rows == unsplit.rows
    assert split.cells == unsplit.cells
    assert split.active_row_steps == unsplit.active_row_steps


def test_split_service_reports_kernel_live_fraction():
    jobs = generate_workload("pacbio", SPLIT).jobs
    config = AlignConfig(engine="batched", xdrop=SPLIT.xdrop, workers=2)
    with AlignmentService(config=config) as service:
        tickets = service.submit_many(jobs)
        service.drain()
        for ticket in tickets:
            ticket.result(timeout=60.0)
        live_fraction = service.stats().kernel_live_fraction
        gauge = service.metrics_snapshot().value("repro_kernel_live_fraction")
    assert live_fraction is not None
    assert 0.0 < live_fraction <= 1.0
    assert live_fraction == gauge
