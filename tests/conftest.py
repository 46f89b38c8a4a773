"""Shared fixtures for the test-suite.

Fixtures are deliberately small (sequences of at most a few hundred bases,
a handful of reads) so the whole suite runs in well under a minute while
still exercising every code path; the benchmark harness is where realistic
sizes live.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable

import numpy as np
import pytest

from repro.core import ScoringScheme, random_sequence
from repro.core.job import AlignmentJob
from repro.data import ErrorModel, apply_errors
from repro.data.pairs import PairSetSpec, generate_pair_set


def pytest_runtest_setup(item) -> None:
    """Pin global random state per test, derived from the test's node id.

    No test in this suite should use module-level random state (use the
    ``rng``/``make_rng`` fixtures), but if one ever sneaks in, this makes
    its failures replay deterministically under ``pytest <nodeid>`` instead
    of depending on collection order.
    """
    digest = zlib.crc32(item.nodeid.encode("utf-8"))
    random.seed(digest)
    np.random.seed(digest & 0xFFFFFFFF)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def make_rng() -> Callable[[int], np.random.Generator]:
    """Factory of explicitly seeded NumPy generators.

    The single front door for per-test random state: a test needing its
    own stream (or several independent ones) calls ``make_rng(seed)``
    instead of instantiating ``np.random.default_rng`` inline, so every
    random input is visibly seeded through one fixture.  Session-scoped
    (the factory is stateless), which also keeps it safe to use from
    hypothesis-driven tests.
    """

    def _make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return _make


@pytest.fixture
def scoring() -> ScoringScheme:
    """BELLA / LOGAN default scoring scheme."""
    return ScoringScheme(match=1, mismatch=-1, gap=-1)


@pytest.fixture
def similar_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    """A 300 bp pair with ~10 % divergence (a typical aligning pair)."""
    template = random_sequence(300, rng)
    noisy = apply_errors(template, ErrorModel.with_total(0.10), rng)
    return template, noisy


@pytest.fixture
def divergent_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    """Two unrelated 300 bp sequences (the early-termination case)."""
    return random_sequence(300, rng), random_sequence(300, rng)


@pytest.fixture
def small_jobs(rng) -> list[AlignmentJob]:
    """Eight small alignment jobs with mid-read seeds (fast batch fixture)."""
    spec = PairSetSpec(
        num_pairs=8,
        min_length=150,
        max_length=300,
        pairwise_error_rate=0.12,
        seed_length=11,
        seed_placement="middle",
        rng_seed=99,
    )
    return generate_pair_set(spec)


@pytest.fixture
def start_seed_jobs() -> list[AlignmentJob]:
    """Six small jobs seeded at position 0 (the LOGAN benchmark convention)."""
    spec = PairSetSpec(
        num_pairs=6,
        min_length=120,
        max_length=240,
        pairwise_error_rate=0.15,
        seed_length=9,
        seed_placement="start",
        rng_seed=7,
    )
    return generate_pair_set(spec)


@pytest.fixture
def tiny_reads(rng) -> list:
    """A tiny synthetic read set with guaranteed overlaps (for BELLA tests)."""
    from repro.data import simulate_genome, simulate_reads

    genome = simulate_genome(6000, rng=rng)
    return simulate_reads(
        genome,
        num_reads=14,
        mean_length=900,
        length_spread=200,
        error_model=ErrorModel.with_total(0.08),
        rng=rng,
    )


@pytest.fixture(scope="session")
def workload_above_split_gate():
    """16 unrelated 2.5-3 kb pairs whose extensions (X = 50) estimate at
    least two chunks of ``SPLIT_MIN_CELLS``, so an engine with two workers
    splits them."""
    from repro.core.job import estimate_cells
    from repro.logan.host import prepare_batch
    from repro.perf.parallel import SPLIT_MIN_CELLS
    from repro.workloads import WorkloadSpec, generate_workload

    spec = WorkloadSpec(count=16, seed=5, min_length=2500, max_length=3000, xdrop=50)
    workload = generate_workload("unrelated", spec)
    sides = prepare_batch(workload.jobs, ScoringScheme()).sides
    estimate = sum(estimate_cells(len(q), len(t), spec.xdrop) for q, t in sides)
    assert estimate >= 2 * SPLIT_MIN_CELLS
    return workload
