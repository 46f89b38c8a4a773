"""``AlignConfig.workers``, the one way to align in parallel.

An engine with ``workers > 1`` splits one batch across the process pool,
the CPU counterpart of LOGAN dividing a batch across GPUs, in chunks
balanced by estimated cells, but only when every chunk gets
``SPLIT_MIN_CELLS``: ``batched``, ``logan`` and ``wavefront`` cut the
non-empty extensions, ``reference`` and ``ksw2`` the jobs.  The
``split_gate`` fixture lowers the gate so the small batches here really
split.  The split must return what the unsplit call returns on every
field, band traces included, and report the same kernel work.  The tier-2 matrix repeats the comparison on every
workload-bank profile.

The pool is one per process: it starts at the first split, survives
calls, is replaced after a worker dies, and leaves no process behind when
the interpreter exits.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest

import repro
import repro.perf.parallel as parallel_mod
from repro import obs
from repro.api import AlignConfig
from repro.core.job import estimate_cells
from repro.errors import PoolWorkerError
from repro.logan.host import prepare_batch
from repro.service import AlignmentService
from repro.testing import ConformanceRunner, compare_results
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

SPLIT = WorkloadSpec(count=8, seed=13, min_length=60, max_length=200, xdrop=20)
ENGINES = ("batched", "logan", "reference", "wavefront")
#: Six serve-sized pairs, as the serving workloads send them.
SERVE = WorkloadSpec(count=6, seed=5, min_length=200, max_length=900, xdrop=50)

two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="a split needs two cores"
)


@pytest.fixture
def split_gate(monkeypatch):
    """Lower the split gate to one estimated cell per chunk, so every call
    with two or more non-empty sides splits."""
    monkeypatch.setattr(parallel_mod, "SPLIT_MIN_CELLS", 1)


@pytest.fixture
def pool_calls(monkeypatch):
    """One entry per call that went to the process pool."""
    calls: list[None] = []
    real = parallel_mod._pool

    def counting():
        calls.append(None)
        return real()

    monkeypatch.setattr(parallel_mod, "_pool", counting)
    return calls


def _batch(engine: str, workers: int, jobs, *, xdrop=SPLIT.xdrop, trace=False):
    config = AlignConfig(engine=engine, xdrop=xdrop, workers=workers, trace=trace)
    return config.build_engine().align_batch(jobs)


def _assert_split_matches_unsplit(profile: str, engine: str) -> None:
    jobs = generate_workload(profile, SPLIT).jobs
    assert len(jobs) >= 8
    unsplit = _batch(engine, 1, jobs, trace=True)
    split = _batch(engine, 2, jobs, trace=True)
    assert len(split.results) == len(unsplit.results) == len(jobs)
    for index, (expected, actual) in enumerate(zip(unsplit.results, split.results)):
        assert expected.left.band_widths is not None
        mismatches = compare_results(expected, actual, trace=True)
        assert mismatches == [], (profile, engine, index, mismatches)
    assert split.summary == unsplit.summary
    assert split.modeled_seconds == unsplit.modeled_seconds
    if engine == "logan":
        assert split.modeled_seconds is not None


@pytest.mark.parametrize("engine", ENGINES)
def test_split_is_bit_identical_on_pacbio(engine, split_gate, pool_calls):
    _assert_split_matches_unsplit("pacbio", engine)
    if (os.cpu_count() or 1) >= 2:
        # Only the workers=2 call goes to the pool: the batch really split.
        assert len(pool_calls) == 1


@pytest.mark.tier2
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("profile", list_profiles())
class TestSplitConformanceMatrix:
    def test_split_is_bit_identical(self, profile, engine, split_gate):
        _assert_split_matches_unsplit(profile, engine)


def test_split_kernel_stats_count_the_unsplit_work(split_gate):
    jobs = generate_workload("pacbio", SPLIT).jobs
    unsplit = _batch("batched", 1, jobs).extras["kernel_stats"]
    split = _batch("batched", 2, jobs).extras["kernel_stats"]
    assert unsplit.rows > 0
    assert split.rows == unsplit.rows
    assert split.cells == unsplit.cells
    assert split.active_row_steps == unsplit.active_row_steps


def test_split_service_reports_kernel_live_fraction(split_gate):
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


def test_split_wavefront_counts_its_kernel_metrics(split_gate):
    # The wavefront kernel runs in the pool's workers on a split call; its
    # metrics are counted in the calling process from the joined results.
    jobs = generate_workload("pacbio", SPLIT).jobs
    moved = []
    for workers in (1, 2):
        obs.reset()
        _batch("wavefront", workers, jobs)
        snap = obs.get_observability().registry.snapshot()
        moved.append(
            (
                snap.value("repro_kernel_pairs_total", kernel="wavefront"),
                snap.value("repro_kernel_cells_total", kernel="wavefront"),
                snap.value("repro_kernel_steps_total", kernel="wavefront"),
            )
        )
    obs.reset()
    assert moved[0][0] > 0
    assert moved[1] == moved[0]


# --------------------------------------------------------------------------- #
# The gate, on real sizes.
# --------------------------------------------------------------------------- #
def test_serve_sized_call_stays_in_process(pool_calls):
    jobs = generate_workload("pacbio", SERVE).jobs
    sides = prepare_batch(jobs, AlignConfig().scoring).sides
    estimate = sum(estimate_cells(len(q), len(t), SERVE.xdrop) for q, t in sides)
    assert estimate < parallel_mod.SPLIT_MIN_CELLS
    _batch("batched", 2, jobs, xdrop=SERVE.xdrop)
    assert pool_calls == []


@pytest.mark.parametrize("engine", ["reference", "ksw2"])
def test_serve_sized_job_map_stays_in_process(engine, pool_calls):
    # The job-mapping engines weigh whole jobs against the same gate: eight
    # serve pairs are far below it, so they never pay for the pool.
    jobs = generate_workload("pacbio", replace(SERVE, count=8)).jobs
    _batch(engine, 2, jobs, xdrop=SERVE.xdrop)
    assert pool_calls == []


@two_cores
def test_ksw2_split_matches_unsplit(split_gate, pool_calls):
    jobs = generate_workload("pacbio", SPLIT).jobs
    unsplit = _batch("ksw2", 1, jobs)
    split = _batch("ksw2", 2, jobs)
    assert len(pool_calls) == 1
    assert split.results == unsplit.results
    assert split.summary == unsplit.summary


@two_cores
def test_call_above_the_gate_splits(workload_above_split_gate, pool_calls):
    jobs = workload_above_split_gate.jobs
    xdrop = workload_above_split_gate.spec.xdrop
    unsplit = _batch("batched", 1, jobs, xdrop=xdrop)
    assert pool_calls == []
    split = _batch("batched", 2, jobs, xdrop=xdrop)
    assert len(pool_calls) == 1
    assert split.results == unsplit.results
    assert split.extras["kernel_stats"].cells == unsplit.extras["kernel_stats"].cells


# --------------------------------------------------------------------------- #
# The pool's lifecycle.
# --------------------------------------------------------------------------- #
@two_cores
def test_consecutive_splits_share_one_pool(split_gate, monkeypatch):
    built = []
    real = parallel_mod.ProcessPoolExecutor

    def counting(*args, **kwargs):
        built.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", counting)
    jobs = generate_workload("pacbio", SPLIT).jobs
    engine = AlignConfig(engine="batched", xdrop=SPLIT.xdrop, workers=2).build_engine()
    engine.align_batch(jobs)
    pool = parallel_mod._POOL
    started = len(built)
    engine.align_batch(jobs)
    assert pool is not None and parallel_mod._POOL is pool
    assert started <= 1 and len(built) == started


@two_cores
def test_dead_worker_fails_the_call_and_the_next_split_recovers(split_gate):
    with pytest.raises(PoolWorkerError, match="__main__"):
        parallel_mod.run_chunks(signal.raise_signal, [signal.SIGKILL] * 2)
    assert parallel_mod._POOL is None
    jobs = generate_workload("pacbio", SPLIT).jobs
    assert _batch("batched", 2, jobs).results == _batch("batched", 1, jobs).results
    assert parallel_mod._POOL is not None


@two_cores
def test_dropping_a_replaced_pool_leaves_the_new_one():
    # Two threads can both see one pool break: the late one must shut down
    # only the broken pool, never the fresh one another thread started.
    broken = parallel_mod._pool()
    parallel_mod._drop_pool(broken)
    fresh = parallel_mod._pool()
    parallel_mod._drop_pool(broken)
    assert parallel_mod._POOL is fresh
    assert parallel_mod.run_chunks(abs, [-1, -2]) == [1, 2]


_SPLITTING_SCRIPT = textwrap.dedent(
    """
    import repro.perf.parallel as parallel
    from repro.api import AlignConfig
    from repro.workloads import WorkloadSpec, generate_workload

    parallel.SPLIT_MIN_CELLS = 1
    jobs = generate_workload("pacbio", WorkloadSpec(count=8, seed=13, xdrop=20)).jobs
    AlignConfig(engine="batched", xdrop=20, workers=2).build_engine().align_batch(jobs)
    assert parallel._POOL is not None
    """
)


@two_cores
def test_splitting_process_leaves_no_process_behind():
    # The child gets a session (and process group) of its own; once it has
    # exited, nothing it started may still run: not the pool's workers, and
    # not multiprocessing's resource tracker, which outlives a plain spawn
    # pool's parent.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    child = subprocess.Popen(
        [sys.executable, "-c", _SPLITTING_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True,
        stderr=subprocess.PIPE,
        text=True,
    )
    _, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)


@two_cores
def test_conformance_runner_splits_its_engines(split_gate, pool_calls):
    # The engines under test and the reference oracle are built with the
    # config's workers, as the service path's engine is: the oracle's call
    # and the direct batched call each go to the pool.
    jobs = generate_workload("pacbio", SPLIT).jobs
    config = AlignConfig(engine="batched", xdrop=SPLIT.xdrop, workers=2)
    runner = ConformanceRunner(config, engines=["batched"], include_service=False)
    report = runner.run_jobs(jobs)
    assert report.ok, report.summary()
    assert len(pool_calls) == 2
