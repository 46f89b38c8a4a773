"""Differential tests of the compacting/tiled batched X-drop kernel.

The PR-5 hot-path overhaul (active-row compaction, int16/int32 downsizing,
column tiling) must be invisible in every output bit: these tests replay
workload-bank profiles through the :class:`repro.testing.ConformanceRunner`
against the scalar oracle (tier-1 subset here, the full matrix under the
``tier2`` marker), assert invariance of the results to the tuning knobs
(including a Hypothesis sweep over random thresholds/tile widths), and pin
the short-circuit behaviour for fully-retired rows on the ``degenerate``
profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AlignConfig
from repro.core import ScoringScheme, xdrop_extend
from repro.core.xdrop import xdrop_extend_reference
from repro.core.xdrop_batch import (
    DEFAULT_COMPACT_THRESHOLD,
    DEFAULT_TILE_WIDTH,
    BatchKernelStats,
    xdrop_extend_batch,
)
from repro.engine import get_engine, register_engine, unregister_engine
from repro.engine.engines import BatchedEngine
from repro.errors import ConfigurationError
from repro.testing import ConformanceRunner
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

CONFIG = AlignConfig(engine="batched", xdrop=15, trace=True)
SPEC = WorkloadSpec(count=6, seed=23, min_length=50, max_length=140, xdrop=15)

#: Knob settings that force every mechanism on hard: compaction at every
#: retirement, single-column tiles, and a mid-range tile.
FORCED_TUNINGS = [
    {"compact_threshold": 1.0, "tile_width": 1},
    {"compact_threshold": 1.0, "tile_width": 7},
    {"compact_threshold": 0.0, "tile_width": 3},
    {"compact_threshold": 0.25, "tile_width": 64},
]


def _pairs_from_workload(profile: str, spec: WorkloadSpec = SPEC):
    """Raw (query, target) extension inputs from a workload's jobs."""
    workload = generate_workload(profile, spec)
    return [(job.query, job.target) for job in workload.jobs]


def _result_tuple(res):
    return (
        res.best_score,
        res.query_end,
        res.target_end,
        res.anti_diagonals,
        res.cells_computed,
        res.terminated_early,
    )


def assert_identical(batch_results, reference_results):
    for k, (got, ref) in enumerate(zip(batch_results, reference_results)):
        assert _result_tuple(got) == _result_tuple(ref), k
        same_trace = (got.band_widths is None) == (ref.band_widths is None) and (
            got.band_widths is None
            or np.array_equal(got.band_widths, ref.band_widths)
        )
        assert same_trace, k


# --------------------------------------------------------------------------- #
# Tier-1 differential subset: conformance runner over three profiles
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("profile", ["pacbio", "degenerate", "xdrop_boundary"])
def test_tier1_profile_conformance_default_knobs(profile):
    """Workload profiles through the reworked kernel vs the scalar oracle.

    Scores, extents, work accounting *and traces* must be bit-identical
    (``CONFIG.trace`` is on, so ``compare_results`` checks band widths).
    """
    runner = ConformanceRunner(
        CONFIG, engines=["reference", "batched"], include_service=False
    )
    report = runner.run_workload(generate_workload(profile, SPEC))
    assert report.ok, report.summary()
    assert report.comparisons >= SPEC.count


@pytest.mark.parametrize("tuning", FORCED_TUNINGS, ids=lambda t: str(t))
def test_tier1_forced_knobs_bit_identical(tuning):
    """Forced compaction/tiling settings on a mixed workload, per-pair."""
    pairs = _pairs_from_workload("pacbio") + _pairs_from_workload("length_skew")
    tuned = xdrop_extend_batch(pairs, xdrop=15, trace=True, **tuning)
    reference = [
        xdrop_extend_reference(q, t, xdrop=15, trace=True) for q, t in pairs
    ]
    assert_identical(tuned, reference)


# --------------------------------------------------------------------------- #
# Tier-2 full matrix: every profile x forced-knob engine via the runner
# --------------------------------------------------------------------------- #
@pytest.mark.tier2
@pytest.mark.parametrize("tuning", FORCED_TUNINGS, ids=lambda t: str(t))
@pytest.mark.parametrize("profile", list_profiles())
class TestCompactionConformanceMatrix:
    def test_profile_conformance_with_forced_knobs(self, profile, tuning):
        def factory(scoring=None, xdrop=100, workers=1, trace=False):
            return BatchedEngine(
                scoring=scoring, xdrop=xdrop, workers=workers, trace=trace, **tuning
            )

        factory.exact = True
        factory.__doc__ = "Batched engine with forced compaction/tiling knobs."
        register_engine("batched-tuned", factory)
        try:
            runner = ConformanceRunner(
                CONFIG,
                engines=["reference", "batched-tuned"],
                include_service=False,
            )
            report = runner.run_workload(generate_workload(profile, SPEC))
            assert report.ok, report.summary()
        finally:
            unregister_engine("batched-tuned")


# --------------------------------------------------------------------------- #
# Hypothesis: results are invariant to any legal knob combination
# --------------------------------------------------------------------------- #
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    threshold=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    tile=st.integers(min_value=1, max_value=256),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_kernel_invariant_to_tuning_knobs(threshold, tile, seed):
    rng = np.random.default_rng(seed)
    batch = int(rng.integers(1, 10))
    pairs = []
    for _ in range(batch):
        m = int(rng.integers(1, 70))
        n = int(rng.integers(1, 70))
        pairs.append(
            (
                rng.integers(0, 4, size=m).astype(np.uint8),
                rng.integers(0, 4, size=n).astype(np.uint8),
            )
        )
    xdrop = int(rng.integers(0, 30))
    baseline = xdrop_extend_batch(pairs, xdrop=xdrop, trace=True)
    tuned = xdrop_extend_batch(
        pairs,
        xdrop=xdrop,
        trace=True,
        compact_threshold=threshold,
        tile_width=tile,
    )
    assert_identical(tuned, baseline)


# --------------------------------------------------------------------------- #
# Regression: fully-retired rows are short-circuited (degenerate profile)
# --------------------------------------------------------------------------- #
def test_degenerate_retired_rows_short_circuited():
    """A long straggler plus a degenerate batch: dead rows must stop costing.

    Before the rework, every anti-diagonal step re-derived band bounds for
    every retired row, so ``row_steps`` would equal ``rows * steps``.  With
    compaction, the instantly-retiring degenerate extensions must be
    dropped after a handful of steps while the straggler runs on alone.
    """
    rng = np.random.default_rng(7)
    straggler = rng.integers(0, 4, size=400).astype(np.uint8)
    pairs = [(straggler, straggler.copy())]
    pairs += _pairs_from_workload("degenerate", WorkloadSpec(count=24, seed=5))

    stats = BatchKernelStats()
    results = xdrop_extend_batch(pairs, xdrop=15, stats=stats)
    reference = [xdrop_extend_reference(q, t, xdrop=15) for q, t in pairs]
    assert_identical(results, reference)

    assert stats.compactions >= 1
    # The straggler alone accounts for ~steps row-steps; the 24 degenerate
    # rows retire almost immediately, so without compaction row_steps would
    # be ~25x steps.  Allow generous slack while still proving the
    # short-circuit.
    assert stats.row_steps < stats.steps * 4, stats.to_dict()
    assert stats.live_fraction > 0.5


def test_degenerate_profile_conformance_with_stats():
    """Degenerate workload through the batched engine, stats attached."""
    engine = get_engine("batched", xdrop=15)
    workload = generate_workload("degenerate", SPEC)
    batch = engine.align_batch(workload.jobs)
    stats = batch.extras["kernel_stats"]
    assert stats.rows > 0
    # Seed-flush (empty) extensions never reach the kernel; they add one
    # accounting cell each outside the sweep, so the kernel's cell count is
    # bounded by — and close to — the per-result accounting.
    total = sum(r.cells_computed for r in batch.results)
    assert 0 < stats.cells <= total
    assert total - stats.cells == 2 * len(batch.results) - stats.rows


# --------------------------------------------------------------------------- #
# Overflow guard and knob validation
# --------------------------------------------------------------------------- #
def test_dtype_guard_tiers():
    rng = np.random.default_rng(3)
    q = rng.integers(0, 4, size=40).astype(np.uint8)
    pairs = [(q, q.copy())]
    small = BatchKernelStats()
    xdrop_extend_batch(pairs, xdrop=10, stats=small)
    assert small.dtype == "int16"

    mid = BatchKernelStats()
    xdrop_extend_batch(pairs, xdrop=10**6, stats=mid)
    assert mid.dtype == "int32"

    wide = BatchKernelStats()
    huge = ScoringScheme(match=2**32, mismatch=-(2**32), gap=-(2**32))
    xdrop_extend_batch(pairs, scoring=huge, xdrop=10, stats=wide)
    assert wide.dtype == "int64"


def test_dtype_tiers_agree_with_reference():
    """The int64 fallback and downsized tiers produce identical answers."""
    rng = np.random.default_rng(9)
    pairs = [
        (
            rng.integers(0, 4, size=int(rng.integers(1, 60))).astype(np.uint8),
            rng.integers(0, 4, size=int(rng.integers(1, 60))).astype(np.uint8),
        )
        for _ in range(6)
    ]
    for xdrop in (0, 12, 10**6, 2**40):
        got = xdrop_extend_batch(pairs, xdrop=xdrop, trace=True)
        ref = [xdrop_extend_reference(q, t, xdrop=xdrop, trace=True) for q, t in pairs]
        assert_identical(got, ref)


def _run_batched(pairs, scoring=None, xdrop=100):
    return xdrop_extend_batch(pairs, scoring=scoring, xdrop=xdrop, trace=True)


def _run_per_pair(pairs, scoring=None, xdrop=100):
    return [
        xdrop_extend(a, b, scoring=scoring, xdrop=xdrop, trace=True) for a, b in pairs
    ]


@pytest.mark.parametrize(
    "run_kernel", [_run_batched, _run_per_pair], ids=["batched", "per_pair"]
)
@pytest.mark.parametrize(
    "length, scoring, xdrop, expected_dtype",
    [
        # Long near-identical pair: the running best climbs past the int16
        # sentinel magnitude (2**14), so int16 buffers would corrupt the
        # pruning comparisons — the guard must take the int32 tier.
        (2100, ScoringScheme(match=8, mismatch=-8, gap=-8), 40, "int32"),
        # X threshold alone floods the int32 bound: int64 fallback.
        (300, ScoringScheme(), 2**31, "int64"),
    ],
    ids=["score-exceeds-int16", "xdrop-exceeds-int32"],
)
def test_overflow_guard_on_near_identical_pairs(
    run_kernel, length, scoring, xdrop, expected_dtype
):
    """Wavefront-shaped adversarial input: long, almost-identical pairs.

    The batched kernel must pick the widened dtype tier, and both it and
    the per-pair kernel (``xdrop_extend``, int64 throughout) must stay
    bit-identical to the scalar reference (which always computes in Python
    ints).
    """
    from repro.core.xdrop_batch import _select_dtype

    rng = np.random.default_rng(41)
    q = rng.integers(0, 4, size=length).astype(np.uint8)
    t = q.copy()
    for pos in rng.choice(length, size=8, replace=False):
        t[pos] = (int(t[pos]) + 1 + int(rng.integers(0, 3))) % 4
    pairs = [(q, t), (q.copy(), q.copy())]

    dtype, _ = _select_dtype(length, length, scoring, xdrop)
    assert np.dtype(dtype).name == expected_dtype

    got = run_kernel(pairs, scoring=scoring, xdrop=xdrop)
    ref = [
        xdrop_extend_reference(a, b, scoring=scoring, xdrop=xdrop, trace=True)
        for a, b in pairs
    ]
    assert_identical(got, ref)
    # the identical pair really does exceed the int16 sentinel in tier one
    if expected_dtype == "int32":
        assert got[1].best_score == length * scoring.match > 2**14


def test_overflow_guard_batched_stats_report_widened_tier():
    rng = np.random.default_rng(42)
    q = rng.integers(0, 4, size=2100).astype(np.uint8)
    scoring = ScoringScheme(match=8, mismatch=-8, gap=-8)
    stats = BatchKernelStats()
    xdrop_extend_batch([(q, q.copy())], scoring=scoring, xdrop=40, stats=stats)
    assert stats.dtype == "int32"


def test_invalid_knobs_rejected():
    pairs = [("ACGT", "ACGT")]
    with pytest.raises(ConfigurationError):
        xdrop_extend_batch(pairs, compact_threshold=1.5)
    with pytest.raises(ConfigurationError):
        xdrop_extend_batch(pairs, compact_threshold=-0.1)
    with pytest.raises(ConfigurationError):
        xdrop_extend_batch(pairs, tile_width=0)


# --------------------------------------------------------------------------- #
# Stats plumbing: engine options, merge, and the service hint
# --------------------------------------------------------------------------- #
def test_engine_options_reach_the_kernel():
    config = AlignConfig(
        engine="batched",
        xdrop=15,
        engine_options={"compact_threshold": 1.0, "tile_width": 3},
    )
    engine = config.build_engine()
    assert engine.compact_threshold == 1.0
    assert engine.tile_width == 3
    workload = generate_workload("pacbio", SPEC)
    tuned = engine.align_batch(workload.jobs)
    baseline = get_engine("batched", xdrop=15).align_batch(workload.jobs)
    assert [r.score for r in tuned.results] == [r.score for r in baseline.results]
    assert tuned.extras["kernel_stats"].compactions >= 0


def test_stats_merge_and_suggestion():
    a = BatchKernelStats(rows=4, steps=10, row_steps=40, active_row_steps=10,
                         compactions=1, tiles=10, peak_window=8, cells=100,
                         dtype="int16")
    b = BatchKernelStats(rows=2, steps=5, row_steps=10, active_row_steps=10,
                         compactions=0, tiles=5, peak_window=16, cells=50,
                         dtype="int16")
    merged = BatchKernelStats().merge(a).merge(b)
    assert merged.rows == 6 and merged.steps == 15
    assert merged.peak_window == 16
    assert merged.cells == 150
    assert merged.dtype == "int16"
    assert 0.0 < merged.live_fraction < 1.0
    # Uneven retirement (low live fraction) suggests shrinking the batch.
    assert a.suggested_batch_size(64) == 32
    # Uniform retirement (high live fraction) suggests growing it.
    assert b.suggested_batch_size(64) == 128
    assert BatchKernelStats().suggested_batch_size(64) == 64


def test_default_knob_constants_are_sane():
    assert 0.0 < DEFAULT_COMPACT_THRESHOLD <= 1.0
    assert DEFAULT_TILE_WIDTH >= 64


def test_service_exposes_kernel_batch_hint():
    from repro.service import AlignmentService

    workload = generate_workload("pacbio", SPEC)
    with AlignmentService(config=AlignConfig(engine="batched", xdrop=15)) as service:
        tickets = service.submit_many(workload.jobs)
        service.drain()
        for ticket in tickets:
            ticket.result(timeout=30.0)
        stats = service.stats()
    assert stats.kernel_live_fraction is not None
    assert 0.0 < stats.kernel_live_fraction <= 1.0
    assert stats.suggested_batch_size is not None
    assert stats.suggested_batch_size >= 8
    payload = stats.to_dict()
    assert "kernel_live_fraction" in payload
    assert "suggested_batch_size" in payload


def _window_entry(rows: int, fraction: float) -> BatchKernelStats:
    """One batch accumulator whose weighted live fraction is ``fraction``."""
    return BatchKernelStats(
        rows=rows,
        steps=rows,
        row_steps=rows * 10,
        active_row_steps=int(rows * 10 * fraction),
        cells=rows * 100,
        peak_window=64,
        weighted_rows=rows,
        weighted_live=fraction * rows,
    )


def test_windowed_stats_trims_to_the_ring():
    from repro.core.xdrop_batch import WindowedKernelStats

    window = WindowedKernelStats(window=3)
    for index in range(5):
        window.observe(_window_entry(rows=8, fraction=0.1 * (index + 1)))
    # Only the newest three batches survive; lifetime count keeps all five.
    assert window.batches == 3 and len(window) == 3
    assert window.total_batches == 5
    assert window.rows == 24
    # Mean of the surviving fractions (0.3, 0.4, 0.5), not the lifetime mean.
    assert window.live_fraction == pytest.approx(0.4, abs=1e-9)
    assert window.rows_weighted_live_fraction == pytest.approx(0.4, abs=1e-9)


def test_windowed_stats_merged_matches_manual_fold():
    from repro.core.xdrop_batch import WindowedKernelStats

    entries = [_window_entry(rows=4, fraction=0.2), _window_entry(rows=12, fraction=0.9)]
    window = WindowedKernelStats(window=8)
    manual = BatchKernelStats()
    for entry in entries:
        window.observe(entry)
        manual.merge(entry)
    merged = window.merged()
    assert merged.rows == manual.rows == 16
    assert merged.cells == manual.cells
    assert merged.rows_weighted_live_fraction == pytest.approx(
        manual.rows_weighted_live_fraction
    )
    # The windowed hint is the merged accumulator's hint, nothing more.
    assert window.suggested_batch_size(32) == merged.suggested_batch_size(32)


def test_windowed_stats_edge_cases():
    from repro.core.xdrop_batch import WindowedKernelStats

    with pytest.raises(ConfigurationError):
        WindowedKernelStats(window=0)
    empty = WindowedKernelStats(window=4)
    assert empty.batches == 0 and empty.total_batches == 0
    assert empty.live_fraction == 1.0
    assert empty.suggested_batch_size(64) == 64
    payload = empty.to_dict()
    assert payload["window"] == 4
    assert payload["window_batches"] == 0
    assert payload["total_batches"] == 0

    window = WindowedKernelStats(window=2)
    window.observe(_window_entry(rows=8, fraction=0.95))
    payload = window.to_dict()
    assert payload["window_batches"] == 1 and payload["total_batches"] == 1
    assert payload["rows"] == 8
