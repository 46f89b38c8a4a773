"""Differential tests of the compacting batched X-drop kernel.

The kernel's hot-path mechanisms (per-row band frames, the wide-row group,
re-layouts that drop retired rows, int16/int32 downsizing) must be
invisible in every output bit: these tests replay workload-bank profiles
through the :class:`repro.testing.ConformanceRunner` against the scalar
oracle (tier-1 subset here, the full matrix under the ``tier2`` marker),
check the results at forced compaction thresholds (including a Hypothesis
sweep over random batches and a batch whose bands outgrow LOGAN's block),
and pin the short-circuit behaviour for fully-retired rows on the
``degenerate`` profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AlignConfig
from repro.core import ScoringScheme, xdrop_batch, xdrop_extend
from repro.core.scoring import block_width
from repro.core.xdrop import xdrop_extend_reference
from repro.core.xdrop_batch import (
    COMPACT_THRESHOLD,
    BatchKernelStats,
    xdrop_extend_batch,
)
from repro.engine import get_engine
from repro.engine.engines import BatchedEngine
from repro.errors import ConfigurationError
from repro.logan import prepare_batch
from repro.testing import ConformanceRunner
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

CONFIG = AlignConfig(engine="batched", xdrop=15, trace=True)
SPEC = WorkloadSpec(count=6, seed=23, min_length=50, max_length=140, xdrop=15)

#: Compaction thresholds forced through the module constant: never
#: compact, compact at every retirement, and a low mid-range threshold.
FORCED_THRESHOLDS = [0.0, 1.0, 0.25]


@pytest.fixture(params=FORCED_THRESHOLDS, ids=lambda t: f"threshold={t}")
def forced_threshold(request, monkeypatch):
    """Run the test with the kernel's compaction threshold forced."""
    monkeypatch.setattr(xdrop_batch, "COMPACT_THRESHOLD", request.param)
    return request.param


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


def test_tier1_forced_knobs_bit_identical(forced_threshold):
    """Forced compaction thresholds on a mixed workload, per-pair."""
    pairs = _pairs_from_workload("pacbio") + _pairs_from_workload("length_skew")
    tuned = xdrop_extend_batch(pairs, xdrop=15, trace=True)
    reference = [
        xdrop_extend_reference(q, t, xdrop=15, trace=True) for q, t in pairs
    ]
    assert_identical(tuned, reference)


# --------------------------------------------------------------------------- #
# Tier-2 full matrix: every profile x forced threshold via the runner
# --------------------------------------------------------------------------- #
@pytest.mark.tier2
@pytest.mark.parametrize("profile", list_profiles())
class TestCompactionConformanceMatrix:
    def test_profile_conformance_with_forced_knobs(self, profile, forced_threshold):
        runner = ConformanceRunner(
            CONFIG, engines=["reference", "batched"], include_service=False
        )
        report = runner.run_workload(generate_workload(profile, SPEC))
        assert report.ok, report.summary()


# --------------------------------------------------------------------------- #
# Hypothesis: random batches match the scalar reference at every threshold
# --------------------------------------------------------------------------- #
@settings(
    max_examples=30,
    deadline=None,
    # The fixture patches one module constant for the whole test, which is
    # exactly what every generated example should see.
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_kernel_invariant_to_tuning_knobs(forced_threshold, seed):
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
    tuned = xdrop_extend_batch(pairs, xdrop=xdrop, trace=True)
    reference = [
        xdrop_extend_reference(q, t, xdrop=xdrop, trace=True) for q, t in pairs
    ]
    assert_identical(tuned, reference)


# --------------------------------------------------------------------------- #
# The wide-row group: bands that outgrow LOGAN's block at X = 50
# --------------------------------------------------------------------------- #
WIDE_XDROP = 50


@pytest.fixture(scope="module")
def wide_batch():
    """24 extensions of 8 pacbio and 4 unrelated jobs (600-1200 bp).

    At X = 50 some bands grow past the 64-column block beside narrower
    ones, and the band centres drift apart, so the sweep both regroups
    and re-centres rows.  Returns the pairs and their reference results.
    """
    jobs = []
    for profile, count in (("pacbio", 8), ("unrelated", 4)):
        spec = WorkloadSpec(
            count=count, seed=1, min_length=600, max_length=1200, xdrop=WIDE_XDROP
        )
        jobs += generate_workload(profile, spec).jobs
    sides = prepare_batch(jobs, ScoringScheme()).sides
    pairs = [(q, t) for q, t in sides if len(q) and len(t)]
    reference = [
        xdrop_extend_reference(q, t, xdrop=WIDE_XDROP, trace=True) for q, t in pairs
    ]
    return pairs, reference


@pytest.mark.parametrize(
    "threshold", [0.0, 0.25, COMPACT_THRESHOLD, 1.0], ids=lambda t: f"threshold={t}"
)
def test_wide_group_bit_identical(wide_batch, threshold, monkeypatch):
    """Two row groups, each with its own window, match the scalar oracle."""
    pairs, reference = wide_batch
    monkeypatch.setattr(xdrop_batch, "COMPACT_THRESHOLD", threshold)
    stats = BatchKernelStats()
    got = xdrop_extend_batch(pairs, xdrop=WIDE_XDROP, trace=True, stats=stats)
    assert_identical(got, reference)
    assert stats.rows == len(pairs) == 24
    # A second row group ran beside the first, with a wider window.
    assert stats.group_steps > stats.steps
    assert stats.peak_window > block_width(WIDE_XDROP, ScoringScheme().gap)


# --------------------------------------------------------------------------- #
# Telemetry: the sweep's counters are the scalar reference's own accounting
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("profile", list_profiles())
def test_kernel_stats_match_reference_accounting(profile, forced_threshold):
    """Steps, live row-steps and cells follow from the per-pair reference.

    Rows stay live on a contiguous run of anti-diagonals from ``d = 1``,
    so the sweep runs ``max(anti_diagonals) - 1`` steps (the origin
    diagonal is not a step) and its live row-steps are the per-row step
    counts summed.  Only ``row_steps``/``compactions`` may depend on the
    threshold, and the two extremes pin them exactly.
    """
    pairs = _pairs_from_workload(profile)
    reference = [
        xdrop_extend_reference(q, t, xdrop=15, trace=True) for q, t in pairs
    ]
    stats = BatchKernelStats()
    xdrop_extend_batch(pairs, xdrop=15, stats=stats)

    assert stats.rows == len(pairs)
    assert stats.steps == max(r.anti_diagonals for r in reference) - 1
    assert stats.active_row_steps == sum(r.anti_diagonals - 1 for r in reference)
    assert stats.cells == sum(r.cells_computed for r in reference)
    # A group's window holds its live bands, and never outgrows its width at
    # the last re-layout (at most the widest band) by more than half a block.
    widest_band = max(int(r.band_widths.max()) for r in reference)
    half_block = block_width(15, ScoringScheme().gap) // 2
    assert widest_band <= stats.peak_window <= widest_band + half_block
    assert stats.active_row_steps <= stats.row_steps <= stats.rows * stats.steps
    assert stats.steps <= stats.group_steps <= 2 * stats.steps
    # Every swept cell lies in its step's window (the origin is not swept).
    assert stats.cells - stats.rows <= stats.window_cells
    assert stats.window_cells <= stats.row_steps * stats.peak_window
    if forced_threshold == 0.0:
        # Re-layouts still regroup and re-centre, but never drop a row.
        assert stats.row_steps == stats.rows * stats.steps
    if forced_threshold == 1.0:
        # Every retirement compacts, so only live rows are ever carried.
        assert stats.row_steps == stats.active_row_steps
        assert stats.live_fraction == 1.0


@pytest.mark.parametrize("profile", list_profiles())
def test_kernel_work_invariant_to_threshold(profile, monkeypatch):
    """Re-layouts move rows and windows, never the work the rows do.

    The threshold decides when retired rows are dropped, which moves the
    re-layouts and so the group windows (``peak_window``), but never the
    steps, the live row-steps, the cells or the dtype.
    """
    pairs = _pairs_from_workload(profile)
    runs = {}
    for threshold in (0.0, 0.25, COMPACT_THRESHOLD, 1.0):
        monkeypatch.setattr(xdrop_batch, "COMPACT_THRESHOLD", threshold)
        stats = BatchKernelStats()
        xdrop_extend_batch(pairs, xdrop=15, stats=stats)
        runs[threshold] = stats

    def invariant(stats):
        return (stats.steps, stats.active_row_steps, stats.cells, stats.dtype)

    assert len({invariant(stats) for stats in runs.values()}) == 1
    assert runs[0.0].row_steps == runs[0.0].rows * runs[0.0].steps
    assert runs[1.0].compactions >= 1


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


# --------------------------------------------------------------------------- #
# Stats plumbing: removed knobs, merge, and the service live fraction
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "options", [{"tile_width": 3}, {"compact_threshold": 1.0}], ids=str
)
def test_removed_kernel_knobs_rejected_as_engine_options(options):
    (key,) = options
    config = AlignConfig(engine="batched", xdrop=15, engine_options=options)
    with pytest.raises(ConfigurationError, match=repr(key)):
        config.build_engine()


@pytest.mark.parametrize("key", ["compact_threshold", "tile_width"])
@pytest.mark.parametrize(
    "call",
    [
        lambda **kw: xdrop_extend_batch([("ACGT", "ACGT")], **kw),
        lambda **kw: BatchedEngine(xdrop=15, **kw),
    ],
    ids=["xdrop_extend_batch", "BatchedEngine"],
)
def test_removed_kernel_knobs_are_not_keywords(call, key):
    with pytest.raises(TypeError, match=key):
        call(**{key: 1})


def test_stats_merge():
    a = BatchKernelStats(rows=4, steps=10, row_steps=40, active_row_steps=10,
                         compactions=1, peak_window=8, cells=100,
                         window_cells=300, dtype="int16")
    b = BatchKernelStats(rows=2, steps=5, row_steps=10, active_row_steps=10,
                         group_steps=9, compactions=0, peak_window=16, cells=50,
                         window_cells=70, dtype="int16")
    merged = BatchKernelStats().merge(a).merge(b)
    assert merged.rows == 6 and merged.steps == 15
    assert merged.group_steps == 9
    assert merged.peak_window == 16
    assert merged.cells == 150
    assert merged.window_cells == 370
    assert merged.to_dict()["window_cells"] == 370
    assert merged.dtype == "int16"
    assert merged.live_fraction == pytest.approx(20 / 50)


@pytest.mark.parametrize(
    "threshold, window_cells, row_steps",
    [(0.0, 16, 8), (0.5, 13, 6), (COMPACT_THRESHOLD, 13, 6), (1.0, 13, 6)],
)
def test_window_cells_of_a_two_row_batch(threshold, window_cells, row_steps,
                                         monkeypatch):
    """Rows carried times window width, summed over the four steps.

    ``("A", "A")`` sweeps bands [0, 1] and [1, 1] and retires after its
    corner on anti-diagonal 2; ``("AC", "AC")`` sweeps [0, 1], [0, 2],
    [1, 2] and [2, 2].  The windows are 2, 3, 2 and 1 wide: 2 * 2 + 2 * 3
    with both rows carried, then 2 + 1 once the first row is compacted
    away (or 2 * 2 + 2 * 1 when it stays).
    """
    monkeypatch.setattr(xdrop_batch, "COMPACT_THRESHOLD", threshold)
    stats = BatchKernelStats()
    results = xdrop_extend_batch([("A", "A"), ("AC", "AC")], xdrop=10, stats=stats)
    assert [r.cells_computed for r in results] == [4, 9]
    assert stats.steps == 4 and stats.peak_window == 3
    assert stats.row_steps == row_steps
    assert stats.window_cells == window_cells
    assert stats.cells == 13
    assert stats.useful_fraction == (13 - 2) / window_cells
    assert stats.to_dict()["useful_fraction"] == stats.useful_fraction


def test_useful_fraction_of_an_empty_accumulator():
    assert BatchKernelStats().useful_fraction == 1.0


@pytest.mark.parametrize("wide_first", [False, True], ids=["int16-first", "int32-first"])
def test_reused_accumulator_marks_mixed_tiers(wide_first):
    """A reused ``stats=`` accumulator folds dtypes as ``merge()`` does."""
    sweeps = [10, 10**6]  # X thresholds that pick the int16 and int32 tiers
    if wide_first:
        sweeps.reverse()
    reused = BatchKernelStats()
    merged = BatchKernelStats()
    for xdrop in sweeps:
        xdrop_extend_batch([("ACGT", "ACGT")], xdrop=xdrop, stats=reused)
        one = BatchKernelStats()
        xdrop_extend_batch([("ACGT", "ACGT")], xdrop=xdrop, stats=one)
        merged.merge(one)
    assert reused.dtype == merged.dtype == "mixed"
    assert reused == merged


def test_default_knob_constants_are_sane():
    assert 0.0 < COMPACT_THRESHOLD <= 1.0


def test_service_live_fraction_matches_exported_gauge():
    """One lifetime accumulator feeds both stats() and the gauge."""
    from repro.service import AlignmentService

    config = AlignConfig(engine="batched", xdrop=15)
    with AlignmentService(config=config) as service:
        service.map(generate_workload("pacbio", SPEC).jobs)
        skewed = WorkloadSpec(count=3, seed=4, min_length=20, max_length=400)
        service.map(generate_workload("length_skew", skewed).jobs)
        stats = service.stats()
        snapshot = service.metrics_snapshot()
        gauge = snapshot.value("repro_kernel_live_fraction")
        useful = snapshot.value("repro_kernel_useful_fraction")
        lifetime = service._kernel_stats
    assert stats.batches_formed == 2
    assert 0.0 < stats.kernel_live_fraction < 1.0
    assert stats.kernel_live_fraction == gauge
    assert stats.to_dict()["kernel_live_fraction"] == gauge
    assert 0.0 < useful <= 1.0
    assert useful == lifetime.useful_fraction
