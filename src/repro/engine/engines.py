"""Concrete alignment engines.

Five engines ship with the package (names as registered):

==============  =====================================================  ======
name            implementation                                         exact
==============  =====================================================  ======
``reference``   per-job Python loop over the scalar reference kernel
                — the semantic oracle                                  yes
``batched``     inter-sequence batched kernel — the whole batch is
                packed into padded arrays and swept together
                (:func:`repro.core.xdrop_batch.xdrop_extend_batch`)    yes
``wavefront``   WFA-style furthest-reaching-point extension, unit
                scoring only
                (:func:`repro.core.wavefront.wavefront_extend_batch`)  yes*
``ksw2``        ksw2-style affine Z-drop runner + Skylake model        no
``logan``       LOGAN batch aligner (the batched kernel) + V100
                multi-GPU execution model                              yes
==============  =====================================================  ======

"exact" engines return scores, end positions and work accounting identical
to :func:`repro.core.xdrop.xdrop_extend_reference` on every job; the parity
test-suite enforces this.  ``wavefront`` (*) is exact on scores, end
positions and early-termination but computes in cost space, so its
cells/anti-diagonal accounting is an honest estimate of the equivalent DP
work rather than a bit-identical replay (``work_exact = False``).  All
constructors share the ``(scoring, xdrop, workers, trace)`` signature so
:func:`repro.engine.get_engine` can build any of them uniformly; engines
that cannot use an option accept and ignore it (documented per class).
"""

from __future__ import annotations

from typing import Sequence

from ..baselines.ksw2_batch import Ksw2BatchAligner
from ..core.job import AlignmentJob, summarize_results
from ..core.result import ExtensionResult, SeedAlignmentResult
from ..core.scoring import AffineScoringScheme, ScoringScheme
from ..core.seed_extend import extend_seed
from ..core.wavefront import ensure_unit_scoring, wavefront_extend_batch
from ..core.xdrop import xdrop_extend_reference
from ..logan.host import prepare_batch
from ..logan.kernel import empty_extension, execute_tasks_batched
from ..obs.runtime import (
    LIVE_FRACTION_BUCKETS,
    emit_kernel_batch,
    get_observability,
)
from ..perf.parallel import parallel_map
from ..perf.timers import Timer
from .base import EngineBatchResult, register_engine

__all__ = [
    "ReferenceEngine",
    "BatchedEngine",
    "WavefrontEngine",
    "Ksw2Engine",
    "LoganEngine",
]


def _extend_job(job, scoring, xdrop, trace) -> SeedAlignmentResult:
    """Worker: one reference seed-and-extend alignment (picklable)."""
    return extend_seed(
        job.query, job.target, job.seed, scoring=scoring, xdrop=xdrop,
        kernel=xdrop_extend_reference, trace=trace,
    )


def _seed_results(jobs, prepared, sides) -> list[SeedAlignmentResult]:
    """Join each job's ``(index, "left"/"right")`` extensions at its seed."""
    results = []
    for index, job in enumerate(jobs):
        left = sides[(index, "left")]
        right = sides[(index, "right")]
        anchor = prepared.seed_scores[index]
        seed = job.seed
        results.append(
            SeedAlignmentResult(
                score=int(left.best_score + right.best_score + anchor),
                left=left,
                right=right,
                seed_score=anchor,
                query_begin=seed.query_pos - left.query_end,
                query_end=seed.query_end + right.query_end,
                target_begin=seed.target_pos - left.target_end,
                target_end=seed.target_end + right.target_end,
            )
        )
    return results


class _EngineBase:
    """Shared configuration plumbing for the bundled engines."""

    name = "abstract"
    exact = True
    #: Result-invariant tuning attributes the autotune layer may override
    #: in place on a live instance.  Empty by default: only the batched
    #: kernel has active-row compaction and column tiling to tune.
    TUNABLE_KNOBS: tuple = ()

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
    ) -> None:
        self.scoring = scoring if scoring is not None else ScoringScheme()
        self.xdrop = int(xdrop)
        self.workers = max(1, int(workers))
        self.trace = bool(trace)

    def _resolve(
        self, scoring: ScoringScheme | None, xdrop: int | None
    ) -> tuple[ScoringScheme, int]:
        return (
            self.scoring if scoring is None else scoring,
            self.xdrop if xdrop is None else int(xdrop),
        )

    def align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        """Align *jobs*, wrapped in a trace span + per-engine metrics.

        Subclasses implement :meth:`_align_batch`; the telemetry fold here
        is once per batch, so it stays on unconditionally.
        """
        ob = get_observability()
        with ob.span("engine.align_batch", engine=self.name, jobs=len(jobs)):
            result = self._align_batch(jobs, scoring=scoring, xdrop=xdrop)
        self._observe_batch(ob, result, len(jobs))
        return result

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        raise NotImplementedError  # pragma: no cover - abstract

    def _observe_batch(
        self, ob, result: EngineBatchResult, jobs: int
    ) -> None:
        reg = ob.registry
        labels = ("engine",)
        reg.counter(
            "repro_engine_batches_total", "engine batch calls", labels
        ).inc(engine=self.name)
        reg.counter(
            "repro_engine_jobs_total", "jobs aligned", labels
        ).inc(jobs, engine=self.name)
        reg.counter(
            "repro_engine_seconds_total", "wall seconds in align_batch", labels
        ).inc(result.elapsed_seconds, engine=self.name)
        stats = result.extras.get("kernel_stats") if result.extras else None
        if stats is not None and stats.rows:
            # Fresh per-call accumulator, so its totals *are* the deltas.
            emit_kernel_batch(
                "batched",
                pairs=stats.rows,
                cells=stats.cells,
                steps=stats.row_steps,
                dtype=stats.dtype or None,
                ob=ob,
            )
            reg.counter(
                "repro_kernel_compactions_total",
                "active-row compactions performed",
                ("kernel",),
            ).inc(stats.compactions, kernel="batched")
            reg.histogram(
                "repro_kernel_live_fraction",
                "rows-weighted live fraction per batch call",
                ("kernel",),
                buckets=LIVE_FRACTION_BUCKETS,
            ).observe(stats.rows_weighted_live_fraction, kernel="batched")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(xdrop={self.xdrop})"


class ReferenceEngine(_EngineBase):
    """Per-job scalar reference loop — the semantic oracle, and the slowest."""

    name = "reference"

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, xdrop = self._resolve(scoring, xdrop)
        timer = Timer()
        with timer:
            results = parallel_map(
                _extend_job,
                list(jobs),
                args=(scoring, xdrop, self.trace),
                workers=self.workers,
            )
        return EngineBatchResult(
            engine=self.name,
            results=list(results),
            summary=summarize_results(results),
            elapsed_seconds=timer.elapsed,
        )


class BatchedEngine(_EngineBase):
    """Inter-sequence batched engine: one fused sweep over the whole batch.

    Jobs are split at their seeds by the LOGAN host preprocessing, and all
    resulting left- and right-extensions are swept together by
    :func:`repro.logan.kernel.execute_tasks_batched` — every extension is
    one row of the batch kernel, mirroring LOGAN's one-block-per-extension
    GPU layout.  With ``workers > 1`` the sweep is chunked across worker
    processes (scores and traces are unaffected).

    ``compact_threshold`` and ``tile_width`` tune the kernel's active-row
    compaction and column tiling (see
    :func:`repro.core.xdrop_batch.xdrop_extend_batch`); results are
    invariant to both.  Single-process runs attach the kernel's
    :class:`~repro.core.xdrop_batch.BatchKernelStats` telemetry to the
    batch result as ``extras["kernel_stats"]`` — the serving layer reads
    it for batch-sizing hints.
    """

    name = "batched"
    #: Both knobs are read per align_batch call, so the autotune layer can
    #: retune a live instance between dispatches (results are invariant).
    TUNABLE_KNOBS = ("tile_width", "compact_threshold")

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
        compact_threshold: float | None = None,
        tile_width: int | None = None,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=trace)
        self.compact_threshold = compact_threshold
        self.tile_width = tile_width

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        from ..core.xdrop_batch import BatchKernelStats

        scoring, xdrop = self._resolve(scoring, xdrop)
        stats = BatchKernelStats() if self.workers == 1 else None
        timer = Timer()
        with timer:
            prepared = prepare_batch(jobs, scoring)
            tasks = prepared.left_tasks + prepared.right_tasks
            extensions = execute_tasks_batched(
                tasks,
                scoring,
                xdrop,
                workers=self.workers,
                trace=self.trace,
                compact_threshold=self.compact_threshold,
                tile_width=self.tile_width,
                stats=stats,
            )
            sides: dict[tuple[int, str], ExtensionResult] = {
                (task.job_index, task.direction): ext
                for task, ext in zip(tasks, extensions)
            }
            results = _seed_results(jobs, prepared, sides)
        return EngineBatchResult(
            engine=self.name,
            results=results,
            summary=summarize_results(results),
            elapsed_seconds=timer.elapsed,
            extras={"kernel_stats": stats} if stats is not None else {},
        )


class WavefrontEngine(_EngineBase):
    """WFA-style furthest-reaching-point X-drop extension (unit scoring only).

    Runs :func:`repro.core.wavefront.wavefront_extend_batch`: snake-walking
    furthest-reaching points per (cost, diagonal) instead of sweeping DP
    anti-diagonals, so work scales with accumulated *cost* rather than
    sequence length — on high-identity reads this removes almost all of the
    anti-diagonal stepping and beats the batched kernel outright.

    Jobs are split at their seeds exactly like :class:`BatchedEngine`;
    zero-length sides never reach the kernel (the shared batch-runner
    contract) and are reinserted as zero-score extensions in task order.

    Exact on scores, end positions and early-termination for the unit
    scheme (match=+1, mismatch=-1, gap=-1) only; any other scheme raises
    :class:`ConfigurationError` at construction and on per-call overrides.
    Cost-space execution has no per-anti-diagonal band, so cells /
    anti-diagonal accounting is an honest equivalent-work estimate
    (``work_exact = False``).  ``workers`` is accepted for signature
    uniformity and ignored.
    """

    name = "wavefront"
    work_exact = False

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=trace)
        ensure_unit_scoring(self.scoring)

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, xdrop = self._resolve(scoring, xdrop)
        timer = Timer()
        with timer:
            prepared = prepare_batch(jobs, scoring)
            tasks = prepared.left_tasks + prepared.right_tasks
            pairs = [(task.query, task.target) for task in tasks if not task.is_empty]
            # The kernel re-checks unit scoring, so per-call overrides are
            # validated whenever a live extension reaches it.
            live = iter(
                wavefront_extend_batch(
                    pairs, scoring=scoring, xdrop=xdrop, trace=self.trace
                )
                if pairs
                else []
            )
            sides = {
                (task.job_index, task.direction): (
                    empty_extension(self.trace) if task.is_empty else next(live)
                )
                for task in tasks
            }
            results = _seed_results(jobs, prepared, sides)
        return EngineBatchResult(
            engine=self.name,
            results=results,
            summary=summarize_results(results),
            elapsed_seconds=timer.elapsed,
        )


class Ksw2Engine(_EngineBase):
    """ksw2-style affine Z-drop runner with the modeled Skylake runtime.

    Not score-exact with the X-drop reference: the recurrence is affine-gap
    and the termination rule is Z-drop, so scores are comparable but not
    identical (``exact = False``).  The ``xdrop`` parameter is used as the
    Z-drop threshold, the mapping of LOGAN's benchmark harness.

    A non-default linear ``scoring`` has its match/mismatch scores carried
    over into the affine scheme (the gap terms keep ksw2's minimap2
    defaults, which have no linear equivalent); pass ``affine_scoring`` to
    control the affine scheme fully.
    """

    name = "ksw2"
    exact = False

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
        affine_scoring: AffineScoringScheme | None = None,
        bandwidth: int | None = None,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=trace)
        self._explicit_affine = affine_scoring
        self.affine_scoring = affine_scoring or self._derive_affine(self.scoring)
        self.bandwidth = bandwidth

    @staticmethod
    def _derive_affine(scoring: ScoringScheme) -> AffineScoringScheme:
        """Affine scheme honouring a custom linear substitution scoring."""
        if scoring == ScoringScheme():
            return AffineScoringScheme()  # minimap2 map-pb defaults
        base = AffineScoringScheme()
        return AffineScoringScheme(
            match=scoring.match,
            mismatch=scoring.mismatch,
            gap_open=base.gap_open,
            gap_extend=base.gap_extend,
        )

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, zdrop = self._resolve(scoring, xdrop)
        affine = self._explicit_affine or self._derive_affine(scoring)
        aligner = Ksw2BatchAligner(
            scoring=affine,
            zdrop=zdrop,
            bandwidth=self.bandwidth,
            workers=self.workers,
        )
        batch = aligner.align_batch(jobs)
        results = []
        for job, (left, right), score in zip(jobs, batch.results, batch.scores):
            left_ext = self._to_extension(left)
            right_ext = self._to_extension(right)
            seed = job.seed
            results.append(
                SeedAlignmentResult(
                    score=int(score),
                    left=left_ext,
                    right=right_ext,
                    seed_score=seed.length * affine.match,
                    query_begin=seed.query_pos - left.query_end,
                    query_end=seed.query_end + right.query_end,
                    target_begin=seed.target_pos - left.target_end,
                    target_end=seed.target_end + right.target_end,
                )
            )
        return EngineBatchResult(
            engine=self.name,
            results=results,
            summary=batch.summary,
            elapsed_seconds=batch.elapsed_seconds,
            modeled_seconds=batch.modeled_seconds,
            extras={"batch": batch, "band": batch.band},
        )

    @staticmethod
    def _to_extension(res) -> ExtensionResult:
        return ExtensionResult(
            best_score=res.best_score,
            query_end=res.query_end,
            target_end=res.target_end,
            anti_diagonals=res.rows_computed,
            cells_computed=res.cells_computed,
            terminated_early=res.terminated_early,
        )


class LoganEngine(_EngineBase):
    """LOGAN batch aligner with the modeled V100 multi-GPU runtime.

    Runs the batched kernel (every extension one row of a fused sweep) and
    replays its band traces through the V100 execution model.  ``trace`` is
    accepted for signature uniformity; LOGAN always traces.
    """

    name = "logan"

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
        system=None,
        gpus: int | None = None,
        threads_per_block: int | None = None,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=trace)
        from ..gpusim.multi_gpu import MultiGpuSystem
        from ..logan.batch import LoganAligner

        if system is None and gpus is not None:
            system = MultiGpuSystem.homogeneous(gpus)
        self.aligner = LoganAligner(
            system=system,
            scoring=self.scoring,
            xdrop=self.xdrop,
            threads_per_block=threads_per_block,
            workers=self.workers,
        )

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, xdrop = self._resolve(scoring, xdrop)
        aligner = self.aligner
        if scoring is not aligner.scoring or xdrop != aligner.xdrop:
            from ..logan.batch import LoganAligner

            aligner = LoganAligner(
                system=aligner.system,
                scoring=scoring,
                xdrop=xdrop,
                threads_per_block=aligner._explicit_threads,
                workers=aligner.workers,
            )
        batch = aligner.align_batch(jobs)
        return EngineBatchResult(
            engine=self.name,
            results=batch.results,
            summary=batch.summary,
            elapsed_seconds=batch.elapsed_seconds,
            modeled_seconds=batch.modeled_seconds,
            extras={"batch": batch, "modeled_gcups": batch.modeled_gcups},
        )


register_engine("reference", ReferenceEngine)
register_engine("batched", BatchedEngine)
register_engine("wavefront", WavefrontEngine)
register_engine("ksw2", Ksw2Engine)
register_engine("logan", LoganEngine)
