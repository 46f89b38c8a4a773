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
``ksw2``        ksw2-style affine Z-drop extension                     no
``logan``       the ``batched`` sweep, traced, + post-hoc V100
                multi-GPU execution model                              yes
==============  =====================================================  ======

"exact" engines return scores, end positions and work accounting identical
to :func:`repro.core.xdrop.xdrop_extend_reference` on every job; the parity
test-suite enforces this.  ``wavefront`` (*) is exact on scores, end
positions and early-termination but computes in cost space, so its
cells/anti-diagonal accounting is an honest estimate of the equivalent DP
work rather than a bit-identical replay (``work_exact = False``).

``batched``, ``logan`` and ``wavefront`` share one seed-and-extend loop,
:meth:`_EngineBase._align_batch`, and differ only in their ``extend``
kernel function.  ``reference`` and ``ksw2`` map one function over the
jobs instead (:meth:`_EngineBase._map_jobs`): ``reference`` because it is
the oracle the others are checked against, ``ksw2`` because its seed
score and band come from its affine scheme and static band, not from the
linear scheme and X.  Every engine builds its results with
:func:`repro.core.seed_extend.join_at_seed`.

All constructors share the ``(scoring, xdrop, workers, trace)`` signature
so :func:`repro.engine.get_engine` can build any of them uniformly.  Every
engine can split a batch across up to ``workers`` processes of the one
process pool (:mod:`repro.perf.parallel`), in chunks balanced by
estimated cells, when those cells give each chunk
:data:`~repro.perf.parallel.SPLIT_MIN_CELLS`: the batch engines split
their extensions, ``reference`` and ``ksw2`` their jobs.  ``trace`` is
ignored by ``ksw2``, which records no band traces, and by ``logan``,
which always records them.  Those values are fixed when the engine is
built, and checked there (``xdrop >= 0``, ``workers >= 1``):
``align_batch(jobs)`` takes nothing else, so every batch of one engine
runs with one scoring scheme and one X, as a LOGAN run does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..baselines.ksw2 import ksw2_extend
from ..core.job import AlignmentJob, estimate_cells, summarize_results
from ..core.result import ExtensionResult, SeedAlignmentResult, empty_extension
from ..core.scoring import AffineScoringScheme, ScoringScheme
from ..core.seed_extend import extend_seed, join_at_seed, split_on_seed
from ..core.wavefront import ensure_unit_scoring, wavefront_extend_batch
from ..core.xdrop import xdrop_extend_reference
from ..core.xdrop_batch import BatchKernelStats
from ..errors import ConfigurationError
from ..gpusim.multi_gpu import MultiGpuSystem
from ..logan.batch import LoganModel
from ..logan.host import prepare_batch
from ..logan.kernel import sweep
from ..obs.runtime import (
    LIVE_FRACTION_BUCKETS,
    emit_kernel_batch,
    get_observability,
)
from ..perf.parallel import parallel_map, run_split
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


def _extend_job_ksw2(job, affine, zdrop, bandwidth) -> SeedAlignmentResult:
    """Worker: one job's two ksw2 extensions, joined at its seed
    (picklable)."""
    left, right = (
        ksw2_extend(q, t, affine, zdrop=zdrop, bandwidth=bandwidth)
        if len(q) and len(t)
        else empty_extension(False)
        for q, t in split_on_seed(job.query, job.target, job.seed)
    )
    return join_at_seed(job.seed, left, right, job.seed.length * affine.match)


def _sweep_wavefront(pairs, scoring, xdrop, trace) -> tuple[list, None]:
    """Worker: one wavefront sweep over *pairs*; it keeps no kernel stats
    (picklable)."""
    results = wavefront_extend_batch(pairs, scoring=scoring, xdrop=xdrop, trace=trace)
    return results, None


class _EngineBase:
    """Shared configuration plumbing, the batch engines' one
    seed-and-extend loop (:meth:`_align_batch`), and the job map of
    ``reference`` and ``ksw2`` (:meth:`_map_jobs`)."""

    name = "abstract"
    exact = True
    #: The batch engines' kernel, ``extend(pairs, scoring, xdrop, trace) ->
    #: (extensions, BatchKernelStats or None)`` over non-empty sides: a
    #: module-level function, so a worker process can run it on its chunk.
    extend = None

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
    ) -> None:
        self.scoring = scoring if scoring is not None else ScoringScheme()
        self.xdrop = int(xdrop)
        if self.xdrop < 0:
            raise ConfigurationError(f"xdrop must be non-negative, got {xdrop}")
        self.workers = int(workers)
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.trace = bool(trace)

    def align_batch(self, jobs: Sequence[AlignmentJob]) -> EngineBatchResult:
        """Align *jobs*, wrapped in a trace span + per-engine metrics.

        The work is :meth:`_align_batch`; the telemetry fold here is once
        per batch, so it stays on unconditionally.
        """
        ob = get_observability()
        with ob.span("engine.align_batch", engine=self.name, jobs=len(jobs)):
            result = self._align_batch(jobs)
        self._observe_batch(ob, result, len(jobs))
        return result

    def _align_batch(self, jobs: Sequence[AlignmentJob]) -> EngineBatchResult:
        """LOGAN's host loop: split every job at its seed, :attr:`extend`
        the sides that are not empty, give the empty ones
        :func:`~repro.core.result.empty_extension`, and join each job's
        two sides at its seed."""
        timer = Timer()
        with timer:
            prepared = prepare_batch(jobs, self.scoring)
            live = [len(q) > 0 and len(t) > 0 for q, t in prepared.sides]
            swept, stats = self._extend_split(
                [side for side, ok in zip(prepared.sides, live) if ok]
            )
            swept = iter(swept)
            sides = [next(swept) if ok else empty_extension(self.trace) for ok in live]
            n = len(jobs)
            results = [
                join_at_seed(job.seed, sides[i], sides[n + i], prepared.seed_scores[i])
                for i, job in enumerate(jobs)
            ]
        return EngineBatchResult(
            engine=self.name,
            results=results,
            summary=summarize_results(results),
            elapsed_seconds=timer.elapsed,
            extras={} if stats is None else {"kernel_stats": stats},
        )

    def _extend_split(
        self, pairs: list
    ) -> tuple[list[ExtensionResult], BatchKernelStats | None]:
        """:attr:`extend` over *pairs*, split across the process pool when
        the estimated cells give every chunk at least
        :data:`~repro.perf.parallel.SPLIT_MIN_CELLS`
        (:func:`~repro.perf.parallel.run_split`).

        The chunks (at most ``workers``, capped at the core count) are
        balanced by estimated cells, as LOGAN balances a batch across GPUs;
        each result goes back to its pair's index, and the chunks' stats
        are merged (their ``steps`` and ``row_steps`` count each chunk's
        sweep separately).
        """
        args = (self.scoring, self.xdrop, self.trace)
        weights = [
            estimate_cells(len(q), len(t), self.xdrop, self.scoring.gap)
            for q, t in pairs
        ]
        extensions: list = [None] * len(pairs)
        stats = None
        for part, (part_extensions, part_stats) in run_split(
            self.extend, pairs, weights, args, self.workers
        ):
            for index, extension in zip(part, part_extensions):
                extensions[index] = extension
            if part_stats is not None:
                stats = part_stats if stats is None else stats.merge(part_stats)
        return extensions, stats

    def _map_jobs(
        self, func, jobs: Sequence[AlignmentJob], weights: list[int], args: tuple
    ) -> EngineBatchResult:
        """``func(job, *args)`` for every job, split by the estimated cells
        *weights* (:func:`~repro.perf.parallel.parallel_map`): the per-job
        loop of ``reference`` and ``ksw2``."""
        timer = Timer()
        with timer:
            results = parallel_map(func, jobs, weights, args=args, workers=self.workers)
        return EngineBatchResult(
            engine=self.name,
            results=results,
            summary=summarize_results(results),
            elapsed_seconds=timer.elapsed,
        )

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
                "kernel re-layouts (retired rows dropped, rows regrouped and re-centred)",
                ("kernel",),
            ).inc(stats.compactions, kernel="batched")
            reg.histogram(
                "repro_kernel_live_fraction",
                "live fraction per batch call",
                ("kernel",),
                buckets=LIVE_FRACTION_BUCKETS,
            ).observe(stats.live_fraction, kernel="batched")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(xdrop={self.xdrop})"


class ReferenceEngine(_EngineBase):
    """Per-job scalar reference loop — the semantic oracle, and the slowest."""

    name = "reference"

    def _align_batch(self, jobs: Sequence[AlignmentJob]) -> EngineBatchResult:
        return self._map_jobs(
            _extend_job,
            jobs,
            [job.estimated_cells(self.xdrop, self.scoring.gap) for job in jobs],
            (self.scoring, self.xdrop, self.trace),
        )


class BatchedEngine(_EngineBase):
    """Inter-sequence batched engine: one fused sweep over the whole batch.

    Its ``extend`` is :func:`repro.logan.kernel.sweep`: every non-empty
    extension the shared loop splits off is one row of the batch kernel,
    mirroring LOGAN's one-block-per-extension GPU layout.  A split call
    sweeps one cell-balanced chunk of extensions per worker process
    (scores and traces are unaffected).

    Every call attaches the kernel's
    :class:`~repro.core.xdrop_batch.BatchKernelStats` telemetry to the
    batch result as ``extras["kernel_stats"]`` — merged over the chunks
    when the sweep is split, and present even when every side was empty
    — and the serving layer merges it into its lifetime live fraction.
    """

    name = "batched"
    extend = staticmethod(sweep)


class WavefrontEngine(_EngineBase):
    """WFA-style furthest-reaching-point X-drop extension (unit scoring only).

    Runs :func:`repro.core.wavefront.wavefront_extend_batch`: snake-walking
    furthest-reaching points per (cost, diagonal) instead of sweeping DP
    anti-diagonals, so work scales with accumulated *cost* rather than
    sequence length — on high-identity reads this removes almost all of the
    anti-diagonal stepping and beats the batched kernel outright.

    It differs from :class:`BatchedEngine` only in its ``extend``: the
    same loop splits the jobs at their seeds, keeps empty sides away
    from the kernel and, on a split call, hands each worker process one
    cell-balanced chunk of extensions.  It keeps no kernel stats, so its
    results carry no ``extras["kernel_stats"]``; its
    ``repro_kernel_*{kernel="wavefront"}`` metrics are counted here, in
    the calling process, from the joined extensions.

    Exact on scores, end positions and early-termination for the unit
    scheme (match=+1, mismatch=-1, gap=-1) only; any other scheme raises
    :class:`ConfigurationError` at construction.
    Cost-space execution has no per-anti-diagonal band, so cells /
    anti-diagonal accounting is an honest equivalent-work estimate
    (``work_exact = False``).
    """

    name = "wavefront"
    work_exact = False
    extend = staticmethod(_sweep_wavefront)

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=trace)
        ensure_unit_scoring(self.scoring)

    def _extend_split(self, pairs: list) -> tuple[list[ExtensionResult], None]:
        swept, stats = super()._extend_split(pairs)
        if swept:
            emit_kernel_batch(
                "wavefront",
                pairs=len(swept),
                cells=sum(r.cells_computed for r in swept),
                steps=sum(r.anti_diagonals for r in swept),
            )
        return swept, stats


class Ksw2Engine(_EngineBase):
    """ksw2-style affine-gap Z-drop extension (minimap2 map-pb scoring).

    Not score-exact with the X-drop reference: the recurrence is affine-gap
    and the termination rule is Z-drop, so scores are comparable but not
    identical (``exact = False``).  ``xdrop`` is the Z-drop threshold and
    the default of ``bandwidth``, ksw2's static band half-width: the
    mapping of LOGAN's benchmark harness.

    ``affine`` is minimap2's scheme, with a non-default linear
    ``scoring``'s match and mismatch carried over (its gap terms have no
    linear equivalent); the seed scores ``affine.match`` per base.
    Extensions count DP rows as ``anti_diagonals``, and the summary's
    ``max_band_width`` is the static band, ``2 * bandwidth + 1``.  The
    paper's Table III time on 80 Skylake threads is
    ``repro.baselines.KSW2_SKYLAKE_BAND_MODEL.seconds_for(summary)``, so
    ``modeled_seconds`` stays ``None``.
    """

    name = "ksw2"
    exact = False

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
        bandwidth: int | None = None,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=trace)
        if bandwidth is not None and bandwidth < 0:
            raise ConfigurationError(
                f"bandwidth must be non-negative, got {bandwidth}"
            )
        self.bandwidth = self.xdrop if bandwidth is None else int(bandwidth)
        self.affine = AffineScoringScheme()  # minimap2 map-pb defaults
        if self.scoring != ScoringScheme():
            self.affine = replace(
                self.affine, match=self.scoring.match, mismatch=self.scoring.mismatch
            )

    def _align_batch(self, jobs: Sequence[AlignmentJob]) -> EngineBatchResult:
        batch = self._map_jobs(
            _extend_job_ksw2,
            jobs,
            # The static band is 2 * bandwidth + 1 wide.
            [job.estimated_cells(self.bandwidth) for job in jobs],
            (self.affine, self.xdrop, self.bandwidth),
        )
        batch.summary.max_band_width = 2 * self.bandwidth + 1
        return batch


class LoganEngine(BatchedEngine):
    """LOGAN: the batched sweep with the modeled V100 multi-GPU runtime.

    The one code path that runs LOGAN: a :class:`BatchedEngine` with
    tracing forced on (``trace`` is accepted for signature uniformity and
    ignored), whose results its ``model`` replays.  That
    :class:`~repro.logan.LoganModel` is built once with the engine's
    scoring and X on ``system`` (or ``gpus`` homogeneous V100s); a split
    sweep changes neither the results nor their model.  The modeled time
    lands in ``modeled_seconds`` and the :class:`~repro.logan.LoganTiming`
    in ``extras["timing"]``; ``model.replay(jobs, batch.results,
    replication)`` models a replicated workload.
    """

    name = "logan"

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
        system: MultiGpuSystem | None = None,
        gpus: int | None = None,
        threads_per_block: int | None = None,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=True)
        if system is None and gpus is not None:
            system = MultiGpuSystem.homogeneous(gpus)
        self.model = LoganModel(
            system=system,
            scoring=self.scoring,
            xdrop=self.xdrop,
            threads_per_block=threads_per_block,
        )

    def align_batch(self, jobs: Sequence[AlignmentJob]) -> EngineBatchResult:
        """The traced batched sweep, then the V100 model of its results.

        An empty batch, like every engine's, returns an empty result; its
        modeled time is 0.0 and it carries no ``extras["timing"]``.
        """
        batch = super().align_batch(jobs)
        if not jobs:
            batch.modeled_seconds = 0.0
            return batch
        timing = self.model.replay(jobs, batch.results)
        batch.modeled_seconds = timing.modeled_seconds
        batch.extras["timing"] = timing
        return batch


register_engine("reference", ReferenceEngine)
register_engine("batched", BatchedEngine)
register_engine("wavefront", WavefrontEngine)
register_engine("ksw2", Ksw2Engine)
register_engine("logan", LoganEngine)
