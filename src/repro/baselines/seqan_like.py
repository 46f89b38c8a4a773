"""SeqAn-like CPU batch X-drop aligner (the paper's primary baseline).

BELLA drives SeqAn's ``extendSeed`` X-drop routine with one OpenMP thread
per alignment; the LOGAN paper benchmarks against that configuration on a
168-thread POWER9 node (Table II / Fig. 8).  This module provides

* :class:`SeqAnBatchAligner` — a CPU batch runner that executes the *real*
  X-drop algorithm (the scalar-equivalent vectorised kernel) over a batch of
  :class:`~repro.core.job.AlignmentJob`, optionally across local processes
  (the laptop analogue of the OpenMP loop), and
* a hook into the POWER9 cost model so the same run also reports the
  *modeled* 168-thread POWER9 runtime for the measured work trace.

Scores are identical to LOGAN's by construction — both call the same X-drop
recurrence — which reproduces the paper's "equivalent accuracy" claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.job import AlignmentJob, BatchWorkSummary, summarize_results
from ..core.result import SeedAlignmentResult
from ..core.scoring import ScoringScheme
from ..core.seed_extend import extend_seed
from ..core.xdrop_vectorized import xdrop_extend
from ..errors import ConfigurationError
from ..perf.parallel import parallel_map
from ..perf.timers import Timer
from .platforms import SEQAN_POWER9_MODEL, CpuCostModel

__all__ = ["SeqAnBatchResult", "SeqAnBatchAligner"]


@dataclass
class SeqAnBatchResult:
    """Results and accounting of one SeqAn-like CPU batch run.

    Attributes
    ----------
    results:
        Per-job seed alignment results, in job order.
    summary:
        Aggregate work accounting for the batch.
    elapsed_seconds:
        Measured wall-clock of the Python run (laptop scale).
    modeled_seconds:
        Modeled wall-clock of the same work on the paper's POWER9 platform
        with 168 threads.
    """

    results: list[SeedAlignmentResult]
    summary: BatchWorkSummary
    elapsed_seconds: float
    modeled_seconds: float

    def measured_gcups(self) -> float:
        """GCUPS of the measured Python run."""
        return self.summary.gcups(self.elapsed_seconds)

    def modeled_gcups(self) -> float:
        """GCUPS of the modeled POWER9 run."""
        return self.summary.gcups(self.modeled_seconds)


def _align_one(
    job: AlignmentJob, scoring: ScoringScheme, xdrop: int, trace: bool
) -> SeedAlignmentResult:
    """Worker: run one seed-and-extend alignment (picklable for process pools)."""
    return extend_seed(
        job.query,
        job.target,
        job.seed,
        scoring=scoring,
        xdrop=xdrop,
        kernel=xdrop_extend,
        trace=trace,
    )


class SeqAnBatchAligner:
    """Batch X-drop aligner mimicking BELLA's SeqAn + OpenMP configuration.

    Parameters
    ----------
    scoring:
        Linear-gap scoring scheme (BELLA default +1/-1/-1).
    xdrop:
        X-drop threshold.
    cost_model:
        CPU cost model used to translate the measured work trace into a
        modeled POWER9 runtime; defaults to the 168-thread model calibrated
        against Table II.
    workers:
        Local worker processes for the measured run (1 = run in-process).
        This parallelism affects only the measured wall-clock, never the
        scores or the modeled runtime.
    trace:
        Record per-anti-diagonal band widths (needed when the same results
        are fed to the GPU model, e.g. in comparison benchmarks).
    """

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        cost_model: CpuCostModel = SEQAN_POWER9_MODEL,
        workers: int = 1,
        trace: bool = False,
    ) -> None:
        self.scoring = scoring if scoring is not None else ScoringScheme()
        self.xdrop = int(xdrop)
        self.cost_model = cost_model
        self.workers = int(workers)
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.trace = bool(trace)

    def align_batch(self, jobs: Sequence[AlignmentJob]) -> SeqAnBatchResult:
        """Align every job in the batch and return results plus accounting."""
        timer = Timer()
        with timer:
            results = parallel_map(
                _align_one,
                jobs,
                [job.estimated_cells(self.xdrop, self.scoring.gap) for job in jobs],
                args=(self.scoring, self.xdrop, self.trace),
                workers=self.workers,
            )
        summary = summarize_results(results)
        modeled = self.cost_model.seconds(
            cells=summary.cells,
            iterations=summary.iterations,
            alignments=summary.alignments,
        )
        return SeqAnBatchResult(
            results=list(results),
            summary=summary,
            elapsed_seconds=timer.elapsed,
            modeled_seconds=modeled,
        )

    def modeled_seconds_for(self, summary: BatchWorkSummary) -> float:
        """Modeled POWER9 runtime for an externally-produced work summary.

        Used by benchmarks that measure a scaled-down batch and extrapolate
        the summary to the paper's pair count before asking for the model
        time.
        """
        return self.cost_model.seconds(
            cells=summary.cells,
            iterations=summary.iterations,
            alignments=summary.alignments,
        )
