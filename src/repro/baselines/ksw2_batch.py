"""Batch runner and Skylake cost model for the ksw2 baseline.

Reproduces the configuration of Table III / Fig. 9: ksw2 (the SSE2-vectorised
Z-drop extension kernel of minimap2) running one alignment per thread across
80 Skylake hardware threads.  Following LOGAN's published benchmark harness,
the Z-drop threshold is swept with the same values as X and the band width is
set proportional to it — both parameters control how far from the main
diagonal the search is allowed to wander, which is what makes the two
heuristics comparable.

The cost model is *band-aware*: ksw2's striped SSE2 kernel is extremely fast
on narrow bands but loses efficiency as the band (and therefore the working
set per row) grows — rows stop fitting in L1/L2, the striped layout needs
more passes, and the lazy-F loop triggers more often.  This is what produces
the runtime explosion the paper reports for large X (3213 s at X = 5000
versus 7 s at X = 10) while LOGAN saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.job import AlignmentJob, BatchWorkSummary
from ..core.scoring import AffineScoringScheme
from ..core.seed_extend import split_on_seed
from ..errors import ConfigurationError
from ..perf.parallel import parallel_map
from ..perf.timers import Timer
from .ksw2 import Ksw2Result, ksw2_extend
from .platforms import SKYLAKE_PLATFORM, CpuPlatformSpec

__all__ = ["Ksw2CostModel", "KSW2_SKYLAKE_BAND_MODEL", "Ksw2BatchResult", "Ksw2BatchAligner"]


@dataclass(frozen=True)
class Ksw2CostModel:
    """Band-aware runtime model for ksw2 on a multi-threaded CPU.

    ``time = (cells * ns_per_cell * (1 + band / band_halfcost)
              + rows * ns_per_row + alignments * ns_per_alignment)
             / (threads * parallel_efficiency)``

    The ``(1 + band / band_halfcost)`` factor models the striped-SIMD
    efficiency loss at wide bands described in the module docstring;
    ``band_halfcost`` is the band width at which the per-cell cost doubles.
    """

    platform: CpuPlatformSpec
    threads: int = 80
    ns_per_cell: float = 0.9
    ns_per_row: float = 40.0
    ns_per_alignment: float = 3_400_000.0
    band_halfcost: float = 60.0
    parallel_efficiency: float = 0.75

    def __post_init__(self) -> None:
        if self.threads <= 0 or self.threads > self.platform.threads:
            raise ConfigurationError(
                f"threads must be in [1, {self.platform.threads}] for "
                f"{self.platform.name!r}, got {self.threads}"
            )
        if self.band_halfcost <= 0:
            raise ConfigurationError("band_halfcost must be positive")
        if not 0 < self.parallel_efficiency <= 1:
            raise ConfigurationError("parallel_efficiency must be in (0, 1]")

    def seconds(
        self, cells: int, rows: int, alignments: int, band: float
    ) -> float:
        """Modeled wall-clock seconds for a batch with the given work totals."""
        if min(cells, rows, alignments) < 0 or band < 0:
            raise ConfigurationError("work totals must be non-negative")
        cell_ns = self.ns_per_cell * (1.0 + band / self.band_halfcost)
        total_ns = (
            cells * cell_ns
            + rows * self.ns_per_row
            + alignments * self.ns_per_alignment
        )
        return total_ns / (self.threads * self.parallel_efficiency) / 1e9


#: ksw2 on 80 Skylake threads, calibrated so the 100 K-pair workload lands
#: near Table III (≈7 s floor at small X, thousands of seconds at X=5000).
KSW2_SKYLAKE_BAND_MODEL = Ksw2CostModel(platform=SKYLAKE_PLATFORM)


@dataclass
class Ksw2BatchResult:
    """Results and accounting of a ksw2 batch run."""

    results: list[tuple[Ksw2Result, Ksw2Result]]
    summary: BatchWorkSummary
    scores: list[int]
    elapsed_seconds: float
    modeled_seconds: float
    band: int

    def measured_gcups(self) -> float:
        """GCUPS of the measured Python run."""
        return self.summary.gcups(self.elapsed_seconds)

    def modeled_gcups(self) -> float:
        """GCUPS of the modeled Skylake run."""
        return self.summary.gcups(self.modeled_seconds)


def _align_one_ksw2(
    job: AlignmentJob,
    scoring: AffineScoringScheme,
    zdrop: int,
    band: int,
) -> tuple[Ksw2Result, Ksw2Result, int]:
    """Worker: left + right ksw2 extensions around the job's seed."""
    (left_q, left_t), (right_q, right_t) = split_on_seed(job.query, job.target, job.seed)
    empty = Ksw2Result(0, 0, 0, 1, 1, False)
    left = (
        ksw2_extend(left_q, left_t, scoring, zdrop=zdrop, bandwidth=band)
        if len(left_q) and len(left_t)
        else empty
    )
    right = (
        ksw2_extend(right_q, right_t, scoring, zdrop=zdrop, bandwidth=band)
        if len(right_q) and len(right_t)
        else empty
    )
    seed_pts = job.seed.length * scoring.match
    return left, right, left.best_score + right.best_score + seed_pts


class Ksw2BatchAligner:
    """Batch seed-and-extend aligner using the ksw2-style Z-drop kernel.

    Parameters
    ----------
    scoring:
        Affine scoring scheme (minimap2 map-pb defaults).
    zdrop:
        Z-drop threshold, swept with the same values as X in the paper.
    bandwidth:
        Fixed band half-width.  ``None`` (default) sets it equal to the
        Z-drop threshold, the mapping used in LOGAN's benchmark harness.
    cost_model:
        Skylake cost model for the modeled 80-thread runtime.
    workers:
        Local worker processes for the measured run.
    """

    def __init__(
        self,
        scoring: AffineScoringScheme = AffineScoringScheme(),
        zdrop: int = 100,
        bandwidth: int | None = None,
        cost_model: Ksw2CostModel = KSW2_SKYLAKE_BAND_MODEL,
        workers: int = 1,
    ) -> None:
        if bandwidth is not None and bandwidth < 0:
            raise ConfigurationError(
                f"bandwidth must be non-negative, got {bandwidth}"
            )
        self.scoring = scoring
        self.zdrop = int(zdrop)
        self.bandwidth = int(bandwidth) if bandwidth is not None else int(zdrop)
        self.cost_model = cost_model
        self.workers = int(workers)
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")

    def align_batch(self, jobs: Sequence[AlignmentJob]) -> Ksw2BatchResult:
        """Align every job and return results plus accounting."""
        timer = Timer()
        with timer:
            triples = parallel_map(
                _align_one_ksw2,
                jobs,
                # The static band is 2 * bandwidth + 1 wide.
                [job.estimated_cells(self.bandwidth) for job in jobs],
                args=(self.scoring, self.zdrop, self.bandwidth),
                workers=self.workers,
            )
        summary = BatchWorkSummary()
        results: list[tuple[Ksw2Result, Ksw2Result]] = []
        scores: list[int] = []
        for left, right, score in triples:
            results.append((left, right))
            scores.append(score)
            summary.alignments += 1
            summary.extensions += 2
            summary.cells += left.cells_computed + right.cells_computed
            summary.iterations += left.rows_computed + right.rows_computed
        summary.max_band_width = 2 * self.bandwidth + 1
        modeled = self.modeled_seconds_for(summary)
        return Ksw2BatchResult(
            results=results,
            summary=summary,
            scores=scores,
            elapsed_seconds=timer.elapsed,
            modeled_seconds=modeled,
            band=self.bandwidth,
        )

    def modeled_seconds_for(self, summary: BatchWorkSummary) -> float:
        """Modeled Skylake runtime for a (possibly extrapolated) work summary."""
        return self.cost_model.seconds(
            cells=summary.cells,
            rows=summary.iterations,
            alignments=summary.alignments,
            band=summary.max_band_width,
        )
