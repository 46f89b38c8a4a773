"""End-to-end BELLA pipeline with a pluggable alignment kernel (Section V).

The pipeline chains the four BELLA stages implemented in this subpackage —

1. reliable k-mer analysis (:mod:`repro.bella.kmer`),
2. SpGEMM candidate-overlap detection (:mod:`repro.bella.overlap`),
3. seed selection by diagonal binning (:mod:`repro.bella.binning`),
4. batched X-drop alignment + adaptive-threshold classification
   (:mod:`repro.bella.threshold`)

— and exposes the alignment kernel as a plug-in, exactly the modification
the paper makes to BELLA: the original version hands alignments to SeqAn one
by one inside an OpenMP loop, the LOGAN version batches the entire set of
candidate alignments and ships them to the GPU(s).  The kernel is whichever
registered engine the pipeline's :class:`repro.api.AlignConfig` names; every
exact engine produces identical scores, so the pipeline output is
independent of the kernel choice — the property the paper states as "our
optimized BELLA version with LOGAN integration produces equivalent results
as the original version", and which the integration tests check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.job import AlignmentJob, BatchWorkSummary, summarize_results
from ..core.result import SeedAlignmentResult
from ..errors import ConfigurationError
from ..obs.runtime import get_observability
from ..perf.timers import StageTimer
from .binning import SeedChoice, choose_seed
from .kmer import KmerIndex, build_kmer_index
from .overlap import CandidateOverlap, OverlapMatrix, find_candidate_overlaps
from .threshold import AdaptiveThreshold

__all__ = ["BellaOverlap", "BellaResult", "BellaPipeline"]


@dataclass
class BellaOverlap:
    """One classified overlap produced by the pipeline."""

    read_i: int
    read_j: int
    score: int
    overlap_estimate: int
    shared_kmers: int
    accepted: bool
    alignment: SeedAlignmentResult


@dataclass
class BellaResult:
    """Output of one BELLA pipeline run.

    Attributes
    ----------
    overlaps:
        Every aligned candidate with its classification flag.
    index:
        The reliable-k-mer index (stage-1 output).
    candidates:
        The SpGEMM candidate matrix (stage-2 output).
    work:
        Aggregate alignment work (cells, extensions) of stage 4.
    timer:
        Per-stage wall-clock breakdown of the Python run.
    alignment_modeled_seconds:
        Modeled V100 time of the alignment stage, which only the ``logan``
        engine reports; ``None`` for every other engine, ``0.0`` when no
        candidate reached the aligner.
    """

    overlaps: list[BellaOverlap]
    index: KmerIndex
    candidates: OverlapMatrix
    work: BatchWorkSummary
    timer: StageTimer
    alignment_modeled_seconds: float | None = None

    @property
    def accepted(self) -> list[BellaOverlap]:
        """Only the overlaps that passed the adaptive threshold."""
        return [o for o in self.overlaps if o.accepted]

    @property
    def num_alignments(self) -> int:
        """Number of candidate pairs that were aligned."""
        return len(self.overlaps)

    def accepted_pairs(self) -> set[tuple[int, int]]:
        """Set of accepted (read_i, read_j) pairs — the pipeline's biological output."""
        return {(o.read_i, o.read_j) for o in self.accepted}


class BellaPipeline:
    """Configurable BELLA overlapper with a pluggable alignment engine.

    Parameters
    ----------
    k:
        k-mer length (BELLA default 17).
    reliable_lower, reliable_upper:
        Multiplicity bounds of the reliable-k-mer filter.
    min_shared_kmers:
        Minimum shared reliable k-mers for a candidate pair.
    threshold:
        Adaptive classification threshold; a default one is built from
        ``error_rate`` and the config's scoring.
    error_rate:
        Assumed per-read error rate (drives the default threshold).
    min_overlap:
        Minimum estimated overlap length to accept.
    config:
        The :class:`repro.api.AlignConfig` supplying the whole alignment
        surface — engine (plus options), scoring, xdrop and the diagonal
        ``bin_width`` — in one object (default: ``AlignConfig()``, the
        ``batched`` engine).
    """

    def __init__(
        self,
        *,
        k: int = 17,
        reliable_lower: int = 2,
        reliable_upper: int | None = None,
        min_shared_kmers: int = 1,
        threshold: AdaptiveThreshold | None = None,
        error_rate: float = 0.15,
        min_overlap: int = 500,
        config=None,
    ) -> None:
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if config is None:
            from ..api import AlignConfig

            config = AlignConfig()
        self.k = int(k)
        self.reliable_lower = int(reliable_lower)
        self.reliable_upper = reliable_upper
        self.min_shared_kmers = int(min_shared_kmers)
        self.config = config
        self.bin_width = config.bin_width
        self.scoring = config.scoring
        self.xdrop = config.xdrop
        self.threshold = threshold or AdaptiveThreshold(
            error_rate=error_rate, scoring=self.scoring, min_overlap=min_overlap
        )
        self._aligner = None

    @classmethod
    def from_config(cls, config, **pipeline_options) -> "BellaPipeline":
        """Build a pipeline whose alignment stage follows *config*.

        ``pipeline_options`` are the non-alignment knobs (``k``,
        ``reliable_lower``, ``error_rate``, ``min_overlap``, ...).
        """
        return cls(config=config, **pipeline_options)

    # ------------------------------------------------------------------ #
    @property
    def aligner(self):
        """The configured alignment engine (built lazily on first use)."""
        if self._aligner is None:
            # Deferred import: repro.engine pulls in every aligner layer.
            from ..engine.base import engine_from_config

            self._aligner = engine_from_config(self.config)
        return self._aligner

    # ------------------------------------------------------------------ #
    def run(self, reads: Sequence) -> BellaResult:
        """Run the full pipeline over a read set.

        ``reads`` may be encoded arrays, strings, or objects with a
        ``sequence`` attribute (e.g. :class:`~repro.data.reads.SimulatedRead`).
        """
        from ..core.encoding import encode

        sequences = [encode(getattr(r, "sequence", r)) for r in reads]
        if len(sequences) < 2:
            raise ConfigurationError("BELLA needs at least two reads")
        timer = StageTimer()
        ob = get_observability()

        with ob.span("bella.run", reads=len(sequences)):
            with ob.span("bella.kmer_analysis"), timer.stage("kmer_analysis"):
                index = build_kmer_index(
                    sequences,
                    k=self.k,
                    lower=self.reliable_lower,
                    upper=self.reliable_upper,
                )

            with ob.span("bella.overlap_detection"), timer.stage(
                "overlap_detection"
            ):
                candidates = find_candidate_overlaps(
                    index, min_shared_kmers=self.min_shared_kmers
                )

            with ob.span("bella.seed_selection"), timer.stage("seed_selection"):
                jobs, choices, kept = self._build_jobs(
                    sequences, candidates.candidates
                )

            results: list[SeedAlignmentResult] = []
            modeled: float | None = 0.0
            if jobs:
                with ob.span("bella.alignment", jobs=len(jobs)), timer.stage(
                    "alignment"
                ):
                    batch = self.aligner.align_batch(jobs)
                    results = list(batch.results)
                    modeled = getattr(batch, "modeled_seconds", None)

            with ob.span("bella.classification"), timer.stage("classification"):
                overlaps = []
                for candidate, choice, result in zip(kept, choices, results):
                    accepted = self.threshold.passes(
                        result.score, choice.overlap_estimate
                    )
                    overlaps.append(
                        BellaOverlap(
                            read_i=candidate.read_i,
                            read_j=candidate.read_j,
                            score=result.score,
                            overlap_estimate=choice.overlap_estimate,
                            shared_kmers=candidate.shared_kmers,
                            accepted=accepted,
                            alignment=result,
                        )
                    )

        # Per-run stage breakdown folded into the process-wide registry so
        # exported snapshots carry the pipeline's stage heat.
        reg = ob.registry
        reg.counter("repro_bella_runs_total", "pipeline runs completed").inc()
        stage_seconds = reg.counter(
            "repro_bella_stage_seconds_total",
            "wall seconds per pipeline stage",
            ("stage",),
        )
        for name, secs in timer.stages.items():
            stage_seconds.inc(secs, stage=name)

        return BellaResult(
            overlaps=overlaps,
            index=index,
            candidates=candidates,
            work=summarize_results(results),
            timer=timer,
            alignment_modeled_seconds=modeled,
        )

    # ------------------------------------------------------------------ #
    def _build_jobs(
        self,
        sequences: Sequence,
        candidates: Sequence[CandidateOverlap],
    ) -> tuple[list[AlignmentJob], list[SeedChoice], list[CandidateOverlap]]:
        """Turn candidate overlaps into alignment jobs via seed binning."""
        jobs: list[AlignmentJob] = []
        choices: list[SeedChoice] = []
        kept: list[CandidateOverlap] = []
        for pair_id, candidate in enumerate(candidates):
            if not candidate.seed_positions:
                continue
            query = sequences[candidate.read_i]
            target = sequences[candidate.read_j]
            choice = choose_seed(
                candidate,
                kmer_length=self.k,
                len_i=len(query),
                len_j=len(target),
                bin_width=self.bin_width,
            )
            jobs.append(
                AlignmentJob(
                    query=np.asarray(query),
                    target=np.asarray(target),
                    seed=choice.seed,
                    pair_id=pair_id,
                )
            )
            choices.append(choice)
            kept.append(candidate)
        return jobs, choices, kept
