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
        Modeled alignment-stage time on the engine's native platform
        (V100(s) for ``logan``, Skylake for ``ksw2``); ``None`` for engines
        without a platform model and for service-backed runs.
    prefilter:
        Admission-triage summary of the optional prefilter stage
        (``{"mode": ..., "decisions": {outcome: count}}``), ``None``
        when the stage is off.
    """

    overlaps: list[BellaOverlap]
    index: KmerIndex
    candidates: OverlapMatrix
    work: BatchWorkSummary
    timer: StageTimer
    alignment_modeled_seconds: float | None = None
    prefilter: dict | None = None

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
    service:
        An :class:`~repro.service.AlignmentService` to route stage-4
        alignments through instead of a direct ``align_batch`` call: jobs
        are submitted individually and gathered via :meth:`map`, so
        repeated pipeline runs benefit from the service's result cache and
        batching.  The pipeline then classifies with the service's own
        config; a *config* that differs from it raises.
    prefilter:
        Admission triage mode of the optional k-mer-sketch stage between
        seed selection and alignment: ``"off"`` (default), ``"advise"``
        (classify and count, align everything) or ``"enforce"``
        (``reject``-class pairs skip the aligner and get the seed-only
        placeholder result).  When the alignment backend is a *service*
        that runs its own admission policy, leave this off — the service
        classifies at submit time.
    prefilter_policy:
        A :class:`repro.prefilter.PrefilterPolicy` overriding the default
        one, which is derived from this pipeline's adaptive threshold
        (same ``error_rate``/``slack``/``min_overlap``).
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
        service=None,
        config=None,
        prefilter: str = "off",
        prefilter_policy=None,
    ) -> None:
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if prefilter not in ("off", "advise", "enforce"):
            raise ConfigurationError(
                "prefilter must be one of off, advise, enforce, "
                f"got {prefilter!r}"
            )
        if service is not None:
            if config is not None and config != service.config:
                raise ConfigurationError(
                    "config: differs from the service's config; the pipeline "
                    "classifies with the scoring the service aligns with, so "
                    "pass only service= (or the same config to both)"
                )
            config = service.config
        elif config is None:
            from ..api import AlignConfig

            config = AlignConfig()
        if config.bin_width <= 0:
            # AlignConfig allows bin_width=0 (disables *service* batch
            # binning); BELLA's diagonal seed binning needs a real width,
            # so fail here with the field named instead of deep in run().
            raise ConfigurationError(
                f"bin_width: must be positive for BELLA's diagonal seed "
                f"binning (0 only disables service batch binning), "
                f"got {config.bin_width}"
            )
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
        self.prefilter = prefilter
        self._prefilter_policy = prefilter_policy
        self._aligner = None
        self._service = service

    @property
    def prefilter_policy(self):
        """The admission policy of the prefilter stage.

        Defaults to one calibrated to this pipeline's adaptive threshold,
        so the provable rejection bounds match what classification would
        decide anyway.
        """
        if self._prefilter_policy is None:
            from ..prefilter import PrefilterPolicy

            self._prefilter_policy = PrefilterPolicy(
                error_rate=self.threshold.error_rate,
                slack=self.threshold.slack,
                min_overlap=self.threshold.min_overlap,
            )
        return self._prefilter_policy

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

            decisions: list = []
            prefilter_summary = None
            if self.prefilter != "off" and jobs:
                with ob.span("bella.prefilter", jobs=len(jobs)), timer.stage(
                    "prefilter"
                ):
                    policy = self.prefilter_policy
                    decisions = [
                        policy.classify(job, self.scoring) for job in jobs
                    ]
                    counts = {"reject": 0, "duplicate": 0, "contested": 0}
                    for decision in decisions:
                        counts[decision.outcome] += 1
                    prefilter_summary = {
                        "mode": self.prefilter,
                        "decisions": counts,
                    }

            if jobs:
                with ob.span("bella.alignment", jobs=len(jobs)), timer.stage(
                    "alignment"
                ):
                    if self.prefilter == "enforce" and decisions:
                        results, modeled = self._align_admitted(
                            jobs, decisions
                        )
                    elif self._service is not None:
                        # Service-backed path: per-job submission; the service
                        # batches and caches behind the scenes.
                        results = self._service.map(jobs)
                        modeled = None
                    else:
                        batch = self.aligner.align_batch(jobs)
                        results = list(batch.results)
                        modeled = getattr(batch, "modeled_seconds", None)
            else:
                results = []
                modeled = 0.0

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
        if prefilter_summary is not None:
            triage = reg.counter(
                "repro_bella_prefilter_total",
                "pipeline admission triage decisions, by outcome",
                ("outcome",),
            )
            for outcome, count in prefilter_summary["decisions"].items():
                if count:
                    triage.inc(count, outcome=outcome)

        return BellaResult(
            overlaps=overlaps,
            index=index,
            candidates=candidates,
            work=summarize_results(results),
            timer=timer,
            alignment_modeled_seconds=modeled,
            prefilter=prefilter_summary,
        )

    def _align_admitted(self, jobs, decisions):
        """Enforced-prefilter alignment: rejects skip the aligner.

        The admitted subset runs through the normal backend (service or
        batch aligner); rejected jobs get the deterministic seed-only
        placeholder, and the two result streams are merged back in job
        order.
        """
        from ..prefilter import rejected_result

        admitted = [
            job
            for job, decision in zip(jobs, decisions)
            if decision.outcome != "reject"
        ]
        if self._service is not None:
            admitted_results = iter(self._service.map(admitted))
            modeled = None
        elif admitted:
            batch = self.aligner.align_batch(admitted)
            admitted_results = iter(batch.results)
            modeled = getattr(batch, "modeled_seconds", None)
        else:
            admitted_results = iter(())
            modeled = 0.0
        results = [
            rejected_result(job, self.scoring)
            if decision.outcome == "reject"
            else next(admitted_results)
            for job, decision in zip(jobs, decisions)
        ]
        return results, modeled

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
