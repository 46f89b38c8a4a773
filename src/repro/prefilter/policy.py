"""Admission triage: classify candidate pairs before the X-drop kernel.

The :class:`PrefilterPolicy` combines three cheap signals to sort every
candidate pair into one of three admission outcomes:

``duplicate``
    Sketch distance at or below ``duplicate_distance`` — the pair is
    near-identical, so its alignment is a textbook content-address hit:
    route it through the normal cache/durable-store path rather than
    skipping it (the first copy still aligns; the rest are free).
``reject``
    The pair provably cannot pass the BELLA :class:`AdaptiveThreshold`
    (overlap-bound or score-bound, exact arithmetic on lengths), or its
    sketch distance is at or above ``reject_distance`` (heuristic,
    validated against the workload bank's ground truth).  Under an
    ``enforce`` admission mode such a pair gets the instant
    :func:`rejected_result` — seed-only, zero extension work.
``contested``
    Everything else, including pairs where a sketch carries no signal
    (sequence shorter than ``k`` or all wildcards): the expensive kernel
    is the only way to know, so the pair is admitted.

The provable bounds mirror ``repro.bella.threshold.AdaptiveThreshold``:
a pair whose maximum possible overlap length ``(lq + lt) // 2`` is below
``min_overlap`` can never satisfy ``passes()``, and one whose maximum
possible score ``match * min(lq, lt)`` is below the threshold at
``min_overlap`` has no feasible passing (score, overlap) point at all.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

from ..bella.threshold import AdaptiveThreshold
from ..core.job import AlignmentJob
from ..core.result import ExtensionResult, SeedAlignmentResult
from ..core.scoring import ScoringScheme
from ..core.seed_extend import join_at_seed
from ..errors import ConfigurationError
from .sketch import (
    MAX_SKETCH_K,
    KmerSketch,
    sketch_distance,
    sketch_sequence,
)

__all__ = [
    "PREFILTER_MODES",
    "PREFILTER_OUTCOMES",
    "PrefilterDecision",
    "PrefilterPolicy",
    "rejected_result",
]

#: Admission modes the service can run the policy under.
PREFILTER_MODES = ("off", "advise", "enforce")

#: The three triage outcomes, in the order surfaced by stats payloads.
PREFILTER_OUTCOMES = ("reject", "duplicate", "contested")

_METRICS = ("d2", "d2star")


@dataclass(frozen=True)
class PrefilterDecision:
    """One pair's triage verdict.

    ``distance`` is ``None`` when either sketch was empty (no k-mer
    signal); ``reason`` names which rule fired: ``"sketch-distance"``,
    ``"overlap-bound"``, ``"score-bound"``, ``"no-sketch"``, or
    ``"admitted"``.
    """

    outcome: str
    distance: float | None
    reason: str


@dataclass(frozen=True)
class PrefilterPolicy:
    """Thresholds and sketch parameters for admission triage.

    ``error_rate``, ``slack`` and ``min_overlap`` describe the BELLA
    acceptance threshold the triage is protecting — they must match the
    downstream :class:`AdaptiveThreshold` for the provable bounds to be
    sound.  ``reject_distance``/``duplicate_distance`` bracket the d2
    scale: empirically, 15%-error reads off one template sit near 0.3
    at k=7 while unrelated or hopelessly diverged pairs crowd 0.45-0.5.
    """

    k: int = 7
    metric: str = "d2"
    reject_distance: float = 0.45
    duplicate_distance: float = 0.02
    error_rate: float = 0.15
    slack: float = 0.7
    min_overlap: int = 500

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_SKETCH_K:
            raise ConfigurationError(
                f"prefilter k must be in [1, {MAX_SKETCH_K}], got {self.k}"
            )
        if self.metric not in _METRICS:
            raise ConfigurationError(
                f"prefilter metric must be one of {_METRICS}, "
                f"got {self.metric!r}"
            )
        if not 0.0 <= self.duplicate_distance < self.reject_distance <= 1.0:
            raise ConfigurationError(
                "prefilter distances must satisfy 0 <= duplicate_distance"
                f" < reject_distance <= 1; got duplicate="
                f"{self.duplicate_distance}, reject={self.reject_distance}"
            )
        if not 0.0 <= self.error_rate < 1.0:
            raise ConfigurationError(
                f"prefilter error_rate must be in [0, 1), got "
                f"{self.error_rate}"
            )
        if self.min_overlap < 0:
            raise ConfigurationError(
                f"prefilter min_overlap must be >= 0, got {self.min_overlap}"
            )

    @classmethod
    def from_options(
        cls, options: Mapping[str, Any] | None
    ) -> "PrefilterPolicy":
        """Build a policy from a loose option mapping (CLI / config dict)."""
        opts = dict(options or {})
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(opts) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown prefilter option(s) {unknown}; "
                f"available: {sorted(known)}"
            )
        return cls(**opts)

    def threshold(self, scoring: ScoringScheme) -> AdaptiveThreshold:
        """The BELLA acceptance threshold this policy is calibrated to."""
        return AdaptiveThreshold(
            error_rate=self.error_rate,
            scoring=scoring,
            slack=self.slack,
            min_overlap=self.min_overlap,
        )

    def sketch(self, sequence) -> KmerSketch:
        """Sketch one sequence with this policy's k."""
        return sketch_sequence(sequence, self.k)

    def distance(self, a: KmerSketch, b: KmerSketch) -> float:
        """Distance between two sketches under this policy's metric."""
        return sketch_distance(a, b, self.metric)

    def classify(
        self, job: AlignmentJob, scoring: ScoringScheme
    ) -> PrefilterDecision:
        """Triage one candidate pair.

        Duplicate detection runs first so that short identical pairs —
        which the overlap bound would also reject — keep their cheap
        content-address routing.
        """
        qs = self.sketch(job.query)
        ts = self.sketch(job.target)
        dist: float | None
        if qs.empty or ts.empty:
            dist = None
        else:
            dist = self.distance(qs, ts)
        if dist is not None and dist <= self.duplicate_distance:
            return PrefilterDecision("duplicate", dist, "sketch-distance")
        lq = len(job.query)
        lt = len(job.target)
        if (lq + lt) // 2 < self.min_overlap:
            return PrefilterDecision("reject", dist, "overlap-bound")
        thr = self.threshold(scoring)
        if scoring.match * min(lq, lt) < thr.threshold_for(self.min_overlap):
            return PrefilterDecision("reject", dist, "score-bound")
        if dist is not None and dist >= self.reject_distance:
            return PrefilterDecision("reject", dist, "sketch-distance")
        return PrefilterDecision(
            "contested", dist, "admitted" if dist is not None else "no-sketch"
        )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def rejected_result(
    job: AlignmentJob, scoring: ScoringScheme
) -> SeedAlignmentResult:
    """The instant result an enforced rejection resolves to.

    Seed-only: both extensions are empty, the score is just the exact
    seed match, and the alignment spans exactly the seed.  Deterministic
    in the job and scoring alone, so the conformance harness can
    reconstruct it to tell an enforced rejection from a real mismatch.
    """
    empty = ExtensionResult(
        best_score=0,
        query_end=0,
        target_end=0,
        anti_diagonals=0,
        cells_computed=0,
    )
    return join_at_seed(job.seed, empty, empty, scoring.match * job.seed.length)
