"""Batch alignment job containers shared by every alignment engine.

A *job* is one candidate pair to align: the two sequences plus the seed that
anchors the extension.  BELLA's overlap stage produces jobs, and every
alignment engine consumes the same job type, which is what makes the aligner
pluggable inside the BELLA pipeline (Section V of the paper).

``BatchWorkSummary`` aggregates the work accounting of a finished batch —
cells, iterations, alignments — in the exact units the CPU and GPU cost
models charge for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..perf.metrics import gcups as _gcups
from .encoding import encode
from .result import SeedAlignmentResult
from .seed_extend import Seed

__all__ = ["AlignmentJob", "BatchWorkSummary", "estimate_cells", "summarize_results"]


def estimate_cells(
    query_length: int, target_length: int, xdrop: int, gap_penalty: int = 1
) -> int:
    """Cheap upper-ish estimate of the DP cells one alignment evaluates.

    The band half-width is roughly ``X / |gap|`` and the alignment sweeps
    about ``query_length + target_length`` anti-diagonals, clipped by the
    full-matrix size.  It weighs a whole job for the multi-GPU load
    balancer and one extension for the engines' process split.
    """
    band = 2 * max(1, xdrop // max(1, abs(gap_penalty))) + 1
    sweep = query_length + target_length
    full = (query_length + 1) * (target_length + 1)
    return int(min(band * sweep, full))


@dataclass
class AlignmentJob:
    """One pairwise alignment task: two sequences and a seed anchor.

    Attributes
    ----------
    query, target:
        The sequences, stored encoded (``uint8``).  Construction accepts
        strings and encodes them once so downstream kernels never re-encode.
    seed:
        The exact-match anchor from which the X-drop extensions start.
    pair_id:
        Opaque identifier carried through to the result (BELLA uses the
        (row, column) index of the candidate overlap matrix).
    """

    query: np.ndarray
    target: np.ndarray
    seed: Seed
    pair_id: int = 0

    def __post_init__(self) -> None:
        self.query = encode(self.query)
        self.target = encode(self.target)

    @property
    def query_length(self) -> int:
        """Length of the query sequence in bases."""
        return int(len(self.query))

    @property
    def target_length(self) -> int:
        """Length of the target sequence in bases."""
        return int(len(self.target))

    def estimated_cells(self, xdrop: int, gap_penalty: int = 1) -> int:
        """:func:`estimate_cells` of this job, which the multi-GPU load
        balancer uses to split a batch before any alignment has run."""
        return estimate_cells(
            self.query_length, self.target_length, xdrop, gap_penalty
        )


@dataclass
class BatchWorkSummary:
    """Aggregate work performed by a batch of alignments.

    Attributes
    ----------
    alignments:
        Number of seed alignments performed (each has two extensions).
    extensions:
        Number of X-drop extensions executed (``<= 2 * alignments``; seeds
        flush against a sequence end produce a trivial empty extension).
    cells:
        Total DP cells evaluated.
    iterations:
        Total anti-diagonal (or DP-row) iterations executed.
    max_band_width:
        Widest anti-diagonal encountered (drives thread scheduling on the
        GPU and SIMD efficiency on the CPU).
    """

    alignments: int = 0
    extensions: int = 0
    cells: int = 0
    iterations: int = 0
    max_band_width: int = 0

    def merge(self, other: "BatchWorkSummary") -> "BatchWorkSummary":
        """Return a new summary combining *self* and *other*."""
        return BatchWorkSummary(
            alignments=self.alignments + other.alignments,
            extensions=self.extensions + other.extensions,
            cells=self.cells + other.cells,
            iterations=self.iterations + other.iterations,
            max_band_width=max(self.max_band_width, other.max_band_width),
        )

    def scaled(self, factor: float) -> "BatchWorkSummary":
        """Summary scaled to a larger batch of the same pair distribution.

        Used to extrapolate a measured laptop-scale run to the paper's
        100 K-pair (or 235 M-alignment) workload: the per-pair work
        distribution is identical, only the number of pairs changes.
        """
        return BatchWorkSummary(
            alignments=int(round(self.alignments * factor)),
            extensions=int(round(self.extensions * factor)),
            cells=int(round(self.cells * factor)),
            iterations=int(round(self.iterations * factor)),
            max_band_width=self.max_band_width,
        )

    def gcups(self, seconds: float) -> float:
        """Giga cell updates per second for this work executed in *seconds*.

        Delegates to :func:`repro.perf.metrics.gcups` (one clamp rule for
        the whole library: degenerate durations return ``0.0``, never
        ``inf``, so serialised reports stay valid JSON).
        """
        return _gcups(self.cells, seconds)


def summarize_results(results: Iterable[SeedAlignmentResult]) -> BatchWorkSummary:
    """Build a :class:`BatchWorkSummary` from per-alignment results."""
    summary = BatchWorkSummary()
    for res in results:
        summary.alignments += 1
        summary.extensions += 2
        summary.cells += res.left.cells_computed + res.right.cells_computed
        summary.iterations += res.left.anti_diagonals + res.right.anti_diagonals
        for ext in (res.left, res.right):
            if ext.band_widths is not None and len(ext.band_widths):
                summary.max_band_width = max(
                    summary.max_band_width, int(ext.band_widths.max())
                )
    return summary
