"""Result containers returned by the alignment kernels.

Every kernel in the library — the scalar reference, the vectorised LOGAN
kernel, the full-DP baselines and ksw2 — reports its outcome through the
dataclasses defined here so downstream code (BELLA, the GPU execution model,
the benchmark harness) can treat them uniformly.

The containers deliberately carry *work accounting* alongside the biological
answer: ``cells_computed`` and the per-anti-diagonal ``band_widths`` trace are
what the GPU performance model replays to estimate V100 wall-clock, and what
the GCUPS metric divides by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "NEG_INF",
    "ExtensionResult",
    "SeedAlignmentResult",
    "FullAlignmentResult",
    "empty_extension",
]

#: Sentinel used for pruned / unreachable DP cells.  A quarter of the int64
#: range so that adding a handful of scores can never overflow.
NEG_INF: int = int(np.iinfo(np.int64).min // 4)


@dataclass
class ExtensionResult:
    """Outcome of a single X-drop (or Z-drop) extension in one direction.

    Attributes
    ----------
    best_score:
        Highest alignment score reached before termination.
    query_end, target_end:
        Number of query / target bases consumed by the best-scoring cell
        (i.e. the extension reached ``query[:query_end]`` / ``target[:target_end]``).
    anti_diagonals:
        Number of anti-diagonal iterations executed before the X-drop
        condition emptied the band (or the matrix was exhausted).  ksw2
        sweeps DP rows instead, so for it this counts the rows evaluated
        (row 0 included) before the Z-drop rule fired.
    cells_computed:
        Total DP cells evaluated — the numerator of the CUPS metric.
    terminated_early:
        ``True`` when the X-drop condition stopped the extension before the
        end of the shorter sequence was reached.
    band_widths:
        Optional per-anti-diagonal band width trace (length ``anti_diagonals``)
        used by the GPU execution model; ``None`` unless tracing was requested.
    """

    best_score: int
    query_end: int
    target_end: int
    anti_diagonals: int
    cells_computed: int
    terminated_early: bool = False
    band_widths: Optional[np.ndarray] = None

    def gcups(self, seconds: float) -> float:
        """Cells computed per second, in units of 1e9 (giga cell updates)."""
        if seconds <= 0:
            return float("inf")
        return self.cells_computed / seconds / 1e9

    def __post_init__(self) -> None:
        if self.band_widths is not None:
            self.band_widths = np.asarray(self.band_widths, dtype=np.int64)


def empty_extension(trace: bool = True) -> ExtensionResult:
    """The extension of a side with nothing to extend (a seed flush with a
    read end): it scores zero in a single origin cell."""
    return ExtensionResult(
        best_score=0,
        query_end=0,
        target_end=0,
        anti_diagonals=1,
        cells_computed=1,
        terminated_early=False,
        band_widths=np.asarray([1], dtype=np.int64) if trace else None,
    )


@dataclass
class SeedAlignmentResult:
    """Combined result of a seed-and-extend alignment (left + seed + right).

    This mirrors what LOGAN returns to BELLA: a single score for the pair,
    plus the extents of the alignment on both sequences, from which BELLA's
    adaptive threshold decides whether the candidate overlap is genuine.
    """

    score: int
    left: ExtensionResult
    right: ExtensionResult
    seed_score: int
    query_begin: int
    query_end: int
    target_begin: int
    target_end: int

    @property
    def query_span(self) -> int:
        """Number of query bases covered by the alignment."""
        return self.query_end - self.query_begin

    @property
    def target_span(self) -> int:
        """Number of target bases covered by the alignment."""
        return self.target_end - self.target_begin

    @property
    def overlap_length(self) -> int:
        """Length of the putative overlap: the mean of the two spans.

        BELLA estimates the overlap length from the alignment extents; the
        mean of the two spans is a robust symmetric choice that its adaptive
        threshold multiplies by the expected per-base score.
        """
        return (self.query_span + self.target_span) // 2

    @property
    def cells_computed(self) -> int:
        """Total DP cells across both extensions."""
        return self.left.cells_computed + self.right.cells_computed


@dataclass
class FullAlignmentResult:
    """Outcome of an exact full-DP alignment (Smith–Waterman / Needleman–Wunsch).

    Used as the accuracy oracle in tests and in the Fig. 2 search-space
    comparison; ``cells_computed`` for a full DP is simply ``m * n`` (or the
    banded cell count for banded SW).
    """

    best_score: int
    query_end: int
    target_end: int
    cells_computed: int
    query_begin: int = 0
    target_begin: int = 0
    matrix: Optional[np.ndarray] = field(default=None, repr=False)

    def gcups(self, seconds: float) -> float:
        """Cells computed per second, in units of 1e9 (giga cell updates)."""
        if seconds <= 0:
            return float("inf")
        return self.cells_computed / seconds / 1e9
