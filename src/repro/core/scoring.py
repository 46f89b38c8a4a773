"""Scoring schemes for pairwise alignment.

The X-drop algorithm of Zhang et al. (2000) — and LOGAN, its GPU port — uses
a *linear* gap model: a fixed reward for a match, a fixed penalty for a
mismatch, and a fixed penalty per gapped base.  BELLA's defaults
(match=+1, mismatch=-1, gap=-1) are the library defaults here.

The ksw2 baseline additionally needs an *affine* gap model (gap-open +
gap-extend), so both scheme classes are provided.  Both expose a vectorised
``substitution`` method operating on encoded ``uint8`` arrays, which is what
the anti-diagonal kernels call in their inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .encoding import WILDCARD_CODE

__all__ = [
    "ScoringScheme",
    "AffineScoringScheme",
    "DEFAULT_SCORING",
    "BLAST_SCORING",
    "MINIMAP2_SCORING",
    "block_width",
]


def block_width(xdrop: int, gap: int, warp: int = 32) -> int:
    """LOGAN's thread block for one X-drop extension (Section IV-B).

    The band estimate ``X / |gap| + 3`` cells, rounded up to a whole warp
    and at least two warps: 64 at X = 50 and 128 at X = 100 with unit
    gaps.  :func:`repro.logan.threads_for_xdrop` schedules that many
    threads per block (clamped to the device's maximum), and the batched
    kernel sweeps rows whose band outgrows it in a group of their own.
    """
    if xdrop < 0:
        raise ConfigurationError(f"xdrop must be non-negative, got {xdrop}")
    estimate = xdrop // max(1, abs(gap)) + 3
    return max(2 * warp, -(-estimate // warp) * warp)


@dataclass(frozen=True)
class ScoringScheme:
    """Linear-gap scoring scheme used by the X-drop kernels.

    Attributes
    ----------
    match:
        Score added when the two bases are identical (must be positive).
    mismatch:
        Score added when the two bases differ (must be non-positive).
    gap:
        Score added per inserted/deleted base (must be negative).
    """

    match: int = 1
    mismatch: int = -1
    gap: int = -1

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ConfigurationError(
                f"match score must be positive, got {self.match}"
            )
        if self.mismatch > 0:
            raise ConfigurationError(
                f"mismatch score must be non-positive, got {self.mismatch}"
            )
        if self.gap >= 0:
            raise ConfigurationError(f"gap score must be negative, got {self.gap}")

    def substitution(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised substitution scores for two equal-length code arrays.

        Wildcard (``N``) bases never match, mirroring SeqAn's simple DNA
        score with N treated as a mismatch.
        """
        match_mask = (a == b) & (a != WILDCARD_CODE)
        return np.where(match_mask, np.int64(self.match), np.int64(self.mismatch))

    def substitution_scalar(self, a: int, b: int) -> int:
        """Scalar substitution score (used by the reference implementation)."""
        if a == b and a != WILDCARD_CODE:
            return self.match
        return self.mismatch

    def worst_case_drop(self, min_length: int) -> int:
        """Upper bound on the score drop along any optimal extension path.

        ``min_length`` is the length of the *shorter* of the two sequences.
        The running best score never exceeds ``match * min_length`` and any
        cell on the optimal path scores at least ``final_best - match *
        min_length`` (the remaining path can gain at most that much), so the
        drop below the running best is bounded by ``2 * match * min_length``.
        An X-drop threshold at least this large therefore guarantees the
        heuristic returns the exact best prefix-extension score.  Used by the
        property-based tests as the "large X" regime.
        """
        return 2 * self.match * max(min_length, 0) + self.match - self.mismatch

    def as_tuple(self) -> tuple[int, int, int]:
        """Return ``(match, mismatch, gap)`` — handy for kernels and hashing."""
        return (self.match, self.mismatch, self.gap)


@dataclass(frozen=True)
class AffineScoringScheme:
    """Affine-gap scoring scheme (gap = gap_open + k * gap_extend).

    Used by the ksw2/minimap2-style baseline.  ``gap_open`` is the penalty
    charged when a gap is opened *in addition to* the first ``gap_extend``;
    this matches ksw2's convention where a length-``k`` gap costs
    ``gap_open + k * gap_extend``.
    """

    match: int = 2
    mismatch: int = -4
    gap_open: int = 4
    gap_extend: int = 2

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ConfigurationError(
                f"match score must be positive, got {self.match}"
            )
        if self.mismatch > 0:
            raise ConfigurationError(
                f"mismatch score must be non-positive, got {self.mismatch}"
            )
        if self.gap_open < 0 or self.gap_extend <= 0:
            raise ConfigurationError(
                "gap_open must be >= 0 and gap_extend > 0 "
                f"(got open={self.gap_open}, extend={self.gap_extend})"
            )

    def substitution(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised substitution scores for two equal-length code arrays."""
        match_mask = (a == b) & (a != WILDCARD_CODE)
        return np.where(match_mask, np.int64(self.match), np.int64(self.mismatch))

    def gap_cost(self, length: int) -> int:
        """Total (positive) cost of a gap of *length* bases."""
        if length <= 0:
            return 0
        return self.gap_open + length * self.gap_extend

    def as_linear(self) -> ScoringScheme:
        """Closest linear-gap approximation (gap = open + extend, charged per base)."""
        return ScoringScheme(
            match=self.match,
            mismatch=self.mismatch,
            gap=-(self.gap_open + self.gap_extend),
        )


#: BELLA / LOGAN default scoring (match=1, mismatch=-1, gap=-1).
DEFAULT_SCORING = ScoringScheme(match=1, mismatch=-1, gap=-1)

#: BLAST-like DNA scoring.
BLAST_SCORING = ScoringScheme(match=1, mismatch=-2, gap=-2)

#: minimap2 map-pb preset (affine), used by the ksw2 baseline.
MINIMAP2_SCORING = AffineScoringScheme(match=2, mismatch=-4, gap_open=4, gap_extend=2)
