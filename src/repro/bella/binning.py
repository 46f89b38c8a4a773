"""Seed selection by diagonal binning (BELLA stage 3).

A candidate pair usually shares many k-mers.  Extending from every one of
them would multiply the alignment work; extending from a random one risks
picking a k-mer that belongs to a repeat rather than to the true overlap.
BELLA "chooses the optimal k-mer to begin alignment extension through a
binning mechanism, where k-mer locations are used to estimate the overlap
length and to bin k-mers to form a consensus" (Section V).

Shared k-mers that belong to the same true overlap lie near a common
diagonal (``position_in_i - position_in_j`` roughly constant up to indel
drift), so the k-mers are binned by diagonal, the most populated bin wins,
and the median k-mer of that bin becomes the seed.  The same positions also
give the overlap-length estimate used by the adaptive score threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.seed_extend import Seed
from ..errors import ConfigurationError
from .overlap import CandidateOverlap

__all__ = [
    "SeedChoice",
    "choose_seed",
    "estimate_overlap_length",
]


@dataclass(frozen=True)
class SeedChoice:
    """The seed selected for a candidate pair plus its supporting evidence.

    Attributes
    ----------
    seed:
        The chosen seed (positions on read i / read j, k-mer length).
    bin_diagonal:
        Centre diagonal of the winning bin.
    bin_support:
        Number of shared k-mers in the winning bin (the "consensus" count).
    overlap_estimate:
        Estimated overlap length in bases, from the seed position and the
        read lengths.
    """

    seed: Seed
    bin_diagonal: int
    bin_support: int
    overlap_estimate: int


def estimate_overlap_length(
    pos_i: int, pos_j: int, len_i: int, len_j: int
) -> int:
    """Estimate the overlap length implied by a shared k-mer.

    If the k-mer sits at ``pos_i`` / ``pos_j`` on the two reads, the overlap
    can extend left by ``min(pos_i, pos_j)`` bases and right by
    ``min(len_i - pos_i, len_j - pos_j)`` bases.
    """
    if len_i <= 0 or len_j <= 0:
        raise ConfigurationError("read lengths must be positive")
    left = min(pos_i, pos_j)
    right = min(len_i - pos_i, len_j - pos_j)
    return int(left + right)


def choose_seed(
    candidate: CandidateOverlap,
    kmer_length: int,
    len_i: int,
    len_j: int,
    bin_width: int = 500,
) -> SeedChoice:
    """Pick the extension seed for a candidate pair by diagonal binning.

    Parameters
    ----------
    candidate:
        The candidate overlap with its shared k-mer positions.
    kmer_length:
        k (seed length).
    len_i, len_j:
        Lengths of the two reads.
    bin_width:
        Diagonal bin width in bases; indel drift within a true overlap stays
        well below this for the read lengths and error rates involved.

    Raises
    ------
    ConfigurationError
        If the candidate carries no seed positions.
    """
    if bin_width <= 0:
        raise ConfigurationError("bin_width must be positive")
    if not candidate.seed_positions:
        raise ConfigurationError(
            f"candidate {candidate.pair} has no shared k-mer positions to bin"
        )

    positions = np.asarray(candidate.seed_positions, dtype=np.int64)
    diagonals = positions[:, 0] - positions[:, 1]
    bins = np.floor_divide(diagonals, bin_width)
    bin_ids, counts = np.unique(bins, return_counts=True)
    winner = int(bin_ids[int(np.argmax(counts))])
    support = int(counts.max())

    in_bin = positions[bins == winner]
    # Median k-mer of the consensus bin (by position on read i) is a robust
    # representative: it sits inside the overlap rather than at its fringe.
    order = np.argsort(in_bin[:, 0], kind="stable")
    median_row = in_bin[order[len(order) // 2]]
    pos_i, pos_j = int(median_row[0]), int(median_row[1])

    seed = Seed(query_pos=pos_i, target_pos=pos_j, length=kmer_length)
    return SeedChoice(
        seed=seed,
        bin_diagonal=winner * bin_width,
        bin_support=support,
        overlap_estimate=estimate_overlap_length(pos_i, pos_j, len_i, len_j),
    )
