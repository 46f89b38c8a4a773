"""Seed-and-extend alignment built on the X-drop extension kernel.

LOGAN is used inside seed-and-extend pipelines (BELLA, BLAST-style search):
a short exact match (the *seed*, typically a shared k-mer) anchors the
alignment, and the X-drop kernel extends it independently to the left and to
the right (Fig. 5 of the paper).  The left extension runs on the *reversed*
prefixes so that both extensions read their sequences forward — the same
host-side transformation LOGAN applies to obtain coalesced GPU memory
accesses (Fig. 6).

This module provides the seed representation, the host-side split /
reverse logic, and :func:`join_at_seed`, the one rule every engine uses to
recombine a seed's two extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import AlignmentError
from .encoding import SequenceLike, encode
from .result import ExtensionResult, SeedAlignmentResult, empty_extension
from .scoring import ScoringScheme
from .xdrop_vectorized import xdrop_extend

__all__ = ["Seed", "split_on_seed", "seed_score", "join_at_seed", "extend_seed"]

#: Signature shared by every extension kernel in the library.
ExtensionKernel = Callable[..., ExtensionResult]


@dataclass(frozen=True)
class Seed:
    """An exact-match anchor between a query and a target sequence.

    Attributes
    ----------
    query_pos, target_pos:
        0-based positions of the first seed base on the query and target.
    length:
        Seed length in bases (k for a k-mer seed; BELLA uses k = 17).
    """

    query_pos: int
    target_pos: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise AlignmentError(f"seed length must be positive, got {self.length}")
        if self.query_pos < 0 or self.target_pos < 0:
            raise AlignmentError(
                f"seed positions must be non-negative, got "
                f"({self.query_pos}, {self.target_pos})"
            )

    @property
    def query_end(self) -> int:
        """0-based exclusive end of the seed on the query."""
        return self.query_pos + self.length

    @property
    def target_end(self) -> int:
        """0-based exclusive end of the seed on the target."""
        return self.target_pos + self.length

    def diagonal(self) -> int:
        """Seed diagonal (query_pos - target_pos), used by BELLA's binning."""
        return self.query_pos - self.target_pos


def split_on_seed(
    query: SequenceLike, target: SequenceLike, seed: Seed
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Split a pair of sequences into left- and right-extension sub-pairs.

    Returns ``((left_query, left_target), (right_query, right_target))``
    where the left pair is already reversed (ready to be extended "forward"
    by the kernel).  Either pair may contain empty arrays when the seed
    touches an end of a sequence; callers must treat an empty extension as a
    zero-score extension rather than invoking the kernel.
    """
    q = encode(query)
    t = encode(target)
    if seed.query_end > len(q) or seed.target_end > len(t):
        raise AlignmentError(
            f"seed {seed} does not fit in sequences of length "
            f"{len(q)} / {len(t)}"
        )
    left_q = np.ascontiguousarray(q[: seed.query_pos][::-1])
    left_t = np.ascontiguousarray(t[: seed.target_pos][::-1])
    right_q = np.ascontiguousarray(q[seed.query_end :])
    right_t = np.ascontiguousarray(t[seed.target_end :])
    return (left_q, left_t), (right_q, right_t)


def seed_score(
    query: SequenceLike, target: SequenceLike, seed: Seed, scoring: ScoringScheme
) -> int:
    """Score of the seed region itself under *scoring*.

    For a genuine exact-match seed this is ``length * match``; computing it
    from the sequences keeps the accounting honest when a caller supplies an
    inexact anchor.
    """
    q = encode(query)
    t = encode(target)
    qs = q[seed.query_pos : seed.query_end]
    ts = t[seed.target_pos : seed.target_end]
    return int(scoring.substitution(qs, ts).sum())


def join_at_seed(
    seed: Seed, left: ExtensionResult, right: ExtensionResult, anchor: int
) -> SeedAlignmentResult:
    """Join a seed's left and right extensions into one alignment.

    The score is ``left + anchor + right`` (``anchor`` is the seed's own
    score), and the alignment reaches from the seed as far as each
    extension consumed: leftwards on the reversed prefixes, rightwards on
    the suffixes.
    """
    return SeedAlignmentResult(
        score=int(left.best_score + right.best_score + anchor),
        left=left,
        right=right,
        seed_score=anchor,
        query_begin=seed.query_pos - left.query_end,
        query_end=seed.query_end + right.query_end,
        target_begin=seed.target_pos - left.target_end,
        target_end=seed.target_end + right.target_end,
    )


def _extend_or_empty(
    kernel: ExtensionKernel,
    q: np.ndarray,
    t: np.ndarray,
    scoring: ScoringScheme,
    xdrop: int,
    trace: bool,
) -> ExtensionResult:
    """Run *kernel* unless either side is empty, in which case the extension
    trivially scores zero (a single origin cell)."""
    if len(q) == 0 or len(t) == 0:
        return empty_extension(trace)
    return kernel(q, t, scoring=scoring, xdrop=xdrop, trace=trace)


def extend_seed(
    query: SequenceLike,
    target: SequenceLike,
    seed: Seed,
    scoring: ScoringScheme | None = None,
    xdrop: int = 100,
    kernel: ExtensionKernel = xdrop_extend,
    trace: bool = False,
) -> SeedAlignmentResult:
    """Seed-and-extend alignment of *query* against *target* around *seed*.

    Parameters
    ----------
    query, target:
        The full sequences (strings or encoded arrays).
    seed:
        The exact-match anchor to extend from.
    scoring:
        Linear-gap scoring scheme.
    xdrop:
        X-drop threshold applied independently to both extensions.
    kernel:
        The extension kernel to use — the vectorised LOGAN kernel by default,
        or :func:`repro.core.xdrop.xdrop_extend_reference` for the oracle.
    trace:
        Forward per-anti-diagonal band traces into the extension results.

    Returns
    -------
    SeedAlignmentResult
        Combined score ``left + seed + right`` with alignment extents on
        both sequences.
    """
    scoring = scoring if scoring is not None else ScoringScheme()
    q = encode(query)
    t = encode(target)
    (left_q, left_t), (right_q, right_t) = split_on_seed(q, t, seed)

    left = _extend_or_empty(kernel, left_q, left_t, scoring, xdrop, trace)
    right = _extend_or_empty(kernel, right_q, right_t, scoring, xdrop, trace)
    return join_at_seed(seed, left, right, seed_score(q, t, seed, scoring))
