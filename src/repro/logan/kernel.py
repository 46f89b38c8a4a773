"""Functional LOGAN kernel: one GPU block per extension.

The CUDA kernel of the paper assigns each extension to a GPU block and
computes its anti-diagonals with Algorithm 2.  In this reproduction the same
work is performed by the inter-sequence batched NumPy X-drop kernel
(:func:`repro.core.xdrop_batch.xdrop_extend_batch`), one batch row per
extension.  :func:`sweep` is that launch: the ``extend`` function of the
``batched`` and ``logan`` engines, whose shared seed-and-extend loop
splits the jobs at their seeds, keeps empty sides away from it and, on a
split call, hands each worker process one cell-balanced chunk.  With
``trace=True`` every extension also records its anti-diagonal width trace,
which is what the GPU execution model
(:meth:`repro.logan.LoganModel.replay`) replays to estimate V100 time.

The kernel is *functionally exact*: the scores and end positions it returns
are the library's single source of truth and are identical to the scalar
SeqAn-style reference (tests enforce this), which reproduces the paper's
"equivalent accuracy" statement.
"""

from __future__ import annotations

from typing import Sequence

from ..core.result import ExtensionResult
from ..core.scoring import ScoringScheme
from ..core.xdrop_batch import BatchKernelStats, xdrop_extend_batch

__all__ = ["sweep"]


def sweep(
    pairs: Sequence[tuple],
    scoring: ScoringScheme,
    xdrop: int,
    trace: bool,
) -> tuple[list[ExtensionResult], BatchKernelStats]:
    """One batched anti-diagonal sweep over *pairs*, every pair one row
    (LOGAN's one-block-per-extension layout), with its own
    :class:`~repro.core.xdrop_batch.BatchKernelStats` (picklable)."""
    stats = BatchKernelStats()
    results = xdrop_extend_batch(
        pairs, scoring=scoring, xdrop=xdrop, trace=trace, stats=stats
    )
    return results, stats
