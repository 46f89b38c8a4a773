"""Functional LOGAN kernel: one GPU block per extension.

The CUDA kernel of the paper assigns each extension to a GPU block and
computes its anti-diagonals with Algorithm 2.  In this reproduction the same
work is performed by the inter-sequence batched NumPy X-drop kernel
(:func:`repro.core.xdrop_batch.xdrop_extend_batch`), one batch row per
extension.  With ``trace=True`` every extension also records its
anti-diagonal width trace, which is what the GPU execution model
(:meth:`repro.logan.LoganAligner.model_existing`) replays to estimate V100
time.

The kernel is *functionally exact*: the scores and end positions it returns
are the library's single source of truth and are identical to the scalar
SeqAn-style reference (tests enforce this), which reproduces the paper's
"equivalent accuracy" statement.
"""

from __future__ import annotations

from typing import Sequence

from ..core.result import ExtensionResult, empty_extension
from ..core.scoring import ScoringScheme
from ..core.xdrop_batch import BatchKernelStats, xdrop_extend_batch
from ..perf.parallel import chunk_evenly, parallel_map
from .host import ExtensionTask

__all__ = ["execute_tasks_batched"]


def _run_pair_chunk(
    pairs: list,
    scoring: ScoringScheme,
    xdrop: int,
    trace: bool,
) -> tuple[list[ExtensionResult], BatchKernelStats]:
    """Worker: one batched sweep over a chunk of pairs, with its own
    telemetry (picklable)."""
    stats = BatchKernelStats()
    results = xdrop_extend_batch(
        pairs, scoring=scoring, xdrop=xdrop, trace=trace, stats=stats
    )
    return results, stats


def execute_tasks_batched(
    tasks: Sequence[ExtensionTask],
    scoring: ScoringScheme,
    xdrop: int,
    workers: int = 1,
    trace: bool = True,
    stats: BatchKernelStats | None = None,
) -> list[ExtensionResult]:
    """Inter-sequence execution: every extension is one row of a batched
    anti-diagonal sweep (LOGAN's one-block-per-extension layout).

    With ``workers > 1`` the live tasks are split into contiguous chunks and
    each chunk is swept by one worker process — chunking never changes
    scores or traces, only the measured wall-clock.  Seed-flush tasks (an
    empty side) never reach the kernel; they yield a zero-score extension,
    the shared contract of every batch runner.

    ``stats`` — when given — collects the sweep's
    :class:`~repro.core.xdrop_batch.BatchKernelStats` telemetry on both
    paths.  A chunked sweep merges every chunk's own stats into it:
    ``rows``, ``cells`` and ``active_row_steps`` equal the unsplit sweep's,
    while ``steps`` and ``row_steps`` count each chunk's sweep separately.
    """
    live = [task for task in tasks if not task.is_empty]
    pairs = [(task.query, task.target) for task in live]
    if workers > 1 and len(pairs) > 1:
        chunks = chunk_evenly(pairs, min(workers, len(pairs)))
        swept = []
        for chunk_results, chunk_stats in parallel_map(
            _run_pair_chunk,
            chunks,
            args=(scoring, xdrop, trace),
            workers=workers,
            min_items_per_worker=1,
        ):
            swept.extend(chunk_results)
            if stats is not None:
                stats.merge(chunk_stats)
        extensions = iter(swept)
    else:
        extensions = iter(
            xdrop_extend_batch(
                pairs, scoring=scoring, xdrop=xdrop, trace=trace, stats=stats
            )
        )
    return [
        empty_extension(trace) if task.is_empty else next(extensions)
        for task in tasks
    ]
