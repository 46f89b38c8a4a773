"""Functional LOGAN kernel: one GPU block per extension, traced.

The CUDA kernel of the paper assigns each extension to a GPU block and
computes its anti-diagonals with Algorithm 2.  In this reproduction the same
work is performed by the inter-sequence batched NumPy X-drop kernel
(:func:`repro.core.xdrop_batch.xdrop_extend_batch`), one batch row per
extension, and every extension additionally records its anti-diagonal width
trace, which is what the GPU execution model replays to estimate V100 time.

The kernel is *functionally exact*: the scores and end positions it returns
are the library's single source of truth and are identical to the scalar
SeqAn-style reference (tests enforce this), which reproduces the paper's
"equivalent accuracy" statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.result import ExtensionResult
from ..core.scoring import ScoringScheme
from ..core.xdrop_batch import BatchKernelStats, xdrop_extend_batch
from ..gpusim.trace import BlockWorkTrace, KernelWorkload
from ..perf.parallel import chunk_evenly, parallel_map
from .host import ExtensionTask

__all__ = [
    "StreamExecution",
    "run_extension_stream",
    "execute_tasks_batched",
    "empty_extension",
]


@dataclass
class StreamExecution:
    """Functional output of one GPU stream (a list of extensions).

    Attributes
    ----------
    results:
        Per-task extension results (same order as the input tasks).
    workload:
        The traced workload for the GPU execution model.  Empty tasks (seed
        flush against a sequence end) contribute no block.
    """

    results: list[ExtensionResult]
    workload: KernelWorkload


def empty_extension(trace: bool = True) -> ExtensionResult:
    """Result used for tasks with nothing to extend (zero-length side)."""
    return ExtensionResult(
        best_score=0,
        query_end=0,
        target_end=0,
        anti_diagonals=1,
        cells_computed=1,
        terminated_early=False,
        band_widths=np.asarray([1], dtype=np.int64) if trace else None,
    )


def _run_pair_chunk(
    pairs: list,
    scoring: ScoringScheme,
    xdrop: int,
    trace: bool,
    compact_threshold: float | None,
    tile_width: int | None,
) -> list[ExtensionResult]:
    """Worker: one batched sweep over a chunk of pairs (picklable)."""
    return xdrop_extend_batch(
        pairs,
        scoring=scoring,
        xdrop=xdrop,
        trace=trace,
        compact_threshold=compact_threshold,
        tile_width=tile_width,
    )


def execute_tasks_batched(
    tasks: Sequence[ExtensionTask],
    scoring: ScoringScheme,
    xdrop: int,
    workers: int = 1,
    trace: bool = True,
    compact_threshold: float | None = None,
    tile_width: int | None = None,
    stats: BatchKernelStats | None = None,
) -> list[ExtensionResult]:
    """Inter-sequence execution: every extension is one row of a batched
    anti-diagonal sweep (LOGAN's one-block-per-extension layout).

    With ``workers > 1`` the live tasks are split into contiguous chunks and
    each chunk is swept by one worker process — chunking never changes
    scores or traces, only the measured wall-clock.  Seed-flush tasks (an
    empty side) never reach the kernel; they yield a zero-score extension,
    the shared contract of every batch runner.

    ``compact_threshold`` / ``tile_width`` tune the kernel's active-row
    compaction and column tiling (results are invariant to them), and
    ``stats`` — when given — collects the sweep's
    :class:`~repro.core.xdrop_batch.BatchKernelStats` telemetry.  Stats are
    only gathered on the in-process path; chunked multi-worker sweeps run in
    subprocesses, which cannot update the caller's accumulator.
    """
    live = [task for task in tasks if not task.is_empty]
    pairs = [(task.query, task.target) for task in live]
    if workers > 1 and len(pairs) > 1:
        chunks = chunk_evenly(pairs, min(workers, len(pairs)))
        chunk_results = parallel_map(
            _run_pair_chunk,
            chunks,
            args=(scoring, xdrop, trace, compact_threshold, tile_width),
            workers=workers,
            min_items_per_worker=1,
        )
        extensions = iter([ext for chunk in chunk_results for ext in chunk])
    else:
        extensions = iter(
            xdrop_extend_batch(
                pairs,
                scoring=scoring,
                xdrop=xdrop,
                trace=trace,
                compact_threshold=compact_threshold,
                tile_width=tile_width,
                stats=stats,
            )
        )
    return [
        empty_extension(trace) if task.is_empty else next(extensions)
        for task in tasks
    ]


def run_extension_stream(
    tasks: Sequence[ExtensionTask],
    scoring: ScoringScheme,
    xdrop: int,
    replication: float = 1.0,
    workers: int = 1,
) -> StreamExecution:
    """Execute one stream of extensions and collect the traced workload.

    Parameters
    ----------
    tasks:
        The stream's extension tasks (all left-extensions or all
        right-extensions of a prepared batch).
    scoring, xdrop:
        Alignment parameters.
    replication:
        How many real extensions each task stands for when the batch is a
        scaled-down sample of the paper's workload.
    workers:
        Local worker processes used to execute the extensions (affects only
        the measured wall-clock, never the scores or the traces).

    The extensions run through :func:`execute_tasks_batched` with tracing
    on, since the GPU execution model replays the band traces.
    """
    results = execute_tasks_batched(tasks, scoring, xdrop, workers=workers, trace=True)
    workload = KernelWorkload(replication=replication)
    for task, result in zip(tasks, results):
        if task.is_empty:
            continue
        workload.add(
            BlockWorkTrace.from_extension(
                result,
                query_length=len(task.query),
                target_length=len(task.target),
            )
        )
    return StreamExecution(results=list(results), workload=workload)
