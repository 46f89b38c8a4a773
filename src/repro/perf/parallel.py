"""Process-pool helpers for inter-sequence parallelism on the CPU.

The paper exploits *inter-sequence* parallelism by assigning one GPU block
per alignment; the CPU analogue used by BELLA is an OpenMP parallel-for over
alignments.  In pure Python the equivalent is a process pool (threads would
serialise on the GIL for the NumPy-light portions), with jobs submitted in
chunks so the pickling overhead is amortised — the standard mpi4py/HPC
idiom of communicating few, large messages rather than many small ones.

``parallel_map`` degrades gracefully to an in-process loop when ``workers=1``
or when the input is small, so library code can call it unconditionally.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

__all__ = ["parallel_map", "available_workers", "chunk_evenly"]

T = TypeVar("T")
R = TypeVar("R")

# Populated in worker processes by _init_worker; holds (func, args) so each
# task submission only has to pickle the item, not the closure.
_WORKER_STATE: dict = {}


def available_workers(requested: int) -> int:
    """Worker processes to use: *requested*, at least 1, capped at the
    machine's core count."""
    return max(1, min(int(requested), os.cpu_count() or 1))


def chunk_evenly(items: Sequence[T], chunks: int) -> list[list[T]]:
    """Split *items* into at most *chunks* contiguous, nearly-equal lists.

    The first ``len(items) % chunks`` lists receive one extra element, so
    sizes differ by at most one — the same splitting rule the multi-GPU load
    balancer uses for its naive (count-based) mode.
    """
    if chunks <= 0:
        raise ValueError(f"chunks must be positive, got {chunks}")
    n = len(items)
    chunks = min(chunks, n) if n else 1
    base, extra = divmod(n, chunks)
    out: list[list[T]] = []
    start = 0
    for c in range(chunks):
        size = base + (1 if c < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out


def _init_worker(func: Callable, args: tuple) -> None:
    _WORKER_STATE["func"] = func
    _WORKER_STATE["args"] = args


def _run_chunk(chunk: list) -> list:
    func = _WORKER_STATE["func"]
    args = _WORKER_STATE["args"]
    return [func(item, *args) for item in chunk]


def parallel_map(
    func: Callable[..., R],
    items: Sequence[T],
    args: tuple = (),
    workers: int = 1,
    min_items_per_worker: int = 4,
) -> list[R]:
    """Apply ``func(item, *args)`` to every item, optionally across processes.

    Parameters
    ----------
    func:
        A module-level (picklable) callable.
    items:
        The work items; results are returned in the same order.
    args:
        Extra positional arguments passed to every call.
    workers:
        Worker processes; ``1`` runs in-process (no pool, no pickling).
    min_items_per_worker:
        A pool is only spun up when there are at least this many items per
        worker; below that the fixed fork/pickle cost dominates.
    """
    items = list(items)
    workers = available_workers(workers)
    if workers <= 1 or len(items) < workers * min_items_per_worker:
        return [func(item, *args) for item in items]

    chunks = chunk_evenly(items, workers * 4)
    results: list[R] = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(func, args)
    ) as pool:
        for chunk_result in pool.map(_run_chunk, chunks):
            results.extend(chunk_result)
    return results
