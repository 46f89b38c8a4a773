"""Process-pool helpers for inter-sequence parallelism on the CPU.

The paper exploits *inter-sequence* parallelism by assigning one GPU block
per alignment, and splits a batch across GPUs by expected work.  In pure
Python the CPU analogue is a process pool: threads would serialise on the
GIL, and a split only pays when each process gets enough work to outweigh
shipping its chunk.  Every caller weighs its items by estimated DP cells
(:func:`~repro.core.job.estimate_cells`), and a call splits only when
every chunk gets :data:`SPLIT_MIN_CELLS` of them.

One process-wide pool runs every split.  It starts at the first call that
needs it, never earlier (a cold start costs about 0.6 s on a 2-vCPU host),
with the ``spawn`` start method, so a multi-threaded service is never
forked, and it holds one worker per core; the workers stay resident until
the process exits.  At interpreter exit the pool is shut down and
multiprocessing's resource tracker is stopped, so the process leaves no
child running.  Spawned workers re-import the main module: a script that
splits must be a file that guards its entry point with
``if __name__ == "__main__":``, or its workers die.  A worker that dies
fails its call with :class:`~repro.errors.PoolWorkerError`, and the broken
pool is dropped; the next split starts a fresh one.

:func:`run_split` runs one function over weight-balanced chunks of a
batch, or over the whole batch in-process when the gate is not met, so
library code can call it unconditionally; :func:`parallel_map` maps a
function over items the same way.  :func:`run_chunks` is the pool itself,
and :func:`balance_by_weight` the longest-processing-time split.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import Callable, Sequence, TypeVar

from ..errors import PoolWorkerError

__all__ = [
    "SPLIT_MIN_CELLS",
    "parallel_map",
    "run_split",
    "run_chunks",
    "available_workers",
    "balance_by_weight",
]

T = TypeVar("T")
R = TypeVar("R")

#: Estimated DP cells (:func:`~repro.core.job.estimate_cells`) each chunk
#: of a split call must get.  Sized from a warm-pool ladder of the batched
#: kernel, the cheapest per cell, on a 2-vCPU host (X = 50, 200-900 bp
#: pairs, median of 7): 64 extensions (2.5 M estimated cells) took
#: 104.9 ms in one sweep and 102.3 ms split in two, 128 (5.2 M) 139.7
#: against 120.9 ms, 256 (9.5 M) 173.2 against 149.3 ms.  The scalar
#: ``reference`` loop costs about 20 times as much per estimated cell and
#: ``ksw2`` about 12 times (64 such pairs), so a call that passes the gate
#: pays for its split there too.  Serving calls (at most 0.75 M) and 64-pair service
#: batches at X = 50 stay in-process; BELLA's one wide call (330.5 M on
#: bella_ecoli's first read set) splits.
SPLIT_MIN_CELLS = 4_000_000

#: The process-wide pool, started by the first :func:`run_chunks`; the lock
#: keeps two threads that split at once from starting two.
_POOL: ProcessPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def available_workers(requested: int) -> int:
    """Worker processes to use: *requested*, at least 1, capped at the
    machine's core count."""
    return max(1, min(int(requested), os.cpu_count() or 1))


def balance_by_weight(weights: Sequence[int], parts: int) -> list[list[int]]:
    """Indices of *weights* in *parts* lists of nearly equal total weight.

    Greedy longest-processing-time: the heaviest item goes to the
    currently lightest part (ties to the lower part), which is within 4/3
    of the optimal largest part.  This is LOGAN's ``"cells"`` load-balancing
    policy across GPUs, and the engines' split across processes.  Each
    list is in ascending index order; a part may be empty.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    out: list[list[int]] = [[] for _ in range(parts)]
    loads = [0] * parts
    for index in sorted(range(len(weights)), key=lambda i: -weights[i]):
        part = min(range(parts), key=loads.__getitem__)
        out[part].append(index)
        loads[part] += weights[index]
    for indices in out:
        indices.sort()
    return out


def _pool() -> ProcessPoolExecutor:
    """The process-wide pool, started on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ProcessPoolExecutor(
                max_workers=os.cpu_count() or 1, mp_context=mp.get_context("spawn")
            )
            # Registered once per started pool; a second run finds nothing left.
            atexit.register(_close_at_exit)
        return _POOL


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut *pool* down, and forget it if it is still the process-wide
    pool: another thread may already have replaced a broken one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is pool:
            _POOL = None
    pool.shutdown(wait=True, cancel_futures=True)


def _close_at_exit() -> None:
    """Shut the pool down, then stop the resource tracker its ``spawn``
    context started, which would otherwise outlive this process.  The
    tracker waits for every process that shares it, so it is left alone
    while another multiprocessing child still runs."""
    pool = _POOL
    if pool is not None:
        _drop_pool(pool)
    if not mp.active_children():
        resource_tracker._resource_tracker._stop()


def run_chunks(
    func: Callable[..., R], chunks: Sequence, args: tuple = ()
) -> list[R]:
    """``func(chunk, *args)`` for every chunk on the process pool, in chunk
    order.  *func* must be a module-level (picklable) callable.

    Raises :class:`~repro.errors.PoolWorkerError` when a worker dies; the
    broken pool is dropped, so the next call starts a fresh one.
    """
    pool = _pool()
    try:
        futures = [pool.submit(func, chunk, *args) for chunk in chunks]
        return [future.result() for future in futures]
    except BrokenProcessPool as error:
        _drop_pool(pool)
        raise PoolWorkerError(
            "a process-pool worker died during this call; spawned workers "
            "re-import the main module, so a script that splits work must "
            "be a file whose entry point is guarded with "
            "'if __name__ == \"__main__\":'"
        ) from error


def run_split(
    func: Callable[..., R],
    items: Sequence[T],
    weights: Sequence[int],
    args: tuple = (),
    workers: int = 1,
) -> list[tuple[list[int], R]]:
    """``func(chunk, *args)`` over *items*, split by weight across the pool.

    *weights* are the items' estimated DP cells.  The items are cut into
    min(``workers`` capped at the core count, items, total weight //
    :data:`SPLIT_MIN_CELLS`) chunks of nearly equal weight
    (:func:`balance_by_weight`), one :func:`run_chunks` task each.  Below
    two chunks there is one in-process call over all items: no pool, no
    pickling.  Returns each chunk's item indices (ascending) with its
    result, so the caller can scatter per-item results back.
    """
    items = list(items)
    chunks = min(
        available_workers(workers), len(items), sum(weights) // SPLIT_MIN_CELLS
    )
    if chunks < 2:
        return [(list(range(len(items))), func(items, *args))]
    parts = balance_by_weight(weights, chunks)
    results = run_chunks(func, [[items[i] for i in part] for part in parts], args)
    return list(zip(parts, results))


def _map_chunk(chunk: list, func: Callable, args: tuple) -> list:
    return [func(item, *args) for item in chunk]


def parallel_map(
    func: Callable[..., R],
    items: Sequence[T],
    weights: Sequence[int],
    args: tuple = (),
    workers: int = 1,
) -> list[R]:
    """``func(item, *args)`` for every item, in item order, split across
    the pool by :func:`run_split`'s rule.

    *func* must be a module-level (picklable) callable, and *weights* are
    the items' estimated DP cells.
    """
    results: list = [None] * len(items)
    for part, values in run_split(_map_chunk, items, weights, (func, args), workers):
        for index, value in zip(part, values):
            results[index] = value
    return results
