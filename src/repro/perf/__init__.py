"""Performance utilities: timers, metrics and CPU process-pool helpers."""

from .metrics import BenchRow, BenchTable, gcups, speedup
from .parallel import (
    SPLIT_MIN_CELLS,
    available_workers,
    balance_by_weight,
    parallel_map,
    run_chunks,
    run_split,
)
from .timers import StageTimer, Timer

__all__ = [
    "Timer",
    "StageTimer",
    "gcups",
    "speedup",
    "BenchRow",
    "BenchTable",
    "SPLIT_MIN_CELLS",
    "parallel_map",
    "run_split",
    "run_chunks",
    "available_workers",
    "balance_by_weight",
]
