"""Host-side (CPU) preprocessing layer of LOGAN.

Before the GPU kernel launches, LOGAN's host code (Section IV-B):

1. loads sequence lengths and seed positions into contiguous buffers;
2. splits every pair at its seed into a *left-extension* and a
   *right-extension* sub-pair (Fig. 5);
3. reverses one sequence of each pair so the kernel reads both sequences in
   increasing memory order (coalesced access, Fig. 6);
4. schedules the number of threads per block proportionally to X so that
   narrow bands do not leave most of a 1024-thread block idle.

This module reproduces those steps.  The preprocessing is genuinely executed:
:func:`prepare_batch` is the first step of the batch engines' one
seed-and-extend loop (``repro.engine.engines._EngineBase``), and the
split/reversed sides it returns feed the kernel.  Its cost on the paper's
host is modeled with a simple bytes-processed rate (:class:`HostModel`),
which is what produces the ~2 s floor of the LOGAN columns in Tables II/III
at small X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.job import AlignmentJob
from ..core.scoring import ScoringScheme, block_width
from ..core.seed_extend import seed_score, split_on_seed
from ..errors import ConfigurationError
from ..gpusim.device import DeviceSpec

__all__ = [
    "PreparedBatch",
    "HostModel",
    "prepare_batch",
    "threads_for_xdrop",
]


@dataclass
class PreparedBatch:
    """Output of host preprocessing for one batch of alignment jobs.

    Attributes
    ----------
    sides:
        One ``(query, target)`` sub-pair per extension (one GPU block
        each): every job's left extension in job order, then every job's
        right extension, so job ``i``'s sides are ``sides[i]`` and
        ``sides[n + i]``.  Left-extension queries and targets are already
        reversed; a side with an empty sequence has nothing to extend.
    seed_scores:
        Per-job score of the seed region itself.
    """

    sides: list[tuple[np.ndarray, np.ndarray]]
    seed_scores: list[int]


@dataclass(frozen=True)
class HostModel:
    """Cost model of the host preprocessing / post-processing stages.

    The model has three terms, calibrated against the floors of Tables II/III
    (LOGAN's runtime barely drops below ~2 s however small X is) and the
    small-X rows of Tables IV/V (where the serial host work is a visible
    fraction of the multi-GPU runtime):

    Attributes
    ----------
    ns_per_base:
        Host nanoseconds per sequence base for buffer packing, seed
        splitting and reversal (serial; LOGAN's host loop is single-threaded
        per batch).
    ns_per_alignment:
        Host nanoseconds per alignment for seed bookkeeping and result
        post-processing.
    fixed_seconds:
        Per-batch fixed cost: CUDA context/driver initialisation, device
        buffer allocation and stream setup.  Dominates the small-X rows of
        Table II.
    """

    ns_per_base: float = 0.15
    ns_per_alignment: float = 150.0
    fixed_seconds: float = 1.8

    def __post_init__(self) -> None:
        if self.ns_per_base < 0 or self.ns_per_alignment < 0 or self.fixed_seconds < 0:
            raise ConfigurationError("host model costs must be non-negative")

    def seconds(self, total_bases: int, alignments: int) -> float:
        """Modeled host-side seconds for a batch."""
        if total_bases < 0 or alignments < 0:
            raise ConfigurationError("work totals must be non-negative")
        variable_ns = total_bases * self.ns_per_base + alignments * self.ns_per_alignment
        return self.fixed_seconds + variable_ns / 1e9


def threads_for_xdrop(xdrop: int, device: DeviceSpec, gap_penalty: int = 1) -> int:
    """Threads per block scheduled for a given X (Section IV-B).

    With a linear gap penalty, a cell ``k`` anti-diagonal positions away from
    the locally optimal diagonal trails the best score by at least
    ``k * (match + |gap|)`` ≈ ``2k`` points, so the band half-width is about
    ``X / 2`` and the anti-diagonal width about ``X + 1`` cells.  Scheduling
    more threads than that only creates stalled threads and shared-memory
    pressure, so the count is :func:`repro.core.scoring.block_width` (the
    band estimate rounded up to a whole warp, at least two warps) clamped
    to ``max_threads_per_block`` — giving the paper's 128 threads for
    X = 100 (Table I).
    """
    threads = block_width(xdrop, gap_penalty, device.warp_size)
    return int(min(threads, device.max_threads_per_block))


def prepare_batch(
    jobs: Sequence[AlignmentJob], scoring: ScoringScheme
) -> PreparedBatch:
    """Run LOGAN's host preprocessing over a batch of jobs.

    Splits every job at its seed, reverses the left-extension sub-pair, and
    computes the seed scores that are later added to the extension scores.
    """
    lefts, rights, anchors = [], [], []
    for job in jobs:
        left, right = split_on_seed(job.query, job.target, job.seed)
        lefts.append(left)
        rights.append(right)
        anchors.append(seed_score(job.query, job.target, job.seed, scoring))
    return PreparedBatch(sides=lefts + rights, seed_scores=anchors)
