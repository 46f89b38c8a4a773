"""CPU platform descriptions and runtime cost models for the baselines.

The paper's CPU baselines ran on hardware we do not have:

* SeqAn's X-drop on a dual-socket IBM POWER9 (2 x 22 cores, 4-way SMT,
  168 OpenMP threads) — Table II / Fig. 8;
* ksw2 on a dual-socket Intel Xeon Gold 6148 "Skylake" (2 x 20 cores,
  80 threads, SSE2 SIMD) — Table III / Fig. 9.

Lacking that hardware, this module models those runtimes from the
*exact work traces* produced by our own implementations
(cells evaluated, anti-diagonals / rows iterated, alignments dispatched),
multiplied by calibrated per-unit costs.  The calibration constants are the
only "magic numbers" in the reproduction; they were chosen so the modeled
runtimes land in the same range the paper reports for the 100 K-pair
workload, and they are documented next to each constant.  The *shape* of
every reproduced table (growth with X, saturation, cross-overs) comes from
the measured work traces, not from the constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.job import BatchWorkSummary
from ..errors import ConfigurationError

__all__ = [
    "CpuPlatformSpec",
    "CpuCostModel",
    "Ksw2CostModel",
    "POWER9_PLATFORM",
    "SKYLAKE_PLATFORM",
    "SEQAN_POWER9_MODEL",
    "KSW2_SKYLAKE_BAND_MODEL",
]


@dataclass(frozen=True)
class CpuPlatformSpec:
    """Description of a CPU platform used by the paper's baselines.

    Attributes
    ----------
    name:
        Human-readable platform name.
    sockets, cores_per_socket, threads_per_core:
        Topology; ``threads`` is derived.
    clock_ghz:
        Nominal clock frequency.
    simd_lanes_int16:
        Number of 16-bit integer SIMD lanes per core (SSE2 = 8); the SeqAn
        X-drop kernel is scalar, so it uses 1.
    """

    name: str
    sockets: int
    cores_per_socket: int
    threads_per_core: int
    clock_ghz: float
    simd_lanes_int16: int = 1

    def __post_init__(self) -> None:
        if self.sockets <= 0 or self.cores_per_socket <= 0 or self.threads_per_core <= 0:
            raise ConfigurationError("platform topology values must be positive")
        if self.clock_ghz <= 0:
            raise ConfigurationError("clock frequency must be positive")

    @property
    def cores(self) -> int:
        """Total physical cores."""
        return self.sockets * self.cores_per_socket

    @property
    def threads(self) -> int:
        """Total hardware threads."""
        return self.cores * self.threads_per_core


@dataclass(frozen=True)
class CpuCostModel:
    """Runtime model ``time = work / throughput`` for a CPU batch aligner.

    The model charges three per-thread costs and divides by the number of
    worker threads (the batch alignments are embarrassingly parallel, which
    is exactly how BELLA drives SeqAn with OpenMP):

    ``time = (cells * ns_per_cell + iters * ns_per_iteration
              + alignments * ns_per_alignment) / (threads * parallel_efficiency)``

    Attributes
    ----------
    platform:
        The CPU platform description.
    threads:
        Worker threads used (the paper uses every hardware thread).
    ns_per_cell:
        Nanoseconds of single-thread work per DP cell.  SeqAn's scalar
        X-drop kernel evaluates a cell in roughly 5 ns on a POWER9-class
        core; ksw2's SSE2 kernel streams 8 lanes and lands near 0.9 ns.
    ns_per_iteration:
        Fixed cost per anti-diagonal (SeqAn) or per DP row (ksw2): loop
        control, band bookkeeping, early-exit tests.
    ns_per_alignment:
        Fixed dispatch cost per alignment (function call, result handling,
        OpenMP scheduling).
    parallel_efficiency:
        Fraction of ideal scaling retained at full thread count (SMT threads
        share execution units, memory bandwidth saturates).
    """

    platform: CpuPlatformSpec
    threads: int
    ns_per_cell: float
    ns_per_iteration: float
    ns_per_alignment: float
    parallel_efficiency: float = 0.75

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ConfigurationError("threads must be positive")
        if self.threads > self.platform.threads:
            raise ConfigurationError(
                f"{self.threads} threads requested but platform "
                f"{self.platform.name!r} has only {self.platform.threads}"
            )
        if min(self.ns_per_cell, self.ns_per_iteration, self.ns_per_alignment) < 0:
            raise ConfigurationError("per-unit costs must be non-negative")
        if not 0 < self.parallel_efficiency <= 1:
            raise ConfigurationError("parallel_efficiency must be in (0, 1]")

    def seconds(self, cells: int, iterations: int, alignments: int) -> float:
        """Modeled wall-clock seconds for a batch with the given work totals."""
        if min(cells, iterations, alignments) < 0:
            raise ConfigurationError("work totals must be non-negative")
        single_thread_ns = (
            cells * self.ns_per_cell
            + iterations * self.ns_per_iteration
            + alignments * self.ns_per_alignment
        )
        effective_threads = self.threads * self.parallel_efficiency
        return single_thread_ns / effective_threads / 1e9

    def seconds_for(self, summary: BatchWorkSummary) -> float:
        """:meth:`seconds` of an engine's work summary, possibly
        extrapolated to the paper's pair count with
        :meth:`~repro.core.job.BatchWorkSummary.scaled`."""
        return self.seconds(
            cells=summary.cells,
            iterations=summary.iterations,
            alignments=summary.alignments,
        )

    def gcups(self, cells: int, iterations: int, alignments: int) -> float:
        """Modeled giga cell-updates per second for the same batch."""
        secs = self.seconds(cells, iterations, alignments)
        if secs <= 0:
            return float("inf")
        return cells / secs / 1e9


@dataclass(frozen=True)
class Ksw2CostModel:
    """Band-aware runtime model for ksw2 on a multi-threaded CPU.

    ``time = (cells * ns_per_cell * (1 + band / band_halfcost)
              + rows * ns_per_row + alignments * ns_per_alignment)
             / (threads * parallel_efficiency)``

    ksw2's striped SSE2 kernel is extremely fast on narrow bands but loses
    efficiency as the band (and with it the working set per row) grows:
    rows stop fitting in L1/L2, the striped layout needs more passes and
    the lazy-F loop triggers more often.  The ``(1 + band /
    band_halfcost)`` factor models that loss; ``band_halfcost`` is the band
    width at which the per-cell cost doubles.  This is what produces the
    runtime explosion the paper reports for large X (3213 s at X = 5000
    against 7 s at X = 10) while LOGAN saturates.
    """

    platform: CpuPlatformSpec
    threads: int = 80
    ns_per_cell: float = 0.9
    ns_per_row: float = 40.0
    ns_per_alignment: float = 3_400_000.0
    band_halfcost: float = 60.0
    parallel_efficiency: float = 0.75

    def __post_init__(self) -> None:
        if self.threads <= 0 or self.threads > self.platform.threads:
            raise ConfigurationError(
                f"threads must be in [1, {self.platform.threads}] for "
                f"{self.platform.name!r}, got {self.threads}"
            )
        if self.band_halfcost <= 0:
            raise ConfigurationError("band_halfcost must be positive")
        if not 0 < self.parallel_efficiency <= 1:
            raise ConfigurationError("parallel_efficiency must be in (0, 1]")

    def seconds(
        self, cells: int, rows: int, alignments: int, band: float
    ) -> float:
        """Modeled wall-clock seconds for a batch with the given work totals."""
        if min(cells, rows, alignments) < 0 or band < 0:
            raise ConfigurationError("work totals must be non-negative")
        cell_ns = self.ns_per_cell * (1.0 + band / self.band_halfcost)
        total_ns = (
            cells * cell_ns
            + rows * self.ns_per_row
            + alignments * self.ns_per_alignment
        )
        return total_ns / (self.threads * self.parallel_efficiency) / 1e9

    def seconds_for(self, summary: BatchWorkSummary) -> float:
        """:meth:`seconds` of the ``ksw2`` engine's work summary, whose
        iterations are DP rows and whose widest band is the static one."""
        return self.seconds(
            cells=summary.cells,
            rows=summary.iterations,
            alignments=summary.alignments,
            band=summary.max_band_width,
        )


#: Dual-socket IBM POWER9 (Summit-class node) used for the SeqAn baseline.
#: The paper quotes "two 22-core POWER9" and 168 threads (21 compute cores
#: per socket exposed, 4-way SMT).
POWER9_PLATFORM = CpuPlatformSpec(
    name="2 x IBM POWER9 (22 cores, SMT4)",
    sockets=2,
    cores_per_socket=21,
    threads_per_core=4,
    clock_ghz=3.1,
    simd_lanes_int16=1,
)

#: Dual-socket Intel Xeon Gold 6148 used for the ksw2 baseline.
SKYLAKE_PLATFORM = CpuPlatformSpec(
    name="2 x Intel Xeon Gold 6148 (Skylake)",
    sockets=2,
    cores_per_socket=20,
    threads_per_core=2,
    clock_ghz=2.4,
    simd_lanes_int16=8,
)

#: SeqAn X-drop on 168 POWER9 threads.  Calibration: with the paper's 100 K
#: pair workload (2.5-7.5 kb reads) the model lands near Table II at both
#: ends of the X sweep (~5 s at X=10, ~150-160 s at X=5000); the mid-range
#: (X=100-1000) under-estimates the published numbers by ~2-4x.  The
#: per-iteration term models SeqAn's per-anti-diagonal band bookkeeping,
#: which dominates at small X.
SEQAN_POWER9_MODEL = CpuCostModel(
    platform=POWER9_PLATFORM,
    threads=168,
    ns_per_cell=7.0,
    ns_per_iteration=450.0,
    ns_per_alignment=15_000.0,
    parallel_efficiency=0.70,
)

#: ksw2 on 80 Skylake threads, calibrated so the 100 K-pair workload lands
#: near Table III (about 7 s at small X, thousands of seconds at X = 5000).
KSW2_SKYLAKE_BAND_MODEL = Ksw2CostModel(platform=SKYLAKE_PLATFORM)
