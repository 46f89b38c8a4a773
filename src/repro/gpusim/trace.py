"""Work traces: the interface between the alignment kernel and the GPU model.

The vectorised X-drop kernel records, for every extension it performs, the
width of every anti-diagonal it computed (the ``band_widths`` array of an
:class:`~repro.core.result.ExtensionResult`).  That trace is *exact* — it is
the work the real CUDA kernel would perform for the same input and X — and
it is all the GPU execution model needs:

* instruction counts follow from the widths, the scheduled thread count and
  the per-cell operation count;
* memory traffic follows from the widths and the sequence lengths;
* the critical path follows from the number of anti-diagonals per block.

``BlockWorkTrace`` describes one GPU block (one extension).  ``KernelWorkload``
is a collection of block traces plus an optional replication factor, so a
workload measured on a laptop-scale sample can stand in for the paper's
100 K-pair batch (every sampled block counted ``replication`` times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.result import ExtensionResult
from ..errors import ConfigurationError

__all__ = ["BlockWorkTrace", "KernelWorkload"]


@dataclass
class BlockWorkTrace:
    """Per-block (per-extension) work description.

    Attributes
    ----------
    band_widths:
        Width of every anti-diagonal the block computes, in cells.
    query_length, target_length:
        Lengths of the two sequences the block reads (drives compulsory HBM
        traffic and the HBM footprint of the anti-diagonal buffers).
    """

    band_widths: np.ndarray
    query_length: int
    target_length: int

    def __post_init__(self) -> None:
        self.band_widths = np.asarray(self.band_widths, dtype=np.int64)
        if self.band_widths.ndim != 1:
            raise ConfigurationError("band_widths must be one-dimensional")
        if self.query_length < 0 or self.target_length < 0:
            raise ConfigurationError("sequence lengths must be non-negative")

    @classmethod
    def from_extension(
        cls, result: ExtensionResult, query_length: int, target_length: int
    ) -> "BlockWorkTrace":
        """Build a trace from an :class:`ExtensionResult` produced with ``trace=True``."""
        if result.band_widths is None:
            raise ConfigurationError(
                "ExtensionResult has no band_widths; run the kernel with trace=True"
            )
        return cls(
            band_widths=result.band_widths,
            query_length=int(query_length),
            target_length=int(target_length),
        )

    @property
    def cells(self) -> int:
        """Total DP cells computed by this block."""
        return int(self.band_widths.sum())

    @property
    def anti_diagonals(self) -> int:
        """Number of anti-diagonal iterations (the block's serial critical path)."""
        return int(self.band_widths.size)

    @property
    def max_band_width(self) -> int:
        """Widest anti-diagonal of this block."""
        return int(self.band_widths.max()) if self.band_widths.size else 0

    @property
    def sequence_bytes(self) -> int:
        """Bytes of sequence data this block must read at least once."""
        return int(self.query_length + self.target_length)

    def buffer_bytes(self, value_bytes: int = 4) -> int:
        """HBM footprint of the three anti-diagonal buffers for this block.

        LOGAN sizes the buffers for the longest possible anti-diagonal of
        the extension (the shorter sequence length plus one).
        """
        longest = min(self.query_length, self.target_length) + 1
        return 3 * longest * value_bytes


@dataclass
class KernelWorkload:
    """A batch of block traces to be launched as one GPU kernel.

    Attributes
    ----------
    blocks:
        The sampled block traces.
    replication:
        How many real blocks each sampled trace represents.  ``1.0`` means
        the workload is exactly the list of blocks; ``500.0`` means the
        kernel model should account for ``500 * len(blocks)`` blocks with
        the same per-block work distribution.
    """

    blocks: list[BlockWorkTrace] = field(default_factory=list)
    replication: float = 1.0

    def __post_init__(self) -> None:
        if self.replication <= 0:
            raise ConfigurationError("replication must be positive")

    def add(self, trace: BlockWorkTrace) -> None:
        """Append one block trace."""
        self.blocks.append(trace)

    def extend(self, traces: Iterable[BlockWorkTrace]) -> None:
        """Append many block traces."""
        self.blocks.extend(traces)

    @property
    def sampled_blocks(self) -> int:
        """Number of sampled (actually traced) blocks."""
        return len(self.blocks)

    @property
    def total_blocks(self) -> int:
        """Number of blocks the workload represents after replication."""
        return int(round(len(self.blocks) * self.replication))

    @property
    def total_cells(self) -> int:
        """DP cells across the represented workload."""
        return int(round(sum(b.cells for b in self.blocks) * self.replication))

    @property
    def total_sequence_bytes(self) -> int:
        """Sequence bytes across the represented workload."""
        return int(
            round(sum(b.sequence_bytes for b in self.blocks) * self.replication)
        )

    @property
    def max_anti_diagonals(self) -> int:
        """Longest per-block critical path in the workload."""
        return max((b.anti_diagonals for b in self.blocks), default=0)

    @property
    def mean_band_width(self) -> float:
        """Cell-weighted mean anti-diagonal width (average active threads)."""
        cells = sum(b.cells for b in self.blocks)
        diags = sum(b.anti_diagonals for b in self.blocks)
        return cells / diags if diags else 0.0

    @property
    def max_band_width(self) -> int:
        """Widest anti-diagonal across the workload."""
        return max((b.max_band_width for b in self.blocks), default=0)

    def buffer_bytes(self, value_bytes: int = 4) -> int:
        """Total HBM footprint of anti-diagonal buffers across the workload."""
        return int(
            round(
                sum(b.buffer_bytes(value_bytes) for b in self.blocks)
                * self.replication
            )
        )

    def split(self, parts: Sequence[float]) -> list["KernelWorkload"]:
        """Split the workload into sub-workloads with the given weight fractions.

        Used by tests of the load balancer; the real balancer splits jobs
        before tracing, but this helper lets the model reason about "what if
        this workload were spread over N devices with these shares".
        """
        total = float(sum(parts))
        if total <= 0:
            raise ConfigurationError("split weights must sum to a positive value")
        return [
            KernelWorkload(blocks=list(self.blocks), replication=self.replication * p / total)
            for p in parts
        ]
