"""Named datasets for the BELLA experiments (scaled-down presets).

The paper's BELLA runs use an E. coli PacBio dataset (1.8 M candidate
alignments) and a synthetic C. elegans dataset (235 M candidate alignments).
Neither the raw data nor a machine that could align hundreds of millions of
multi-kilobase pairs in Python is available here, so each dataset is exposed
as a *preset*: a scaled-down synthetic genome + read set that exercises the
identical pipeline, together with the paper-scale alignment count used to
extrapolate modeled runtimes (the scaling factor is recorded explicitly and
surfaced by the benchmark tables).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import DatasetError
from .genome import Genome, RepeatSpec, simulate_genome
from .reads import ErrorModel, SimulatedRead, simulate_reads

__all__ = ["DatasetPreset", "BellaDataset", "ECOLI_LIKE", "CELEGANS_LIKE", "load_dataset"]


@dataclass(frozen=True)
class DatasetPreset:
    """Recipe for a scaled-down BELLA dataset.

    Attributes
    ----------
    name:
        Preset name (``"ecoli_like"`` / ``"celegans_like"``).
    genome_length:
        Synthetic genome length in bases (scaled down from the organism).
    num_reads:
        Number of simulated reads (chosen for ~12-15x coverage at the
        preset read length).
    mean_read_length, read_length_spread:
        Read length distribution.
    error_rate:
        Total per-read error rate.
    repeats:
        Repeat families planted in the genome (sources of spurious overlaps).
    paper_alignments:
        Number of candidate alignments the paper reports for the full-size
        dataset (1.8 M for E. coli, 235 M for C. elegans); used by the
        benchmarks to extrapolate modeled runtimes.
    paper_genome_length:
        The real organism's genome size, recorded for the scaling-factor
        bookkeeping.
    """

    name: str
    genome_length: int
    num_reads: int
    mean_read_length: int
    read_length_spread: int
    error_rate: float
    repeats: tuple[RepeatSpec, ...]
    paper_alignments: int
    paper_genome_length: int

    def __post_init__(self) -> None:
        if self.genome_length <= 0 or self.num_reads <= 0:
            raise DatasetError("genome_length and num_reads must be positive")
        if self.mean_read_length <= 0:
            raise DatasetError("mean_read_length must be positive")
        if self.paper_alignments <= 0 or self.paper_genome_length <= 0:
            raise DatasetError("paper-scale figures must be positive")

    @property
    def coverage(self) -> float:
        """Approximate sequencing coverage of the preset."""
        return self.num_reads * self.mean_read_length / self.genome_length

    @property
    def genome_scale_factor(self) -> float:
        """How much smaller the preset genome is than the real organism's."""
        return self.paper_genome_length / self.genome_length

    def scaled(self, factor: float) -> "DatasetPreset":
        """Preset with the genome and read count scaled by *factor* (for tests)."""
        if factor <= 0:
            raise DatasetError("scale factor must be positive")
        return DatasetPreset(
            name=self.name,
            genome_length=max(1000, int(self.genome_length * factor)),
            num_reads=max(4, int(self.num_reads * factor)),
            mean_read_length=self.mean_read_length,
            read_length_spread=self.read_length_spread,
            error_rate=self.error_rate,
            repeats=self.repeats,
            paper_alignments=self.paper_alignments,
            paper_genome_length=self.paper_genome_length,
        )


@dataclass
class BellaDataset:
    """A materialised dataset: genome, reads, and the preset that produced it."""

    preset: DatasetPreset
    genome: Genome
    reads: list[SimulatedRead]

    @property
    def num_reads(self) -> int:
        """Number of reads in the dataset."""
        return len(self.reads)

    def total_bases(self) -> int:
        """Total read bases (proxy for dataset size)."""
        return int(sum(len(r) for r in self.reads))


#: E. coli-like preset: 4.64 Mb genome scaled ~1:30, ~14x coverage.
ECOLI_LIKE = DatasetPreset(
    name="ecoli_like",
    genome_length=150_000,
    num_reads=700,
    mean_read_length=3000,
    read_length_spread=1500,
    error_rate=0.14,
    repeats=(RepeatSpec(length=4000, copies=4, divergence=0.03),),
    paper_alignments=1_820_000,
    paper_genome_length=4_640_000,
)

#: C. elegans-like preset: 100 Mb genome scaled ~1:330, ~12x coverage.
CELEGANS_LIKE = DatasetPreset(
    name="celegans_like",
    genome_length=300_000,
    num_reads=1200,
    mean_read_length=3000,
    read_length_spread=1500,
    error_rate=0.15,
    repeats=(
        RepeatSpec(length=5000, copies=6, divergence=0.04),
        RepeatSpec(length=2000, copies=10, divergence=0.05),
    ),
    paper_alignments=235_000_000,
    paper_genome_length=100_000_000,
)

_PRESETS = {p.name: p for p in (ECOLI_LIKE, CELEGANS_LIKE)}


def load_dataset(
    preset: DatasetPreset | str,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
) -> BellaDataset:
    """Materialise a dataset preset into a genome and simulated reads.

    Parameters
    ----------
    preset:
        A :class:`DatasetPreset` or the name of a built-in preset.
    rng:
        NumPy generator; defaults to a generator seeded from a CRC-32 of the
        preset name, so repeated loads of the same preset are identical in
        every interpreter.
    scale:
        Additional down-scaling applied to the preset (used by the fast test
        configurations).
    """
    if isinstance(preset, str):
        if preset not in _PRESETS:
            raise DatasetError(
                f"unknown dataset preset {preset!r}; available: {sorted(_PRESETS)}"
            )
        preset = _PRESETS[preset]
    if scale != 1.0:
        preset = preset.scaled(scale)
    if rng is None:
        rng = np.random.default_rng(zlib.crc32(preset.name.encode()))

    genome = simulate_genome(
        length=preset.genome_length,
        repeats=list(preset.repeats),
        rng=rng,
        name=preset.name,
    )
    reads = simulate_reads(
        genome,
        num_reads=preset.num_reads,
        mean_length=preset.mean_read_length,
        length_spread=preset.read_length_spread,
        error_model=ErrorModel.with_total(preset.error_rate),
        rng=rng,
        name_prefix=preset.name,
    )
    return BellaDataset(preset=preset, genome=genome, reads=reads)
