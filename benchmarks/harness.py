"""Shared harness for the paper-reproduction benchmarks.

Every ``bench_*.py`` file delegates to one ``run_*`` function defined here.
Each run

1. executes the *real* X-drop (and baseline) algorithms on a laptop-scale
   sample of the paper's workload,
2. feeds the measured work traces to the platform models (POWER9 SeqAn,
   Skylake ksw2, V100 LOGAN) with a replication factor that scales the
   sample to the paper's pair/alignment count, and
3. emits a :class:`~repro.perf.metrics.BenchTable` whose rows mirror the
   paper's table — including the published numbers as ``paper_*`` columns so
   the reproduction can be compared at a glance (EXPERIMENTS.md is generated
   from these tables).

The sample sizes are kept small so the whole benchmark suite finishes in a
few minutes; set ``REPRO_BENCH_SCALE`` (e.g. ``2.0`` or ``0.5``) to grow or
shrink every sample proportionally.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.baselines import (
    CUDASW_GPU_ONLY,
    CUDASW_HYBRID_SIMD,
    MANYMAP,
    Ksw2BatchAligner,
    SeqAnBatchAligner,
    banded_smith_waterman,
    smith_waterman,
)
from repro.bella import build_kmer_index, choose_seed, find_candidate_overlaps
from repro.core import ScoringScheme, random_sequence, xdrop_extend
from repro.core.job import AlignmentJob
from repro.data import PairSetSpec, generate_pair_set, load_dataset
from repro.data.datasets import CELEGANS_LIKE, ECOLI_LIKE, DatasetPreset
from repro.gpusim import KernelExecutionModel, KernelWorkload, MultiGpuSystem, TESLA_V100
from repro.logan import LoganAligner, threads_for_xdrop
from repro.perf import BenchTable
from repro.roofline import analyze_kernel, build_series, render_ascii

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: X sweep of Tables II/III (100 K synthetic pairs).
TABLE2_X_VALUES = [10, 20, 50, 100, 500, 1000, 2500, 5000]
#: X sweep of Tables IV/V (BELLA datasets).
BELLA_X_VALUES = [5, 10, 15, 20, 25, 30, 35, 40, 50, 80, 100]

#: Published numbers (seconds) — Table II: SeqAn 168 threads, LOGAN 1 / 6 GPUs.
PAPER_TABLE2 = {
    10: (5.1, 2.2, 1.9),
    20: (12.7, 3.1, 2.1),
    50: (29.6, 5.0, 2.2),
    100: (45.7, 7.2, 2.7),
    500: (102.6, 14.9, 4.0),
    1000: (133.3, 20.2, 4.9),
    2500: (168.0, 25.3, 5.6),
    5000: (176.6, 26.7, 5.8),
}

#: Published numbers (seconds) — Table III: ksw2 80 threads, LOGAN 1 / 8 GPUs.
PAPER_TABLE3 = {
    10: (6.9, 2.5, 1.7),
    20: (7.0, 3.8, 1.8),
    50: (7.7, 5.8, 2.1),
    100: (10.4, 7.3, 2.4),
    500: (113.0, 15.2, 3.4),
    1000: (209.5, 20.4, 4.3),
    2500: (1235.8, 25.9, 5.2),
    5000: (3213.1, 27.2, 5.2),
}

#: Published numbers (seconds) — Table IV: BELLA/SeqAn, LOGAN 1 / 6 GPUs (E. coli).
PAPER_TABLE4 = {
    5: (53.2, 110.4, 114.3),
    10: (108.6, 146.4, 115.3),
    15: (139.0, 152.9, 114.8),
    20: (226.7, 162.7, 118.4),
    25: (275.3, 173.5, 125.3),
    30: (558.0, 185.3, 130.6),
    35: (654.1, 198.4, 136.8),
    40: (750.1, 212.7, 138.4),
    50: (913.1, 248.5, 141.4),
    80: (1303.7, 295.8, 142.4),
    100: (1507.1, 336.3, 144.5),
}

#: Published numbers (seconds) — Table V: BELLA/SeqAn, LOGAN 1 / 6 GPUs (C. elegans).
PAPER_TABLE5 = {
    5: (131.7, 577.1, 213.1),
    10: (723.3, 750.2, 579.7),
    15: (1467.7, 865.6, 749.8),
    20: (1954.8, 908.9, 777.0),
    25: (2518.8, 1015.5, 838.9),
    30: (3047.1, 1125.0, 888.0),
    35: (3492.5, 1226.5, 927.0),
    40: (3887.0, 1329.0, 955.9),
    50: (4607.7, 1449.0, 983.7),
    80: (6367.7, 1593.9, 1046.1),
    100: (7385.3, 1753.3, 1080.9),
}

#: Table I of the paper (X = 100): parallelism level -> (pairs, threads, blocks, seconds).
PAPER_TABLE1 = {
    "none": (1, 1, 1, 1.50),
    "intra": (1, 128, 1, 0.16),
    "intra_sequential_100k": (100_000, 128, 1, 45 * 3600.0),
    "intra_and_inter": (100_000, 128, 100_000, 7.35),
}

#: Fig. 12 single-GPU GCUPS quoted in the paper.
PAPER_FIG12_SINGLE_GPU = {
    "LOGAN": 181.0,
    "manymap": 96.5,
    "CUDASW++ (GPU only)": 70.0,
    "CUDASW++ (SIMD hybrid)": 105.0,
}

_SCORING = ScoringScheme()
_PAPER_PAIRS = 100_000


# --------------------------------------------------------------------------- #
# Scaling / IO helpers.
# --------------------------------------------------------------------------- #
def bench_scale() -> float:
    """Global benchmark scale factor from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def sample_count(base: int, scale: float | None = None) -> int:
    """Sample size after applying the benchmark scale (minimum of 4)."""
    scale = bench_scale() if scale is None else scale
    return max(4, int(round(base * scale)))


def save_table(table: BenchTable, name: str) -> Path:
    """Archive a table as JSON + text under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    json_path = RESULTS_DIR / f"{name}.json"
    json_path.write_text(table.to_json())
    (RESULTS_DIR / f"{name}.txt").write_text(table.formatted())
    return json_path


def expand_sample(jobs, results, min_blocks: int):
    """Duplicate (job, result) pairs so a small sample can be split across GPUs.

    Every job of a benchmark sample stands for ``replication`` identical
    alignments, so duplicating the sampled jobs (and dividing the replication
    by the duplication factor) leaves the represented workload unchanged
    while giving the multi-GPU load balancer enough items to split evenly.
    Returns ``(jobs, results, divisor)``.
    """
    if len(jobs) >= min_blocks:
        return list(jobs), list(results), 1
    copies = -(-min_blocks // len(jobs))  # ceil division
    return list(jobs) * copies, list(results) * copies, copies


def benchmark_pairs(
    num_pairs: int,
    min_length: int = 2500,
    max_length: int = 7500,
    seed_placement: str = "start",
    rng_seed: int = 2020,
) -> list[AlignmentJob]:
    """Laptop-scale sample of the paper's synthetic 100 K-pair workload.

    Read lengths follow the paper (2.5–7.5 kb, ~15 % pairwise error); only
    the *number* of pairs is scaled down, and every runtime model multiplies
    the measured per-pair work traces back up with a replication factor, so
    the per-pair work distribution matches the paper's workload.
    """
    spec = PairSetSpec(
        num_pairs=num_pairs,
        min_length=min_length,
        max_length=max_length,
        pairwise_error_rate=0.15,
        seed_placement=seed_placement,
        rng_seed=rng_seed,
    )
    return generate_pair_set(spec)


# --------------------------------------------------------------------------- #
# Table I — parallelism levels.
# --------------------------------------------------------------------------- #
def run_table1(scale: float = 1.0) -> BenchTable:
    """Table I: impact of intra- and inter-sequence parallelism at X = 100."""
    xdrop = 100
    jobs = benchmark_pairs(sample_count(8, scale), rng_seed=11)

    # Trace a single pair for the one-block rows.
    first = jobs[0]
    res = xdrop_extend(first.query, first.target, _SCORING, xdrop=xdrop, trace=True)
    from repro.gpusim import BlockWorkTrace

    single_block = BlockWorkTrace.from_extension(
        res, first.query_length, first.target_length
    )
    model = KernelExecutionModel(TESLA_V100)

    # Row 1: no parallelism — one thread, one block.
    none_timing = model.execute(
        KernelWorkload(blocks=[single_block]), threads_per_block=1
    )
    # Row 2: intra-sequence only — 128 threads, one block.
    intra_timing = model.execute(
        KernelWorkload(blocks=[single_block]), threads_per_block=128
    )
    # Row 3: intra-sequence only, 100 K pairs executed one after the other.
    sequential_seconds = intra_timing.total_seconds * _PAPER_PAIRS
    # Row 4: intra + inter — the full batched launch.
    full = LoganAligner(xdrop=xdrop, threads_per_block=128).align_batch(
        jobs, replication=_PAPER_PAIRS / len(jobs)
    )

    table = BenchTable(
        title="Table I — X-drop execution on the GPU model, X=100, per parallelism level",
        parameter_name="row",
        columns=[
            "pairs",
            "threads",
            "blocks",
            "modeled_s",
            "paper_s",
            "speedup_vs_none",
        ],
        notes=(
            "Rows: 1=no parallelism, 2=intra-sequence, 3=intra-sequence over 100K pairs "
            "sequentially, 4=intra+inter (one block per alignment)."
        ),
    )
    none_s = none_timing.total_seconds
    rows = [
        (1, *PAPER_TABLE1["none"][:3], none_s, PAPER_TABLE1["none"][3]),
        (2, *PAPER_TABLE1["intra"][:3], intra_timing.total_seconds, PAPER_TABLE1["intra"][3]),
        (
            3,
            *PAPER_TABLE1["intra_sequential_100k"][:3],
            sequential_seconds,
            PAPER_TABLE1["intra_sequential_100k"][3],
        ),
        (
            4,
            *PAPER_TABLE1["intra_and_inter"][:3],
            full.modeled_seconds,
            PAPER_TABLE1["intra_and_inter"][3],
        ),
    ]
    for row_id, pairs, threads, blocks, modeled, paper in rows:
        reference = none_s if row_id in (1, 2) else none_s * _PAPER_PAIRS
        table.add_row(
            row_id,
            pairs=pairs,
            threads=threads,
            blocks=blocks,
            modeled_s=modeled,
            paper_s=paper,
            speedup_vs_none=reference / modeled if modeled > 0 else float("inf"),
        )
    save_table(table, "table1_parallelism")
    return table


# --------------------------------------------------------------------------- #
# Table II / Fig. 8 — LOGAN vs SeqAn.
# --------------------------------------------------------------------------- #
def run_table2(scale: float = 1.0, x_values: Sequence[int] | None = None) -> BenchTable:
    """Table II + Fig. 8: LOGAN vs SeqAn on the 100 K-pair synthetic workload."""
    x_values = list(x_values or TABLE2_X_VALUES)
    jobs = benchmark_pairs(sample_count(6, scale))
    replication = _PAPER_PAIRS / len(jobs)

    table = BenchTable(
        title="Table II — LOGAN vs SeqAn (modeled, 100K pairs extrapolated)",
        parameter_name="X",
        columns=[
            "seqan_168t_s",
            "logan_1gpu_s",
            "logan_6gpu_s",
            "speedup_1gpu",
            "speedup_6gpu",
            "logan_1gpu_gcups",
            "paper_seqan_s",
            "paper_1gpu_s",
            "paper_6gpu_s",
        ],
        notes=(
            f"sample={len(jobs)} pairs of 2.5-7.5 kb, replicated x{replication:.0f}; "
            "SeqAn modeled on 2x POWER9 (168 threads) from the same work trace."
        ),
    )
    for x in x_values:
        aligner1 = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=x)
        logan1 = aligner1.align_batch(jobs, replication=replication)
        jobs6, results6, copies = expand_sample(jobs, logan1.results, min_blocks=24)
        logan6 = LoganAligner(system=MultiGpuSystem.homogeneous(6), xdrop=x).model_existing(
            jobs6, results6, replication=replication / copies
        )
        seqan_model = SeqAnBatchAligner(xdrop=x)
        seqan_seconds = seqan_model.modeled_seconds_for(
            logan1.summary.scaled(replication)
        )
        paper = PAPER_TABLE2.get(x, (float("nan"),) * 3)
        table.add_row(
            x,
            seqan_168t_s=seqan_seconds,
            logan_1gpu_s=logan1.modeled_seconds,
            logan_6gpu_s=logan6.modeled_seconds,
            speedup_1gpu=seqan_seconds / logan1.modeled_seconds,
            speedup_6gpu=seqan_seconds / logan6.modeled_seconds,
            logan_1gpu_gcups=logan1.modeled_gcups,
            paper_seqan_s=paper[0],
            paper_1gpu_s=paper[1],
            paper_6gpu_s=paper[2],
        )
    save_table(table, "table2_vs_seqan")
    return table


# --------------------------------------------------------------------------- #
# Table III / Fig. 9 — LOGAN vs ksw2.
# --------------------------------------------------------------------------- #
def run_table3(scale: float = 1.0, x_values: Sequence[int] | None = None) -> BenchTable:
    """Table III + Fig. 9: LOGAN vs ksw2 (Skylake platform, 8 GPUs)."""
    x_values = list(x_values or TABLE2_X_VALUES)
    jobs = benchmark_pairs(sample_count(5, scale), rng_seed=2021)
    replication = _PAPER_PAIRS / len(jobs)

    table = BenchTable(
        title="Table III — LOGAN vs ksw2 (modeled, 100K pairs extrapolated)",
        parameter_name="X",
        columns=[
            "ksw2_80t_s",
            "logan_1gpu_s",
            "logan_8gpu_s",
            "speedup_1gpu",
            "speedup_8gpu",
            "paper_ksw2_s",
            "paper_1gpu_s",
            "paper_8gpu_s",
        ],
        notes=(
            f"sample={len(jobs)} pairs; ksw2 run with Z-drop = X and band = X "
            "(the paper's harness convention), modeled on 80 Skylake threads."
        ),
    )
    for x in x_values:
        ksw2 = Ksw2BatchAligner(zdrop=x)
        ksw2_batch = ksw2.align_batch(jobs)
        ksw2_seconds = ksw2.modeled_seconds_for(ksw2_batch.summary.scaled(replication))

        logan1 = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=x).align_batch(
            jobs, replication=replication
        )
        jobs8, results8, copies = expand_sample(jobs, logan1.results, min_blocks=32)
        logan8 = LoganAligner(system=MultiGpuSystem.homogeneous(8), xdrop=x).model_existing(
            jobs8, results8, replication=replication / copies
        )
        paper = PAPER_TABLE3.get(x, (float("nan"),) * 3)
        table.add_row(
            x,
            ksw2_80t_s=ksw2_seconds,
            logan_1gpu_s=logan1.modeled_seconds,
            logan_8gpu_s=logan8.modeled_seconds,
            speedup_1gpu=ksw2_seconds / logan1.modeled_seconds,
            speedup_8gpu=ksw2_seconds / logan8.modeled_seconds,
            paper_ksw2_s=paper[0],
            paper_1gpu_s=paper[1],
            paper_8gpu_s=paper[2],
        )
    save_table(table, "table3_vs_ksw2")
    return table


# --------------------------------------------------------------------------- #
# Tables IV & V / Figs. 10 & 11 — BELLA integration.
# --------------------------------------------------------------------------- #
def _bella_jobs(
    preset: DatasetPreset, dataset_scale: float, max_jobs: int, rng_seed: int
) -> list[AlignmentJob]:
    """Candidate alignment jobs from a scaled BELLA dataset (stages 1-3)."""
    dataset = load_dataset(preset, scale=dataset_scale, rng=np.random.default_rng(rng_seed))
    sequences = [r.sequence for r in dataset.reads]
    index = build_kmer_index(sequences, k=17, lower=2)
    candidates = find_candidate_overlaps(index)
    jobs: list[AlignmentJob] = []
    for pair_id, candidate in enumerate(candidates.candidates):
        if not candidate.seed_positions:
            continue
        query = sequences[candidate.read_i]
        target = sequences[candidate.read_j]
        choice = choose_seed(candidate, 17, len(query), len(target))
        jobs.append(AlignmentJob(query=query, target=target, seed=choice.seed, pair_id=pair_id))
    if not jobs:
        raise RuntimeError("BELLA benchmark dataset produced no candidate overlaps")
    if len(jobs) > max_jobs:
        # Evenly-spaced subsample keeps the length/overlap distribution.
        idx = np.linspace(0, len(jobs) - 1, max_jobs).astype(int)
        jobs = [jobs[i] for i in idx]
    return jobs


def _run_bella_table(
    preset: DatasetPreset,
    paper_rows: dict[int, tuple[float, float, float]],
    name: str,
    scale: float,
    dataset_scale: float,
    base_jobs: int,
    x_values: Sequence[int] | None = None,
) -> BenchTable:
    x_values = list(x_values or BELLA_X_VALUES)
    jobs = _bella_jobs(preset, dataset_scale, sample_count(base_jobs, scale), rng_seed=5)
    replication = preset.paper_alignments / len(jobs)

    table = BenchTable(
        title=f"{name} — BELLA alignment stage: SeqAn vs LOGAN ({preset.name})",
        parameter_name="X",
        columns=[
            "bella_seqan_s",
            "logan_1gpu_s",
            "logan_6gpu_s",
            "speedup_1gpu",
            "speedup_6gpu",
            "paper_bella_s",
            "paper_1gpu_s",
            "paper_6gpu_s",
        ],
        notes=(
            f"{len(jobs)} sampled candidate alignments from a scaled {preset.name} dataset, "
            f"replicated x{replication:.0f} to the paper's {preset.paper_alignments:,} alignments."
        ),
    )
    for x in x_values:
        logan1 = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=x).align_batch(
            jobs, replication=replication
        )
        jobs6, results6, copies = expand_sample(jobs, logan1.results, min_blocks=24)
        logan6 = LoganAligner(system=MultiGpuSystem.homogeneous(6), xdrop=x).model_existing(
            jobs6, results6, replication=replication / copies
        )
        seqan_seconds = SeqAnBatchAligner(xdrop=x).modeled_seconds_for(
            logan1.summary.scaled(replication)
        )
        paper = paper_rows.get(x, (float("nan"),) * 3)
        table.add_row(
            x,
            bella_seqan_s=seqan_seconds,
            logan_1gpu_s=logan1.modeled_seconds,
            logan_6gpu_s=logan6.modeled_seconds,
            speedup_1gpu=seqan_seconds / logan1.modeled_seconds,
            speedup_6gpu=seqan_seconds / logan6.modeled_seconds,
            paper_bella_s=paper[0],
            paper_1gpu_s=paper[1],
            paper_6gpu_s=paper[2],
        )
    save_table(table, name.lower().replace(" ", "_"))
    return table


def run_table4(scale: float = 1.0, x_values: Sequence[int] | None = None) -> BenchTable:
    """Table IV + Fig. 10: BELLA E. coli alignment stage (1.82 M alignments)."""
    return _run_bella_table(
        ECOLI_LIKE, PAPER_TABLE4, "table4_bella_ecoli", scale,
        dataset_scale=0.06, base_jobs=18, x_values=x_values,
    )


def run_table5(scale: float = 1.0, x_values: Sequence[int] | None = None) -> BenchTable:
    """Table V + Fig. 11: BELLA C. elegans alignment stage (235 M alignments)."""
    return _run_bella_table(
        CELEGANS_LIKE, PAPER_TABLE5, "table5_bella_celegans", scale,
        dataset_scale=0.03, base_jobs=18, x_values=x_values,
    )


# --------------------------------------------------------------------------- #
# Fig. 12 — GCUPS comparison across GPU counts.
# --------------------------------------------------------------------------- #
def run_fig12(scale: float = 1.0, xdrop: int = 5000) -> BenchTable:
    """Fig. 12: GCUPS of LOGAN, CUDASW++ and manymap for 1-8 GPUs."""
    jobs = benchmark_pairs(sample_count(6, scale), rng_seed=3)
    replication = _PAPER_PAIRS / len(jobs)
    base = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=xdrop).align_batch(
        jobs, replication=replication
    )

    table = BenchTable(
        title="Fig. 12 — GPU-based aligner throughput (GCUPS) vs GPU count",
        parameter_name="gpus",
        columns=[
            "logan_gcups",
            "manymap_gcups",
            "cudasw_gpu_gcups",
            "cudasw_hybrid_gcups",
            "paper_logan_1gpu_gcups",
        ],
        notes=f"LOGAN modeled at X={xdrop} (its peak-GCUPS regime, as in the paper); "
        "competitor curves are throughput models anchored to the numbers quoted in "
        "the paper (Section II / VI).",
    )
    jobs_x, results_x, copies = expand_sample(jobs, base.results, min_blocks=32)
    for gpus in range(1, 9):
        logan = LoganAligner(
            system=MultiGpuSystem.homogeneous(gpus), xdrop=xdrop
        ).model_existing(jobs_x, results_x, replication=replication / copies)
        table.add_row(
            gpus,
            logan_gcups=logan.modeled_gcups,
            manymap_gcups=MANYMAP.gcups(gpus),
            cudasw_gpu_gcups=CUDASW_GPU_ONLY.gcups(gpus),
            cudasw_hybrid_gcups=CUDASW_HYBRID_SIMD.gcups(gpus),
            paper_logan_1gpu_gcups=PAPER_FIG12_SINGLE_GPU["LOGAN"],
        )
    save_table(table, "fig12_gcups_comparison")
    return table


# --------------------------------------------------------------------------- #
# Fig. 13 — Roofline.
# --------------------------------------------------------------------------- #
def run_fig13(scale: float = 1.0, xdrop: int = 100) -> BenchTable:
    """Fig. 13: instruction Roofline of the LOGAN kernel (X=100, 100 K pairs)."""
    jobs = benchmark_pairs(sample_count(10, scale), rng_seed=17)
    replication = _PAPER_PAIRS / len(jobs)
    aligner = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=xdrop)
    batch = aligner.align_batch(jobs, replication=replication)

    # With start-placed seeds the right-extension stream carries all the work.
    timing = batch.kernel_timings[0][0]
    from repro.gpusim import BlockWorkTrace

    workload = KernelWorkload(replication=replication)
    for job, result in zip(jobs, batch.results):
        ext = result.right
        if ext.band_widths is None or ext.cells_computed <= 1:
            continue
        workload.add(
            BlockWorkTrace.from_extension(ext, job.query_length, job.target_length)
        )
    analysis = analyze_kernel(TESLA_V100, timing, workload, label=f"LOGAN X={xdrop}")
    series = build_series(analysis)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "fig13_roofline_series.json").write_text(series.to_json())
    (RESULTS_DIR / "fig13_roofline_ascii.txt").write_text(render_ascii(series))

    table = BenchTable(
        title="Fig. 13 — Instruction Roofline of the LOGAN kernel (X=100)",
        parameter_name="metric",
        columns=["value"],
        notes="metric ids: 1=OI (warp instr/byte), 2=achieved warp GIPS, "
        "3=adapted ceiling, 4=INT32 ceiling, 5=ridge point, 6=efficiency vs adapted ceiling, "
        "7=compute bound (1/0).",
    )
    table.add_row(1, value=analysis.point.operational_intensity)
    table.add_row(2, value=analysis.point.warp_gips)
    table.add_row(3, value=analysis.ceilings.adapted_warp_gips)
    table.add_row(4, value=analysis.ceilings.int32_warp_gips)
    table.add_row(5, value=analysis.ceilings.ridge_point)
    table.add_row(6, value=analysis.efficiency)
    table.add_row(7, value=1.0 if analysis.is_compute_bound else 0.0)
    save_table(table, "fig13_roofline")
    return table


# --------------------------------------------------------------------------- #
# Fig. 2 — search-space comparison.
# --------------------------------------------------------------------------- #
def run_fig2(scale: float = 1.0) -> BenchTable:
    """Fig. 2: X-drop vs fixed-band vs full-DP explored cells.

    Two scenarios, following Section III: a *similar* pair (15 % error, the
    normal case) and a *divergent* pair with >50 % substitutions and no
    indels (the case where X-drop terminates early but a fixed band does
    not).
    """
    rng = np.random.default_rng(7)
    length = sample_count(1200, scale)
    xdrop = 50
    bandwidth = 50
    scoring = ScoringScheme(match=1, mismatch=-2, gap=-2)

    template = random_sequence(length, rng)
    similar = template.copy()
    sub_idx = rng.random(length) < 0.15
    similar[sub_idx] = (similar[sub_idx] + rng.integers(1, 4, int(sub_idx.sum()))) % 4

    divergent = template.copy()
    sub_idx = rng.random(length) < 0.55
    divergent[sub_idx] = (divergent[sub_idx] + rng.integers(1, 4, int(sub_idx.sum()))) % 4

    table = BenchTable(
        title="Fig. 2 — explored DP cells: X-drop vs fixed band vs full Smith-Waterman",
        parameter_name="scenario",
        columns=["xdrop_cells", "banded_cells", "full_sw_cells", "xdrop_score", "banded_score"],
        notes="scenario 1 = similar pair (15% substitutions), scenario 2 = divergent pair "
        f"(55% substitutions, no indels); X={xdrop}, band half-width={bandwidth}, "
        "BLAST-like scoring 1/-2/-2.",
    )
    for scenario, other in ((1, similar), (2, divergent)):
        xres = xdrop_extend(template, other, scoring, xdrop=xdrop)
        bres = banded_smith_waterman(template, other, scoring, bandwidth=bandwidth)
        sres = smith_waterman(template, other, scoring)
        table.add_row(
            scenario,
            xdrop_cells=xres.cells_computed,
            banded_cells=bres.cells_computed,
            full_sw_cells=sres.cells_computed,
            xdrop_score=xres.best_score,
            banded_score=bres.best_score,
        )
    save_table(table, "fig2_search_space")
    return table


# --------------------------------------------------------------------------- #
# Accuracy (Section VI "equivalent accuracy").
# --------------------------------------------------------------------------- #
def run_accuracy(scale: float = 1.0) -> BenchTable:
    """Score equivalence: LOGAN vs SeqAn-style reference vs exact DP."""
    from repro.core import exact_extension_score, xdrop_extend_reference

    jobs = benchmark_pairs(
        sample_count(10, scale), min_length=300, max_length=600, seed_placement="middle"
    )
    table = BenchTable(
        title="Accuracy — LOGAN vs SeqAn reference vs exact extension",
        parameter_name="X",
        columns=["pairs", "identical_to_seqan", "fraction_of_exact"],
        notes="identical_to_seqan counts pairs whose LOGAN score equals the scalar "
        "SeqAn-style reference (must equal the pair count); fraction_of_exact is the "
        "mean LOGAN score divided by the un-pruned exact extension score.",
    )
    from repro.core.seed_extend import extend_seed

    for x in (5, 25, 100, 500):
        logan = LoganAligner(xdrop=x).align_batch(jobs)
        identical = 0
        ratio_sum = 0.0
        for job, result in zip(jobs, logan.results):
            seqan_score = extend_seed(
                job.query,
                job.target,
                job.seed,
                _SCORING,
                xdrop=x,
                kernel=xdrop_extend_reference,
            ).score
            if seqan_score == result.score:
                identical += 1
            exact_right = exact_extension_score(
                job.query[job.seed.query_end :], job.target[job.seed.target_end :], _SCORING
            ).best_score
            exact_left = exact_extension_score(
                job.query[: job.seed.query_pos][::-1],
                job.target[: job.seed.target_pos][::-1],
                _SCORING,
            ).best_score if job.seed.query_pos and job.seed.target_pos else 0
            exact_total = exact_left + exact_right + job.seed.length
            ratio_sum += result.score / exact_total if exact_total else 1.0
        table.add_row(
            x,
            pairs=len(jobs),
            identical_to_seqan=identical,
            fraction_of_exact=ratio_sum / len(jobs),
        )
    save_table(table, "accuracy_equivalence")
    return table


# --------------------------------------------------------------------------- #
# Ablations of the design choices called out in DESIGN.md.
# --------------------------------------------------------------------------- #
def run_ablation_threads(scale: float = 1.0) -> BenchTable:
    """Ablation: X-proportional thread scheduling vs a fixed 1024 threads."""
    jobs = benchmark_pairs(sample_count(5, scale), rng_seed=41)
    replication = _PAPER_PAIRS / len(jobs)
    table = BenchTable(
        title="Ablation — threads per block: proportional to X vs fixed 1024",
        parameter_name="X",
        columns=[
            "threads_proportional",
            "proportional_s",
            "fixed_1024_s",
            "slowdown_fixed",
        ],
        notes="Both configurations execute the identical work trace; only the "
        "launch geometry (and therefore occupancy / active warps) differs.",
    )
    for x in (50, 100, 500):
        base = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=x).align_batch(
            jobs, replication=replication
        )
        proportional = base.modeled_seconds
        fixed = LoganAligner(
            system=MultiGpuSystem.homogeneous(1), xdrop=x, threads_per_block=1024
        ).model_existing(jobs, base.results, replication=replication)
        table.add_row(
            x,
            threads_proportional=threads_for_xdrop(x, TESLA_V100),
            proportional_s=proportional,
            fixed_1024_s=fixed.modeled_seconds,
            slowdown_fixed=fixed.modeled_seconds / proportional,
        )
    save_table(table, "ablation_threads")
    return table


def run_ablation_memory(scale: float = 1.0, xdrop: int = 500) -> BenchTable:
    """Ablation: anti-diagonals in HBM (LOGAN) vs reserved shared memory."""
    from repro.gpusim import BlockWorkTrace, occupancy

    jobs = benchmark_pairs(sample_count(5, scale), rng_seed=42)
    replication = _PAPER_PAIRS / len(jobs)
    base = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=xdrop).align_batch(
        jobs, replication=replication
    )
    threads = threads_for_xdrop(xdrop, TESLA_V100)

    workload = KernelWorkload(replication=replication)
    for job, result in zip(jobs, base.results):
        ext = result.right
        if ext.band_widths is not None and ext.cells_computed > 1:
            workload.add(
                BlockWorkTrace(ext.band_widths, job.query_length, job.target_length)
            )
    model = KernelExecutionModel(TESLA_V100)
    hbm_smem = threads * 4  # reduction scratch only (the LOGAN design)
    shared_smem = 48 * 1024  # three anti-diagonal buffers kept in shared memory

    hbm_timing = model.execute(workload, threads, shared_mem_per_block_bytes=hbm_smem)
    shared_timing = model.execute(workload, threads, shared_mem_per_block_bytes=shared_smem)
    occ_hbm = occupancy(TESLA_V100, threads, hbm_smem)
    occ_shared = occupancy(TESLA_V100, threads, shared_smem)

    table = BenchTable(
        title="Ablation — anti-diagonal placement: HBM (LOGAN) vs shared memory",
        parameter_name="row",
        columns=["blocks_per_sm", "active_warps_per_sm", "kernel_s", "slowdown"],
        notes="row 1 = HBM placement (reduction scratch only in shared memory); "
        "row 2 = 48 KiB of anti-diagonal buffers per block in shared memory, which "
        "caps occupancy at 2 blocks per SM (Section IV-B).",
    )
    table.add_row(
        1,
        blocks_per_sm=occ_hbm.blocks_per_sm,
        active_warps_per_sm=occ_hbm.active_warps_per_sm,
        kernel_s=hbm_timing.total_seconds,
        slowdown=1.0,
    )
    table.add_row(
        2,
        blocks_per_sm=occ_shared.blocks_per_sm,
        active_warps_per_sm=occ_shared.active_warps_per_sm,
        kernel_s=shared_timing.total_seconds,
        slowdown=shared_timing.total_seconds / hbm_timing.total_seconds,
    )
    save_table(table, "ablation_memory")
    return table


def run_ablation_reversal(scale: float = 1.0, xdrop: int = 100) -> BenchTable:
    """Ablation: host-side query reversal (coalesced access) on vs off."""
    from repro.gpusim import BlockWorkTrace, MemoryModel

    jobs = benchmark_pairs(sample_count(5, scale), rng_seed=43)
    replication = _PAPER_PAIRS / len(jobs)
    base = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=xdrop).align_batch(
        jobs, replication=replication
    )
    threads = threads_for_xdrop(xdrop, TESLA_V100)
    workload = KernelWorkload(replication=replication)
    for job, result in zip(jobs, base.results):
        ext = result.right
        if ext.band_widths is not None and ext.cells_computed > 1:
            workload.add(
                BlockWorkTrace(ext.band_widths, job.query_length, job.target_length)
            )

    coalesced = KernelExecutionModel(
        TESLA_V100, memory_model=MemoryModel(TESLA_V100, sequence_read_amplification=2.0)
    ).execute(workload, threads)
    # Without the reversal one sequence is read backwards: every byte touches
    # a different 32-byte sector, inflating its DRAM traffic ~16x.
    uncoalesced = KernelExecutionModel(
        TESLA_V100, memory_model=MemoryModel(TESLA_V100, sequence_read_amplification=16.0)
    ).execute(workload, threads)

    table = BenchTable(
        title="Ablation — sequence reversal for coalesced access: on vs off",
        parameter_name="row",
        columns=["hbm_gb", "memory_s", "kernel_s", "slowdown"],
        notes="row 1 = reversal on (coalesced reads), row 2 = reversal off "
        "(one sequence read backwards, ~16x sequence traffic).",
    )
    table.add_row(
        1,
        hbm_gb=coalesced.hbm_bytes / 1e9,
        memory_s=coalesced.memory_seconds,
        kernel_s=coalesced.total_seconds,
        slowdown=1.0,
    )
    table.add_row(
        2,
        hbm_gb=uncoalesced.hbm_bytes / 1e9,
        memory_s=uncoalesced.memory_seconds,
        kernel_s=uncoalesced.total_seconds,
        slowdown=uncoalesced.total_seconds / coalesced.total_seconds,
    )
    save_table(table, "ablation_reversal")
    return table


def run_ablation_reduction(scale: float = 1.0, xdrop: int = 50) -> BenchTable:
    """Ablation: warp-shuffle reduction vs a serial per-block maximum."""
    from repro.gpusim import BlockWorkTrace, KernelCostParameters

    jobs = benchmark_pairs(sample_count(5, scale), rng_seed=44)
    replication = _PAPER_PAIRS / len(jobs)
    base = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=xdrop).align_batch(
        jobs, replication=replication
    )
    threads = threads_for_xdrop(xdrop, TESLA_V100)
    workload = KernelWorkload(replication=replication)
    for job, result in zip(jobs, base.results):
        ext = result.right
        if ext.band_widths is not None and ext.cells_computed > 1:
            workload.add(
                BlockWorkTrace(ext.band_widths, job.query_length, job.target_length)
            )

    shuffle = KernelExecutionModel(TESLA_V100).execute(workload, threads)
    # Serial reduction: thread 0 compares every value — 32 steps per warp
    # instead of log2(32), plus heavier bookkeeping on the single thread.
    serial_params = KernelCostParameters(
        shuffle_steps_per_warp=32, bookkeeping_warp_instructions=40.0
    )
    serial = KernelExecutionModel(TESLA_V100, params=serial_params).execute(
        workload, threads
    )

    table = BenchTable(
        title="Ablation — anti-diagonal max: warp-shuffle reduction vs serial scan",
        parameter_name="row",
        columns=["warp_instructions", "kernel_s", "slowdown"],
        notes="row 1 = in-warp shuffle reduction (LOGAN), row 2 = serial comparison.",
    )
    table.add_row(
        1,
        warp_instructions=shuffle.warp_instructions,
        kernel_s=shuffle.total_seconds,
        slowdown=1.0,
    )
    table.add_row(
        2,
        warp_instructions=serial.warp_instructions,
        kernel_s=serial.total_seconds,
        slowdown=serial.total_seconds / shuffle.total_seconds,
    )
    save_table(table, "ablation_reduction")
    return table


def run_ablation_loadbalance(scale: float = 1.0, xdrop: int = 500) -> BenchTable:
    """Ablation: work-aware load balancing vs naive equal-count splitting."""
    # A deliberately skewed workload: a few long pairs among many short ones.
    long_jobs = benchmark_pairs(
        sample_count(3, scale), min_length=6000, max_length=7500, rng_seed=45
    )
    short_jobs = benchmark_pairs(
        sample_count(9, scale), min_length=2500, max_length=3000, rng_seed=46
    )
    jobs = long_jobs + short_jobs
    replication = _PAPER_PAIRS / len(jobs)
    base = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=xdrop).align_batch(
        jobs, replication=replication
    )

    table = BenchTable(
        title="Ablation — multi-GPU load balancing: estimated-cells vs equal counts",
        parameter_name="row",
        columns=["imbalance", "batch_s", "slowdown"],
        notes="row 1 = LOGAN's length-aware split, row 2 = naive round-robin by count; "
        "6 GPUs, skewed read-length distribution.",
    )
    cells_policy = LoganAligner(
        system=MultiGpuSystem.homogeneous(6), xdrop=xdrop, balancer_policy="cells"
    ).model_existing(jobs, base.results, replication=replication)
    count_policy = LoganAligner(
        system=MultiGpuSystem.homogeneous(6), xdrop=xdrop, balancer_policy="count"
    ).model_existing(jobs, base.results, replication=replication)
    table.add_row(
        1,
        imbalance=cells_policy.multi_gpu.load_imbalance,
        batch_s=cells_policy.modeled_seconds,
        slowdown=1.0,
    )
    table.add_row(
        2,
        imbalance=count_policy.multi_gpu.load_imbalance,
        batch_s=count_policy.modeled_seconds,
        slowdown=count_policy.modeled_seconds / cells_policy.modeled_seconds,
    )
    save_table(table, "ablation_loadbalance")
    return table


# --------------------------------------------------------------------------- #
# Engine comparison — the registry axis added by the unified engine layer.
# --------------------------------------------------------------------------- #
def compare_engines(
    jobs: Sequence[AlignmentJob],
    xdrop: int = 50,
    engines: Sequence[str] | None = None,
    scoring: ScoringScheme | None = None,
) -> list[dict]:
    """Run every named engine over *jobs* and collect comparison rows.

    The per-job scalar ``reference`` engine is always executed (it is the
    speed-up denominator and the score oracle) even when *engines* excludes
    it from the reported rows.  Shared by :func:`run_engines` and
    ``benchmarks/bench_engines.py``.
    """
    from repro.engine import get_engine, list_engines

    scoring = scoring or _SCORING
    names = list(engines) if engines else list_engines()
    ref_batch = get_engine("reference", scoring=scoring, xdrop=xdrop).align_batch(jobs)
    ref_scores = ref_batch.scores()

    rows = []
    for name in names:
        if name == "reference":
            batch = ref_batch
        else:
            batch = get_engine(name, scoring=scoring, xdrop=xdrop).align_batch(jobs)
        rows.append(
            {
                "engine": name,
                "measured_seconds": batch.elapsed_seconds,
                "measured_gcups": batch.measured_gcups(),
                "speedup_vs_scalar": (
                    ref_batch.elapsed_seconds / batch.elapsed_seconds
                    if batch.elapsed_seconds > 0
                    else float("inf")
                ),
                "scores_identical_to_reference": batch.scores() == ref_scores,
                "modeled_seconds": batch.modeled_seconds,
                "cells": batch.summary.cells,
            }
        )
    return rows


def run_engines(
    scale: float = 1.0,
    engines: Sequence[str] | None = None,
    xdrop: int = 50,
    rng_seed: int = 2020,
) -> BenchTable:
    """Compare every registered alignment engine on one fixed-seed batch.

    Each engine aligns the same job batch; rows report measured wall-clock,
    GCUPS, the speed-up over the per-job scalar reference loop, and whether
    the scores are bit-identical to the reference (1.0) or merely
    comparable (0.0, e.g. the affine-gap ksw2 engine).
    """
    jobs = benchmark_pairs(
        sample_count(24, scale),
        min_length=300,
        max_length=600,
        seed_placement="middle",
        rng_seed=rng_seed,
    )
    rows = compare_engines(jobs, xdrop=xdrop, engines=engines)

    table = BenchTable(
        title=f"Engine comparison — {len(jobs)} jobs, X={xdrop}",
        parameter_name="engine#",
        columns=[
            "measured_s",
            "measured_gcups",
            "speedup_vs_reference",
            "scores_exact",
            "modeled_s",
        ],
        notes="engines: "
        + ", ".join(f"{i}={row['engine']}" for i, row in enumerate(rows)),
    )
    for index, row in enumerate(rows):
        table.add_row(
            index,
            measured_s=row["measured_seconds"],
            measured_gcups=row["measured_gcups"],
            speedup_vs_reference=row["speedup_vs_scalar"],
            scores_exact=float(row["scores_identical_to_reference"]),
            modeled_s=(
                row["modeled_seconds"]
                if row["modeled_seconds"] is not None
                else float("nan")
            ),
        )
    save_table(table, "engines")
    return table


# --------------------------------------------------------------------------- #
# Dispatch used by the CLI.
# --------------------------------------------------------------------------- #
_EXPERIMENTS = {
    "engines": run_engines,
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig2": run_fig2,
    "accuracy": run_accuracy,
    "ablation_threads": run_ablation_threads,
    "ablation_memory": run_ablation_memory,
    "ablation_reversal": run_ablation_reversal,
    "ablation_reduction": run_ablation_reduction,
    "ablation_loadbalance": run_ablation_loadbalance,
}


def run_experiment(name: str, scale: float = 1.0) -> BenchTable:
    """Run one named experiment (used by ``repro-bench``)."""
    if name not in _EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(_EXPERIMENTS)}")
    return _EXPERIMENTS[name](scale=scale)
