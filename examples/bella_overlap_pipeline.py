#!/usr/bin/env python
"""BELLA overlap detection with LOGAN as the alignment kernel (Section V).

Simulates a small long-read dataset from a synthetic genome (with planted
repeats, the classic source of spurious candidate overlaps), runs the full
BELLA pipeline twice — once with the SeqAn-style scalar CPU kernel (the
``reference`` engine) and once with the LOGAN GPU-model kernel — and verifies
the two produce identical overlap sets while reporting how the alignment stage
dominates the pipeline runtime.  The POWER9 time of the SeqAn run is modeled
after the fact from its work summary, as the paper tables do.

Run with::

    python examples/bella_overlap_pipeline.py
"""

from __future__ import annotations

from repro.api import AlignConfig
from repro.baselines import SEQAN_POWER9_MODEL
from repro.bella import BellaPipeline
from repro.data import ErrorModel, RepeatSpec, simulate_genome, simulate_reads, true_overlap

import numpy as np


def main() -> None:
    rng = np.random.default_rng(7)
    genome = simulate_genome(
        length=40_000,
        repeats=[RepeatSpec(length=1500, copies=3, divergence=0.03)],
        rng=rng,
    )
    reads = simulate_reads(
        genome,
        num_reads=60,
        mean_length=1800,
        length_spread=600,
        error_model=ErrorModel.with_total(0.12),
        rng=rng,
    )
    print(f"dataset: {len(reads)} reads, genome {len(genome):,} bp, "
          f"~{sum(len(r) for r in reads) / len(genome):.1f}x coverage, "
          f"{len(genome.repeat_positions)} planted repeat copies")

    # Two pipelines differing only in the alignment kernel — the same
    # AlignConfig with a different engine name.
    seqan_pipeline = BellaPipeline(
        config=AlignConfig(engine="reference", xdrop=25),
        k=15, error_rate=0.12, min_overlap=500,
    )
    logan_pipeline = BellaPipeline(
        config=AlignConfig(engine="logan", xdrop=25, engine_options={"gpus": 6}),
        k=15,
        error_rate=0.12,
        min_overlap=500,
    )

    seqan_result = seqan_pipeline.run(reads)
    logan_result = logan_pipeline.run(reads)

    print()
    print(f"reliable k-mers        : {seqan_result.index.retained_kmers:,} "
          f"({seqan_result.index.pruned_fraction:.0%} pruned)")
    print(f"candidate overlaps     : {seqan_result.candidates.num_candidates:,}")
    print(f"aligned candidates     : {seqan_result.num_alignments:,}")
    print(f"accepted overlaps      : {len(seqan_result.accepted):,}")
    print(f"alignment stage share  : {seqan_result.timer.fraction('alignment'):.0%} "
          f"of the pipeline wall-clock (the paper reports ~90%)")
    print()

    same_pairs = seqan_result.accepted_pairs() == logan_result.accepted_pairs()
    same_scores = [o.score for o in seqan_result.overlaps] == [
        o.score for o in logan_result.overlaps
    ]
    print(f"BELLA+SeqAn and BELLA+LOGAN produce identical overlaps: {same_pairs}")
    print(f"... and identical alignment scores                    : {same_scores}")
    power9_seconds = SEQAN_POWER9_MODEL.seconds_for(seqan_result.work)
    print(f"modeled alignment stage (POWER9, 168 threads) : "
          f"{power9_seconds:10.4f} s")
    print(f"modeled alignment stage (6x V100, LOGAN)      : "
          f"{logan_result.alignment_modeled_seconds:10.4f} s")
    # Nearly all of the V100 time is the model's fixed per-batch terms: the
    # host set-up and the balancer overhead of each device.
    model = logan_pipeline.aligner.model
    host_fixed = model.host_model.fixed_seconds
    balancer = model.system.per_device_overhead_seconds
    gpus = model.system.num_devices
    print(f"  of which fixed per batch                    : "
          f"{host_fixed + gpus * balancer:10.4f} s "
          f"(host set-up {host_fixed:.2f} s + balancer {gpus} x {balancer:.2f} s)")
    print(f"The paper's runs spread this fixed cost over 10^6+ alignments; "
          f"this {logan_result.num_alignments}-alignment sample does not.")

    # Recall / precision against the simulator's ground truth.
    truth = {
        (i, j)
        for i in range(len(reads))
        for j in range(i + 1, len(reads))
        if true_overlap(reads[i], reads[j]) >= 800
    }
    found = logan_result.accepted_pairs()
    tp = len(found & truth)
    print()
    print(f"ground-truth overlaps >= 800 bp : {len(truth)}")
    print(f"recall    : {tp / max(1, len(truth)):.2f}")
    print(f"precision : {tp / max(1, len(found)):.2f}")


if __name__ == "__main__":
    main()
