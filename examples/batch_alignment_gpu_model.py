#!/usr/bin/env python
"""Batch alignment with the LOGAN GPU execution model (the Table II scenario).

Generates a laptop-scale sample of the paper's synthetic 100 K-pair workload,
aligns it with the ``logan`` engine, replays its band traces on the V100
model (:class:`repro.logan.LoganModel`), and reports

* measured Python wall-clock and GCUPS of the real alignment work,
* the modeled runtime of the same batch on 1 and 6 NVIDIA V100s,
* the modeled runtime of SeqAn's X-drop on 168 POWER9 threads (the paper's
  CPU baseline) for the identical work trace, and
* the resulting speed-ups — the reproduction of the paper's headline claim.

Run with::

    python examples/batch_alignment_gpu_model.py [num_pairs] [xdrop]
"""

from __future__ import annotations

import sys

from repro.baselines import SEQAN_POWER9_MODEL
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.gpusim import MultiGpuSystem
from repro.logan import LoganModel

PAPER_PAIRS = 100_000


def main(num_pairs: int = 8, xdrop: int = 100) -> None:
    spec = PairSetSpec(
        num_pairs=num_pairs,
        min_length=2500,
        max_length=7500,
        pairwise_error_rate=0.15,
        seed_placement="start",
        rng_seed=2020,
    )
    jobs = generate_pair_set(spec)
    replication = PAPER_PAIRS / len(jobs)
    print(f"aligning {len(jobs)} sampled pairs (standing in for {PAPER_PAIRS:,}) "
          f"at X={xdrop}")
    print()

    # One modeled V100: the logan engine's own model -------------------------
    engine = get_engine("logan", xdrop=xdrop)
    batch = engine.align_batch(jobs)
    result1 = engine.model.replay(jobs, batch.results, replication=replication)
    print(f"measured Python run     : {batch.elapsed_seconds:8.2f} s "
          f"({batch.measured_gcups():.4f} GCUPS)")
    print(f"modeled 1x V100         : {result1.modeled_seconds:8.2f} s "
          f"({result1.modeled_gcups:.1f} GCUPS, {result1.threads_per_block} threads/block)")

    # Six modeled V100s (re-modeled from the same results, no re-alignment) --
    six_gpu = LoganModel(system=MultiGpuSystem.homogeneous(6), xdrop=xdrop)
    result6 = six_gpu.replay(jobs, batch.results, replication=replication)
    print(f"modeled 6x V100         : {result6.modeled_seconds:8.2f} s "
          f"({result6.modeled_gcups:.1f} GCUPS, "
          f"imbalance {result6.multi_gpu.load_imbalance:.2f})")

    # The paper's CPU baseline, modeled from the identical work trace --------
    seqan_seconds = SEQAN_POWER9_MODEL.seconds_for(batch.summary.scaled(replication))
    print(f"modeled SeqAn, 168 thr. : {seqan_seconds:8.2f} s")
    print()
    print(f"speed-up vs SeqAn, 1 GPU: {seqan_seconds / result1.modeled_seconds:6.1f}x")
    print(f"speed-up vs SeqAn, 6 GPU: {seqan_seconds / result6.modeled_seconds:6.1f}x")

    # Accuracy: identical scores to the scalar X-drop reference -------------
    reference = get_engine("reference", xdrop=xdrop).align_batch(jobs)
    identical = reference.scores() == batch.scores()
    print()
    print(f"scores identical to the scalar X-drop reference: {identical}")
    print(f"per-device breakdown    : "
          f"{[round(t, 3) for t in result6.multi_gpu.per_device_seconds]} s "
          f"+ {result6.multi_gpu.host_overhead_seconds:.2f} s balancer overhead "
          f"+ {result6.host_seconds:.2f} s host preprocessing")


if __name__ == "__main__":
    pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    x = int(sys.argv[2]) if len(sys.argv) > 2 else 100
    main(pairs, x)
