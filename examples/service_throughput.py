#!/usr/bin/env python
"""Serving-layer demo: adaptive batching and cache hits on repeated pairs.

Submits a mixed-length workload to :class:`repro.service.AlignmentService`
one job at a time — the way online clients would — and shows that

* the adaptive batcher coalesces the single submissions into engine-sized
  batches of similar length (amortising the inter-sequence batched kernel),
* a second submission round of the same pairs is answered entirely from
  the content-addressed result cache, aligning nothing,
* results are bit-identical to one direct ``align_batch`` call.

Run from the repository root::

    PYTHONPATH=src python examples/service_throughput.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import AlignConfig, ServiceConfig
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.service import AlignmentService

XDROP = 50

def main() -> None:
    jobs = generate_pair_set(
        PairSetSpec(
            num_pairs=48,
            min_length=200,
            max_length=900,
            pairwise_error_rate=0.15,
            seed_placement="middle",
            rng_seed=7,
        )
    )

    with AlignmentService(
        config=AlignConfig(
            engine="batched",
            xdrop=XDROP,
            service=ServiceConfig(max_batch_size=16),
        )
    ) as service:
        # Round 1: every job is new — batched and aligned.
        tickets = [service.submit(job) for job in jobs]
        service.drain()
        scores = [t.result().score for t in tickets]

        # Round 2: identical pairs — pure cache hits, nothing aligned.
        repeats = [service.submit(job) for job in jobs]
        service.drain()
        assert all(t.cache_hit for t in repeats)
        assert [t.result().score for t in repeats] == scores

        stats = service.stats()

    direct = get_engine("batched", xdrop=XDROP).align_batch(jobs)
    assert scores == direct.scores(), "service must match the direct batch"

    print(f"jobs submitted twice     : {stats.submitted} ({len(jobs)} unique)")
    print(f"batches formed           : {stats.batches_formed} "
          f"(mean size {stats.mean_batch_size:.1f}, reasons {stats.flush_reasons})")
    print(f"cache hit rate           : {stats.cache.hit_rate:.2f} "
          f"({stats.cache.hits} hits / {stats.cache.misses} misses)")
    print(f"aligned DP cells         : {stats.cells:,} (round 2 cost zero)")
    print(f"service throughput       : {stats.throughput_gcups:.4f} GCUPS")
    print(f"per-worker jobs          : {[w.jobs for w in stats.workers]}")
    print("scores identical to direct align_batch: True")


if __name__ == "__main__":
    main()
