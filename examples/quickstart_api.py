#!/usr/bin/env python
"""Quickstart for the public API: one config, one facade, four call shapes.

Everything in the library is driven from a single declarative
:class:`repro.api.AlignConfig` — the engine (with its options), the scoring
scheme, the X-drop threshold, the seed policy, the bin/band parameters and
the nested serving-layer knobs.  The :class:`repro.api.Aligner` facade then
exposes the four ways to align:

* ``align(query, target)``   — one pair, seed synthesised by policy;
* ``align_batch(jobs)``      — the classic batch call (bit-identical to
  calling the engine registry directly);
* ``align_iter(jobs)``       — a streaming generator that flows through the
  service batcher and result cache;
* ``open_service()``         — a fully configured AlignmentService for
  long-lived serving.

Run from the repository root::

    PYTHONPATH=src python examples/quickstart_api.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import AlignConfig, Aligner, ServiceConfig
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine

def main() -> None:
    # One declarative object configures every layer.  It round-trips through
    # JSON, so the same dict can live in a config file and drive the CLIs
    # (every subcommand accepts --config config.json).
    config = AlignConfig(
        engine="batched",
        xdrop=50,
        seed_policy="middle",
        service=ServiceConfig(max_batch_size=16, cache_capacity=1024),
    )
    assert AlignConfig.from_dict(config.to_dict()) == config
    print("config:")
    print(config.to_json())

    jobs = generate_pair_set(
        PairSetSpec(
            num_pairs=32,
            min_length=300,
            max_length=800,
            pairwise_error_rate=0.15,
            seed_placement="middle",
            rng_seed=11,
        )
    )

    with Aligner(config) as aligner:
        # 1. One pair, anchor seed synthesised by the configured seed policy.
        single = aligner.align("ACGTACGTACGTACGT" * 8, "ACGTACGTACGTACGT" * 8)
        print(f"\nsingle pair: score={single.score}")

        # 2. The classic batch call — bit-identical to the engine registry.
        batch = aligner.align_batch(jobs)
        direct = get_engine(config.engine, xdrop=config.xdrop).align_batch(jobs)
        assert batch.scores() == direct.scores()
        print(f"batch: {len(batch.results)} jobs, mean score "
              f"{sum(batch.scores()) / len(jobs):.1f}, parity with get_engine OK")

        # 3. Streaming: results flow through the service batcher/cache.
        streamed = [r.score for r in aligner.align_iter(iter(jobs))]
        assert streamed == batch.scores()
        rerun = [r.score for r in aligner.align_iter(iter(jobs))]  # cache hits
        assert rerun == streamed
        print("align_iter: streaming parity OK (second pass served from cache)")

    # 4. A long-lived service, fully configured from the same object.
    with Aligner(config).open_service() as service:
        tickets = service.submit_many(jobs)
        service.drain()
        scores = [t.result(timeout=60.0).score for t in tickets]
        assert scores == direct.scores()
        stats = service.stats()
    print(f"service: {stats.completed} completed, "
          f"{stats.batches_formed} batches, hit rate {stats.cache.hit_rate:.2f}")


if __name__ == "__main__":
    main()
