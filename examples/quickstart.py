#!/usr/bin/env python
"""Quickstart: X-drop pairwise alignment in a few lines.

Generates a pair of noisy long reads that share a common origin, extends a
seed with the X-drop kernel at a few different X values, and compares the
result against the exact (full dynamic-programming) extension score — the
accuracy/efficiency trade-off that motivates the algorithm.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    ScoringScheme,
    Seed,
    exact_extension_score,
    extend_seed,
    get_engine,
    list_engines,
    xdrop_extend,
)
from repro.core.job import AlignmentJob
from repro.data import ErrorModel, apply_errors


def main() -> None:
    rng = np.random.default_rng(42)
    scoring = ScoringScheme(match=1, mismatch=-1, gap=-1)

    # Two ~3 kb reads derived from the same template with ~15 % divergence,
    # mimicking a pair of PacBio reads that truly overlap.
    template = rng.integers(0, 4, 3000).astype(np.uint8)
    per_read_errors = ErrorModel.with_total(0.075)
    query = apply_errors(template, per_read_errors, rng)
    target = apply_errors(template, per_read_errors, rng)

    print(f"query length {len(query)}, target length {len(target)}")
    print()

    # --- 1. Plain X-drop extension from position (0, 0). -------------------
    print(f"{'X':>6s} {'score':>8s} {'cells':>12s} {'time':>9s} {'GCUPS':>8s} {'early stop':>10s}")
    for xdrop in (5, 20, 50, 100, 500):
        start = time.perf_counter()
        result = xdrop_extend(query, target, scoring, xdrop=xdrop)
        elapsed = time.perf_counter() - start
        print(
            f"{xdrop:>6d} {result.best_score:>8d} {result.cells_computed:>12,d} "
            f"{elapsed:>8.3f}s {result.gcups(elapsed):>8.4f} "
            f"{str(result.terminated_early):>10s}"
        )

    # --- 2. Compare with the exact (un-pruned) extension score. ------------
    exact = exact_extension_score(query, target, scoring)
    print()
    print(f"exact extension score (full DP over {exact.cells_computed:,} cells): "
          f"{exact.best_score}")
    best_x = xdrop_extend(query, target, scoring, xdrop=500)
    fraction = best_x.best_score / exact.best_score
    cells_fraction = best_x.cells_computed / exact.cells_computed
    print(f"X=500 recovers {fraction:.1%} of the exact score while computing only "
          f"{cells_fraction:.1%} of the cells")

    # --- 3. Seed-and-extend, the way BELLA/BLAST use the kernel. -----------
    seed = Seed(query_pos=1200, target_pos=1200, length=17)
    # Plant an exact seed so the anchor is genuine.
    target[seed.target_pos : seed.target_end] = query[seed.query_pos : seed.query_end]
    alignment = extend_seed(query, target, seed, scoring, xdrop=100)
    print()
    print("seed-and-extend around a 17-mer anchor at (1200, 1200):")
    print(f"  total score {alignment.score} "
          f"(left {alignment.left.best_score} + seed {alignment.seed_score} + "
          f"right {alignment.right.best_score})")
    print(f"  query span  [{alignment.query_begin}, {alignment.query_end})")
    print(f"  target span [{alignment.target_begin}, {alignment.target_end})")

    # --- 4. Batch alignment through the engine registry. -------------------
    # Every batch aligner is available behind one interface; the "batched"
    # engine packs all jobs into padded arrays and sweeps their
    # anti-diagonals together (LOGAN's inter-sequence parallelism).
    jobs = [
        AlignmentJob(query=query, target=target, seed=seed, pair_id=i)
        for i in range(32)
    ]
    print()
    print(f"available engines: {', '.join(list_engines())}")
    print(f"{'engine':>12s} {'seconds':>9s} {'GCUPS':>8s}")
    for name in ("reference", "batched", "wavefront"):
        engine = get_engine(name, scoring=scoring, xdrop=100)
        batch = engine.align_batch(jobs)
        assert len(set(batch.scores())) == 1  # identical jobs, identical scores
        print(
            f"{name:>12s} {batch.elapsed_seconds:>8.3f}s "
            f"{batch.measured_gcups():>8.4f}"
        )


if __name__ == "__main__":
    main()
