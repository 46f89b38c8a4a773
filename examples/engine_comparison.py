#!/usr/bin/env python
"""Side-by-side comparison of the batched and wavefront engines.

Generates an ont-profile long-read workload (the wavefront engine's home
turf: unit scoring, high-identity pairs) and runs it through the two fast
kernel strategies behind the engine registry:

* ``batched``   — pure-NumPy inter-sequence batched sweep (the default),
* ``wavefront`` — WFA-style furthest-reaching-point extension.

Every engine's scores are checked bit-identical against the scalar
reference before any timing is reported.

Run with::

    python examples/engine_comparison.py [num_pairs] [xdrop]
"""

from __future__ import annotations

import sys
import time

from repro.api import AlignConfig, Aligner
from repro.engine import get_engine
from repro.workloads import WorkloadSpec, generate_workload


def main(num_pairs: int = 16, xdrop: int = 20) -> None:
    spec = WorkloadSpec(
        count=num_pairs,
        seed=2020,
        min_length=2000,
        max_length=4000,
        error_rate=0.02,
        xdrop=xdrop,
    )
    jobs = generate_workload("ont", spec).jobs
    print(f"ont profile: {len(jobs)} pairs, 2-4 kbp, 2% error, X={xdrop}")
    print()

    reference = get_engine("reference", xdrop=xdrop).align_batch(jobs).scores()

    timings: dict[str, float] = {}
    for name in ("batched", "wavefront"):
        aligner = Aligner(AlignConfig(engine=name, xdrop=xdrop))
        aligner.align_batch(jobs)  # warm-up (allocations)
        start = time.perf_counter()
        scores = aligner.align_batch(jobs).scores()
        timings[name] = time.perf_counter() - start
        parity = "scores identical to reference" if scores == reference else (
            "SCORE MISMATCH vs reference"
        )
        print(f"{name:>10s}: {timings[name]:8.3f} s   ({parity})")
        if scores != reference:
            raise SystemExit(f"engine {name!r} broke bit-identity")

    print()
    print(f"wavefront: {timings['batched'] / timings['wavefront']:5.2f}x vs batched")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 16,
        int(sys.argv[2]) if len(sys.argv) > 2 else 20,
    )
