#!/usr/bin/env python
"""Service-layer benchmark (wrapper over :mod:`repro.bench`).

Runs the same fixed-seed mixed-length workload four ways —

1. ``direct``        — one ``align_batch`` call on the batched engine (the
                       offline upper bound the service should approach);
2. ``per_job``       — one engine call per job, the naive front door the
                       service replaces;
3. ``service``       — individual submissions through
                       :class:`repro.service.AlignmentService` (adaptive
                       batching, one engine call per formed batch), then a
                       second submission round that must be answered from
                       the result cache;
4. ``service_burst`` — every submission in one burst into a started
                       service, whose background loop forms the batches

— prints the entry, gates it against the ``BENCH_service.json`` trajectory
and appends it with ``--record``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_service.py [--pairs 192] [--smoke]

``--smoke`` shrinks the workload and skips the timing assertion (CI runs it
as a non-timing wiring check), while still enforcing score parity and
cache behaviour.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import BaselineStore, compare, run_service_bench  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_service.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the alignment service.")
    parser.add_argument("--pairs", type=int, default=192, help="workload size")
    parser.add_argument("--xdrop", type=int, default=50, help="X-drop threshold")
    parser.add_argument("--seed", type=int, default=2020, help="workload RNG seed")
    parser.add_argument("--batch-size", type=int, default=48, help="service batch bound")
    parser.add_argument(
        "--record",
        action="store_true",
        help="append the entry to the BENCH_service.json trajectory",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30, help="regression gate tolerance"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload, correctness checks only (no timing assertion)",
    )
    args = parser.parse_args(argv)

    entry = run_service_bench(
        pairs=args.pairs,
        xdrop=args.xdrop,
        seed=args.seed,
        batch_size=args.batch_size,
        quick=args.smoke,
    )
    print(entry.formatted())
    print(
        f"batches formed: {entry.extra['batches_formed']}, "
        f"mean batch {entry.extra['mean_batch_size']:.1f}, "
        f"burst batches {entry.extra['burst_batches_formed']}, "
        f"cache hit rate {entry.extra['cache_hit_rate']:.2f}, "
        f"kernel live fraction {entry.extra['kernel_live_fraction']}"
    )

    failed = False
    if not args.smoke:
        store = BaselineStore(OUTPUT)
        report = compare(
            entry, store.latest_matching(entry), tolerance=args.tolerance
        )
        print(report.formatted())
        failed = not report.ok
        if args.record:
            store.append(entry)
            print(f"recorded entry in {OUTPUT}")

    rows = {row.engine: row for row in entry.rows}
    for name in ("per_job", "service", "service_resubmit", "service_burst"):
        if not rows[name].scores_identical_to_reference:
            print(f"FAIL: {name} scores diverge from the direct batch call")
            failed = True
    if entry.extra["cache_hit_rate"] <= 0:
        print("FAIL: resubmission produced no cache hits")
        failed = True
    if entry.extra["batches_formed"] < 1 or entry.extra["mean_batch_size"] <= 1.0:
        print("FAIL: the batcher never formed a multi-job batch")
        failed = True
    service_speedup = rows["service"].speedup_vs_scalar
    if not args.smoke and service_speedup < 1.0:
        print(
            f"FAIL: service throughput {service_speedup:.2f}x is below "
            "per-job submission"
        )
        failed = True
    if not failed:
        print(
            "OK: service matches the direct batch bit-for-bit and beats "
            "per-job submission"
            if not args.smoke
            else "OK: service wiring (smoke) — parity and cache verified"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
