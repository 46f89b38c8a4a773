#!/usr/bin/env python
"""Reproducible engine micro-benchmark (wrapper over :mod:`repro.bench`).

Times every registered alignment engine on one fixed-seed batch (default:
256 jobs, the batch size of the acceptance criterion), prints the entry,
gates it against the stored trajectory in ``BENCH_engines.json`` and — with
``--record`` — appends it.  Exact engines are additionally checked for
bit-identical scores against the reference.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_engines.py [--pairs 256] [--record]

The headline reproduction of the paper's Table I story: the inter-sequence
``batched`` engine must be at least 3x faster than the scalar per-job loop
(with active-row compaction it lands near 10x on mid-seed pairs)
while producing identical scores.  The full history lives in the
trajectory file; ``repro-bench perf`` is the subsystem's first-class CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import BaselineStore, compare, run_engine_bench  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_engines.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time every alignment engine.")
    parser.add_argument("--pairs", type=int, default=256, help="batch size")
    parser.add_argument("--xdrop", type=int, default=50, help="X-drop threshold")
    parser.add_argument("--seed", type=int, default=2020, help="batch RNG seed")
    parser.add_argument(
        "--engines", nargs="*", default=None, help="subset of engines to time"
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="timed runs per engine (best kept)"
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="append the entry to the BENCH_engines.json trajectory",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30, help="regression gate tolerance"
    )
    args = parser.parse_args(argv)

    entry = run_engine_bench(
        pairs=args.pairs,
        xdrop=args.xdrop,
        seed=args.seed,
        engines=args.engines,
        repeats=args.repeats,
    )
    print(entry.formatted())

    store = BaselineStore(OUTPUT)
    report = compare(entry, store.latest_matching(entry), tolerance=args.tolerance)
    print(report.formatted())
    if args.record:
        store.append(entry)
        print(f"recorded entry in {OUTPUT}")

    failed = not report.ok
    batched = entry.row("batched")
    if batched is not None:
        if not batched.scores_identical_to_reference:
            print("FAIL: batched engine scores diverge from the scalar reference")
            failed = True
        if batched.speedup_vs_scalar < 3.0:
            print(
                "FAIL: batched engine speed-up "
                f"{batched.speedup_vs_scalar:.2f}x is below the 3x floor"
            )
            failed = True
        if not failed:
            print(
                f"OK: batched engine {batched.speedup_vs_scalar:.1f}x faster than "
                "the scalar loop with identical scores"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
