#!/usr/bin/env python
"""Instruction Roofline analysis of the LOGAN kernel (Section VII / Fig. 13).

Aligns a sample batch at X=100 with the ``logan`` engine, instruments the
modeled kernel launch (warp instructions, HBM bytes, modeled time), derives
the adapted ceiling of Eq. (1) from the anti-diagonal width trace, and
renders the Roofline as an ASCII plot plus a JSON series that can be
re-plotted with any tool.

Run with::

    python examples/roofline_analysis.py
"""

from __future__ import annotations

from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.gpusim import BlockWorkTrace, KernelWorkload, TESLA_V100
from repro.roofline import analyze_kernel, build_series, render_ascii

PAPER_PAIRS = 100_000
XDROP = 100


def main() -> None:
    spec = PairSetSpec(
        num_pairs=8, min_length=2500, max_length=7500,
        pairwise_error_rate=0.15, seed_placement="start", rng_seed=13,
    )
    jobs = generate_pair_set(spec)
    replication = PAPER_PAIRS / len(jobs)

    engine = get_engine("logan", xdrop=XDROP)
    batch = engine.align_batch(jobs)
    timing = engine.model.replay(jobs, batch.results, replication).kernel_timings[0][0]

    workload = KernelWorkload(replication=replication)
    for job, result in zip(jobs, batch.results):
        ext = result.right
        if ext.band_widths is not None and ext.cells_computed > 1:
            workload.add(BlockWorkTrace(ext.band_widths, job.query_length, job.target_length))

    analysis = analyze_kernel(TESLA_V100, timing, workload, label=f"LOGAN X={XDROP}")
    series = build_series(analysis)

    print(render_ascii(series))
    print()
    print(f"operational intensity : {analysis.point.operational_intensity:8.2f} warp instr/byte")
    print(f"achieved performance  : {analysis.point.warp_gips:8.1f} warp GIPS")
    print(f"adapted ceiling (Eq.1): {analysis.ceilings.adapted_warp_gips:8.1f} warp GIPS")
    print(f"INT32 ceiling         : {analysis.ceilings.int32_warp_gips:8.1f} warp GIPS")
    print(f"ridge point           : {analysis.ceilings.ridge_point:8.3f} warp instr/byte")
    print(f"compute bound?        : {analysis.is_compute_bound}")
    print(f"efficiency vs adapted : {analysis.efficiency:8.1%}")
    print()
    print("The kernel sits right of the ridge point (compute bound) and close to")
    print("the adapted ceiling — the paper's conclusion that LOGAN is near-optimal")
    print("given the parallelism available per anti-diagonal.")


if __name__ == "__main__":
    main()
