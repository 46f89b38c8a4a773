"""Table V / Fig. 11 — BELLA alignment stage on the C. elegans dataset.

Paper reference: 235 M candidate alignments; the SeqAn stage grows from
132 s (X=5) to 7385 s (X=100), LOGAN from 577 s to 1753 s (1 GPU) and from
213 s to 1081 s (6 GPUs) — a speed-up that grows with X up to ~6.8x, with
the CPU actually winning at X=5.

The reproduction preserves the growth/ordering trends and the magnitude of
the large-X speed-up.  The small-X crossover (CPU faster than GPU at X=5)
does not reproduce because our synthetic candidate pairs rarely trigger the
very early drop-outs the real noisy PacBio data shows at tiny X.
"""

from __future__ import annotations


def test_table5_bella_celegans(run_experiment):
    table = run_experiment("table5")
    cpu = table.column("bella_seqan_s")
    logan1 = table.column("logan_1gpu_s")
    logan6 = table.column("logan_6gpu_s")
    speedup6 = table.column("speedup_6gpu")

    # Monotone growth of the CPU stage; LOGAN grows more slowly.
    assert all(b >= a * 0.999 for a, b in zip(cpu, cpu[1:]))
    assert (logan6[-1] / logan6[0]) < (cpu[-1] / cpu[0])
    # The multi-GPU speed-up grows with X and is substantial at X=100
    # (paper: 6.8x; the reproduction overshoots because its CPU baseline is
    # pessimistic at small X, but the direction and order of magnitude hold).
    assert speedup6[-1] > speedup6[0]
    assert speedup6[-1] > 5.0
    # One GPU is never better than six for this workload size.
    assert all(l6 <= l1 * 1.05 for l1, l6 in zip(logan1, logan6))
    # At the paper's scale (235 M alignments) even the 6-GPU stage takes
    # hundreds of seconds — the workload is genuinely large.
    assert logan6[-1] > 100.0
