"""Table IV / Fig. 10 — BELLA alignment stage on the E. coli dataset.

Paper reference: 1.82 M candidate alignments; BELLA's SeqAn stage grows from
53 s (X=5) to 1507 s (X=100) on 168 POWER9 threads, while the LOGAN stage
stays between 110-336 s (1 GPU) and 114-145 s (6 GPUs), giving a speed-up of
up to ~10x at X=100 that increases with X.

The reproduction preserves the ordering and trend claims (CPU grows with X,
LOGAN stays much flatter, multi-GPU speed-up reaches ~10x and grows with X).
The *rate* at which the CPU baseline grows with X is weaker than in the
paper because the synthetic candidates explore a tighter X-drop band than
the real PacBio data.
"""

from __future__ import annotations


def test_table4_bella_ecoli(run_experiment):
    table = run_experiment("table4")
    cpu = table.column("bella_seqan_s")
    logan1 = table.column("logan_1gpu_s")
    logan6 = table.column("logan_6gpu_s")
    speedup6 = table.column("speedup_6gpu")

    # The CPU alignment stage grows with X...
    assert all(b >= a * 0.999 for a, b in zip(cpu, cpu[1:]))
    assert cpu[-1] > 1.5 * cpu[0]
    # ...while LOGAN's stage stays much flatter.
    assert (logan6[-1] / logan6[0]) < (cpu[-1] / cpu[0])
    assert logan6[-1] < 3 * logan6[0]
    # Six GPUs never lose to one.
    assert all(l6 <= l1 * 1.05 for l1, l6 in zip(logan1, logan6))
    # At the largest X the 6-GPU configuration delivers a substantial
    # speed-up of the alignment stage (paper: ~10.4x; reproduction ~10x).
    assert speedup6[-1] > 5.0
    # The speed-up increases with X (Fig. 10's upward trend).
    assert speedup6[-1] > speedup6[0]
