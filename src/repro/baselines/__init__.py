"""Baseline algorithms and platform cost models LOGAN is compared against.

* Exact quadratic algorithms: :func:`smith_waterman`, :func:`needleman_wunsch`,
  :func:`banded_smith_waterman` (accuracy oracles and Fig. 2 / Fig. 12 inputs);
* :func:`ksw2_extend` — minimap2's Z-drop kernel, which the ``ksw2`` engine
  runs on every job;
* CPU platform specs and cost models (:mod:`repro.baselines.platforms`).
  The paper's CPU baselines are an engine's work summary fed to a model:
  SeqAn's X-drop on 168 POWER9 threads (Table II / Fig. 8, and BELLA's
  alignment stage in Tables IV and V) is
  ``SEQAN_POWER9_MODEL.seconds_for(summary)`` of an exact engine's run,
  and ksw2 on 80 Skylake threads (Table III / Fig. 9) is
  ``KSW2_SKYLAKE_BAND_MODEL.seconds_for(summary)`` of a ``ksw2`` run;
* GPU competitor throughput models (:mod:`repro.baselines.gpu_competitors`).
"""

from .banded import band_cells, banded_smith_waterman
from .gpu_competitors import (
    CUDASW_GPU_ONLY,
    CUDASW_HYBRID_SIMD,
    MANYMAP,
    GpuThroughputModel,
)
from .ksw2 import ksw2_extend, ksw2_extend_affine_oracle
from .needleman_wunsch import needleman_wunsch, needleman_wunsch_matrix
from .platforms import (
    KSW2_SKYLAKE_BAND_MODEL,
    POWER9_PLATFORM,
    SEQAN_POWER9_MODEL,
    SKYLAKE_PLATFORM,
    CpuCostModel,
    CpuPlatformSpec,
    Ksw2CostModel,
)
from .smith_waterman import smith_waterman, smith_waterman_matrix

__all__ = [
    "smith_waterman",
    "smith_waterman_matrix",
    "needleman_wunsch",
    "needleman_wunsch_matrix",
    "banded_smith_waterman",
    "band_cells",
    "ksw2_extend",
    "ksw2_extend_affine_oracle",
    "Ksw2CostModel",
    "KSW2_SKYLAKE_BAND_MODEL",
    "CpuPlatformSpec",
    "CpuCostModel",
    "POWER9_PLATFORM",
    "SKYLAKE_PLATFORM",
    "SEQAN_POWER9_MODEL",
    "GpuThroughputModel",
    "CUDASW_GPU_ONLY",
    "CUDASW_HYBRID_SIMD",
    "MANYMAP",
]
