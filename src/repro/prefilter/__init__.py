"""Alignment-free k-mer-sketch prefilter and admission triage.

Production overlap traffic is dominated by pairs that either align
trivially or not at all; this package supplies the cheap triage that
keeps the expensive X-drop kernel for the contested middle.  See
:mod:`repro.prefilter.sketch` for the d2/d2star sketch distances and
:mod:`repro.prefilter.policy` for the three-way admission policy wired
into :class:`repro.service.AlignmentService`.
"""

from .policy import (
    PREFILTER_MODES,
    PREFILTER_OUTCOMES,
    PrefilterDecision,
    PrefilterPolicy,
    rejected_result,
)
from .sketch import (
    MAX_SKETCH_K,
    KmerSketch,
    d2_distance,
    d2star_distance,
    sketch_distance,
    sketch_sequence,
)

__all__ = [
    "MAX_SKETCH_K",
    "PREFILTER_MODES",
    "PREFILTER_OUTCOMES",
    "KmerSketch",
    "PrefilterDecision",
    "PrefilterPolicy",
    "d2_distance",
    "d2star_distance",
    "rejected_result",
    "sketch_distance",
    "sketch_sequence",
]
