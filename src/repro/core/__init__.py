"""Core X-drop alignment algorithms — the paper's primary contribution.

The public surface of this subpackage:

* :func:`repro.core.xdrop_extend` — vectorised X-drop extension (the LOGAN
  kernel inner loop);
* :func:`repro.core.xdrop_extend_batch` — inter-sequence batched kernel that
  extends a whole batch of pairs per anti-diagonal step (one row per
  alignment, LOGAN's one-block-per-extension layout);
* :func:`repro.core.xdrop_extend_reference` — scalar reference oracle;
* :func:`repro.core.exact_extension_score` — un-pruned full-DP oracle;
* :func:`repro.core.extend_seed` / :class:`repro.core.Seed` — seed-and-extend
  driver used by BELLA and the ``reference`` engine;
* :class:`repro.core.ScoringScheme` / :class:`repro.core.AffineScoringScheme`
  — scoring configuration;
* encoding helpers (:func:`repro.core.encode`, :func:`repro.core.decode`,
  :func:`repro.core.reverse_complement`, ...).
"""

from .encoding import (
    ALPHABET,
    WILDCARD_CODE,
    decode,
    encode,
    encode_batch,
    random_sequence,
    reverse,
    reverse_complement,
)
from .result import NEG_INF, ExtensionResult, FullAlignmentResult, SeedAlignmentResult
from .scoring import (
    BLAST_SCORING,
    DEFAULT_SCORING,
    MINIMAP2_SCORING,
    AffineScoringScheme,
    ScoringScheme,
)
from .seed_extend import Seed, extend_seed, seed_score, split_on_seed
from .xdrop import exact_extension_score, xdrop_extend_reference
from .xdrop_batch import BatchKernelStats, xdrop_extend_batch
from .xdrop_vectorized import XDropKernelState, xdrop_extend

__all__ = [
    "ALPHABET",
    "WILDCARD_CODE",
    "NEG_INF",
    "encode",
    "encode_batch",
    "decode",
    "reverse",
    "reverse_complement",
    "random_sequence",
    "ScoringScheme",
    "AffineScoringScheme",
    "DEFAULT_SCORING",
    "BLAST_SCORING",
    "MINIMAP2_SCORING",
    "ExtensionResult",
    "SeedAlignmentResult",
    "FullAlignmentResult",
    "Seed",
    "extend_seed",
    "seed_score",
    "split_on_seed",
    "xdrop_extend",
    "BatchKernelStats",
    "xdrop_extend_batch",
    "xdrop_extend_reference",
    "exact_extension_score",
    "XDropKernelState",
]
