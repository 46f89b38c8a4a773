"""Unified alignment-engine layer.

One registry, one interface, five engines: the scalar reference (the
oracle), the inter-sequence batched kernel, the WFA-style wavefront kernel,
the ksw2 affine Z-drop runner and LOGAN's sweep plus V100 model, all behind
``align_batch(jobs)``; an engine's scoring and X are fixed when it is
built.  Consumers — the BELLA pipeline, the CLI and the benchmark
harness — select an engine by name:

>>> from repro.engine import get_engine
>>> engine = get_engine("batched", xdrop=50)
>>> engine.align_batch(jobs).scores()

See :mod:`repro.engine.base` for the protocol/registry and
:mod:`repro.engine.engines` for the bundled implementations.
"""

from .base import (
    AlignmentEngine,
    EngineBatchResult,
    describe_engines,
    engine_from_config,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from .engines import (
    BatchedEngine,
    Ksw2Engine,
    LoganEngine,
    ReferenceEngine,
    WavefrontEngine,
)

__all__ = [
    "AlignmentEngine",
    "EngineBatchResult",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_from_config",
    "list_engines",
    "describe_engines",
    "ReferenceEngine",
    "BatchedEngine",
    "WavefrontEngine",
    "Ksw2Engine",
    "LoganEngine",
]
