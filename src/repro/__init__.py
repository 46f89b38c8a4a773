"""repro — a laptop-scale reproduction of LOGAN (IPDPS 2020).

LOGAN is the first high-performance multi-GPU implementation of the X-drop
pairwise-alignment heuristic.  This package re-implements the full system in
pure Python/NumPy:

* :mod:`repro.api` — **the public front door**: the typed, validating
  :class:`repro.api.AlignConfig` (one declarative object consumed by every
  layer, JSON round-trippable) and the :class:`repro.api.Aligner` session
  facade (``align`` / ``align_batch`` / ``align_iter`` / ``open_service``);
* :mod:`repro.core` — the X-drop extension algorithm (scalar reference,
  per-pair vectorised kernel and inter-sequence batched kernel), scoring
  schemes, seed-and-extend;
* :mod:`repro.engine` — the unified alignment-engine layer: a registry of
  five engines (reference, batched, wavefront, ksw2, logan) behind one
  ``align_batch(jobs, scoring, xdrop)`` interface
  (:func:`repro.get_engine`, :func:`repro.list_engines`);
* :mod:`repro.baselines` — Smith–Waterman, Needleman–Wunsch, banded SW,
  ksw2-style Z-drop, SeqAn-like CPU batch runner, CUDASW++/manymap
  throughput models;
* :mod:`repro.gpusim` — an execution/performance model of an NVIDIA V100
  class GPU (SMs, warp schedulers, occupancy, HBM) used in place of real
  CUDA hardware;
* :mod:`repro.logan` — the LOGAN kernel/batch/host/multi-GPU layers built on
  the GPU model;
* :mod:`repro.service` — the asynchronous alignment service: a bounded
  submission queue, an adaptive length-binned batcher, a content-addressed
  result cache and a worker pool that runs each formed batch as one engine
  call (:class:`repro.AlignmentService`);
* :mod:`repro.bella` — the BELLA long-read overlapper substrate (k-mers,
  SpGEMM overlap detection, adaptive threshold, pipeline);
* :mod:`repro.data` — FASTA/FASTQ I/O, synthetic genomes and long reads,
  benchmark pair sets and named datasets;
* :mod:`repro.workloads` — the scenario workload bank: named, seedable
  generators (PacBio/ONT error profiles, homopolymers, tandem/inverted
  repeats, length skew, degenerate and X-drop-boundary adversaries)
  producing job batches with ground-truth metadata;
* :mod:`repro.testing` — the differential conformance/fuzz harness
  (:class:`repro.testing.ConformanceRunner`, :func:`repro.testing.run_fuzz`)
  replaying workloads through every engine and the service with
  shrink-on-failure reporting (``repro-fuzz`` CLI, CI ``fuzz-smoke``);
* :mod:`repro.roofline` — the adapted instruction Roofline model (Eq. 1);
* :mod:`repro.perf` — timers, GCUPS/speed-up metrics, process-pool helpers;
* :mod:`repro.obs` — the unified telemetry subsystem: labelled metrics
  registry (always live), opt-in structured tracing with context
  propagation, a flight-recorder crash ring, JSON-lines/Prometheus
  exporters and provenance stamping (``repro-obs`` CLI, CI
  ``metrics-smoke``);
* :mod:`repro.autotune` — the closed telemetry loop: per-length-bin
  feedback controllers over windowed kernel telemetry that actuate
  batch size and kernel knobs online, a ``gpusim``-backed what-if
  planner gating growths, and a GCUPS-regression kill switch
  (``ServiceConfig(autotune=...)``, CI ``autotune-smoke``).

Quickstart
----------

The supported entry point is :mod:`repro.api` — one config, one facade:

>>> from repro.api import Aligner, AlignConfig
>>> aligner = Aligner(AlignConfig(engine="batched", xdrop=10))
>>> aligner.align("ACGTACGTTT", "ACGTACGTAA").score
8

The lower layers stay importable for direct use:

>>> from repro import xdrop_extend, ScoringScheme
>>> res = xdrop_extend("ACGTACGTTT", "ACGTACGTAA", ScoringScheme(), xdrop=10)
>>> res.best_score
8

Batch alignment goes through the engine registry:

>>> from repro import get_engine, list_engines
>>> sorted(list_engines())[:3]
['batched', 'ksw2', 'logan']
"""

from __future__ import annotations

from .core import (
    DEFAULT_SCORING,
    AffineScoringScheme,
    ExtensionResult,
    Seed,
    SeedAlignmentResult,
    ScoringScheme,
    decode,
    encode,
    exact_extension_score,
    extend_seed,
    random_sequence,
    reverse_complement,
    xdrop_extend,
    BatchKernelStats,
    xdrop_extend_batch,
    xdrop_extend_reference,
)
from .api import AlignConfig, Aligner, ServiceConfig
from .engine import describe_engines, get_engine, list_engines, register_engine
from .service import AlignmentService

__version__ = "1.6.0"

__all__ = [
    "__version__",
    "Aligner",
    "AlignConfig",
    "ServiceConfig",
    "ScoringScheme",
    "AffineScoringScheme",
    "DEFAULT_SCORING",
    "ExtensionResult",
    "SeedAlignmentResult",
    "Seed",
    "encode",
    "decode",
    "random_sequence",
    "reverse_complement",
    "xdrop_extend",
    "BatchKernelStats",
    "xdrop_extend_batch",
    "xdrop_extend_reference",
    "exact_extension_score",
    "extend_seed",
    "get_engine",
    "list_engines",
    "describe_engines",
    "register_engine",
    "AlignmentService",
]
