"""LOGAN batch aligner: the library's main public entry point.

``LoganAligner`` reproduces a LOGAN batch run as two steps:

1. alignment — one traced sweep of the ``batched`` engine
   (:class:`repro.engine.engines.BatchedEngine`): the host preprocessing
   splits every job at its seed (:mod:`repro.logan.host`) and every left
   and right extension is one row of the inter-sequence batched kernel,
   LOGAN's one-block-per-extension layout.  Scores are identical to the
   SeqAn-style reference;
2. the V100 replay (:meth:`LoganAligner.model_existing`) — jobs are divided
   across devices by estimated work (:mod:`repro.logan.scheduler`), each
   device runs its left and right extensions as two concurrent streams,
   threads per block are scheduled proportionally to X, and
   :mod:`repro.gpusim` models the time from the extensions' band traces.

Every run returns both the *measured* wall-clock of the Python sweep and
the *modeled* wall-clock on the paper's V100 platform, plus the breakdown
(host, per-device, load-balancer overhead) needed by the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.job import AlignmentJob, BatchWorkSummary, summarize_results
from ..core.result import SeedAlignmentResult
from ..core.scoring import ScoringScheme
from ..errors import ConfigurationError
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelExecutionModel, KernelTiming
from ..gpusim.multi_gpu import MultiGpuSystem, MultiGpuTiming
from ..gpusim.stream import StreamedTiming, compose_streams
from ..gpusim.trace import BlockWorkTrace, KernelWorkload
from ..gpusim.warp import KernelCostParameters
from .host import HostModel, threads_for_xdrop
from .scheduler import DeviceAssignment, LoadBalancer

__all__ = ["LoganBatchResult", "LoganAligner"]


@dataclass
class LoganBatchResult:
    """Results and timing of one LOGAN batch run.

    Attributes
    ----------
    results:
        Per-job seed alignment results, in job order.
    summary:
        Aggregate work accounting (cells, extensions, iterations).
    elapsed_seconds:
        Measured wall-clock of the Python alignment sweep only; the model
        replay is not timed.  ``0.0`` from
        :meth:`LoganAligner.model_existing`, which aligns nothing.
    host_seconds:
        Modeled host preprocessing time on the paper's platform.
    multi_gpu:
        Modeled multi-GPU timing (max over devices + balancer overhead).
    per_device:
        Modeled per-device stream timings.
    assignments:
        The load balancer's per-device job assignment.
    kernel_timings:
        The individual (left, right) kernel timings per device, for the
        Roofline instrumentation and ablation benchmarks.
    threads_per_block:
        The thread count the aligner scheduled (proportional to X).
    replication:
        The sample-to-full-workload replication factor used for modeling.
    """

    results: list[SeedAlignmentResult]
    summary: BatchWorkSummary
    elapsed_seconds: float
    host_seconds: float
    multi_gpu: MultiGpuTiming
    per_device: list[StreamedTiming]
    assignments: list[DeviceAssignment]
    kernel_timings: list[tuple[KernelTiming, ...]]
    threads_per_block: int
    replication: float

    @property
    def modeled_seconds(self) -> float:
        """Modeled end-to-end seconds on the paper's platform."""
        return self.host_seconds + self.multi_gpu.total_seconds

    @property
    def modeled_gcups(self) -> float:
        """Modeled GCUPS (cells of the full represented workload / modeled time)."""
        cells = self.summary.cells * self.replication
        if self.modeled_seconds <= 0:
            return float("inf")
        return cells / self.modeled_seconds / 1e9

    def measured_gcups(self) -> float:
        """GCUPS of the measured Python run (sampled workload only)."""
        return self.summary.gcups(self.elapsed_seconds)

    def scores(self) -> list[int]:
        """Per-job alignment scores (left + seed + right)."""
        return [r.score for r in self.results]


class LoganAligner:
    """Batch X-drop aligner with the LOGAN execution model.

    Parameters
    ----------
    system:
        Multi-GPU system to model; defaults to a single Tesla V100.  Use
        :meth:`~repro.gpusim.multi_gpu.MultiGpuSystem.homogeneous` for the
        paper's 6- and 8-GPU configurations.
    scoring:
        Linear-gap scoring scheme.
    xdrop:
        X-drop threshold.
    threads_per_block:
        Threads scheduled per block; ``None`` (default) picks the
        X-proportional count the paper describes.
    workers:
        Local worker processes for the alignment sweep (passed to the
        ``batched`` engine; never changes scores or traces).
    host_model:
        Host preprocessing cost model.
    kernel_params:
        Instruction-cost constants of the GPU model (exposed for ablations).
    balancer_policy:
        ``"cells"`` (default) or ``"count"`` — see :class:`LoadBalancer`.

    :meth:`align_batch` is one traced sweep of the ``batched`` engine
    followed by :meth:`model_existing`; the GPU configuration only
    changes the modeled time, never the alignments.  Config-driven callers
    build the ``logan`` engine (``AlignConfig(engine="logan").build_engine()``)
    and use its ``aligner``.
    """

    def __init__(
        self,
        system: MultiGpuSystem | None = None,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        threads_per_block: int | None = None,
        workers: int = 1,
        host_model: HostModel = HostModel(),
        kernel_params: KernelCostParameters | None = None,
        balancer_policy: str = "cells",
    ) -> None:
        if xdrop < 0:
            raise ConfigurationError("xdrop must be non-negative")
        self.system = system or MultiGpuSystem.homogeneous(1)
        self.scoring = scoring if scoring is not None else ScoringScheme()
        self.xdrop = int(xdrop)
        self.workers = max(1, int(workers))
        self.host_model = host_model
        self.kernel_params = kernel_params or KernelCostParameters()
        self.balancer_policy = balancer_policy
        self._explicit_threads = threads_per_block
        self._models = [
            KernelExecutionModel(device, params=self.kernel_params)
            for device in self.system.devices
        ]

    # ------------------------------------------------------------------ #
    def threads_per_block_for(self, device: DeviceSpec) -> int:
        """Thread count scheduled per block on *device*."""
        if self._explicit_threads is not None:
            if self._explicit_threads <= 0:
                raise ConfigurationError("threads_per_block must be positive")
            return min(self._explicit_threads, device.max_threads_per_block)
        return threads_for_xdrop(self.xdrop, device, gap_penalty=abs(self.scoring.gap))

    # ------------------------------------------------------------------ #
    def align_batch(
        self, jobs: Sequence[AlignmentJob], replication: float = 1.0
    ) -> LoganBatchResult:
        """Align a batch of jobs and model its execution on the GPU system.

        Parameters
        ----------
        jobs:
            The alignment jobs (candidate pairs plus seeds).
        replication:
            How many real alignments each job stands for.  ``1.0`` models
            exactly this batch; ``500.0`` models a workload 500x larger with
            the same per-pair distribution (used to extrapolate laptop-scale
            samples to the paper's 100 K-pair runs).
        """
        if not jobs:
            raise ConfigurationError("align_batch requires at least one job")
        if replication <= 0:
            raise ConfigurationError("replication must be positive")
        # Imported here: repro.engine imports this package's host layer.
        from ..engine.engines import BatchedEngine

        sweep = BatchedEngine(
            scoring=self.scoring, xdrop=self.xdrop, workers=self.workers, trace=True
        ).align_batch(jobs)
        batch = self.model_existing(jobs, sweep.results, replication)
        batch.elapsed_seconds = sweep.elapsed_seconds
        return batch

    def model_existing(
        self,
        jobs: Sequence[AlignmentJob],
        results: Sequence[SeedAlignmentResult],
        replication: float = 1.0,
    ) -> LoganBatchResult:
        """Model already-aligned jobs on this aligner's GPU system.

        The functional output of a LOGAN batch (scores, extents, band
        traces) is independent of the GPU configuration, so a batch aligned
        once can be modeled on any system (6 GPUs, different thread
        schedule, ablated cost parameters) without re-running the X-drop
        kernels.  :meth:`align_batch` ends here, and the benchmark harness
        uses it to sweep GPU counts at the cost of a single alignment pass.

        ``results`` must come from a traced run (``trace=True``; every
        ``align_batch`` of this class and of the ``logan`` engine traces),
        in the same order as ``jobs``.  An extension that computed cells but
        carries no band trace raises :class:`ConfigurationError` instead of
        being modeled as free.  Empty sides (the seed touches a sequence
        end) launch no block.
        """
        if len(jobs) != len(results):
            raise ConfigurationError("jobs and results must have the same length")
        if not jobs:
            raise ConfigurationError("model_existing requires at least one job")
        if replication <= 0:
            raise ConfigurationError("replication must be positive")

        balancer = LoadBalancer(
            num_devices=self.system.num_devices,
            policy=self.balancer_policy,
            xdrop=self.xdrop,
            gap_penalty=abs(self.scoring.gap),
        )
        assignments = balancer.split(jobs)

        per_device_streams: list[StreamedTiming | None] = []
        kernel_timings: list[tuple[KernelTiming, ...]] = []
        for assignment, model, device in zip(
            assignments, self._models, self.system.devices
        ):
            threads = self.threads_per_block_for(device)
            device_timings: list[KernelTiming] = []
            for side in ("left", "right"):
                workload = KernelWorkload(replication=replication)
                for index in assignment.job_indices:
                    job = jobs[index]
                    ext = getattr(results[index], side)
                    # An empty side reports one cell and launches no
                    # block; a live extension computes at least 3 cells.
                    if ext.cells_computed <= 1:
                        continue
                    if side == "left":
                        qlen, tlen = job.seed.query_pos, job.seed.target_pos
                    else:
                        qlen = job.query_length - job.seed.query_end
                        tlen = job.target_length - job.seed.target_end
                    workload.add(BlockWorkTrace.from_extension(ext, qlen, tlen))
                if workload.sampled_blocks > 0:
                    device_timings.append(
                        model.execute(workload, threads_per_block=threads)
                    )
            per_device_streams.append(
                compose_streams(device_timings) if device_timings else None
            )
            kernel_timings.append(tuple(device_timings))

        if any(stream is not None for stream in per_device_streams):
            multi = self.system.combine(per_device_streams)
        else:
            # Every extension is empty (seeds flush against both sequence
            # ends, e.g. one-base pairs): no kernel launches, zero GPU time.
            multi = MultiGpuTiming(
                per_device_seconds=(),
                host_overhead_seconds=0.0,
                total_seconds=0.0,
                cells=0,
            )
        total_bases = sum(j.query_length + j.target_length for j in jobs)
        host_seconds = self.host_model.seconds(
            total_bases=int(round(total_bases * replication)),
            alignments=int(round(len(jobs) * replication)),
        )
        return LoganBatchResult(
            results=list(results),
            summary=summarize_results(results),
            elapsed_seconds=0.0,
            host_seconds=host_seconds,
            multi_gpu=multi,
            per_device=[t for t in per_device_streams if t is not None],
            assignments=assignments,
            kernel_timings=kernel_timings,
            threads_per_block=self.threads_per_block_for(self.system.devices[0]),
            replication=float(replication),
        )
