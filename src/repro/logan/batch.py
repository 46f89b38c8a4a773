"""LOGAN's V100 execution model, replayed over an aligned batch.

The ``logan`` engine (:class:`repro.engine.LoganEngine`) runs LOGAN: one
traced sweep of the ``batched`` engine, whose host loop splits every job
at its seed (:mod:`repro.logan.host`) and sweeps every left and right
extension as one row of the batched kernel, LOGAN's one block per
extension.  :meth:`LoganModel.replay` then models that batch on a V100
system: jobs are divided across devices by estimated work
(:mod:`repro.logan.scheduler`), each device runs its left and right
extensions as two concurrent streams, threads per block are scheduled
proportionally to X, and :mod:`repro.gpusim` models the time from the
extensions' band traces, with the breakdown (host, per device, balancer
overhead) the benchmarks need.  The model aligns nothing; the measured
wall-clock is the engine result's ``elapsed_seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.job import AlignmentJob, summarize_results
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

__all__ = ["LoganTiming", "LoganModel"]


@dataclass
class LoganTiming:
    """Modeled timing of one LOGAN batch on the paper's platform.

    Attributes
    ----------
    cells:
        DP cells of the sampled batch (the summary's ``cells``).
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
        The thread count the model scheduled (proportional to X).
    replication:
        The sample-to-full-workload replication factor used for modeling.
    """

    cells: int
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
        cells = self.cells * self.replication
        if self.modeled_seconds <= 0:
            return float("inf")
        return cells / self.modeled_seconds / 1e9


class LoganModel:
    """The LOGAN execution model of a multi-GPU system.

    Parameters
    ----------
    system:
        Multi-GPU system to model; defaults to a single Tesla V100.  Use
        :meth:`~repro.gpusim.multi_gpu.MultiGpuSystem.homogeneous` for the
        paper's 6- and 8-GPU configurations.
    scoring:
        Linear-gap scoring scheme of the aligned batch.
    xdrop:
        X-drop threshold of the aligned batch.
    threads_per_block:
        Threads scheduled per block; ``None`` (default) picks the
        X-proportional count the paper describes.
    host_model:
        Host preprocessing cost model.
    kernel_params:
        Instruction-cost constants of the GPU model (exposed for ablations).
    balancer_policy:
        ``"cells"`` (default) or ``"count"`` — see :class:`LoadBalancer`.

    The scoring scheme and X set the thread schedule and the balancer's
    work estimate; the GPU configuration only changes the modeled time,
    never the alignments, so one aligned batch can be replayed on any
    number of models.  Config-driven callers take the model of the
    ``logan`` engine (``AlignConfig(engine="logan").build_engine().model``).
    """

    def __init__(
        self,
        system: MultiGpuSystem | None = None,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        threads_per_block: int | None = None,
        host_model: HostModel = HostModel(),
        kernel_params: KernelCostParameters | None = None,
        balancer_policy: str = "cells",
    ) -> None:
        if xdrop < 0:
            raise ConfigurationError("xdrop must be non-negative")
        if threads_per_block is not None and threads_per_block <= 0:
            raise ConfigurationError("threads_per_block must be positive")
        self.system = system or MultiGpuSystem.homogeneous(1)
        self.scoring = scoring if scoring is not None else ScoringScheme()
        self.xdrop = int(xdrop)
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
            return min(self._explicit_threads, device.max_threads_per_block)
        return threads_for_xdrop(self.xdrop, device, gap_penalty=abs(self.scoring.gap))

    # ------------------------------------------------------------------ #
    def replay(
        self,
        jobs: Sequence[AlignmentJob],
        results: Sequence[SeedAlignmentResult],
        replication: float = 1.0,
    ) -> LoganTiming:
        """Model aligned jobs on this system.

        Parameters
        ----------
        jobs:
            The alignment jobs (candidate pairs plus seeds).
        results:
            Their results from a traced run (``trace=True``; the ``logan``
            engine always traces), in the same order as ``jobs``.
        replication:
            How many real alignments each job stands for.  ``1.0`` models
            exactly this batch; ``500.0`` models a workload 500x larger with
            the same per-pair distribution (used to extrapolate laptop-scale
            samples to the paper's 100 K-pair runs).

        The functional output of a LOGAN batch (scores, extents, band
        traces) is independent of the GPU configuration, so the benchmark
        harness sweeps GPU counts, thread schedules and ablated cost
        parameters over a single alignment pass.  An extension that
        computed cells but carries no band trace raises
        :class:`ConfigurationError` instead of being modeled as free.
        Empty sides (the seed touches a sequence end) launch no block.
        """
        if len(jobs) != len(results):
            raise ConfigurationError("jobs and results must have the same length")
        if not jobs:
            raise ConfigurationError("replay requires at least one job")
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
        return LoganTiming(
            cells=summarize_results(results).cells,
            host_seconds=host_seconds,
            multi_gpu=multi,
            per_device=[t for t in per_device_streams if t is not None],
            assignments=assignments,
            kernel_timings=kernel_timings,
            threads_per_block=self.threads_per_block_for(self.system.devices[0]),
            replication=float(replication),
        )
