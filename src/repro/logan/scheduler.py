"""Multi-GPU load balancer (Section IV-C of the paper).

The host divides the batch of alignments into per-device groups before any
kernel launches.  LOGAN balances by *expected work and memory footprint*
rather than by simple counts, "considering both the number of available GPUs
and the length of the sequences", because device memory is the limiting
resource of the single-GPU implementation.

Two policies are provided:

* ``"cells"`` (LOGAN's policy) — greedy longest-processing-time assignment
  by estimated DP cells, which also balances the HBM footprint because both
  scale with sequence length;
* ``"count"`` — naive equal-count round-robin, kept as the ablation baseline
  (``bench_ablation_loadbalance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.job import AlignmentJob
from ..errors import ConfigurationError
from ..perf.parallel import balance_by_weight

__all__ = ["DeviceAssignment", "LoadBalancer"]


@dataclass
class DeviceAssignment:
    """Jobs assigned to one device.

    Attributes
    ----------
    device_index:
        Index of the device in the :class:`~repro.gpusim.multi_gpu.MultiGpuSystem`.
    job_indices:
        Indices (into the original batch) of the jobs this device aligns.
    estimated_cells:
        Total estimated DP cells of the assigned jobs (the balancing weight).
    """

    device_index: int
    job_indices: list[int]
    estimated_cells: int

    @property
    def num_jobs(self) -> int:
        """Number of jobs assigned to this device."""
        return len(self.job_indices)

    def take(self, jobs: Sequence[AlignmentJob]) -> list[AlignmentJob]:
        """Materialise the assigned jobs from the original batch."""
        return [jobs[i] for i in self.job_indices]


class LoadBalancer:
    """Splits a batch of alignment jobs across GPU devices.

    Parameters
    ----------
    num_devices:
        Number of devices available.
    policy:
        ``"cells"`` (estimated-work balancing, default) or ``"count"``.
    xdrop:
        The X value used to estimate per-job work (band width grows with X).
    gap_penalty:
        Magnitude of the gap penalty, used by the cell estimate.
    """

    def __init__(
        self,
        num_devices: int,
        policy: str = "cells",
        xdrop: int = 100,
        gap_penalty: int = 1,
    ) -> None:
        if num_devices <= 0:
            raise ConfigurationError(f"num_devices must be positive, got {num_devices}")
        if policy not in ("cells", "count"):
            raise ConfigurationError(f"unknown load-balancing policy {policy!r}")
        if xdrop < 0:
            raise ConfigurationError("xdrop must be non-negative")
        self.num_devices = int(num_devices)
        self.policy = policy
        self.xdrop = int(xdrop)
        self.gap_penalty = int(gap_penalty)

    # ------------------------------------------------------------------ #
    def split(self, jobs: Sequence[AlignmentJob]) -> list[DeviceAssignment]:
        """Assign every job to exactly one device.

        Returns one :class:`DeviceAssignment` per device (possibly with an
        empty job list when there are fewer jobs than devices).  The union
        of all ``job_indices`` is exactly ``range(len(jobs))`` — the
        conservation property the tests check.
        """
        if self.policy == "count":
            return self._split_by_count(jobs)
        return self._split_by_cells(jobs)

    # ------------------------------------------------------------------ #
    def _split_by_count(self, jobs: Sequence[AlignmentJob]) -> list[DeviceAssignment]:
        assignments = [
            DeviceAssignment(device_index=d, job_indices=[], estimated_cells=0)
            for d in range(self.num_devices)
        ]
        for index, job in enumerate(jobs):
            dev = index % self.num_devices
            assignments[dev].job_indices.append(index)
            assignments[dev].estimated_cells += job.estimated_cells(
                self.xdrop, self.gap_penalty
            )
        return assignments

    def _split_by_cells(self, jobs: Sequence[AlignmentJob]) -> list[DeviceAssignment]:
        # Greedy longest-processing-time (balance_by_weight): the heaviest
        # job goes to the currently lightest device, within 4/3 of optimal,
        # which is more than enough balance for thousands of similar jobs.
        estimates = [job.estimated_cells(self.xdrop, self.gap_penalty) for job in jobs]
        return [
            DeviceAssignment(
                device_index=d,
                job_indices=indices,
                estimated_cells=sum(estimates[i] for i in indices),
            )
            for d, indices in enumerate(balance_by_weight(estimates, self.num_devices))
        ]

    # ------------------------------------------------------------------ #
    def imbalance(self, assignments: Sequence[DeviceAssignment]) -> float:
        """Max-over-mean estimated cells across devices (1.0 = perfect)."""
        loads = [a.estimated_cells for a in assignments if a.num_jobs > 0]
        if not loads:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 1.0
