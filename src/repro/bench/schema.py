"""Typed benchmark results: one engine row, one trajectory entry.

The schema is deliberately JSON-plain: everything round-trips through
``to_dict``/``from_dict`` so the baseline store can persist trajectories as
human-diffable JSON committed next to the code they measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError

__all__ = ["BenchResult", "BenchEntry"]


@dataclass
class BenchResult:
    """One engine's measurement on one benchmark workload.

    Attributes
    ----------
    engine:
        Registered engine name.
    measured_seconds:
        Wall clock of the measured run (best of ``repeats``).
    measured_gcups:
        Giga cell-updates per second of the measured run.
    speedup_vs_scalar:
        ``reference_seconds / measured_seconds`` — normalised by the scalar
        reference timed in the *same* run, hence comparable across hosts.
    scores_identical_to_reference:
        Bit-identity of every score with the scalar reference (always
        ``True`` for the reference row itself; ``False`` is expected for
        inexact engines such as ksw2).
    modeled_seconds:
        Modeled platform runtime for engines with a platform model, else
        ``None``.
    cells:
        DP cells computed (the GCUPS numerator).
    kernel:
        Optional kernel telemetry dict (the batched engine's
        :class:`~repro.core.xdrop_batch.BatchKernelStats`).
    """

    engine: str
    measured_seconds: float
    measured_gcups: float
    speedup_vs_scalar: float
    scores_identical_to_reference: bool
    modeled_seconds: float | None = None
    cells: int = 0
    kernel: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "measured_seconds": self.measured_seconds,
            "measured_gcups": self.measured_gcups,
            "speedup_vs_scalar": self.speedup_vs_scalar,
            "scores_identical_to_reference": self.scores_identical_to_reference,
            "modeled_seconds": self.modeled_seconds,
            "cells": self.cells,
            "kernel": self.kernel,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchResult":
        return cls(
            engine=str(data["engine"]),
            measured_seconds=float(data["measured_seconds"]),
            measured_gcups=float(data["measured_gcups"]),
            speedup_vs_scalar=float(data["speedup_vs_scalar"]),
            scores_identical_to_reference=bool(
                data["scores_identical_to_reference"]
            ),
            modeled_seconds=(
                None
                if data.get("modeled_seconds") is None
                else float(data["modeled_seconds"])
            ),
            cells=int(data.get("cells", 0)),
            kernel=data.get("kernel"),
        )


@dataclass
class BenchEntry:
    """One point of a performance trajectory.

    The *signature* fields (``kind``, ``profile``, ``batch_size``,
    ``xdrop``, ``rng_seed``, ``scoring``, ``quick``, plus the workload
    parameters recorded under ``extra["workload"]``) identify the workload
    so :meth:`repro.bench.store.BaselineStore.latest_matching` only ever
    compares like with like; ``label`` and ``timestamp`` document the
    point, and ``rows`` carries the measurements.  ``profile`` is empty for
    the default random pair-set series and names the workload-bank profile
    (``pacbio``, ``ont``, …) for profile-mode series.
    """

    kind: str = "engines"
    label: str = ""
    timestamp: str = ""
    batch_size: int = 0
    xdrop: int = 0
    rng_seed: int = 0
    scoring: dict[str, int] = field(default_factory=dict)
    quick: bool = False
    profile: str = ""
    rows: list[BenchResult] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    #: Metrics-registry snapshot of the run (``MetricsSnapshot.to_dict()``),
    #: empty for entries recorded before the telemetry subsystem existed.
    metrics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.timestamp:
            self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    def signature(self) -> tuple:
        """Workload identity used to pair an entry with its baseline.

        Legacy entries (recorded before profile-mode series existed) have
        no ``profile`` field and no ``extra["workload"]`` dict; both
        default to empty here, so their signatures keep matching fresh
        default-series runs.
        """
        workload = self.extra.get("workload") or {}
        return (
            self.kind,
            self.profile,
            self.batch_size,
            self.xdrop,
            self.rng_seed,
            tuple(sorted(self.scoring.items())),
            self.quick,
            tuple(sorted((k, str(v)) for k, v in workload.items())),
        )

    def row(self, engine: str) -> BenchResult | None:
        """The row of *engine*, or ``None`` when it was not measured."""
        for row in self.rows:
            if row.engine == engine:
                return row
        return None

    def formatted(self) -> str:
        """Printable per-engine table of this entry."""
        lines = [
            f"[{self.kind}] {self.label or 'benchmark'} @ {self.timestamp} — "
            f"{self.batch_size} jobs, X={self.xdrop}, seed={self.rng_seed}"
            f"{f', profile={self.profile}' if self.profile else ''}"
            f"{' (quick)' if self.quick else ''}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.engine:>12s}: {row.measured_seconds:8.3f}s "
                f"{row.measured_gcups:8.4f} GCUPS "
                f"{row.speedup_vs_scalar:7.2f}x vs scalar  "
                f"exact={row.scores_identical_to_reference}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "label": self.label,
            "timestamp": self.timestamp,
            "batch_size": self.batch_size,
            "xdrop": self.xdrop,
            "rng_seed": self.rng_seed,
            "scoring": dict(self.scoring),
            "quick": self.quick,
            "profile": self.profile,
            "rows": [row.to_dict() for row in self.rows],
            "extra": dict(self.extra),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchEntry":
        try:
            rows = [BenchResult.from_dict(row) for row in data.get("rows", [])]
            return cls(
                kind=str(data.get("kind", "engines")),
                label=str(data.get("label", "")),
                timestamp=str(data.get("timestamp", "")) or "unknown",
                batch_size=int(data.get("batch_size", 0)),
                xdrop=int(data.get("xdrop", 0)),
                rng_seed=int(data.get("rng_seed", 0)),
                scoring={k: int(v) for k, v in dict(data.get("scoring", {})).items()},
                quick=bool(data.get("quick", False)),
                profile=str(data.get("profile", "")),
                rows=rows,
                extra=dict(data.get("extra", {})),
                metrics=dict(data.get("metrics", {})),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed benchmark entry: {error}"
            ) from error
