"""Judging a fresh benchmark entry: its own checks, then its baseline.

:func:`check` finds what makes an entry unfit to record whatever the
stored history holds (a score mismatch, a cache that never hit, a service
that never batched).  :func:`compare` gates it against its baseline.  The
default metric is ``speedup_vs_scalar``: it divides out the host's
absolute speed using the scalar reference timed in the same run, so a
trajectory recorded on a laptop still gates a CI runner meaningfully.
Raw ``measured_seconds``/``measured_gcups`` comparisons are available for
same-machine trend analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import describe_engines
from ..errors import ConfigurationError
from .schema import BenchEntry

__all__ = ["MetricDelta", "ComparisonReport", "check", "compare"]

#: Metrics where larger is better (regression = value dropped).
_HIGHER_IS_BETTER = {"speedup_vs_scalar", "measured_gcups"}
#: Metrics where smaller is better (regression = value grew).
_LOWER_IS_BETTER = {"measured_seconds"}

#: Engines whose metric is definitionally constant and therefore ungated
#: (the reference *is* the speed-up denominator).
_DENOMINATOR_ENGINES = {"reference", "per_job"}

#: Rows that only measure millisecond-scale overhead (the cache-served
#: resubmission round): pure timing noise on any gated metric, so they are
#: recorded in the trajectory but never gated.
_NOISE_ENGINES = {"service_resubmit"}


def check(entry: BenchEntry) -> list[str]:
    """What makes *entry* unfit to record, one message per failed check.

    One rule for both entry kinds: every row must be identical to its
    reference (the scalar reference for engine rows, the direct batch call
    for service rows) unless it belongs to a registered engine with
    ``exact = False``.  A service entry must also show a cache hit on
    resubmission and a batch of more than one job.  Empty when every
    check passes.
    """
    inexact = {row["name"] for row in describe_engines() if row["exact"] is False}
    failures = [
        f"{row.engine} scores diverge from the reference"
        for row in entry.rows
        if not row.scores_identical_to_reference and row.engine not in inexact
    ]
    if entry.kind == "service":
        if not entry.extra.get("cache_hit_rate", 0.0) > 0.0:
            failures.append("service_resubmit got no cache hit")
        if not entry.extra.get("mean_batch_size", 0.0) > 1.0:
            failures.append(
                "the service never formed a batch of more than one job "
                f"({entry.extra.get('batches_formed', 0)} batches)"
            )
    return failures


@dataclass
class MetricDelta:
    """One engine's baseline-vs-current movement on the chosen metric."""

    engine: str
    metric: str
    baseline: float
    current: float
    ratio: float
    regressed: bool

    def describe(self) -> str:
        direction = "regressed" if self.regressed else (
            "improved" if self.ratio > 1.0 else "held"
        )
        return (
            f"{self.engine:>12s}: {self.metric} {self.baseline:.4g} -> "
            f"{self.current:.4g} ({self.ratio:.2f}x, {direction})"
        )


@dataclass
class ComparisonReport:
    """Outcome of gating one entry against one baseline entry."""

    metric: str
    tolerance: float
    deltas: list[MetricDelta] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    baseline_label: str = ""

    @property
    def ok(self) -> bool:
        """True when no gated engine regressed beyond the tolerance."""
        return not self.regressions

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    def formatted(self) -> str:
        head = (
            f"compare vs baseline [{self.baseline_label or 'unknown'}] on "
            f"{self.metric} (tolerance {self.tolerance:.0%}) -> "
            f"{'OK' if self.ok else f'{len(self.regressions)} REGRESSION(S)'}"
        )
        lines = [head] + [d.describe() for d in self.deltas]
        if self.skipped:
            lines.append(f"    ungated: {', '.join(self.skipped)}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "baseline_label": self.baseline_label,
            "deltas": [
                {
                    "engine": d.engine,
                    "metric": d.metric,
                    "baseline": d.baseline,
                    "current": d.current,
                    "ratio": d.ratio,
                    "regressed": d.regressed,
                }
                for d in self.deltas
            ],
            "skipped": list(self.skipped),
        }


def compare(
    current: BenchEntry,
    baseline: BenchEntry | None,
    tolerance: float = 0.30,
    metric: str = "speedup_vs_scalar",
) -> ComparisonReport:
    """Gate *current* against *baseline* with a fractional *tolerance*.

    An engine regresses when its metric worsens by more than *tolerance*
    relative to the baseline value (direction depends on the metric).
    Engines missing from either entry — and the metric's own denominator
    engines — are listed as ``skipped``, never failed.  A ``None``
    baseline yields an empty, passing report (first recording).
    """
    if not 0.0 <= tolerance:
        raise ConfigurationError(f"tolerance must be non-negative, got {tolerance}")
    if metric not in _HIGHER_IS_BETTER | _LOWER_IS_BETTER:
        raise ConfigurationError(
            f"unknown comparison metric {metric!r}; available: "
            f"{', '.join(sorted(_HIGHER_IS_BETTER | _LOWER_IS_BETTER))}"
        )
    report = ComparisonReport(
        metric=metric,
        tolerance=float(tolerance),
        baseline_label=(
            f"{baseline.label or baseline.kind} @ {baseline.timestamp}"
            if baseline is not None
            else ""
        ),
    )
    if baseline is None:
        return report
    higher_better = metric in _HIGHER_IS_BETTER
    for row in current.rows:
        if row.engine in _NOISE_ENGINES or (
            row.engine in _DENOMINATOR_ENGINES and metric == "speedup_vs_scalar"
        ):
            report.skipped.append(row.engine)
            continue
        base_row = baseline.row(row.engine)
        if base_row is None:
            report.skipped.append(row.engine)
            continue
        base_value = float(getattr(base_row, metric))
        cur_value = float(getattr(row, metric))
        if base_value <= 0:
            report.skipped.append(row.engine)
            continue
        if higher_better:
            ratio = cur_value / base_value
        else:
            ratio = base_value / cur_value if cur_value > 0 else float("inf")
        regressed = ratio < (1.0 - tolerance)
        report.deltas.append(
            MetricDelta(
                engine=row.engine,
                metric=metric,
                baseline=base_value,
                current=cur_value,
                ratio=ratio,
                regressed=regressed,
            )
        )
    return report
