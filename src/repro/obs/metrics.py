"""Labelled metrics core: counters, gauges, fixed-bucket histograms.

The registry is the process-local equivalent of a Prometheus client: code
creates (or re-fetches) named instruments once, updates them from hot paths,
and an exporter periodically turns the whole registry into an immutable
:class:`MetricsSnapshot` for the JSON-lines / Prometheus text writers in
:mod:`repro.obs.export`.

Design constraints, in order:

1. *Correct under threads.*  Every instrument guards its state with one
   small lock; the hammer tests assert no increment is ever lost and
   histogram totals stay consistent under concurrent observers.
2. *Cheap enough for hot paths.*  The critical section of an update is one
   dict/float operation — no allocation, no string formatting.  A snapshot
   never blocks updates for longer than copying the instrument's state.
3. *Idempotent creation.*  ``registry.counter("x")`` returns the existing
   instrument on repeat calls, so layers can declare their instruments
   locally without threading registry handles through every constructor.
   Re-declaring a name with a different type or label set raises.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SeriesSample",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds-shaped: 0.5 ms .. 10 s, +Inf implied).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: A label set frozen into a hashable series key.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labelnames: Sequence[str], labels: Mapping[str, Any]) -> LabelKey:
    """Validate and freeze one update's labels against the declaration."""
    if set(labels) != set(labelnames):
        raise ConfigurationError(
            f"labels {sorted(labels)} do not match the declared label names "
            f"{sorted(labelnames)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


class _Instrument:
    """Shared plumbing: name, declaration, per-instrument lock."""

    kind = "abstract"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[LabelKey, float] = {}
        if not self.labelnames:
            # Unlabelled series exist from creation, so snapshots taken
            # before any traffic still export the zero.
            self._values[()] = 0.0

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add *value* (must be non-negative) to the labelled series."""
        if value < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({value}))"
            )
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0.0 if never incremented)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every labelled series."""
        with self._lock:
            return float(sum(self._values.values()))

    def _sample(self) -> list["SeriesSample"]:
        with self._lock:
            items = list(self._values.items())
        return [
            SeriesSample(self.name, self.kind, dict(key), value, help=self.help)
            for key, value in items
        ]


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, live fraction, ...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[LabelKey, float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def dec(self, value: float = 1.0, **labels: Any) -> None:
        self.inc(-value, **labels)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _sample(self) -> list["SeriesSample"]:
        with self._lock:
            items = list(self._values.items())
        return [
            SeriesSample(self.name, self.kind, dict(key), value, help=self.help)
            for key, value in items
        ]


class _HistogramSeries:
    """Bucket counts + sum/count of one labelled histogram series."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * (num_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative rendering happens at export)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be a non-empty sorted "
                f"sequence, got {buckets!r}"
            )
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}
        if not self.labelnames:
            self._series[()] = _HistogramSeries(len(self.buckets))

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the labelled series."""
        key = _label_key(self.labelnames, labels)
        value = float(value)
        # Bucket search outside the lock: the bounds are immutable.
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def series(self, **labels: Any) -> dict[str, Any]:
        """Snapshot of one labelled series (counts per bucket, sum, count)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            s = self._series.get(key)
            if s is None:
                return {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
            return {"counts": list(s.counts), "sum": s.sum, "count": s.count}

    def _sample(self) -> list["SeriesSample"]:
        with self._lock:
            items = [
                (key, list(s.counts), s.sum, s.count)
                for key, s in self._series.items()
            ]
        return [
            SeriesSample(
                self.name,
                self.kind,
                dict(key),
                value=total,
                help=self.help,
                histogram={
                    "buckets": list(self.buckets),
                    "counts": counts,
                    "sum": total,
                    "count": count,
                },
            )
            for key, counts, total, count in items
        ]


@dataclass
class SeriesSample:
    """One exported series: a (name, labels) pair with its value.

    For histograms ``value`` is the observation sum and ``histogram``
    carries the bucket detail; counters and gauges leave it ``None``.
    """

    name: str
    kind: str
    labels: dict[str, str]
    value: float
    help: str = ""
    histogram: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.histogram is not None:
            payload["histogram"] = {
                "buckets": list(self.histogram["buckets"]),
                "counts": list(self.histogram["counts"]),
                "sum": self.histogram["sum"],
                "count": self.histogram["count"],
            }
        return payload


@dataclass
class MetricsSnapshot:
    """Immutable point-in-time copy of a registry.

    ``provenance`` follows the benchmark-reproducibility checklist: the
    exporting layer stamps config hash / seed / git SHA so every exported
    series can be traced back to the run that produced it.
    """

    captured_at: float
    series: list[SeriesSample] = field(default_factory=list)
    provenance: dict[str, Any] = field(default_factory=dict)

    def get(self, name: str, **labels: Any) -> SeriesSample | None:
        """The sample of (name, labels), or ``None`` when absent."""
        wanted = {k: str(v) for k, v in labels.items()}
        for sample in self.series:
            if sample.name == name and sample.labels == wanted:
                return sample
        return None

    def value(self, name: str, default: float | None = None, **labels: Any) -> float:
        """Value of one series; *default* (or an error) when absent."""
        sample = self.get(name, **labels)
        if sample is None:
            if default is not None:
                return default
            raise KeyError(f"no series {name!r} with labels {labels!r}")
        return sample.value

    def names(self) -> set[str]:
        """Every distinct series name in the snapshot."""
        return {s.name for s in self.series}

    def to_dict(self) -> dict[str, Any]:
        return {
            "captured_at": self.captured_at,
            "provenance": dict(self.provenance),
            "series": [s.to_dict() for s in self.series],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        return cls(
            captured_at=float(data.get("captured_at", 0.0)),
            provenance=dict(data.get("provenance", {})),
            series=[
                SeriesSample(
                    name=str(s["name"]),
                    kind=str(s.get("kind", "gauge")),
                    labels={k: str(v) for k, v in dict(s.get("labels", {})).items()},
                    value=float(s.get("value", 0.0)),
                    histogram=s.get("histogram"),
                )
                for s in data.get("series", [])
            ],
        )


class MetricsRegistry:
    """Named home of every instrument one subsystem exports.

    The service owns a private registry (its stats snapshot is a view over
    it); library-wide telemetry (kernels, engines, pipeline stages) lands
    on the process-global registry from :mod:`repro.obs.runtime`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ConfigurationError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind} with labels {list(existing.labelnames)}"
                    )
                return existing
            instrument = cls(name, help=help, labelnames=labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram *name* (fixed *buckets*)."""
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def names(self) -> list[str]:
        """Sorted names of every registered instrument."""
        with self._lock:
            return sorted(self._instruments)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(
        self, provenance: Mapping[str, Any] | None = None
    ) -> MetricsSnapshot:
        """Copy every series into an immutable snapshot."""
        samples: list[SeriesSample] = []
        for instrument in self.instruments():
            samples.extend(instrument._sample())
        samples.sort(key=lambda s: (s.name, sorted(s.labels.items())))
        return MetricsSnapshot(
            captured_at=time.time(),
            series=samples,
            provenance=dict(provenance or {}),
        )


def diff_counters(
    old: MetricsSnapshot, new: MetricsSnapshot
) -> list[dict[str, Any]]:
    """Counter/histogram-count deltas between two snapshots of one registry.

    The flight recorder stores these per interval: what *changed* recently
    is the useful crash context, not lifetime totals.
    """
    previous: dict[tuple, float] = {}
    for sample in old.series:
        previous[(sample.name, tuple(sorted(sample.labels.items())))] = sample.value
    deltas: list[dict[str, Any]] = []
    for sample in new.series:
        if sample.kind == "gauge":
            continue
        key = (sample.name, tuple(sorted(sample.labels.items())))
        delta = sample.value - previous.get(key, 0.0)
        if delta != 0.0:
            deltas.append(
                {"name": sample.name, "labels": dict(sample.labels), "delta": delta}
            )
    return deltas


__all__.append("diff_counters")
