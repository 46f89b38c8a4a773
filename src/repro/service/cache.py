"""Content-addressed LRU result cache of the alignment service.

Alignment is a pure function of the pair, its seed and the config fields
that decide a result (:data:`RESULT_FIELDS`: the engine, its options, the
scoring, X and trace mode), so repeated submissions of the same pair —
common when an overlapper re-examines candidate pairs, or when many clients
ask about the same hot reads — can be answered from a cache without
touching an engine.  The key is *content-addressed*: sequences are hashed
from their encoded bytes, so two :class:`~repro.core.job.AlignmentJob`
objects holding equal sequences share one entry regardless of identity or
``pair_id``; the config enters as one :func:`result_digest`, computed once
per service.  Naming the engine keeps a durable state file reopened under
another engine from answering with the first engine's results.

Eviction is LRU over a bounded entry count; hit/miss/eviction counters feed
the :class:`~repro.service.service.ServiceStats` snapshot.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from ..core.job import AlignmentJob
from ..core.result import SeedAlignmentResult
from ..obs.provenance import config_hash

__all__ = [
    "RESULT_FIELDS",
    "CacheKey",
    "CacheStats",
    "ResultCache",
    "job_cache_key",
    "result_digest",
]

#: Hashable cache key: sequence digests + seed anchor + config digest.
CacheKey = tuple

#: The :class:`~repro.api.AlignConfig` fields that decide a result.
#: ``workers`` and the service fields stay out: results are bit-identical
#: across them.
RESULT_FIELDS = ("engine", "engine_options", "scoring", "xdrop", "trace")


def _digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def result_digest(config) -> str:
    """Digest of *config*'s :data:`RESULT_FIELDS`, the config part of a key."""
    fields = config.to_dict()
    return config_hash({name: fields[name] for name in RESULT_FIELDS})


def job_cache_key(job: AlignmentJob, digest: str) -> CacheKey:
    """Content-addressed key of one alignment request.

    Everything the result depends on participates: the encoded sequence
    bytes (digested), the seed anchor and *digest*, the
    :func:`result_digest` of the config that aligns the job.  ``pair_id``
    deliberately does not — it is routing metadata, not input.
    """
    seed = job.seed
    return (
        _digest(job.query.tobytes()),
        _digest(job.target.tobytes()),
        seed.query_pos,
        seed.target_pos,
        seed.length,
        digest,
    )


@dataclass
class CacheStats:
    """Counters of one cache's lifetime activity."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class ResultCache:
    """Bounded LRU cache of :class:`SeedAlignmentResult` objects.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  ``0`` disables the cache entirely
        (every lookup misses, nothing is stored) — the service uses this to
        turn caching off without branching at every call site.
    """

    def __init__(self, capacity: int = 4096, obs=None) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[CacheKey, SeedAlignmentResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if obs is not None:
            self._lookup_counter = obs.counter(
                "repro_cache_lookups_total", "cache lookups, by outcome", ("outcome",)
            )
            self._eviction_counter = obs.counter(
                "repro_cache_evictions_total", "LRU evictions performed"
            )
            self._size_gauge = obs.gauge("repro_cache_size", "entries currently cached")
            self._hit_rate_gauge = obs.gauge(
                "repro_cache_hit_rate", "fraction of lookups answered from cache"
            )
        else:
            self._lookup_counter = None
            self._eviction_counter = None
            self._size_gauge = None
            self._hit_rate_gauge = None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> SeedAlignmentResult | None:
        """Look up *key*, refreshing its recency on a hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self._entries.move_to_end(key)
            self.hits += 1
        if self._lookup_counter is not None:
            self._lookup_counter.inc(outcome="miss" if entry is None else "hit")
        self.refresh_gauges()
        return entry

    def put(self, key: CacheKey, result: SeedAlignmentResult) -> None:
        """Store *result* under *key*, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = result
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self._eviction_counter is not None:
                self._eviction_counter.inc()
        if self._size_gauge is not None:
            self._size_gauge.set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def refresh_gauges(self) -> None:
        """Push the current size and hit rate onto the observability gauges.

        Safe on a fresh cache: with zero lookups the hit rate reports 0.0
        rather than dividing by zero.
        """
        if self._size_gauge is not None:
            self._size_gauge.set(len(self._entries))
        if self._hit_rate_gauge is not None:
            lookups = self.hits + self.misses
            self._hit_rate_gauge.set(self.hits / lookups if lookups else 0.0)

    def stats(self) -> CacheStats:
        """Snapshot of the cache counters."""
        self.refresh_gauges()
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )
