#!/usr/bin/env python
"""Telemetry tour: metrics, tracing, the flight recorder, and exporters.

Walks the whole :mod:`repro.obs` surface on a small served workload:

* the always-live metrics registry — queue depth, batcher occupancy,
  cache hit rate, worker heat, kernel live fraction — exported
  as Prometheus text and JSON-lines snapshots with provenance,
* opt-in structured tracing: one trace tree per submission, spans nested
  ``service.submit -> service.dispatch -> pool.shard -> engine.align_batch``,
* the flight recorder: a bounded ring of recent spans/events/deltas,
  dumped to JSON when a (deliberately) crashed worker needs explaining,
* the guarantee the whole subsystem is built on: observability off or on,
  alignment results are bit-identical.

Run from the repository root::

    PYTHONPATH=src python examples/observability_tour.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs
from repro.api import AlignConfig, ServiceConfig
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.service import AlignmentService

XDROP = 50

jobs = generate_pair_set(
    PairSetSpec(
        num_pairs=32,
        min_length=200,
        max_length=700,
        pairwise_error_rate=0.15,
        seed_placement="middle",
        rng_seed=7,
    )
)

# ---------------------------------------------------------------- #
# 0. Baseline scores with every deep-telemetry switch off.
baseline = get_engine("batched", xdrop=XDROP).align_batch(jobs).scores()

# ---------------------------------------------------------------- #
# 1. Switch the process-global bundle on: spans + crash ring.
ob = obs.configure(tracing=True, flight_recorder=True)
collector = ob.tracer.collect()  # list-backed sink, handy for inspection

config = AlignConfig(
    engine="batched",
    xdrop=XDROP,
    bin_width=500,
    service=ServiceConfig(max_batch_size=16, cache_capacity=4 * len(jobs)),
)

with AlignmentService(config=config) as service:
    # Two rounds: the second is answered from the result cache.
    for _ in range(2):
        tickets = [service.submit(job) for job in jobs]
        service.drain()
        scores = [t.result().score for t in tickets]

    # 2. The service's scoped registry, frozen with provenance.
    snapshot = service.metrics_snapshot()

assert scores == baseline, "observability must not change results"

print("=== metrics snapshot (selected series) ===")
for name in (
    "repro_service_submitted_total",
    "repro_batches_formed_total",
    "repro_cache_hit_rate",
    "repro_kernel_live_fraction",
    "repro_queue_depth",
):
    for sample in snapshot.series:
        if sample.name == name:
            labels = ",".join(f"{k}={v}" for k, v in sorted(sample.labels.items()))
            print(f"  {name}{'{' + labels + '}' if labels else ''} = {sample.value}")
print(f"  provenance: git_sha={snapshot.provenance.get('git_sha', '')[:12]} "
      f"config_hash={snapshot.provenance.get('config_hash', '')[:12]}")

# ---------------------------------------------------------------- #
# 3. Exporters: Prometheus text and JSON lines round trip.
with tempfile.TemporaryDirectory() as tmp:
    jsonl = Path(tmp) / "metrics.jsonl"
    obs.write_jsonl(jsonl, snapshot)
    restored = obs.read_jsonl(jsonl)[0]
    assert restored.value("repro_cache_hit_rate") == snapshot.value(
        "repro_cache_hit_rate"
    )
prom_lines = obs.render_prometheus(snapshot).splitlines()
print(f"\n=== prometheus exposition: {len(prom_lines)} lines, e.g. ===")
for line in prom_lines[:4]:
    print(f"  {line}")

# ---------------------------------------------------------------- #
# 4. The trace tree: spans nest without explicit plumbing.
dispatches = collector.named("service.dispatch")
engine_spans = collector.named("engine.align_batch")
print(f"\n=== tracing: {len(collector)} spans collected ===")
print(f"  service.dispatch spans : {len(dispatches)}")
print(f"  engine.align_batch     : {len(engine_spans)} "
      f"(parented: {sum(1 for s in engine_spans if s.parent_id)})")

# ---------------------------------------------------------------- #
# 5. Flight recorder: crash a worker on purpose, read the dump.
with AlignmentService(config=config) as service:
    def explode(jobs, scoring=None, xdrop=None):
        raise RuntimeError("deliberate crash for the tour")

    service.pool.run_batch = explode
    doomed = [service.submit(job) for job in jobs[:4]]
    service.drain()
    failed = 0
    for ticket in doomed:
        try:
            ticket.result(timeout=60.0)
        except RuntimeError:
            failed += 1
    dump = service.last_crash_dump

print(f"\n=== flight recorder ===")
print(f"  failed tickets         : {failed}")
print(f"  dump reason            : {dump['reason']}")
print(f"  retained spans/events  : {len(dump['spans'])}/{len(dump['events'])}")
print(f"  crash event            : {dump['events'][-1]['error']}")

obs.reset()  # leave the process-global bundle as we found it
print("\nresults bit-identical with observability on: True")
