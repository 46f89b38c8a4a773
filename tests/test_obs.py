"""Unit tests of the telemetry subsystem (:mod:`repro.obs`).

Covers the metrics core (counters/gauges/histograms, labels, snapshots,
diffs), structured tracing (parent propagation, error capture, the no-op
disabled path), the flight recorder ring, both exporters, provenance
stamping, the runtime bundle — and the multi-threaded hammer tests the
thread-safety claims are gated on.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import (
    NULL_SPAN,
    FlightRecorder,
    IntervalExporter,
    MetricsRegistry,
    MetricsSnapshot,
    Tracer,
    build_provenance,
    config_hash,
    diff_counters,
    read_jsonl,
    render_prometheus,
    write_jsonl,
)


@pytest.fixture(autouse=True)
def _fresh_global_obs():
    """Isolate every test from the process-global bundle."""
    obs.reset()
    yield
    obs.reset()


# --------------------------------------------------------------------------- #
# Metrics core.
# --------------------------------------------------------------------------- #
class TestCounters:
    def test_unlabelled_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total")
        c.inc()
        c.inc(4)
        assert c.value() == 5.0

    def test_labelled_counter_keeps_series_apart(self):
        reg = MetricsRegistry()
        c = reg.counter("batches_total", labelnames=("engine",))
        c.inc(engine="batched")
        c.inc(2, engine="reference")
        assert c.value(engine="batched") == 1.0
        assert c.value(engine="reference") == 2.0
        assert c.total() == 3.0

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("x").inc(-1)

    def test_label_mismatch_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("y", labelnames=("engine",))
        with pytest.raises(ConfigurationError):
            c.inc(shard="0")

    def test_redeclaration_with_other_kind_rejected(self):
        reg = MetricsRegistry()
        reg.counter("z")
        with pytest.raises(ConfigurationError):
            reg.gauge("z")

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("same") is reg.counter("same")


class TestGaugesAndHistograms:
    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12.0

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        series = h.series()
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(55.5)
        # counts are per-bucket: <=1, <=10, +Inf overflow
        assert series["counts"] == [1, 1, 1]


class TestSnapshots:
    def test_unlabelled_instruments_appear_before_first_update(self):
        """Pre-seeded series: a dashboard scrape sees zeros, not gaps."""
        reg = MetricsRegistry()
        reg.counter("evictions_total")
        reg.gauge("queue_depth")
        reg.histogram("wait_seconds")
        snap = reg.snapshot()
        assert snap.value("evictions_total") == 0.0
        assert snap.value("queue_depth") == 0.0
        assert snap.get("wait_seconds") is not None

    def test_snapshot_roundtrips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c", labelnames=("k",)).inc(3, k="a")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot(provenance={"seed": 7})
        restored = MetricsSnapshot.from_dict(json.loads(snap.to_json()))
        assert restored.value("c", k="a") == 3.0
        assert restored.provenance == {"seed": "7"} or restored.provenance == {
            "seed": 7
        }
        hist = restored.get("h")
        assert hist is not None and hist.histogram["count"] == 1

    def test_diff_counters_skips_gauges(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        old = reg.snapshot()
        c.inc(5)
        g.set(99)
        deltas = diff_counters(old, reg.snapshot())
        assert deltas == [{"name": "c", "labels": {}, "delta": 5.0}]


# --------------------------------------------------------------------------- #
# Tracing.
# --------------------------------------------------------------------------- #
class TestTracing:
    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        with tracer.span("still_nothing") as span:
            span.set_attribute("ignored", 1)  # must not raise

    def test_parent_propagates_through_nesting(self):
        tracer = Tracer(enabled=True)
        collected = tracer.collect()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        names = [s.name for s in collected]
        assert names == ["inner", "outer"]  # children finish first
        assert all(s.duration is not None and s.duration >= 0 for s in collected)

    def test_exception_marks_span_as_error(self):
        tracer = Tracer(enabled=True)
        collected = tracer.collect()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = collected.named("doomed")
        assert span.status == "error"
        assert "ValueError" in span.error

    def test_sibling_threads_get_independent_stacks(self):
        tracer = Tracer(enabled=True)
        collected = tracer.collect()

        def worker():
            with tracer.span("thread_root"):
                pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = collected.named("thread_root")
        assert len(roots) == 4
        assert all(s.parent_id is None for s in roots)

    def test_broken_sink_never_breaks_work(self):
        tracer = Tracer(enabled=True)

        def bad_sink(span):
            raise RuntimeError("sink bug")

        tracer.add_sink(bad_sink)
        with tracer.span("survives"):
            pass  # must not raise


# --------------------------------------------------------------------------- #
# Flight recorder.
# --------------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_ring_is_bounded_per_signal(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record_event("tick", i=i)
        assert rec.event_count == 4

    def test_chatty_spans_cannot_evict_events(self):
        rec = FlightRecorder(capacity=4)
        tracer = Tracer(enabled=True, sinks=(rec.record_span,))
        rec.record_event("crash")
        for _ in range(20):
            with tracer.span("noise"):
                pass
        assert rec.span_count == 4
        assert rec.event_count == 1

    def test_tick_records_counter_deltas(self):
        reg = MetricsRegistry()
        rec = FlightRecorder(capacity=8, registry=reg)
        c = reg.counter("work_total")
        rec.tick()
        c.inc(3)
        rec.tick()
        doc = rec.dump(reason="test")
        assert doc["metric_deltas"], "second tick must record the +3 delta"
        (delta,) = doc["metric_deltas"][-1]["deltas"]
        assert delta == {"name": "work_total", "labels": {}, "delta": 3.0}

    def test_dump_writes_self_describing_document(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        rec = FlightRecorder(capacity=8, registry=reg)
        rec.record_event("worker_crash", error="boom")
        out = tmp_path / "dump.json"
        doc = rec.dump(path=out, reason="worker_crash", provenance={"seed": 1})
        on_disk = json.loads(out.read_text())
        assert on_disk["kind"] == "flight_recorder_dump"
        assert on_disk["reason"] == "worker_crash"
        assert on_disk["events"][0]["kind"] == "worker_crash"
        assert doc["metrics"] is not None
        assert rec.dumps == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# --------------------------------------------------------------------------- #
# Exporters.
# --------------------------------------------------------------------------- #
class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        path = tmp_path / "m.jsonl"
        write_jsonl(path, reg.snapshot())
        reg.counter("c").inc()
        write_jsonl(path, reg.snapshot())
        snaps = read_jsonl(path)
        assert [s.value("c") for s in snaps] == [2.0, 3.0]

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", help="jobs", labelnames=("engine",)).inc(
            5, engine="batched"
        )
        reg.gauge("repro_depth").set(3)
        reg.histogram("repro_wait", buckets=(1.0,)).observe(0.5)
        text = render_prometheus(reg.snapshot())
        assert '# TYPE repro_jobs_total counter' in text
        assert 'repro_jobs_total{engine="batched"} 5.0' in text
        assert "repro_depth 3.0" in text  # no _total suffix on gauges
        assert 'repro_wait_bucket{le="+Inf"} 1' in text
        assert "repro_wait_count 1" in text

    def test_counter_total_suffix_not_doubled(self):
        reg = MetricsRegistry()
        reg.counter("already_total").inc()
        reg.counter("bare").inc()
        text = render_prometheus(reg.snapshot())
        assert "already_total 1.0" in text
        assert "already_total_total" not in text
        assert "bare_total 1.0" in text

    def test_interval_exporter_manual_and_background(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = tmp_path / "m.jsonl"
        seen = []
        exporter = IntervalExporter(
            reg, path, interval=0.05, provenance={"run": "t"}, on_export=seen.append
        )
        exporter.export_now()
        exporter.start()
        exporter.stop(final_export=True)
        assert exporter.exports >= 2
        snaps = read_jsonl(path)
        assert len(snaps) == exporter.exports
        assert all(s.provenance.get("run") == "t" for s in snaps)
        assert len(seen) == exporter.exports

    def test_prom_mode_rewrites_file(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = tmp_path / "metrics.prom"
        exporter = IntervalExporter(reg, path, fmt="prom")
        exporter.export_now()
        exporter.export_now()
        assert path.read_text().count("# TYPE c counter") == 1

    def test_invalid_fmt_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            IntervalExporter(MetricsRegistry(), tmp_path / "x", fmt="xml")


# --------------------------------------------------------------------------- #
# Provenance.
# --------------------------------------------------------------------------- #
class TestProvenance:
    def test_build_provenance_core_fields(self):
        prov = build_provenance(seed=7, run="unit")
        assert prov["seed"] == 7
        assert prov["run"] == "unit"
        assert "git_sha" in prov
        assert "python" in prov

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


# --------------------------------------------------------------------------- #
# Runtime bundle.
# --------------------------------------------------------------------------- #
class TestRuntime:
    def test_disabled_by_default(self):
        ob = obs.get_observability()
        assert not ob.enabled
        assert ob.recorder is None
        assert ob.span("x") is NULL_SPAN

    def test_configure_round_trip(self):
        ob = obs.configure(tracing=True, flight_recorder=True)
        assert ob.enabled and ob.recorder is not None
        with ob.span("traced"):
            pass
        assert ob.recorder.span_count == 1
        obs.configure(tracing=False, flight_recorder=False)
        assert not ob.enabled and ob.recorder is None

    def test_scoped_bundle_shares_tracer_not_registry(self):
        ob = obs.configure(tracing=True)
        scoped = ob.scoped()
        assert scoped.tracer is ob.tracer
        assert scoped.registry is not ob.registry
        scoped.counter("private").inc()
        assert "private" not in ob.registry.names()

    def test_emit_kernel_batch_lands_on_global_registry(self):
        obs.emit_kernel_batch("test", pairs=4, cells=100, steps=12, dtype="int16")
        snap = obs.get_observability().registry.snapshot()
        assert snap.value("repro_kernel_pairs_total", kernel="test") == 4.0
        assert snap.value("repro_kernel_cells_total", kernel="test") == 100.0
        assert (
            snap.value("repro_kernel_dtype_total", kernel="test", dtype="int16")
            == 1.0
        )


# --------------------------------------------------------------------------- #
# Thread-safety hammers (satellite: concurrency guarantees).
# --------------------------------------------------------------------------- #
class TestConcurrency:
    THREADS = 8
    PER_THREAD = 500

    def _hammer(self, fn):
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def run():
            try:
                barrier.wait()
                for i in range(self.PER_THREAD):
                    fn(i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_concurrent_counter_increments_all_land(self):
        reg = MetricsRegistry()
        c = reg.counter("hammer_total", labelnames=("t",))
        self._hammer(lambda i: c.inc(t=str(i % 4)))
        assert c.total() == self.THREADS * self.PER_THREAD

    def test_concurrent_histogram_observations_all_land(self):
        reg = MetricsRegistry()
        h = reg.histogram("hammer_hist", buckets=(10.0, 100.0))
        self._hammer(lambda i: h.observe(float(i)))
        assert h.series()["count"] == self.THREADS * self.PER_THREAD

    def test_concurrent_instrument_creation_is_single_instance(self):
        reg = MetricsRegistry()
        instruments = []
        self._hammer(lambda i: instruments.append(reg.counter("shared")))
        assert all(ins is instruments[0] for ins in instruments)

    def test_snapshot_under_load_is_consistent(self):
        """Snapshots taken mid-hammer parse and stay monotonic."""
        reg = MetricsRegistry()
        c = reg.counter("load_total")
        stop = threading.Event()
        snaps: list[MetricsSnapshot] = []

        def snapshotter():
            while not stop.is_set():
                snaps.append(reg.snapshot())

        watcher = threading.Thread(target=snapshotter)
        watcher.start()
        try:
            self._hammer(lambda i: c.inc())
        finally:
            stop.set()
            watcher.join()
        snaps.append(reg.snapshot())
        values = [s.value("load_total", default=0.0) for s in snaps]
        assert values == sorted(values), "counter must never appear to decrease"
        assert values[-1] == self.THREADS * self.PER_THREAD

    def test_traced_spans_under_load_all_reach_recorder_sink(self):
        tracer = Tracer(enabled=True)
        collected = tracer.collect()

        def traced(i):
            with tracer.span("hammered", i=i):
                pass

        self._hammer(traced)
        assert len(collected) == self.THREADS * self.PER_THREAD


# --------------------------------------------------------------------------- #
# Batcher gauge consistency.
# --------------------------------------------------------------------------- #


class TestBatcherPendingGauge:
    """``repro_batcher_pending`` must equal ``pending`` after every mutation.

    The batcher refreshes the gauge in two places — :meth:`add` and the
    shared flush behind ``due`` (idle) and ``flush_all`` (drain).  This test
    walks every path and asserts the invariant after each step, so a future
    refactor cannot silently leave the gauge stale on one of them.
    """

    def _ticket(self, length=100):
        from repro.core.job import AlignmentJob, Seed
        from repro.service.queue import AlignmentTicket

        seq = "ACGT" * (length // 4 + 1)
        return AlignmentTicket(
            AlignmentJob(query=seq[:length], target=seq[:length], seed=Seed(0, 0, 4))
        )

    def _gauge_value(self, bundle):
        return bundle.registry.snapshot().value("repro_batcher_pending")

    def test_gauge_tracks_pending_through_every_flush_path(self):
        from repro.service.batcher import AdaptiveBatcher

        bundle = obs.get_observability().scoped()
        batcher = AdaptiveBatcher(max_batch_size=3, obs=bundle)

        def check():
            assert self._gauge_value(bundle) == batcher.pending

        def formed(reason):
            return bundle.registry.snapshot().value(
                "repro_batches_formed_total", reason=reason
            )

        check()  # declared at 0 before any traffic
        # Admissions refresh the gauge in add(), past the cap too: add()
        # never flushes.
        for _ in range(4):
            assert batcher.add(self._ticket()) is None
            check()
        assert batcher.pending == 4

        # Idle flush (due): over the cap it cuts two batches, each counted
        # under its reason, and the gauge drops back to zero.
        assert [b.size for b in batcher.due()] == [3, 1]
        check()
        assert batcher.pending == 0
        assert formed("idle") == 2

        # Drain path: two pending tickets form one batch.
        batcher.add(self._ticket())
        batcher.add(self._ticket())
        check()
        assert len(batcher.flush_all()) == 1
        check()
        assert batcher.pending == 0 and self._gauge_value(bundle) == 0
        assert formed("drain") == 1
