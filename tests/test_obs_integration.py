"""Cross-layer telemetry tests: service, engines, kernels, pipeline, CLI.

The unit behaviour of :mod:`repro.obs` lives in ``test_obs.py``; this file
checks that the instrumented layers actually emit what the dashboards and
crash dumps depend on — and that observability stays invisible when off
(bit-identical results, registry-only cost).
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.api import AlignConfig, ServiceConfig
from repro.engine import get_engine
from repro.obs.provenance import git_sha
from repro.service import AlignmentService


@pytest.fixture(autouse=True)
def _fresh_global_obs():
    obs.reset()
    yield
    obs.reset()


def _service(jobs, **service_kwargs):
    return AlignmentService(
        config=AlignConfig(
            engine="batched",
            service=ServiceConfig(
                cache_capacity=4 * len(jobs), **service_kwargs
            ),
        )
    )


def _serve(service, jobs):
    tickets = service.submit_many(jobs)
    service.drain()
    return [t.result(timeout=60.0) for t in tickets]


# --------------------------------------------------------------------------- #
# Service layer.
# --------------------------------------------------------------------------- #
class TestServiceInstrumentation:
    def test_stats_is_a_view_over_the_registry(self, small_jobs):
        service = _service(small_jobs)
        try:
            _serve(service, small_jobs)
            _serve(service, small_jobs)  # cache round
            stats = service.stats()
            snap = service.metrics_snapshot()
            assert snap.value("repro_service_submitted_total") == stats.submitted
            assert snap.value("repro_service_completed_total") == stats.completed
            assert snap.value("repro_cache_lookups_total", outcome="hit") == (
                stats.cache.hits
            )
            assert snap.value("repro_cache_hit_rate") == pytest.approx(
                stats.cache.hit_rate
            )
        finally:
            service.shutdown()

    def test_core_series_present_after_mixed_workload(self, small_jobs):
        service = _service(small_jobs)
        try:
            _serve(service, small_jobs)
            snap = service.metrics_snapshot()
        finally:
            service.shutdown()
        names = snap.names()
        for required in (
            "repro_queue_depth",
            "repro_queue_wait_seconds",
            "repro_batches_formed_total",
            "repro_batch_occupancy",
            "repro_cache_hit_rate",
            "repro_worker_busy_seconds_total",
            "repro_service_cells_total",
            "repro_kernel_live_fraction",
        ):
            assert required in names, f"missing {required}"
        # Per-shard heat carries the shard label.
        assert snap.value("repro_worker_jobs_total", shard="0") == len(small_jobs)
        # Settled service: no queue backlog left behind.
        assert snap.value("repro_queue_depth") == 0.0

    def test_batch_occupancy_histogram_matches_batched_jobs(self, small_jobs):
        service = _service(small_jobs, max_batch_size=3)
        try:
            _serve(service, small_jobs)
            _serve(service, small_jobs)  # cache round: no new batch
            stats = service.stats()
            snap = service.metrics_snapshot()
        finally:
            service.shutdown()
        hist = snap.get("repro_batch_occupancy").histogram
        assert stats.batches_formed > 1
        assert hist["count"] == stats.batches_formed
        assert hist["sum"] == stats.batched_jobs == len(small_jobs)
        assert stats.to_dict()["batched_jobs"] == stats.batched_jobs

    def test_snapshot_carries_provenance(self, small_jobs):
        service = _service(small_jobs)
        try:
            snap = service.metrics_snapshot()
        finally:
            service.shutdown()
        assert "git_sha" in snap.provenance
        assert "config_hash" in snap.provenance

    def test_two_services_never_mix_counters(self, small_jobs):
        a = _service(small_jobs)
        b = _service(small_jobs)
        try:
            _serve(a, small_jobs)
            assert a.metrics_snapshot().value("repro_service_submitted_total") == (
                len(small_jobs)
            )
            assert b.metrics_snapshot().value("repro_service_submitted_total") == 0.0
        finally:
            a.shutdown()
            b.shutdown()

    def test_worker_crash_dumps_flight_recorder(self, small_jobs, tmp_path):
        obs.configure(tracing=True, flight_recorder=True)
        service = _service(small_jobs)
        service.crash_dump_path = tmp_path / "crash.json"

        def explode(jobs):
            raise RuntimeError("forced worker crash")

        service.pool.run_batch = explode
        try:
            tickets = service.submit_many(small_jobs)
            service.drain()
            for ticket in tickets:
                with pytest.raises(Exception):
                    ticket.result(timeout=60.0)
        finally:
            service.shutdown()
        assert service.last_crash_dump is not None
        assert service.last_crash_dump["reason"] == "worker_crash"
        events = [e["kind"] for e in service.last_crash_dump["events"]]
        assert "worker_crash" in events
        on_disk = json.loads((tmp_path / "crash.json").read_text())
        assert on_disk["kind"] == "flight_recorder_dump"
        assert on_disk["provenance"].get("git_sha") == git_sha()

    def test_tracing_off_means_no_crash_dump(self, small_jobs):
        service = _service(small_jobs)

        def explode(jobs):
            raise RuntimeError("boom")

        service.pool.run_batch = explode
        try:
            tickets = service.submit_many(small_jobs)
            service.drain()
            for ticket in tickets:
                with pytest.raises(Exception):
                    ticket.result(timeout=60.0)
        finally:
            service.shutdown()
        assert service.last_crash_dump is None


# --------------------------------------------------------------------------- #
# Engines and kernels.
# --------------------------------------------------------------------------- #
class TestEngineInstrumentation:
    def test_engine_batch_counters(self, small_jobs):
        get_engine("batched", xdrop=20).align_batch(small_jobs)
        snap = obs.get_observability().registry.snapshot()
        assert snap.value("repro_engine_batches_total", engine="batched") == 1.0
        assert snap.value("repro_engine_jobs_total", engine="batched") == (
            len(small_jobs)
        )
        # Each job contributes its seed extensions (left+right), so the
        # kernel row count is at least one per job.
        assert snap.value("repro_kernel_pairs_total", kernel="batched") >= (
            len(small_jobs)
        )
        hist = snap.get("repro_kernel_live_fraction", kernel="batched")
        assert hist is not None and hist.histogram["count"] == 1

    def test_engine_live_fraction_histogram_observes_the_call(self, small_jobs):
        batch = get_engine("batched", xdrop=20).align_batch(small_jobs)
        stats = batch.extras["kernel_stats"]
        snap = obs.get_observability().registry.snapshot()
        hist = snap.get("repro_kernel_live_fraction", kernel="batched")
        assert hist.histogram["count"] == 1
        assert hist.histogram["sum"] == stats.live_fraction
        assert stats.live_fraction == stats.active_row_steps / stats.row_steps

    def test_engine_spans_when_tracing_enabled(self, small_jobs):
        ob = obs.configure(tracing=True)
        collected = ob.tracer.collect()
        get_engine("reference", xdrop=20).align_batch(small_jobs)
        spans = collected.named("engine.align_batch")
        assert len(spans) == 1
        assert spans[0].attributes == {
            "engine": "reference",
            "jobs": len(small_jobs),
        }

    def test_results_bit_identical_with_observability_enabled(self, small_jobs):
        baseline = get_engine("batched", xdrop=20).align_batch(small_jobs).scores()
        obs.configure(tracing=True, flight_recorder=True)
        traced = get_engine("batched", xdrop=20).align_batch(small_jobs).scores()
        assert traced == baseline

    def test_wavefront_kernel_emits(self, small_jobs):
        get_engine("wavefront", xdrop=20).align_batch(small_jobs)
        snap = obs.get_observability().registry.snapshot()
        assert snap.value("repro_kernel_batches_total", kernel="wavefront") >= 1.0
        assert snap.value("repro_kernel_cells_total", kernel="wavefront") > 0.0

    def test_batched_kernel_emits_dtype_tier(self, small_jobs):
        get_engine("batched", xdrop=20).align_batch(small_jobs)
        snap = obs.get_observability().registry.snapshot()
        assert snap.value("repro_kernel_batches_total", kernel="batched") == 1.0
        dtypes = [
            s.labels["dtype"]
            for s in snap.series
            if s.name == "repro_kernel_dtype_total"
            and s.labels.get("kernel") == "batched"
        ]
        assert dtypes, "batched kernel must report its dtype tier"


# --------------------------------------------------------------------------- #
# BELLA pipeline stage breakdown.
# --------------------------------------------------------------------------- #
class TestPipelineInstrumentation:
    def test_stage_timings_exported(self, tiny_reads):
        from repro.bella import BellaPipeline

        result = BellaPipeline().run(tiny_reads)
        breakdown = result.timer.to_dict()
        assert "alignment" in breakdown["stages"]
        assert breakdown["total"] == pytest.approx(
            sum(breakdown["stages"].values())
        )
        assert sum(breakdown["fractions"].values()) == pytest.approx(1.0)
        snap = obs.get_observability().registry.snapshot()
        assert snap.value("repro_bella_runs_total") == 1.0
        assert (
            snap.value("repro_bella_stage_seconds_total", stage="alignment") > 0.0
        )


# --------------------------------------------------------------------------- #
# Conformance flight-recorder wiring.
# --------------------------------------------------------------------------- #
class TestConformanceFlightRecorder:
    def _failing_report(self, small_jobs):
        from repro.testing import ConformanceRunner
        from repro.testing.conformance import ConformanceReport, FieldMismatch

        runner = ConformanceRunner(
            AlignConfig(engine="batched"), engines=["batched"], shrink=False
        )
        report = ConformanceReport()
        runner._record(
            report,
            "batched",
            small_jobs[0],
            0,
            [FieldMismatch("score", 10, 9)],
            None,
            None,
        )
        return report

    def test_failure_references_dump_when_recorder_active(self, small_jobs):
        obs.configure(tracing=True, flight_recorder=True)
        report = self._failing_report(small_jobs)
        (failure,) = report.failures
        dump = failure.flight_recorder
        assert dump is not None and dump["reason"] == "conformance_failure"
        assert any(
            e["kind"] == "conformance_failure" and e["engine"] == "batched"
            for e in dump["events"]
        )
        # The artifact is JSON-serialisable end to end.
        json.dumps(failure.to_dict(), default=str)

    def test_failure_has_no_dump_when_recorder_off(self, small_jobs):
        report = self._failing_report(small_jobs)
        assert report.failures[0].flight_recorder is None
        assert report.failures[0].to_dict()["flight_recorder"] is None


# --------------------------------------------------------------------------- #
# Bench entries record metrics snapshots.
# --------------------------------------------------------------------------- #
class TestBenchMetrics:
    def test_engine_bench_entry_carries_metrics(self):
        from repro.bench import BenchEntry
        from repro.bench.runner import run_engine_bench

        entry = run_engine_bench(pairs=8, quick=True, repeats=1, seed=11)
        names = {s["name"] for s in entry.metrics["series"]}
        assert "repro_engine_batches_total" in names
        assert "repro_kernel_live_fraction" in names
        assert entry.metrics["provenance"]["seed"] == 11
        restored = BenchEntry.from_dict(entry.to_dict())
        assert restored.metrics == entry.metrics

    def test_service_bench_entry_carries_service_series(self):
        from repro.bench.runner import run_service_bench

        entry = run_service_bench(pairs=8, quick=True, seed=11)
        names = {s["name"] for s in entry.metrics["series"]}
        assert "repro_queue_depth" in names
        assert "repro_cache_hit_rate" in names
        assert "repro_service_completed_total" in names


# --------------------------------------------------------------------------- #
# CLI surface.
# --------------------------------------------------------------------------- #
class TestObsCli:
    def test_serve_writes_prometheus_and_flight_recorder(self, capsys, tmp_path):
        from repro.cli import main_service

        out = tmp_path / "snap.prom"
        fr = tmp_path / "fr.json"
        code = main_service(
            [
                "serve",
                "--pairs", "8",
                "--min-length", "120",
                "--max-length", "240",
                "--repeat", "2",
                "--inline",
                "--trace",
                "--metrics-out", str(out),
                "--metrics-format", "prom",
                "--flight-recorder-out", str(fr),
                "--json",
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "repro_cache_hit_rate 0.5" in text
        assert "repro_queue_depth" in text
        assert json.loads(capsys.readouterr().out)["metrics_out"] == str(out)
        dump = json.loads(fr.read_text())
        assert dump["kind"] == "flight_recorder_dump"
        assert dump["reason"] == "serve_exit"
        assert dump["spans"]

    def test_demo_removed(self, capsys):
        # `repro-service serve` writes the exposition and the dump (above).
        from repro.cli import main_obs

        with pytest.raises(SystemExit) as excinfo:
            main_obs(["demo"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_read_summarises_jsonl(self, capsys, tmp_path):
        from repro.cli import main_obs
        from repro.obs import MetricsRegistry, write_jsonl

        reg = MetricsRegistry()
        reg.counter("repro_demo_total", labelnames=("engine",)).inc(
            3, engine="batched"
        )
        path = tmp_path / "m.jsonl"
        write_jsonl(path, reg.snapshot(provenance={"git_sha": "abc123"}))
        assert main_obs(["read", str(path)]) == 0
        text = capsys.readouterr().out
        assert "1 snapshot(s)" in text
        assert "repro_demo_total{engine=batched}  3" in text
        assert "git_sha=abc123" in text

    def test_read_missing_file_fails_cleanly(self, tmp_path):
        from repro.cli import main_obs

        assert main_obs(["read", str(tmp_path / "absent.jsonl")]) == 1

    def test_overhead_reports_both_modes(self, capsys):
        from repro.cli import main_obs

        code = main_obs(
            ["overhead", "--pairs", "8", "--repeats", "1", "--budget", "10"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "disabled:" in text and "enabled:" in text and "overhead:" in text

    def test_serve_metrics_out(self, capsys, tmp_path):
        from repro.cli import main_service
        from repro.obs import read_jsonl

        path = tmp_path / "serve.jsonl"
        code = main_service(
            [
                "serve",
                "--pairs",
                "8",
                "--min-length",
                "120",
                "--max-length",
                "240",
                "--repeat",
                "2",
                "--metrics-out",
                str(path),
            ]
        )
        assert code == 0
        snaps = read_jsonl(path)
        assert snaps, "serve must export at least one snapshot"
        last = snaps[-1]
        assert last.value("repro_cache_hit_rate") == pytest.approx(0.5)
        assert last.value("repro_queue_depth") == 0.0
        assert "config_hash" in last.provenance
