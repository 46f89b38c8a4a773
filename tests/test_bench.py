"""Tests of the benchmark subsystem: schema, baseline store, gate, CLI.

Fast paths (tiny workloads, temp trajectory files) run in tier-1; the
timed quick-scale measurement smoke is marked ``benchmark``.
"""

from __future__ import annotations

import copy
import json

import pytest

import repro.bench
from repro.bench import (
    BaselineStore,
    BenchEntry,
    BenchResult,
    check,
    compare,
    run_engine_bench,
    run_service_bench,
)
from repro.cli import main_bench_perf
from repro.errors import ConfigurationError


def make_row(engine="batched", speedup=4.0, seconds=1.0, identical=True):
    return BenchResult(
        engine=engine,
        measured_seconds=seconds,
        measured_gcups=0.01,
        speedup_vs_scalar=speedup,
        scores_identical_to_reference=identical,
        cells=1000,
    )


def make_entry(speedup=4.0, seconds=1.0, quick=False, label="x"):
    return BenchEntry(
        kind="engines",
        label=label,
        batch_size=256,
        xdrop=50,
        rng_seed=2020,
        scoring={"match": 1, "mismatch": -1, "gap": -1},
        quick=quick,
        rows=[
            make_row("reference", 1.0, 5.0),
            make_row("batched", speedup, seconds),
        ],
    )


# --------------------------------------------------------------------------- #
# Schema
# --------------------------------------------------------------------------- #
class TestSchema:
    def test_entry_round_trip(self):
        entry = make_entry()
        clone = BenchEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert clone.signature() == entry.signature()
        assert clone.row("batched").speedup_vs_scalar == 4.0
        assert clone.row("missing") is None

    def test_signature_distinguishes_workloads(self):
        assert make_entry().signature() != make_entry(quick=True).signature()
        other = make_entry()
        other.xdrop = 49
        assert other.signature() != make_entry().signature()

    def test_profile_entry_round_trips_and_signs_distinctly(self):
        entry = make_entry()
        entry.profile = "pacbio"
        entry.extra = {"workload": {"min_length": 2000, "max_length": 4000}}
        clone = BenchEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert clone.profile == "pacbio"
        assert clone.signature() == entry.signature()
        # A profile series never matches the default-workload series, and
        # different workload knobs open distinct series within a profile.
        assert entry.signature() != make_entry().signature()
        other = BenchEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        other.extra = {"workload": {"min_length": 100, "max_length": 4000}}
        assert other.signature() != entry.signature()
        assert "profile=pacbio" in entry.formatted()

    def test_legacy_entry_without_profile_keeps_signature(self):
        # Pre-profile trajectory entries have no "profile" key; they must
        # keep matching runs of the default workload.
        data = make_entry().to_dict()
        del data["profile"]
        assert BenchEntry.from_dict(data).signature() == make_entry().signature()

    def test_timestamp_autofilled_and_formatted(self):
        entry = make_entry()
        assert entry.timestamp
        text = entry.formatted()
        assert "batched" in text and "4.00x" in text

    def test_malformed_entry_raises(self):
        with pytest.raises(ConfigurationError):
            BenchEntry.from_dict({"rows": [{"engine": "x"}]})


# --------------------------------------------------------------------------- #
# Baseline store
# --------------------------------------------------------------------------- #
class TestBaselineStore:
    def test_missing_file_is_empty(self, tmp_path):
        store = BaselineStore(tmp_path / "none.json")
        assert store.load() == []
        assert store.latest() is None

    def test_append_and_reload(self, tmp_path):
        store = BaselineStore(tmp_path / "t.json")
        store.append(make_entry(label="first"))
        store.append(make_entry(speedup=8.0, label="second"))
        trajectory = store.load()
        assert [e.label for e in trajectory] == ["first", "second"]
        assert store.latest().label == "second"
        data = json.loads((tmp_path / "t.json").read_text())
        assert data["schema"].startswith("repro-bench-trajectory")
        assert len(data["trajectory"]) == 2

    def test_append_keeps_stored_entries_as_written(self, tmp_path):
        # An entry recorded before a schema field existed has no key for
        # it; appending must not add the key (or drop unknown ones).
        path = tmp_path / "t.json"
        old = make_entry(label="old").to_dict()
        del old["metrics"]
        old["note"] = "a key BenchEntry does not know"
        path.write_text(
            json.dumps(
                {"schema": "repro-bench-trajectory/1", "trajectory": [old]},
                indent=2,
            )
            + "\n"
        )
        BaselineStore(path).append(make_entry(label="new"))
        stored = json.loads(path.read_text())["trajectory"]
        assert stored[0] == old
        assert [e["label"] for e in stored] == ["old", "new"]

    def test_latest_matching_respects_signature(self, tmp_path):
        store = BaselineStore(tmp_path / "t.json")
        store.append(make_entry(quick=True))
        assert store.latest_matching(make_entry(quick=False)) is None
        assert store.latest_matching(make_entry(quick=True)) is not None

    def test_unrecognised_layout_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"weird": 1}')
        with pytest.raises(ConfigurationError):
            BaselineStore(path).load()
        path.write_text("not json")
        with pytest.raises(ConfigurationError):
            BaselineStore(path).load()

    def test_legacy_snapshot_layout_is_unrecognised(self, tmp_path):
        # The committed trajectories already hold the converted snapshot;
        # a file still in the pre-subsystem layout is not read.
        path = tmp_path / "BENCH_engines.json"
        legacy = {"batch_size": 256, "engines": [make_row().to_dict()]}
        path.write_text(json.dumps(legacy))
        with pytest.raises(ConfigurationError, match="unrecognised layout"):
            BaselineStore(path).load()

    def test_repo_baselines_parse(self):
        """The committed trajectory files must always load."""
        engines = BaselineStore("BENCH_engines.json").load()
        assert engines and engines[0].timestamp == "legacy"
        assert any(not e.quick for e in engines[1:])
        service = BaselineStore("BENCH_service.json").load()
        assert service and service[0].timestamp == "legacy"


# --------------------------------------------------------------------------- #
# Regression gate
# --------------------------------------------------------------------------- #
class TestCompare:
    def test_improvement_passes(self):
        report = compare(make_entry(speedup=9.0), make_entry(speedup=4.0))
        assert report.ok
        delta = report.deltas[0]
        assert delta.engine == "batched" and delta.ratio == pytest.approx(2.25)
        assert "reference" in report.skipped  # the denominator is ungated

    def test_regression_beyond_tolerance_fails(self):
        report = compare(
            make_entry(speedup=2.0), make_entry(speedup=4.0), tolerance=0.30
        )
        assert not report.ok
        assert report.regressions[0].engine == "batched"
        assert "REGRESSION" in report.formatted()

    def test_regression_within_tolerance_passes(self):
        report = compare(
            make_entry(speedup=3.0), make_entry(speedup=4.0), tolerance=0.30
        )
        assert report.ok  # 25% drop < 30% tolerance

    def test_seconds_metric_direction(self):
        slower = compare(
            make_entry(seconds=2.0),
            make_entry(seconds=1.0),
            metric="measured_seconds",
            tolerance=0.30,
        )
        assert not slower.ok
        faster = compare(
            make_entry(seconds=0.5),
            make_entry(seconds=1.0),
            metric="measured_seconds",
        )
        assert faster.ok

    def test_no_baseline_is_passing_first_record(self):
        report = compare(make_entry(), None)
        assert report.ok and not report.deltas

    def test_unknown_metric_and_bad_tolerance(self):
        with pytest.raises(ConfigurationError):
            compare(make_entry(), make_entry(), metric="vibes")
        with pytest.raises(ConfigurationError):
            compare(make_entry(), make_entry(), tolerance=-1.0)

    def test_noise_rows_are_ungated(self):
        current = make_entry()
        current.rows.append(make_row("service_resubmit", 100.0, 0.001))
        baseline = make_entry()
        baseline.rows.append(make_row("service_resubmit", 5000.0, 0.0001))
        report = compare(current, baseline)
        assert report.ok
        assert "service_resubmit" in report.skipped

    def test_report_round_trips_to_dict(self):
        report = compare(make_entry(speedup=9.0), make_entry(speedup=4.0))
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["deltas"][0]["engine"] == "batched"


# --------------------------------------------------------------------------- #
# Checks: what no entry may be recorded with
# --------------------------------------------------------------------------- #
class TestCheck:
    def test_passing_engine_entry(self):
        assert check(make_entry()) == []

    def test_exact_engine_row_must_match_the_reference(self):
        entry = make_entry()
        entry.row("batched").scores_identical_to_reference = False
        assert check(entry) == ["batched scores diverge from the reference"]

    def test_inexact_engine_row_may_differ(self):
        entry = make_entry()
        entry.rows.append(make_row("ksw2", identical=False))
        assert check(entry) == []

    def test_service_rows_cache_and_batching(self):
        entry = make_entry()
        entry.kind = "service"
        entry.rows = [make_row("direct"), make_row("service", identical=False)]
        entry.extra = {"cache_hit_rate": 0.0, "mean_batch_size": 1.0}
        assert check(entry) == [
            "service scores diverge from the reference",
            "service_resubmit got no cache hit",
            "the service never formed a batch of more than one job (0 batches)",
        ]


def _diverge(*names):
    def mutate(entry):
        for name in names:
            entry.row(name).scores_identical_to_reference = False

    return mutate


def _no_cache_hit(entry):
    entry.extra["cache_hit_rate"] = 0.0


def _one_job_batches(entry):
    entry.extra["batches_formed"] = entry.batch_size
    entry.extra["mean_batch_size"] = 1.0


class TestPerfRecordsOnlyPassingRuns:
    """``repro bench perf --record`` appends both entries or neither."""

    @pytest.fixture(scope="class")
    def service_entry(self):
        return run_service_bench(quick=True, seed=7)

    @pytest.fixture
    def trajectories(self, tmp_path):
        """Two stored trajectories whose entries no fresh quick entry
        matches, so the gate passes and only a check can fail the run."""
        engines, service = tmp_path / "engines.json", tmp_path / "service.json"
        BaselineStore(engines).append(make_entry(label="stored"))
        stored_service = make_entry(label="stored")
        stored_service.kind = "service"
        BaselineStore(service).append(stored_service)
        return engines, service

    def run(
        self,
        monkeypatch,
        trajectories,
        service_entry,
        mutate_service=None,
        mutate_engines=None,
    ):
        """Run the front door with each fresh entry passed through its
        mutation; return the exit code and whether both files stayed
        byte-identical."""
        engines, service = trajectories
        before = engines.read_bytes(), service.read_bytes()

        def patched_service_bench(**kwargs):
            entry = copy.deepcopy(service_entry)
            if mutate_service is not None:
                mutate_service(entry)
            return entry

        real_engine_bench = repro.bench.run_engine_bench

        def patched_engine_bench(**kwargs):
            entry = real_engine_bench(**kwargs)
            if mutate_engines is not None:
                mutate_engines(entry)
            return entry

        monkeypatch.setattr(repro.bench, "run_service_bench", patched_service_bench)
        monkeypatch.setattr(repro.bench, "run_engine_bench", patched_engine_bench)
        code = main_bench_perf(
            [
                "--quick", "--service", "--record",
                "--pairs", "4", "--engines", "reference", "batched",
                "--seed", "7",
                "--baseline", str(engines),
                "--service-baseline", str(service),
            ]
        )
        return code, (engines.read_bytes(), service.read_bytes()) == before

    def test_passing_run_records_both_entries(
        self, monkeypatch, trajectories, service_entry
    ):
        code, unchanged = self.run(monkeypatch, trajectories, service_entry)
        assert code == 0 and not unchanged
        engines, service = trajectories
        assert [e.label for e in BaselineStore(engines).load()] == ["stored", ""]
        assert BaselineStore(service).latest().kind == "service"
        assert len(BaselineStore(service).load()) == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            _diverge("service"),
            _diverge("service", "service_burst"),
            _no_cache_hit,
            _one_job_batches,
        ],
        ids=["service-row", "service-and-burst-rows", "no-cache-hit",
             "no-multi-job-batch"],
    )
    def test_failed_service_check_records_nothing(
        self, mutate, monkeypatch, trajectories, service_entry, capsys
    ):
        code, unchanged = self.run(
            monkeypatch, trajectories, service_entry, mutate_service=mutate
        )
        assert code == 1 and unchanged
        out = capsys.readouterr().out
        assert "FAIL: " in out and "nothing recorded" in out

    def test_engine_parity_failure_records_nothing(
        self, monkeypatch, trajectories, service_entry, capsys
    ):
        code, unchanged = self.run(
            monkeypatch, trajectories, service_entry,
            mutate_engines=_diverge("batched"),
        )
        assert code == 1 and unchanged
        assert "FAIL: batched scores diverge" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Runners + CLI (tiny workloads; the timed smoke is marked `benchmark`)
# --------------------------------------------------------------------------- #
class TestRunnersAndCli:
    def test_engine_runner_tiny(self):
        entry = run_engine_bench(pairs=4, engines=["reference", "batched"], seed=7)
        assert entry.batch_size == 4
        batched = entry.row("batched")
        assert batched.scores_identical_to_reference
        assert batched.kernel is not None and batched.kernel["rows"] > 0
        assert entry.row("reference").speedup_vs_scalar == 1.0

    def test_engine_runner_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            run_engine_bench(pairs=0)
        with pytest.raises(ConfigurationError):
            run_engine_bench(pairs=4, engines=["nope"])
        with pytest.raises(ConfigurationError):
            run_engine_bench(pairs=4, repeats=0)

    def test_cli_perf_records_and_gates(self, tmp_path, capsys):
        baseline = tmp_path / "engines.json"
        args = [
            "--pairs", "4", "--engines", "reference", "batched",
            "--baseline", str(baseline), "--seed", "7",
        ]
        # First run: nothing comparable stored, record the baseline.
        assert main_bench_perf(args + ["--record"]) == 0
        assert BaselineStore(baseline).latest() is not None
        # Second run: gated against the recorded entry (generous tolerance
        # absorbs timing noise on a 4-pair batch).
        code = main_bench_perf(args + ["--tolerance", "0.99"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compare vs baseline" in out

    def test_engine_runner_profile_workload(self):
        entry = run_engine_bench(
            pairs=3,
            engines=["reference", "wavefront"],
            seed=7,
            profile="pacbio",
            min_length=60,
            max_length=120,
            error_rate=0.05,
        )
        assert entry.profile == "pacbio"
        assert entry.extra["workload"]["min_length"] == 60
        assert entry.row("wavefront").scores_identical_to_reference

    def test_engine_runner_rejects_workload_knobs_without_profile(self):
        with pytest.raises(ConfigurationError, match="profile"):
            run_engine_bench(pairs=4, min_length=60)

    def test_cli_perf_missing_baseline_message_and_strict(self, tmp_path, capsys):
        baseline = tmp_path / "engines.json"
        args = [
            "--pairs", "3", "--engines", "reference", "wavefront",
            "--profile", "ont", "--baseline", str(baseline), "--seed", "7",
        ]
        # No baseline for this series yet: explain, exit 0 by default.
        assert main_bench_perf(args) == 0
        out = capsys.readouterr().out
        assert "no baseline recorded for series 'engines/ont'" in out
        assert "--record" in out
        # --strict turns the missing baseline into a gate failure.
        assert main_bench_perf(args + ["--strict"]) == 1
        # Record, then re-run strict: series exists, gate passes.
        assert main_bench_perf(args + ["--record"]) == 0
        capsys.readouterr()
        assert main_bench_perf(args + ["--strict", "--tolerance", "0.99"]) == 0
        assert "compare vs baseline" in capsys.readouterr().out

    def test_cli_perf_missing_engine_row_reported(self, tmp_path, capsys):
        baseline = tmp_path / "engines.json"
        common = ["--pairs", "3", "--baseline", str(baseline), "--seed", "7"]
        assert main_bench_perf(
            common + ["--engines", "reference", "batched", "--record"]
        ) == 0
        capsys.readouterr()
        # Same series, new engine: the entry matches but the wavefront row
        # has no baseline — say so per engine; only --strict gates on it.
        args = common + [
            "--engines", "reference", "batched", "wavefront",
            "--tolerance", "0.99",
        ]
        assert main_bench_perf(args) == 0
        out = capsys.readouterr().out
        assert "engine 'wavefront'" in out and "no baseline recorded" in out
        assert main_bench_perf(args + ["--strict"]) == 1

    def test_cli_perf_artifact_and_json(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        code = main_bench_perf(
            [
                "--pairs", "4", "--engines", "reference", "batched",
                "--baseline", str(tmp_path / "b.json"), "--seed", "7",
                "--no-compare", "--json", "--artifact", str(artifact),
            ]
        )
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["engines"]["batch_size"] == 4

    def test_main_bench_dispatches_perf(self, tmp_path):
        from repro.cli import main_bench

        assert (
            main_bench(
                [
                    "perf", "--pairs", "4", "--engines", "reference", "batched",
                    "--baseline", str(tmp_path / "b.json"), "--no-compare",
                ]
            )
            == 0
        )

    @pytest.mark.parametrize(
        "flag",
        [
            ["--autotune", "on"],
            ["--autotune-profile", "mixed"],
            ["--autotune-waves", "2"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_cli_perf_autotune_flags_removed(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_bench_perf(["--service", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_perf_process_workers_flag_removed(self, capsys):
        # The service_mp row runs the one worker process: --process.
        with pytest.raises(SystemExit) as excinfo:
            main_bench_perf(["--service", "--process-workers", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.benchmark
class TestBenchmarkSmoke:
    def test_quick_engine_bench_meets_floor(self):
        """Quick-scale measurement: the compacted kernel must beat 3x."""
        entry = run_engine_bench(quick=True)
        assert entry.quick and entry.batch_size == 64
        batched = entry.row("batched")
        assert batched.scores_identical_to_reference
        assert batched.speedup_vs_scalar >= 3.0

    def test_quick_service_bench_parity_and_cache(self):
        entry = run_service_bench(quick=True)
        rows = {row.engine: row for row in entry.rows}
        assert rows["service"].scores_identical_to_reference
        assert rows["service_resubmit"].scores_identical_to_reference
        assert rows["service_burst"].scores_identical_to_reference
        assert entry.extra["burst_batches_formed"] >= 1
        assert entry.extra["cache_hit_rate"] > 0
        assert entry.extra["kernel_live_fraction"] is not None

    def test_quick_service_bench_process_row(self):
        entry = run_service_bench(quick=True, process=True)
        assert entry.row("service_mp").scores_identical_to_reference
        # The series of the recorded one-worker-process entries.
        assert entry.extra["workload"] == {
            "workers": 1,
            "process_workers": 1,
            "worker_policy": "batch",
        }
