"""Tests for the command-line interface entry points."""

from __future__ import annotations

import json

import pytest

from repro.api import AlignConfig
from repro.cli import main_align, main_bella, main_bench, main_fuzz, main_service
from repro.data import SequenceRecord, write_fasta
from repro.engine import describe_engines, list_engines
from repro.errors import ConfigurationError

FIVE_ENGINES = ["batched", "ksw2", "logan", "reference", "wavefront"]


class TestReproAlign:
    def test_synthetic_run_json(self, capsys):
        exit_code = main_align(
            [
                "--pairs", "4",
                "--min-length", "120",
                "--max-length", "200",
                "--xdrop", "15",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == 4
        assert payload["modeled_seconds"] > 0
        assert payload["measured_gcups"] > 0

    def test_baseline_comparison(self, capsys):
        exit_code = main_align(
            [
                "--pairs", "3",
                "--min-length", "100",
                "--max-length", "150",
                "--xdrop", "10",
                "--baseline",
                "--replicate-to", "1000",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scores_identical"] is True
        assert payload["baseline_modeled_seconds"] > 0
        assert payload["modeled_speedup"] > 0

    def test_fasta_inputs(self, tmp_path, capsys):
        q = tmp_path / "q.fasta"
        t = tmp_path / "t.fasta"
        write_fasta(q, [SequenceRecord("a", "ACGTACGTACGTACGT" * 4)])
        write_fasta(t, [SequenceRecord("b", "ACGTACGTACGTACGT" * 4)])
        exit_code = main_align(
            ["--query-fasta", str(q), "--target-fasta", str(t), "--xdrop", "10", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == 1
        assert payload["mean_score"] == 64.0

    def test_mismatched_fasta_counts_error(self, tmp_path):
        q = tmp_path / "q.fasta"
        t = tmp_path / "t.fasta"
        write_fasta(q, [SequenceRecord("a", "ACGT"), SequenceRecord("b", "ACGT")])
        write_fasta(t, [SequenceRecord("c", "ACGT")])
        with pytest.raises(SystemExit):
            main_align(["--query-fasta", str(q), "--target-fasta", str(t)])

    def test_human_readable_output(self, capsys):
        assert main_align(["--pairs", "2", "--min-length", "100", "--max-length", "120"]) == 0
        out = capsys.readouterr().out
        assert "modeled_seconds" in out


class TestReproBella:
    def test_dataset_run_json(self, capsys):
        exit_code = main_bella(
            [
                "--dataset", "ecoli_like",
                "--scale", "0.03",
                "--kmer", "13",
                "--xdrop", "10",
                "--engine", "logan",
                "--min-overlap", "300",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reads"] > 0
        assert payload["aligner"] == "logan"
        assert "alignment" in payload["stage_seconds"] or payload["aligned"] == 0

    def test_fasta_input_with_batched_engine(self, tmp_path, capsys):
        # Three overlapping reads carved from one template.
        template = ("ACGT" * 200)
        reads = [
            SequenceRecord("r0", template[0:400]),
            SequenceRecord("r1", template[200:600]),
            SequenceRecord("r2", template[400:800]),
        ]
        path = tmp_path / "reads.fasta"
        write_fasta(path, reads)
        exit_code = main_bella(
            [
                "--fasta", str(path),
                "--kmer", "13",
                "--xdrop", "10",
                "--engine", "batched",
                "--min-overlap", "100",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reads"] == 3


class TestEngineDiscovery:
    @pytest.mark.parametrize(
        "entry", [main_align, main_bella, main_bench, main_service, main_fuzz]
    )
    def test_list_engines_flag(self, entry, capsys):
        with pytest.raises(SystemExit) as excinfo:
            entry(["--list-engines"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in FIVE_ENGINES:
            assert name in out
        assert "inexact" in out  # ksw2's flag is rendered

    def test_registry_holds_five_engines(self):
        assert list_engines() == FIVE_ENGINES

    def test_describe_engines_rows_carry_no_availability(self):
        rows = describe_engines()
        assert [row["name"] for row in rows] == FIVE_ENGINES
        for row in rows:
            assert set(row) == {"name", "exact", "work_exact", "summary"}

    @pytest.mark.parametrize("name", ["seqan", "vectorized", "compiled"])
    def test_removed_engine_names_rejected(self, name):
        with pytest.raises(ConfigurationError) as excinfo:
            AlignConfig(engine=name)
        message = str(excinfo.value)
        for engine in FIVE_ENGINES:
            assert engine in message

    def test_list_engines_prints_five_rows(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_align(["--list-engines"])
        assert excinfo.value.code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert [row.split()[0] for row in rows] == FIVE_ENGINES

    def test_bella_aligner_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main_bella(["--aligner", "seqan"])
        assert excinfo.value.code == 2


class TestModuleDispatcher:
    """``python -m repro <tool>`` mirrors the console scripts."""

    def test_usage_and_unknown_tool(self, capsys):
        from repro.__main__ import main

        assert main([]) == 2  # bare invocation is a usage error...
        assert "tools:" in capsys.readouterr().out
        assert main(["--help"]) == 0  # ...but asking for help is not
        assert "tools:" in capsys.readouterr().out
        assert main(["warp-drive"]) == 2
        assert "unknown tool" in capsys.readouterr().err

    def test_dispatches_to_fuzz(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--list-profiles"]) == 0
        assert "pacbio" in capsys.readouterr().out


class TestConfigFile:
    """Every subcommand accepts --config config.json (an AlignConfig)."""

    @pytest.fixture
    def config_path(self, tmp_path):
        from repro.api import AlignConfig, ServiceConfig

        path = tmp_path / "config.json"
        AlignConfig(
            engine="batched",
            xdrop=15,
            service=ServiceConfig(max_batch_size=4),
        ).save(path)
        return str(path)

    def test_align_with_config(self, config_path, capsys):
        exit_code = main_align(
            ["--config", config_path, "--pairs", "3",
             "--min-length", "100", "--max-length", "150", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "batched"
        assert payload["xdrop"] == 15

    def test_bella_with_config(self, config_path, capsys):
        exit_code = main_bella(
            ["--config", config_path, "--dataset", "ecoli_like",
             "--scale", "0.03", "--kmer", "13", "--min-overlap", "300", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "batched"
        assert payload["xdrop"] == 15

    def test_serve_with_config(self, config_path, capsys):
        exit_code = main_service(
            ["serve", "--config", config_path, "--pairs", "4",
             "--min-length", "100", "--max-length", "200",
             "--repeat", "1", "--inline", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "batched"
        assert payload["completed"] == 4

    def test_submit_with_config(self, config_path, capsys):
        exit_code = main_service(
            ["submit", "--config", config_path,
             "--query", "ACGTACGT", "--target", "ACGTACGT", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scores"] == [8]

    def test_bench_accepts_config_flag(self, config_path):
        # Parse-level check only (the harness run is exercised elsewhere):
        # a bad path must be rejected by the loader, proving the flag is
        # wired into the subcommand.
        from repro.errors import ConfigurationError

        with pytest.raises((ConfigurationError, OSError, SystemExit)):
            main_bench(["engines", "--config", config_path + ".missing"])

    @pytest.mark.parametrize(
        "entry, flags",
        [
            (main_align, ["--pairs", "2", "--min-length", "100", "--max-length", "120"]),
            (main_bella, ["--dataset", "ecoli_like", "--scale", "0.03"]),
        ],
        ids=["align", "bella"],
    )
    def test_logan_config_gets_one_answer(self, entry, flags, tmp_path):
        # A config may set only the logan engine's own options
        # (system/gpus/threads_per_block), on every CLI alike.
        from repro.api import AlignConfig

        path = tmp_path / "logan.json"
        AlignConfig(
            engine="logan", engine_options={"balancer_policy": "count"}
        ).save(path)
        with pytest.raises(ConfigurationError, match="balancer_policy"):
            entry(["--config", str(path), *flags, "--json"])

    def test_flags_override_config(self, config_path, capsys):
        exit_code = main_align(
            ["--config", config_path, "--xdrop", "25", "--pairs", "2",
             "--min-length", "100", "--max-length", "120", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["xdrop"] == 25


class TestReproService:
    def test_serve_synthetic_json(self, capsys):
        exit_code = main_service(
            [
                "serve",
                "--pairs", "8",
                "--min-length", "150",
                "--max-length", "400",
                "--xdrop", "15",
                "--batch-size", "4",
                "--repeat", "2",
                "--inline",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == 8
        assert payload["rounds_identical"] is True
        assert payload["batches_formed"] >= 1
        # Round two is answered entirely from the cache.
        assert payload["cache_hits"] == 8
        assert payload["cache_hit_rate"] == pytest.approx(0.5)

    def test_serve_background_thread(self, capsys):
        exit_code = main_service(
            [
                "serve",
                "--pairs", "6",
                "--min-length", "120",
                "--max-length", "300",
                "--xdrop", "15",
                "--batch-size", "3",
                "--max-wait", "0.01",
                "--repeat", "1",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 6

    def test_submit_literal_pair(self, capsys):
        exit_code = main_service(
            [
                "submit",
                "--query", "ACGTACGTACGTACGT",
                "--target", "ACGTACGTACGTACGT",
                "--xdrop", "10",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scores"] == [16]

    def test_submit_fasta_pairs(self, tmp_path, capsys):
        q = tmp_path / "q.fasta"
        t = tmp_path / "t.fasta"
        write_fasta(q, [SequenceRecord("a", "ACGTACGTACGTACGT" * 4)])
        write_fasta(t, [SequenceRecord("b", "ACGTACGTACGTACGT" * 4)])
        exit_code = main_service(
            ["submit", "--query-fasta", str(q), "--target-fasta", str(t),
             "--xdrop", "10", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scores"] == [64]

    def test_submit_without_inputs_errors(self):
        with pytest.raises(SystemExit):
            main_service(["submit"])

    def test_seed_policy_flag_changes_anchor(self, capsys):
        # Sequences that agree only around their centres: the middle policy
        # must anchor on the shared core and outscore the start policy.
        base = ["submit", "--query", "TTTTACGTTTTT", "--target", "GGGGACGTGGGG",
                "--xdrop", "10", "--json"]
        assert main_service(base) == 0
        start = json.loads(capsys.readouterr().out)["scores"]
        assert main_service(["submit", "--seed-policy", "middle"] + base[1:]) == 0
        middle = json.loads(capsys.readouterr().out)["scores"]
        assert middle != start

    def test_workers_flag_means_engine_processes(self, capsys):
        # --workers sets the engine's worker processes, as on every other
        # subcommand; --num-workers sets the service's worker processes.
        base = ["serve", "--pairs", "4", "--min-length", "100",
                "--max-length", "200", "--repeat", "1", "--inline", "--json"]
        assert main_service(base + ["--workers", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["workers"]) == 1
        with pytest.raises(ConfigurationError, match="service.num_workers") as excinfo:
            main_service(base + ["--num-workers", "2"])
        assert "transport='process'" in str(excinfo.value)

    def test_worker_policy_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main_service(["serve", "--worker-policy", "batch"])
        assert excinfo.value.code == 2

    def test_autotune_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main_service(["serve", "--autotune", "on"])
        assert excinfo.value.code == 2


class TestReproFuzz:
    FAST = [
        "--count", "16", "--batch", "8", "--quiet",
        "--min-length", "50", "--max-length", "100",
        "--engines", "reference", "--engines", "batched",
    ]

    def test_bounded_run_passes_and_reports(self, capsys):
        exit_code = main_fuzz(["--seed", "0"] + self.FAST + ["--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["jobs"] >= 16
        assert payload["service_checked"] is True
        assert payload["failures"] == []

    def test_list_profiles(self, capsys):
        assert main_fuzz(["--list-profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("pacbio", "degenerate", "xdrop_boundary"):
            assert name in out

    def test_no_service_flag(self, capsys):
        exit_code = main_fuzz(
            ["--seed", "1", "--no-service"] + self.FAST + ["--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service_checked"] is False

    def test_profile_restriction(self, capsys):
        exit_code = main_fuzz(
            ["--seed", "2", "--profiles", "degenerate"] + self.FAST + ["--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["per_profile"]) == {"degenerate"}

    def test_failure_exit_code_and_artifact(self, tmp_path, capsys):
        from repro.engine import register_engine, unregister_engine
        from repro.engine.engines import ReferenceEngine

        class BrokenEngine(ReferenceEngine):
            name = "broken_cli"
            exact = True

            def align_batch(self, jobs, scoring=None, xdrop=None):
                batch = super().align_batch(jobs, scoring=scoring, xdrop=xdrop)
                for res in batch.results:
                    res.score += 1
                return batch

        register_engine("broken_cli", BrokenEngine)
        try:
            artifact = tmp_path / "fuzz-report.json"
            exit_code = main_fuzz(
                ["--seed", "0", "--count", "8", "--batch", "8", "--quiet",
                 "--no-service", "--engines", "reference",
                 "--engines", "broken_cli", "--artifact", str(artifact)]
            )
            assert exit_code == 1
            out = capsys.readouterr().out
            assert "FAILURE" in out and "replay" in out
            payload = json.loads(artifact.read_text())
            assert payload["ok"] is False
            failure = payload["failures"][0]
            assert failure["engine"] == "broken_cli"
            assert failure["shrunk"] is True
            assert failure["query"] and failure["target"]
            assert failure["config"]["xdrop"] == 20  # the fuzz default config
        finally:
            unregister_engine("broken_cli")

    def test_config_flags_reach_the_run(self, capsys):
        exit_code = main_fuzz(
            ["--seed", "3", "--xdrop", "5"] + self.FAST + ["--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
