"""Tests for the command-line interface entry points."""

from __future__ import annotations

import json
import re

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

    @pytest.mark.parametrize(
        "engine, modeled_speedup, scores_identical",
        [("logan", 7.797070442344987e-05, True), ("ksw2", None, False)],
        ids=["logan", "ksw2"],
    )
    def test_baseline_values_are_pinned(
        self, engine, modeled_speedup, scores_identical, capsys
    ):
        # SeqAn's POWER9 time is modeled from a batched sweep of the same
        # pairs, whichever engine is under test: logan's own, or a second
        # run beside ksw2's.
        exit_code = main_align(
            ["--pairs", "6", "--baseline", "--json", "--engine", engine]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline_modeled_seconds"] == pytest.approx(
            0.00014476198979591838, rel=1e-12
        )
        if modeled_speedup is None:
            assert payload["modeled_speedup"] is None
        else:
            assert payload["modeled_speedup"] == pytest.approx(
                modeled_speedup, rel=1e-12
            )
        assert payload["scores_identical"] is scores_identical

    @pytest.mark.parametrize("engine", ["logan", "batched", "reference"])
    def test_baseline_runs_one_batched_sweep(self, engine, monkeypatch, capsys):
        # batched and logan already are the sweep SeqAn's model reads; the
        # other engines get a second run, whose scores cross-check theirs.
        import repro.logan.kernel as kernel

        real = kernel.xdrop_extend_batch
        calls = []

        def counting(pairs, *args, **kwargs):
            calls.append(len(pairs))
            return real(pairs, *args, **kwargs)

        monkeypatch.setattr(kernel, "xdrop_extend_batch", counting)
        argv = ["--pairs", "6", "--min-length", "150", "--max-length", "250"]
        argv += ["--xdrop", "20", "--engine", engine, "--workers", "1"]
        assert main_align(argv + ["--baseline", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert payload["scores_identical"] is True
        assert payload["baseline_modeled_seconds"] > 0

    def test_replicated_logan_values_are_pinned(self, capsys):
        # The engine's results replayed on one V100 as 100 000 pairs.
        exit_code = main_align(
            ["--pairs", "6", "--engine", "logan", "--replicate-to", "100000", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replication"] == pytest.approx(100000 / 6, rel=1e-12)
        assert payload["modeled_seconds"] == pytest.approx(2.419209128930131, rel=1e-12)
        assert payload["modeled_gcups"] == pytest.approx(9.054818675261643, rel=1e-12)
        assert payload["threads_per_block"] == 128
        assert payload["gpus"] == 1

    def test_replicate_to_warns_for_other_engines(self, capsys):
        # Replication belongs to the V100 model: other engines report the
        # sample as it ran.
        exit_code = main_align(
            [
                "--pairs", "2",
                "--min-length", "100",
                "--max-length", "120",
                "--engine", "batched",
                "--replicate-to", "1000",
                "--json",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "--replicate-to applies only to the logan engine" in captured.err
        payload = json.loads(captured.out)
        assert payload["replication"] == 1.0
        assert payload["modeled_seconds"] is None

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

    def test_bin_width_flag_removed(self):
        # repro-align never runs BELLA, the only reader of bin_width.
        with pytest.raises(SystemExit) as excinfo:
            main_align(["--pairs", "2", "--bin-width", "500"])
        assert excinfo.value.code == 2


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

    def test_prefilter_flag_removed(self):
        # Admission triage lives in the service (ServiceConfig.prefilter);
        # the pipeline hands every candidate to the aligner.
        with pytest.raises(SystemExit) as excinfo:
            main_bella(["--prefilter", "off"])
        assert excinfo.value.code == 2


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


class TestReproBench:
    """``repro-bench <experiment>``: each experiment fixes its own parameters."""

    def test_help_lists_only_scale_and_list_engines(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_bench(["--help"])
        assert excinfo.value.code == 0
        options = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert options == {"-h", "--help", "--scale", "--list-engines"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["engines"],
            ["table1", "--xdrop", "5"],
            ["table1", "--engine", "batched"],
            ["table1", "--config", "config.json"],
            ["table1", "--workers", "2"],
            ["table1", "--seed-policy", "start"],
            ["table1", "--bin-width", "9"],
            ["table1", "--match", "2"],
            ["table1", "--mismatch", "-2"],
            ["table1", "--gap", "-2"],
        ],
        ids=lambda argv: argv[-2] if len(argv) > 1 else argv[0],
    )
    def test_engines_experiment_and_config_flags_removed(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_bench(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err


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
    """Every aligning subcommand accepts --config config.json (an AlignConfig)."""

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

    def test_partial_config_keeps_the_command_defaults(self, tmp_path, capsys):
        # The file names only xdrop: repro-align keeps its logan engine.
        path = tmp_path / "xdrop.json"
        path.write_text(json.dumps({"xdrop": 30}))
        exit_code = main_align(
            ["--config", str(path), "--pairs", "2",
             "--min-length", "100", "--max-length", "120", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "logan"
        assert payload["xdrop"] == 30
        assert payload["modeled_seconds"] > 0

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
        # subcommand; the service itself runs one worker.
        base = ["serve", "--pairs", "4", "--min-length", "100",
                "--max-length", "200", "--repeat", "1", "--inline", "--json"]
        assert main_service(base + ["--workers", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["workers"]) == 1

    def test_num_workers_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main_service(["serve", "--num-workers", "1"])
        assert excinfo.value.code == 2

    def test_worker_policy_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main_service(["serve", "--worker-policy", "batch"])
        assert excinfo.value.code == 2

    def test_autotune_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main_service(["serve", "--autotune", "on"])
        assert excinfo.value.code == 2

    def test_max_wait_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main_service(["serve", "--max-wait", "0.01"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["serve", "submit"])
    def test_bin_width_flag_removed(self, command):
        # Only BELLA reads bin_width; the service has no length bins.
        with pytest.raises(SystemExit) as excinfo:
            main_service([command, "--bin-width", "500"])
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

    def test_bin_width_flag_removed(self):
        # The fuzzed service path never reads bin_width.
        with pytest.raises(SystemExit) as excinfo:
            main_fuzz(["--bin-width", "500"] + self.FAST)
        assert excinfo.value.code == 2

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

    @pytest.fixture
    def broken_engine(self):
        """An exact-claiming engine that adds one to every score."""
        from repro.engine import register_engine, unregister_engine
        from repro.engine.engines import ReferenceEngine

        class BrokenEngine(ReferenceEngine):
            name = "broken_cli"
            exact = True

            def align_batch(self, jobs):
                batch = super().align_batch(jobs)
                for res in batch.results:
                    res.score += 1
                return batch

        register_engine("broken_cli", BrokenEngine)
        yield "broken_cli"
        unregister_engine("broken_cli")

    def test_failure_exit_code_and_artifact(self, broken_engine, tmp_path, capsys):
        artifact = tmp_path / "fuzz-report.json"
        exit_code = main_fuzz(
            ["--seed", "0", "--count", "8", "--batch", "8", "--quiet",
             "--no-service", "--engines", "reference",
             "--engines", broken_engine, "--artifact", str(artifact)]
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

    def test_partial_config_keeps_the_fuzz_defaults(
        self, broken_engine, tmp_path, capsys
    ):
        # CI's traced fuzz steps pass {"trace": true}: X stays the fuzz
        # default 20 and the config's engine stays batched.
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"trace": True}))
        artifact = tmp_path / "fuzz-report.json"
        exit_code = main_fuzz(
            ["--seed", "0", "--count", "8", "--batch", "8", "--quiet",
             "--no-service", "--no-shrink", "--engines", "reference",
             "--engines", broken_engine, "--config", str(path),
             "--artifact", str(artifact)]
        )
        assert exit_code == 1
        config = json.loads(artifact.read_text())["failures"][0]["config"]
        assert config["trace"] is True
        assert config["xdrop"] == 20
        assert config["engine"] == "batched"

    def test_config_flags_reach_the_run(self, capsys):
        exit_code = main_fuzz(
            ["--seed", "3", "--xdrop", "5"] + self.FAST + ["--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
