"""Tests for the ``repro.api`` front door: AlignConfig, Aligner, rewiring.

Covers the config round-trip guarantee, field-naming validation errors,
bit-identical parity between the facade and the direct engine/service
paths for every registered engine, and the config-only construction of the
service and BELLA layers.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.api import (
    SEED_POLICIES,
    AlignConfig,
    Aligner,
    ServiceConfig,
    config_from_args,
)
from repro.bella import BellaPipeline
from repro.core import ScoringScheme, Seed, extend_seed
from repro.engine import get_engine, list_engines
from repro.engine.base import engine_from_config
from repro.errors import ConfigurationError
from repro.logan import LoganAligner
from repro.service import AlignmentService


@pytest.fixture
def fancy_config() -> AlignConfig:
    """A config exercising every field away from its default."""
    return AlignConfig(
        engine="logan",
        engine_options={"gpus": 2},
        scoring=ScoringScheme(match=2, mismatch=-3, gap=-2),
        xdrop=42,
        workers=1,
        trace=True,
        seed_policy="middle",
        bin_width=250,
        service=ServiceConfig(
            num_workers=2,
            max_batch_size=16,
            max_wait_seconds=0.01,
            cache_capacity=128,
            queue_capacity=64,
            worker_policy="batch",
            submit_timeout=2.0,
            transport="process",
        ),
    )


class TestAlignConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = AlignConfig()
        assert AlignConfig.from_dict(cfg.to_dict()) == cfg

    def test_fancy_round_trip(self, fancy_config):
        assert AlignConfig.from_dict(fancy_config.to_dict()) == fancy_config

    def test_round_trip_survives_json(self, fancy_config):
        wire = json.dumps(fancy_config.to_dict())
        assert AlignConfig.from_dict(json.loads(wire)) == fancy_config

    def test_to_json_from_json(self, fancy_config):
        assert AlignConfig.from_json(fancy_config.to_json()) == fancy_config

    def test_save_load(self, tmp_path, fancy_config):
        path = tmp_path / "config.json"
        fancy_config.save(path)
        assert AlignConfig.load(path) == fancy_config

    def test_scoring_accepts_mapping_form(self):
        cfg = AlignConfig(scoring={"match": 2, "mismatch": -2, "gap": -2})
        assert cfg.scoring == ScoringScheme(match=2, mismatch=-2, gap=-2)

    def test_replace_validates(self):
        cfg = AlignConfig()
        assert cfg.replace(xdrop=7).xdrop == 7
        with pytest.raises(ConfigurationError):
            cfg.replace(xdrop=-1)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            AlignConfig().xdrop = 5


class TestAlignConfigValidation:
    def test_unknown_engine_names_field_and_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            AlignConfig(engine="warp-drive")
        message = str(excinfo.value)
        assert "engine" in message
        for name in list_engines():
            assert name in message

    @pytest.mark.parametrize(
        "kwargs, field_name",
        [
            ({"xdrop": -1}, "xdrop"),
            ({"workers": 0}, "workers"),
            ({"seed_policy": "anywhere"}, "seed_policy"),
            ({"bin_width": -5}, "bin_width"),
            ({"engine_options": {1: "x"}}, "engine_options"),
        ],
    )
    def test_bad_field_named_in_message(self, kwargs, field_name):
        with pytest.raises(ConfigurationError) as excinfo:
            AlignConfig(**kwargs)
        assert field_name in str(excinfo.value)

    def test_seed_policy_choices_listed(self):
        with pytest.raises(ConfigurationError) as excinfo:
            AlignConfig(seed_policy="nope")
        for policy in SEED_POLICIES:
            assert policy in str(excinfo.value)

    @pytest.mark.parametrize(
        "kwargs, field_name",
        [
            ({"num_workers": 0}, "service.num_workers"),
            ({"max_batch_size": 0}, "service.max_batch_size"),
            ({"max_wait_seconds": -0.1}, "service.max_wait_seconds"),
            ({"cache_capacity": -1}, "service.cache_capacity"),
            ({"queue_capacity": 0}, "service.queue_capacity"),
            ({"worker_policy": "cells"}, "service.worker_policy"),
            ({"submit_timeout": 0.0}, "service.submit_timeout"),
            ({"worker_policy": "count"}, "service.worker_policy"),
            ({"num_workers": 2}, "service.num_workers"),
        ],
    )
    def test_service_field_named_in_message(self, kwargs, field_name):
        with pytest.raises(ConfigurationError) as excinfo:
            ServiceConfig(**kwargs)
        assert field_name in str(excinfo.value)

    def test_from_dict_rejects_unknown_keys_by_name(self):
        with pytest.raises(ConfigurationError) as excinfo:
            AlignConfig.from_dict({"engnie": "batched"})
        assert "engnie" in str(excinfo.value)

    def test_service_values_are_coerced(self):
        svc = ServiceConfig(num_workers=2.5, max_wait_seconds=1, transport="process")
        assert svc.num_workers == 2 and isinstance(svc.num_workers, int)
        assert svc.max_wait_seconds == 1.0 and isinstance(svc.max_wait_seconds, float)

    def test_pipeline_rejects_zero_bin_width_early(self):
        with pytest.raises(ConfigurationError) as excinfo:
            BellaPipeline(config=AlignConfig(bin_width=0))
        assert "bin_width" in str(excinfo.value)

    def test_service_from_dict_rejects_unknown_keys_by_name(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ServiceConfig.from_dict({"shards": 3})
        assert "shards" in str(excinfo.value)

    def test_invalid_json_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            AlignConfig.from_json("{not json")
        with pytest.raises(ConfigurationError):
            AlignConfig.from_json("[1, 2]")


class TestEngineFromConfig:
    def test_get_engine_gains_from_config(self):
        assert get_engine.from_config is engine_from_config

    @pytest.mark.parametrize("name", ["batched", "reference", "wavefront"])
    def test_builds_configured_engine(self, name):
        engine = engine_from_config(AlignConfig(engine=name, xdrop=33))
        assert engine.name == name
        assert engine.xdrop == 33

    def test_engine_options_reach_factory(self):
        engine = engine_from_config(
            AlignConfig(engine="logan", engine_options={"gpus": 3})
        )
        assert engine.aligner.system.num_devices == 3

    def test_bandwidth_reaches_ksw2(self):
        engine = engine_from_config(
            AlignConfig(engine="ksw2", engine_options={"bandwidth": 77})
        )
        assert engine.bandwidth == 77

    def test_bandwidth_is_an_engine_option_only(self):
        # engine_options is the one spelling: the config field is gone, and
        # an engine without a static band rejects the option by name.
        with pytest.raises(ConfigurationError, match="bandwidth"):
            AlignConfig.from_dict({"engine": "ksw2", "bandwidth": 77})
        with pytest.raises(ConfigurationError, match="bandwidth"):
            engine_from_config(
                AlignConfig(engine="batched", engine_options={"bandwidth": 5})
            )

    def test_engine_options_may_not_shadow_uniform_fields(self):
        with pytest.raises(ConfigurationError) as excinfo:
            engine_from_config(
                AlignConfig(engine="batched", engine_options={"xdrop": 5})
            )
        assert "xdrop" in str(excinfo.value)

    def test_unknown_engine_option_names_option_and_accepted(self):
        with pytest.raises(ConfigurationError) as excinfo:
            engine_from_config(
                AlignConfig(engine="batched", engine_options={"warp_speed": 9})
            )
        message = str(excinfo.value)
        assert "warp_speed" in message
        assert "xdrop" in message  # accepted parameters are listed


class TestAlignerParity:
    def test_align_batch_bit_identical_for_every_engine(self, small_jobs):
        for name in list_engines():
            direct = get_engine(name, xdrop=20).align_batch(small_jobs)
            facade = Aligner(AlignConfig(engine=name, xdrop=20)).align_batch(small_jobs)
            assert facade.scores() == direct.scores(), name
            assert [
                (r.query_begin, r.query_end, r.target_begin, r.target_end)
                for r in facade.results
            ] == [
                (r.query_begin, r.query_end, r.target_begin, r.target_end)
                for r in direct.results
            ], name

    def test_align_single_pair_matches_extend_seed(self, similar_pair):
        query, target = similar_pair
        seed = Seed(40, 40, 11)
        facade = Aligner(AlignConfig(engine="batched", xdrop=25))
        direct = extend_seed(query, target, seed, xdrop=25)
        assert facade.align(query, target, seed=seed).score == direct.score

    def test_align_seed_policy_start(self, similar_pair):
        query, target = similar_pair
        result = Aligner(AlignConfig(seed_policy="start", xdrop=25)).align(
            query, target
        )
        direct = extend_seed(query, target, Seed(0, 0, 1), xdrop=25)
        assert result.score == direct.score

    def test_align_seed_policy_middle(self, similar_pair):
        query, target = similar_pair
        centre = min(len(query), len(target)) // 2 - 1
        result = Aligner(AlignConfig(seed_policy="middle", xdrop=25)).align(
            query, target
        )
        direct = extend_seed(query, target, Seed(centre, centre, 1), xdrop=25)
        assert result.score == direct.score

    def test_align_iter_streams_in_order(self, small_jobs):
        config = AlignConfig(engine="batched", xdrop=20)
        direct = get_engine("batched", xdrop=20).align_batch(small_jobs)
        with Aligner(config.replace(service=ServiceConfig(max_batch_size=3))) as session:
            streamed = list(session.align_iter(iter(small_jobs)))
        assert [r.score for r in streamed] == direct.scores()

    def test_align_iter_uses_service_cache(self, small_jobs):
        with Aligner(AlignConfig(engine="batched", xdrop=20)) as session:
            first = [r.score for r in session.align_iter(small_jobs)]
            second = [r.score for r in session.align_iter(small_jobs)]
            stats = session._internal_service().stats()
        assert first == second
        assert stats.cache.hits == len(small_jobs)

    def test_open_service_matches_direct_batch(self, small_jobs):
        config = AlignConfig(engine="batched", xdrop=20)
        direct = get_engine("batched", xdrop=20).align_batch(small_jobs)
        with Aligner(config).open_service() as service:
            results = service.map(small_jobs)
        assert [r.score for r in results] == direct.scores()

    def test_overrides_shorthand(self):
        session = Aligner(engine="reference", xdrop=5)
        assert session.config.engine == "reference"
        assert session.config.xdrop == 5
        widened = Aligner(session.config, xdrop=9)
        assert widened.config.xdrop == 9
        assert session.config.xdrop == 5  # original untouched

    def test_accepts_mapping_form(self):
        session = Aligner({"engine": "reference"}, xdrop=7)
        assert session.config.engine == "reference"
        assert session.config.xdrop == 7

    def test_rejects_non_config_even_with_overrides(self):
        with pytest.raises(ConfigurationError):
            Aligner(42, xdrop=7)


class TestConsumersFromConfig:
    def test_service_rejects_loose_kwargs(self):
        with pytest.raises(TypeError):
            AlignmentService(xdrop=5)
        with pytest.raises(TypeError):
            AlignmentService(engine="batched", config=AlignConfig())

    def test_service_from_config_classmethod(self, small_jobs):
        svc = AlignmentService.from_config(AlignConfig(engine="batched", xdrop=20))
        with svc:
            assert len(svc.map(small_jobs)) == len(small_jobs)

    def test_service_config_path_matches_engine(self, small_jobs):
        config = AlignConfig(engine="batched", xdrop=20)
        with AlignmentService(config=config) as svc:
            via_service = svc.map(small_jobs)
        direct = engine_from_config(config).align_batch(small_jobs).results
        assert [r.score for r in via_service] == [r.score for r in direct]
        assert [(r.query_end, r.target_end) for r in via_service] == [
            (r.query_end, r.target_end) for r in direct
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "batched"},
            {"aligner": None},
            {"xdrop": 50},
            {"scoring": ScoringScheme()},
            {"bin_width": 250},
        ],
    )
    def test_pipeline_rejects_loose_kwargs(self, kwargs):
        with pytest.raises(TypeError):
            BellaPipeline(**kwargs)

    def test_pipeline_from_config_matches_constructor(self, tiny_reads):
        config = AlignConfig(engine="reference", xdrop=25)
        via_classmethod = BellaPipeline.from_config(config, k=13).run(tiny_reads)
        via_constructor = BellaPipeline(config=config, k=13).run(tiny_reads)
        assert via_classmethod.accepted_pairs() == via_constructor.accepted_pairs()
        assert [o.score for o in via_classmethod.overlaps] == [
            o.score for o in via_constructor.overlaps
        ]

    def test_pipeline_config_composes_with_service(self, tiny_reads):
        config = AlignConfig(engine="batched", xdrop=25)
        with Aligner(config).open_service() as service:
            via_service = (
                BellaPipeline(config=config, service=service, k=13)
                .run(tiny_reads)
                .accepted_pairs()
            )
        direct = BellaPipeline(config=config, k=13).run(tiny_reads).accepted_pairs()
        assert via_service == direct

    def test_pipeline_rejects_config_differing_from_service(self):
        with Aligner(AlignConfig(engine="batched", xdrop=25)).open_service() as svc:
            with pytest.raises(ConfigurationError, match="service"):
                BellaPipeline(config=AlignConfig(engine="batched", xdrop=30), service=svc)

    def test_pipeline_classifies_with_the_service_scoring(self):
        # Regression: service= used to classify (adaptive threshold and
        # prefilter placeholder) with ScoringScheme() whatever the service
        # aligned with, accepting 187 pairs here instead of 181.
        from repro.data import load_dataset

        reads = load_dataset(
            "ecoli_like", scale=0.05, rng=np.random.default_rng(3)
        ).reads[:20]
        config = AlignConfig(
            engine="batched",
            xdrop=25,
            scoring=ScoringScheme(match=2, mismatch=-3, gap=-3),
        )
        direct = BellaPipeline(config=config, k=13, min_overlap=200).run(reads)
        with Aligner(config).open_service() as svc:
            pipeline = BellaPipeline(service=svc, k=13, min_overlap=200)
            via_service = pipeline.run(reads)
        assert pipeline.scoring == config.scoring
        assert [o.score for o in via_service.overlaps] == [
            o.score for o in direct.overlaps
        ]
        assert via_service.accepted_pairs() == direct.accepted_pairs()
        assert len(direct.accepted) == 181

    def test_logan_from_config_rejects_unknown_option_by_name(self):
        with pytest.raises(ConfigurationError) as excinfo:
            LoganAligner.from_config(
                AlignConfig(engine="logan", engine_options={"gpuz": 2})
            )
        message = str(excinfo.value)
        assert "gpuz" in message and "gpus" in message

    def test_logan_from_config_rejects_shadowing_option(self):
        with pytest.raises(ConfigurationError) as excinfo:
            LoganAligner.from_config(
                AlignConfig(engine="logan", engine_options={"xdrop": 5})
            )
        assert "xdrop" in str(excinfo.value)

    def test_logan_aligner_from_config(self, start_seed_jobs):
        config = AlignConfig(
            engine="logan", xdrop=20, engine_options={"gpus": 2}
        )
        aligner = LoganAligner.from_config(config)
        assert aligner.system.num_devices == 2
        assert aligner.xdrop == 20
        direct = LoganAligner(xdrop=20)
        assert aligner.align_batch(start_seed_jobs).scores() == direct.align_batch(
            start_seed_jobs
        ).scores()

    def test_pipeline_scoring_default_is_fresh_per_instance(self):
        first = BellaPipeline()
        second = BellaPipeline()
        assert first.scoring == second.scoring
        assert first.scoring is not second.scoring


class TestNoDeprecationWarnings:
    def test_config_paths_never_warn(self, small_jobs):
        config = AlignConfig(engine="batched", xdrop=20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with AlignmentService(config=config) as svc:
                svc.map(small_jobs)
            BellaPipeline(config=config)
            Aligner(config).align_batch(small_jobs)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_api_import_is_shim_free(self):
        # Mirrors the CI gate: importing the front door in a fresh
        # interpreter must not emit any DeprecationWarning.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", "import repro.api"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestConfigFromArgs:
    def test_flag_overrides_file(self, tmp_path):
        import argparse

        from repro.api import add_config_arguments

        path = tmp_path / "config.json"
        AlignConfig(engine="logan", xdrop=33).save(path)
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, include_service=True)
        args = parser.parse_args(
            ["--config", str(path), "--xdrop", "44", "--batch-size", "8"]
        )
        cfg = config_from_args(args)
        assert cfg.engine == "logan"  # from the file
        assert cfg.xdrop == 44  # flag wins
        assert cfg.service.max_batch_size == 8
