"""Tests of the unified alignment-engine layer.

Covers the registry surface (register/get/list), the uniform batch result,
and — most importantly — property-style parity: random job batches pushed
through every registered exact engine must produce identical scores and end
positions to the scalar reference oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AlignConfig
from repro.bella import BellaPipeline
from repro.core import ScoringScheme, Seed, extend_seed
from repro.core.job import AlignmentJob
from repro.core.xdrop import xdrop_extend_reference
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import (
    EngineBatchResult,
    engine_from_config,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from repro.errors import ConfigurationError
from repro.logan import LoganModel

BUNDLED_ENGINES = {"reference", "batched", "wavefront", "ksw2", "logan"}
# The parity tests use the default (unit) scoring, which wavefront requires.
EXACT_ENGINES = sorted(BUNDLED_ENGINES - {"ksw2"})


def job_batch(rng_seed: int, num_pairs: int = 8, seed_placement: str = "middle"):
    """Deterministic batch of related/unrelated jobs with mid-sequence seeds."""
    return generate_pair_set(
        PairSetSpec(
            num_pairs=num_pairs,
            min_length=120,
            max_length=260,
            pairwise_error_rate=0.15,
            unrelated_fraction=0.25,
            seed_placement=seed_placement,
            rng_seed=rng_seed,
        )
    )


def reference_results(jobs, scoring, xdrop):
    return [
        extend_seed(
            job.query,
            job.target,
            job.seed,
            scoring=scoring,
            xdrop=xdrop,
            kernel=xdrop_extend_reference,
        )
        for job in jobs
    ]


class TestRegistry:
    def test_bundled_engines_registered(self):
        assert BUNDLED_ENGINES <= set(list_engines())

    def test_get_engine_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            get_engine("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine("batched", lambda **kw: None)

    def test_register_and_unregister_custom_engine(self):
        class DummyEngine:
            name = "dummy"
            exact = False

            def __init__(self, **kwargs):
                pass

            def align_batch(self, jobs):
                raise NotImplementedError

        try:
            register_engine("dummy", DummyEngine)
            assert "dummy" in list_engines()
            assert isinstance(get_engine("dummy"), DummyEngine)
        finally:
            unregister_engine("dummy")
        assert "dummy" not in list_engines()

    def test_register_as_decorator(self):
        try:

            @register_engine("decorated-dummy")
            class Decorated:
                name = "decorated-dummy"
                exact = False

                def align_batch(self, jobs):
                    raise NotImplementedError

            assert "decorated-dummy" in list_engines()
        finally:
            unregister_engine("decorated-dummy")

    def test_exact_flags(self):
        for name in EXACT_ENGINES:
            assert get_engine(name).exact
        assert not get_engine("ksw2").exact

    def test_factory_without_xdrop_cannot_be_built_from_a_config(self):
        def no_xdrop(scoring=None, workers=1, trace=False):
            return get_engine("batched", scoring=scoring, workers=workers, trace=trace)

        register_engine("no-xdrop", no_xdrop)
        try:
            # Built with its own X, it would align with a value the config
            # (and every cache key made from it) does not record.
            with pytest.raises(TypeError, match="xdrop"):
                engine_from_config(AlignConfig(engine="no-xdrop", xdrop=7))
        finally:
            unregister_engine("no-xdrop")


class TestOnePath:
    """An engine aligns with the scoring and X it was built with, only."""

    @pytest.mark.parametrize("engine_name", sorted(BUNDLED_ENGINES))
    def test_config_scoring_and_x_reach_the_engine(self, engine_name):
        config = AlignConfig(engine=engine_name, xdrop=7)
        engine = engine_from_config(config)
        assert engine.scoring == config.scoring
        assert engine.xdrop == 7
        if not engine.exact:
            # ksw2 runs X as its Z-drop, and as its band by default.
            assert engine.bandwidth == 7
            return
        jobs = job_batch(3, num_pairs=4)
        oracle = reference_results(jobs, config.scoring, 7)
        # Precondition: X = 7 decides these scores (the default X does not).
        default_x = reference_results(jobs, config.scoring, AlignConfig().xdrop)
        assert [r.score for r in oracle] != [r.score for r in default_x]
        batch = engine.align_batch(jobs)
        assert batch.scores() == [r.score for r in oracle]
        assert [(r.query_end, r.target_end) for r in batch.results] == [
            (r.query_end, r.target_end) for r in oracle
        ]

    @pytest.mark.parametrize("engine_name", sorted(BUNDLED_ENGINES))
    @pytest.mark.parametrize("field", ["scoring", "xdrop"])
    def test_align_batch_takes_only_jobs(self, engine_name, field):
        engine = get_engine(engine_name, xdrop=7)
        value = {"scoring": ScoringScheme(), "xdrop": 7}[field]
        with pytest.raises(TypeError):
            engine.align_batch(job_batch(3, num_pairs=1), **{field: value})


class TestConstructionChecks:
    """A bad setting is refused when the engine is built, not mid-batch."""

    @pytest.mark.parametrize("engine_name", sorted(BUNDLED_ENGINES))
    def test_negative_xdrop(self, engine_name):
        with pytest.raises(ConfigurationError, match="xdrop"):
            get_engine(engine_name, xdrop=-5)

    @pytest.mark.parametrize("engine_name", sorted(BUNDLED_ENGINES))
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, engine_name, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            get_engine(engine_name, workers=workers)

    def test_logan_threads_per_block(self):
        with pytest.raises(ConfigurationError, match="threads_per_block"):
            get_engine("logan", threads_per_block=0)

    def test_ksw2_bandwidth(self):
        config = AlignConfig(engine="ksw2", engine_options={"bandwidth": -3})
        with pytest.raises(ConfigurationError, match="bandwidth"):
            config.build_engine()


class TestEngineParity:
    """Every exact engine must reproduce the scalar reference bit-for-bit."""

    @pytest.mark.parametrize("engine_name", EXACT_ENGINES)
    @pytest.mark.parametrize("rng_seed,xdrop", [(1, 15), (2, 40)])
    def test_scores_and_extents_match_reference(self, engine_name, rng_seed, xdrop):
        scoring = ScoringScheme()
        jobs = job_batch(rng_seed)
        oracle = reference_results(jobs, scoring, xdrop)
        batch = get_engine(engine_name, scoring=scoring, xdrop=xdrop).align_batch(jobs)

        assert isinstance(batch, EngineBatchResult)
        assert batch.engine == engine_name
        assert len(batch.results) == len(jobs)
        for got, ref in zip(batch.results, oracle):
            assert got.score == ref.score
            assert got.query_begin == ref.query_begin
            assert got.query_end == ref.query_end
            assert got.target_begin == ref.target_begin
            assert got.target_end == ref.target_end
            assert got.left.best_score == ref.left.best_score
            assert got.right.best_score == ref.right.best_score

    def test_batched_engine_work_accounting_matches_reference(self):
        scoring = ScoringScheme()
        jobs = job_batch(4, num_pairs=6)
        oracle = reference_results(jobs, scoring, 25)
        batch = get_engine("batched", scoring=scoring, xdrop=25).align_batch(jobs)
        assert batch.summary.alignments == len(jobs)
        assert batch.summary.cells == sum(r.cells_computed for r in oracle)

    def test_seed_at_start_batches(self):
        scoring = ScoringScheme()
        jobs = job_batch(6, seed_placement="start")
        oracle = reference_results(jobs, scoring, 20)
        for engine_name in ("batched", "logan"):
            batch = get_engine(engine_name, scoring=scoring, xdrop=20).align_batch(jobs)
            assert batch.scores() == [r.score for r in oracle]

    def test_batched_engine_workers_chunking_is_score_invariant(self):
        scoring = ScoringScheme()
        jobs = job_batch(9, num_pairs=7)
        serial = get_engine("batched", scoring=scoring, xdrop=25).align_batch(jobs)
        chunked = get_engine(
            "batched", scoring=scoring, xdrop=25, workers=4
        ).align_batch(jobs)
        assert chunked.scores() == serial.scores()
        assert chunked.summary.cells == serial.summary.cells

    def test_ksw2_engine_runs_and_reports_measured_time_only(self):
        # The Skylake model is the post-hoc
        # KSW2_SKYLAKE_BAND_MODEL.seconds_for(summary) of table 3.
        jobs = job_batch(7, num_pairs=4)
        batch = get_engine("ksw2", xdrop=20).align_batch(jobs)
        assert len(batch.results) == len(jobs)
        assert batch.modeled_seconds is None
        assert batch.elapsed_seconds > 0
        assert all(r.score >= 0 for r in batch.results)

    def test_ksw2_engine_honours_custom_substitution_scores(self):
        jobs = job_batch(7, num_pairs=4)
        default = get_engine("ksw2", xdrop=20).align_batch(jobs)
        custom = get_engine(
            "ksw2", scoring=ScoringScheme(match=5, mismatch=-10, gap=-1), xdrop=20
        ).align_batch(jobs)
        assert custom.scores() != default.scores()


class TestConsumersRouteThroughEngines:
    def test_logan_engine_matches_batched_engine(self):
        jobs = job_batch(8, num_pairs=5)
        logan = get_engine("logan", xdrop=20).align_batch(jobs)
        batched = get_engine("batched", xdrop=20, trace=True).align_batch(jobs)
        assert logan.scores() == batched.scores()
        for a, b in zip(logan.results, batched.results):
            assert np.array_equal(a.left.band_widths, b.left.band_widths)
            assert np.array_equal(a.right.band_widths, b.right.band_widths)

    def test_logan_model_rejects_engine_keyword(self):
        # The model aligns nothing; the batched kernel is the only one the
        # logan engine runs.
        with pytest.raises(TypeError, match="engine"):
            LoganModel(engine="vectorized")

    def test_logan_engine_rejects_execution_option(self):
        config = AlignConfig(engine="logan", engine_options={"execution": "vectorized"})
        with pytest.raises(ConfigurationError, match="'execution' not accepted"):
            engine_from_config(config)

    def test_bella_pipeline_accepts_engine_name(self, make_rng):
        reads = self._overlapping_reads(make_rng)
        batched = BellaPipeline(
            config=AlignConfig(engine="batched", xdrop=10), k=13, min_overlap=100
        )
        logan = BellaPipeline(
            config=AlignConfig(engine="logan", xdrop=10), k=13, min_overlap=100
        )
        res_batched = batched.run(reads)
        res_logan = logan.run(reads)
        assert res_batched.accepted_pairs() == res_logan.accepted_pairs()
        assert [o.score for o in res_batched.overlaps] == [
            o.score for o in res_logan.overlaps
        ]

    def test_bella_pipeline_default_engine_is_batched(self):
        pipeline = BellaPipeline()
        assert pipeline.aligner.name == "batched"

    @staticmethod
    def _overlapping_reads(make_rng):
        rng = make_rng(123)
        template = rng.integers(0, 4, 700).astype(np.uint8)
        return [template[0:350], template[175:525], template[350:700]]


class TestEngineBatchResultSurface:
    def test_scores_and_gcups(self):
        jobs = [
            AlignmentJob(
                query="ACGTACGTACGTACGTACGT",
                target="ACGTACGTACGTACGTACGT",
                seed=Seed(0, 0, 4),
            )
        ]
        batch = get_engine("batched", xdrop=10).align_batch(jobs)
        assert batch.scores() == [20]
        assert batch.measured_gcups() >= 0
