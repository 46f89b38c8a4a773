"""Wavefront engine: conformance, scoring contract, hypothesis differential.

The wavefront engine computes in cost space (furthest-reaching points per
(cost, diagonal)), so its contract is: bit-identical ``best_score`` /
``query_end`` / ``target_end`` / ``terminated_early`` against the scalar
reference under unit scoring, honest *estimates* for the work-accounting
fields (``work_exact = False`` in the registry), and a fast, field-naming
``ConfigurationError`` for every scoring scheme it cannot serve exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AlignConfig, Aligner
from repro.core import ScoringScheme
from repro.core.job import AlignmentJob
from repro.core.seed_extend import Seed, split_on_seed
from repro.core.wavefront import (
    UNIT_SCORING,
    ensure_unit_scoring,
    wavefront_extend_batch,
)
from repro.core.xdrop import xdrop_extend_reference
from repro.engine import describe_engines, get_engine
from repro.engine.engines import WavefrontEngine
from repro.errors import ConfigurationError
from repro.testing import ConformanceRunner
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

CONFIG = AlignConfig(engine="wavefront", xdrop=15, trace=True)
SPEC = WorkloadSpec(count=6, seed=23, min_length=50, max_length=140, xdrop=15)

NON_UNIT = ScoringScheme(match=2, mismatch=-3, gap=-4)


# --------------------------------------------------------------------------- #
# Bit-identity on the full workload bank (the tentpole acceptance criterion)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("profile", list_profiles())
def test_profile_conformance_bit_identical(profile):
    runner = ConformanceRunner(
        CONFIG, engines=["reference", "wavefront"], include_service=False
    )
    report = runner.run_workload(generate_workload(profile, SPEC))
    assert report.ok, report.summary()
    assert report.comparisons > 0


def test_service_path_with_wavefront_config():
    runner = ConformanceRunner(CONFIG, engines=["reference"], include_service=True)
    report = runner.run_workload(generate_workload("pacbio", SPEC))
    assert report.ok, report.summary()
    assert report.service_checked


def test_facade_parity_with_direct_engine():
    jobs = generate_workload("ont", SPEC).jobs
    direct = get_engine("wavefront", xdrop=15).align_batch(jobs)
    facade = Aligner(AlignConfig(engine="wavefront", xdrop=15)).align_batch(jobs)
    assert facade.scores() == direct.scores()


def test_batch_neighbours_leave_a_pairs_result_alone():
    """A pair gets the result it gets alone, work estimate and band trace
    included, so splitting a batch across workers changes nothing."""
    pairs = [
        side
        for job in generate_workload("unrelated", SPEC).jobs
        for side in split_on_seed(job.query, job.target, job.seed)
    ]
    batch = wavefront_extend_batch(pairs, xdrop=SPEC.xdrop, trace=True)
    assert sum(r.terminated_early for r in batch) >= 2
    fields = ("best_score", "query_end", "target_end", "anti_diagonals",
              "cells_computed", "terminated_early")
    for pair, got in zip(pairs, batch):
        (alone,) = wavefront_extend_batch([pair], xdrop=SPEC.xdrop, trace=True)
        for field in fields:
            assert getattr(got, field) == getattr(alone, field), field
        assert np.array_equal(got.band_widths, alone.band_widths)


# --------------------------------------------------------------------------- #
# Registry contract
# --------------------------------------------------------------------------- #
def test_registry_row_declares_inexact_work():
    rows = {row["name"]: row for row in describe_engines()}
    row = rows["wavefront"]
    assert row["exact"] is True
    assert row["work_exact"] is False


# --------------------------------------------------------------------------- #
# Scoring contract: fast, field-naming failure on non-unit schemes
# --------------------------------------------------------------------------- #
def _assert_names_fields(error: ConfigurationError) -> None:
    message = str(error)
    for fragment in ("match=2", "mismatch=-3", "gap=-4"):
        assert fragment in message, message
    assert "unit scoring" in message


def test_non_unit_scoring_rejected_at_construction():
    with pytest.raises(ConfigurationError) as excinfo:
        WavefrontEngine(scoring=NON_UNIT)
    _assert_names_fields(excinfo.value)


def test_non_unit_scoring_rejected_via_registry_and_config():
    with pytest.raises(ConfigurationError) as excinfo:
        get_engine("wavefront", scoring=NON_UNIT)
    _assert_names_fields(excinfo.value)
    with pytest.raises(ConfigurationError) as excinfo:
        AlignConfig(engine="wavefront", scoring=NON_UNIT).build_engine()
    _assert_names_fields(excinfo.value)


def test_unit_scheme_constant_matches_default():
    assert ScoringScheme().as_tuple() == UNIT_SCORING
    ensure_unit_scoring(ScoringScheme())  # must not raise


# --------------------------------------------------------------------------- #
# Tier-2 hypothesis differential vs the reference, ddmin shrink on failure
# --------------------------------------------------------------------------- #
_DNA = "ACGT"


@st.composite
def unit_scoring_jobs(draw):
    """A small batch of seeded jobs, biased toward high-identity pairs."""
    jobs = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        anchor = draw(st.text(alphabet=_DNA, min_size=4, max_size=10))
        prefix_q = draw(st.text(alphabet=_DNA, min_size=0, max_size=40))
        suffix_q = draw(st.text(alphabet=_DNA, min_size=0, max_size=40))
        if draw(st.booleans()):
            # related pair: same flanks modulo a few substitutions
            prefix_t, suffix_t = prefix_q, suffix_q
        else:
            prefix_t = draw(st.text(alphabet=_DNA, min_size=0, max_size=40))
            suffix_t = draw(st.text(alphabet=_DNA, min_size=0, max_size=40))
        jobs.append(
            AlignmentJob(
                prefix_q + anchor + suffix_q,
                prefix_t + anchor + suffix_t,
                Seed(len(prefix_q), len(prefix_t), len(anchor)),
            )
        )
    return jobs


@pytest.mark.tier2
class TestHypothesisDifferential:
    @settings(max_examples=30, deadline=None)
    @given(jobs=unit_scoring_jobs(), xdrop=st.sampled_from([0, 2, 7, 15, 60]))
    def test_random_unit_pairs_bit_identical(self, jobs, xdrop):
        # shrink=True: a violation is minimised through the repro.testing
        # ddmin path and the shrunk pair lands in the report summary.
        runner = ConformanceRunner(
            AlignConfig(engine="wavefront", xdrop=xdrop),
            engines=["reference", "wavefront"],
            include_service=False,
            shrink=True,
        )
        report = runner.run_jobs(jobs)
        assert report.ok, report.summary()

    @settings(max_examples=40, deadline=None)
    @given(
        query=st.lists(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=60
        ),
        target=st.lists(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=60
        ),
        xdrop=st.sampled_from([0, 1, 3, 9, 10**6]),
    )
    def test_kernel_semantic_fields_match_reference(self, query, target, xdrop):
        """Raw-pair differential, wildcard (code 4) bases included."""
        q = np.asarray(query, dtype=np.uint8)
        t = np.asarray(target, dtype=np.uint8)
        got = wavefront_extend_batch([(q, t)], xdrop=xdrop)[0]
        ref = xdrop_extend_reference(q, t, xdrop=xdrop)
        assert (
            got.best_score,
            got.query_end,
            got.target_end,
            got.terminated_early,
        ) == (
            ref.best_score,
            ref.query_end,
            ref.target_end,
            ref.terminated_early,
        )
