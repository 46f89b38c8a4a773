"""Tests for the ksw2-style Z-drop baseline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ksw2_extend, ksw2_extend_affine_oracle
from repro.core import AffineScoringScheme, ExtensionResult, random_sequence
from repro.errors import ConfigurationError

SEQ = st.text(alphabet="ACGT", min_size=1, max_size=30)
AFFINE = AffineScoringScheme(match=2, mismatch=-4, gap_open=4, gap_extend=2)


class TestKsw2Basics:
    def test_identical_sequences(self):
        res = ksw2_extend("ACGTACGT", "ACGTACGT", AFFINE, zdrop=1000)
        assert res.best_score == 8 * 2
        assert res.query_end == 8
        assert res.target_end == 8

    def test_single_mismatch(self):
        res = ksw2_extend("ACGTACGT", "ACGTTCGT", AFFINE, zdrop=1000)
        assert res.best_score == 7 * 2 - 4

    def test_single_insertion_prefers_gap(self):
        # One extra base in the target: 8 matches minus an open+extend gap.
        res = ksw2_extend("ACGTACGT", "ACGTAACGT", AFFINE, zdrop=1000)
        assert res.best_score == 8 * 2 - (4 + 2)

    def test_negative_zdrop_rejected(self):
        with pytest.raises(ConfigurationError):
            ksw2_extend("ACGT", "ACGT", AFFINE, zdrop=-1)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            ksw2_extend("ACGT", "ACGT", AFFINE, zdrop=10, bandwidth=-2)

    def test_returns_an_extension_result_without_a_band_trace(self):
        res = ksw2_extend("ACGTACGT", "ACGTACGT", AFFINE, zdrop=1000)
        assert isinstance(res, ExtensionResult)
        assert res.band_widths is None
        # Its anti_diagonals count DP rows, row 0 included.
        assert res.anti_diagonals == 8 + 1


class TestKsw2AgainstOracle:
    @settings(max_examples=50, deadline=None)
    @given(q=SEQ, t=SEQ)
    def test_matches_gotoh_oracle_without_pruning(self, q, t):
        fast = ksw2_extend(q, t, AFFINE, zdrop=10**9, bandwidth=None).best_score
        slow = ksw2_extend_affine_oracle(q, t, AFFINE)
        assert fast == slow

    def test_zdrop_never_increases_score(self, rng):
        for _ in range(10):
            q = random_sequence(60, rng)
            t = random_sequence(60, rng)
            unpruned = ksw2_extend(q, t, AFFINE, zdrop=10**9).best_score
            pruned = ksw2_extend(q, t, AFFINE, zdrop=5).best_score
            assert pruned <= unpruned

    def test_band_never_increases_score(self, rng):
        q = random_sequence(80, rng)
        t = q.copy()
        full = ksw2_extend(q, t, AFFINE, zdrop=10**9, bandwidth=None).best_score
        banded = ksw2_extend(q, t, AFFINE, zdrop=10**9, bandwidth=3).best_score
        assert banded <= full


class TestKsw2Termination:
    def test_divergent_sequences_terminate_early(self, rng):
        q = random_sequence(300, rng)
        t = random_sequence(300, rng)
        res = ksw2_extend(q, t, AFFINE, zdrop=20)
        assert res.terminated_early
        assert res.anti_diagonals < 300

    def test_similar_sequences_do_not_terminate(self, rng):
        q = random_sequence(200, rng)
        res = ksw2_extend(q, q, AFFINE, zdrop=100)
        assert not res.terminated_early
        assert res.anti_diagonals == 201

    def test_band_reduces_cells(self, rng):
        q = random_sequence(150, rng)
        res_full = ksw2_extend(q, q, AFFINE, zdrop=10**9, bandwidth=None)
        res_band = ksw2_extend(q, q, AFFINE, zdrop=10**9, bandwidth=10)
        assert res_band.cells_computed < res_full.cells_computed
        # Both recover the perfect score because the optimum hugs the diagonal.
        assert res_band.best_score == res_full.best_score

    def test_cells_grow_with_band(self, rng):
        q = random_sequence(200, rng)
        t = q.copy()
        cells = [
            ksw2_extend(q, t, AFFINE, zdrop=10**9, bandwidth=bw).cells_computed
            for bw in (5, 20, 80)
        ]
        assert cells == sorted(cells)
        assert cells[0] < cells[-1]
