"""Parity tests for the inter-sequence batched X-drop kernel.

The batch kernel must reproduce the scalar reference *exactly* on every row
of a batch: scores, end positions, cell counts, anti-diagonal counts, early
termination flags and band traces ("equivalent accuracy", Section VI of the
paper, extended to the work accounting consumed by the GPU model).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ScoringScheme, random_sequence, xdrop_batch
from repro.core.encoding import WILDCARD_CODE
from repro.core.xdrop import xdrop_extend_reference
from repro.core.xdrop_batch import xdrop_extend_batch
from repro.data import ErrorModel, apply_errors
from repro.errors import ConfigurationError, SequenceError


def random_pairs(rng, count, max_len=220, related_fraction=0.6):
    """Mixed batch: related pairs, unrelated pairs, tiny and long sequences.

    Wildcards (``N``) are planted in queries and in targets, and some pairs
    get an ``N`` facing an ``N`` on the same DP cell.
    """
    pairs = []
    for _ in range(count):
        query = random_sequence(int(rng.integers(1, max_len)), rng=rng)
        if rng.random() < related_fraction:
            target = apply_errors(query, ErrorModel.with_total(0.15), rng)
        else:
            target = random_sequence(int(rng.integers(1, max_len)), rng=rng)
        query, target = query.copy(), target.copy()
        if rng.random() < 0.2:
            query[rng.integers(0, len(query))] = WILDCARD_CODE
        if rng.random() < 0.2:
            target[rng.integers(0, len(target))] = WILDCARD_CODE
        if rng.random() < 0.2:
            pos = rng.integers(0, min(len(query), len(target)))
            query[pos] = target[pos] = WILDCARD_CODE  # cell (pos + 1, pos + 1)
        pairs.append((query, target))
    return pairs


def assert_matches_reference(pairs, scoring, xdrop):
    batch = xdrop_extend_batch(pairs, scoring, xdrop=xdrop, trace=True)
    assert len(batch) == len(pairs)
    for got, (query, target) in zip(batch, pairs):
        ref = xdrop_extend_reference(query, target, scoring, xdrop=xdrop, trace=True)
        assert got.best_score == ref.best_score
        assert got.query_end == ref.query_end
        assert got.target_end == ref.target_end
        assert got.cells_computed == ref.cells_computed
        assert got.anti_diagonals == ref.anti_diagonals
        assert got.terminated_early == ref.terminated_early
        assert np.array_equal(got.band_widths, ref.band_widths)


class TestBatchKernelParity:
    @pytest.mark.parametrize("xdrop", [0, 3, 25, 100])
    def test_random_batches_match_reference(self, xdrop, make_rng):
        rng = make_rng(xdrop + 11)
        pairs = random_pairs(rng, 24)
        assert_matches_reference(pairs, ScoringScheme(), xdrop)

    def test_nondefault_scoring(self, make_rng):
        rng = make_rng(5)
        pairs = random_pairs(rng, 12)
        assert_matches_reference(pairs, ScoringScheme(match=2, mismatch=-3, gap=-2), 30)

    def test_singleton_batch_matches_per_pair(self, make_rng):
        rng = make_rng(9)
        pairs = random_pairs(rng, 1)
        assert_matches_reference(pairs, ScoringScheme(), 40)

    def test_string_inputs(self):
        pairs = [("ACGTACGTTT", "ACGTACGTAA"), ("AAAA", "TTTT"), ("ANA", "ANA")]
        results = xdrop_extend_batch(pairs, ScoringScheme(), xdrop=10)
        assert results[0].best_score == 8
        assert results[1].best_score == 0
        assert results[2].best_score == 1  # N facing N scores a mismatch

    def test_identical_sequences_full_score(self, make_rng):
        seq = random_sequence(150, rng=make_rng(2))
        results = xdrop_extend_batch([(seq, seq)] * 3, ScoringScheme(), xdrop=50)
        for res in results:
            assert res.best_score == 150
            assert res.query_end == res.target_end == 150
            assert not res.terminated_early


class TestBatchKernelEdges:
    def test_empty_batch(self):
        assert xdrop_extend_batch([], ScoringScheme(), xdrop=10) == []

    def test_empty_sequences_rejected(self):
        # Same contract as the per-pair kernels: empty extensions are the
        # caller's responsibility (seed-flush tasks never reach a kernel).
        empty = np.zeros(0, dtype=np.uint8)
        with pytest.raises(SequenceError):
            xdrop_extend_batch([(empty, "ACGT")], ScoringScheme(), xdrop=10)

    def test_negative_xdrop_rejected(self):
        with pytest.raises(ConfigurationError):
            xdrop_extend_batch([("ACGT", "ACGT")], ScoringScheme(), xdrop=-1)

    def test_trace_disabled_by_default(self):
        results = xdrop_extend_batch([("ACGT", "ACGT")], ScoringScheme(), xdrop=10)
        assert results[0].band_widths is None

    def test_widely_varying_lengths(self, make_rng):
        rng = make_rng(17)
        base = random_sequence(400, rng=rng)
        pairs = [
            (base[:5], base[:400]),
            (base[:400], base[:5]),
            (base, apply_errors(base, ErrorModel.with_total(0.1), rng)),
            (base[:60], random_sequence(350, rng=rng)),
        ]
        assert_matches_reference(pairs, ScoringScheme(), 35)


#: One hand-built batch whose rows retire by every route, with the
#: reference's ``(terminated_early, anti_diagonals)`` of each row.  A band
#: cannot empty before its far corner (the previous band always reaches an
#: in-matrix row), so the matrix bounds end a row only at that corner.
RETIREMENT_ROUTES = [
    # One-base pairs: both reach their corner on anti-diagonal 2.
    (("A", "A"), (False, 3)),
    (("A", "C"), (False, 3)),
    # Two X-drop stops and a far corner, all on anti-diagonal 11.
    (("AAAAAAAAAA", "CCCCCCCCCC"), (True, 12)),
    (("AAAAAAAAAA", "CCCCCCCCCC"), (True, 12)),
    (("ACGTAC", "ACGTA"), (False, 12)),
    # An X-drop stop on its own anti-diagonal (16), after a band that ran
    # along the bottom edge of the matrix.
    (("ACGTA", "ACGTAGGCCTTAAGGC"), (True, 17)),
    # A far corner mid-sweep (anti-diagonal 20) while longer rows go on.
    (("ACGTTGCAAC", "ACGTTGCAAC"), (False, 21)),
    # The natural end at the far corner of the sweep (anti-diagonal 60).
    (("ACGTTGCAACGGATCCATGCAAGTCCGTAA",) * 2, (False, 61)),
]


@pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 1.0])
def test_every_retirement_route_matches_reference(threshold, monkeypatch):
    monkeypatch.setattr(xdrop_batch, "COMPACT_THRESHOLD", threshold)
    pairs = [pair for pair, _ in RETIREMENT_ROUTES]
    reference = [
        xdrop_extend_reference(q, t, ScoringScheme(), xdrop=5, trace=True)
        for q, t in pairs
    ]
    # The batch really exercises each route.
    assert [(r.terminated_early, r.anti_diagonals) for r in reference] == [
        route for _, route in RETIREMENT_ROUTES
    ]
    assert_matches_reference(pairs, ScoringScheme(), 5)
