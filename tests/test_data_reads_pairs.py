"""Tests for the long-read simulator, pair-set generator and dataset presets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ScoringScheme, xdrop_extend
from repro.data import (
    CELEGANS_LIKE,
    ECOLI_LIKE,
    ErrorModel,
    PairSetSpec,
    apply_errors,
    generate_pair_set,
    load_dataset,
    simulate_genome,
    simulate_reads,
    true_overlap,
)
from repro.errors import DatasetError


class TestErrorModel:
    def test_total(self):
        model = ErrorModel(substitution=0.02, insertion=0.05, deletion=0.03)
        assert model.total == pytest.approx(0.10)

    def test_with_total_split(self):
        model = ErrorModel.with_total(0.15)
        assert model.total == pytest.approx(0.15)
        assert model.insertion > model.deletion > model.substitution

    def test_perfect(self):
        assert ErrorModel.perfect().total == 0.0

    def test_invalid_rates(self):
        with pytest.raises(DatasetError):
            ErrorModel(substitution=1.2)
        with pytest.raises(DatasetError):
            ErrorModel.with_total(1.0)


class TestApplyErrors:
    def test_no_errors_returns_copy(self, rng):
        seq = np.array([0, 1, 2, 3], dtype=np.uint8)
        out = apply_errors(seq, ErrorModel.perfect(), rng)
        np.testing.assert_array_equal(out, seq)
        out[0] = 3
        assert seq[0] == 0

    def test_substitutions_change_bases_but_not_length(self, rng):
        seq = np.zeros(2000, dtype=np.uint8)
        model = ErrorModel(substitution=0.2, insertion=0.0, deletion=0.0)
        out = apply_errors(seq, model, rng)
        assert len(out) == len(seq)
        changed = int((out != seq).sum())
        assert 250 < changed < 550  # ~20 % +- tolerance

    def test_insertions_grow_length(self, rng):
        seq = np.zeros(2000, dtype=np.uint8)
        model = ErrorModel(substitution=0.0, insertion=0.2, deletion=0.0)
        out = apply_errors(seq, model, rng)
        assert len(out) > len(seq) * 1.1

    def test_deletions_shrink_length(self, rng):
        seq = np.zeros(2000, dtype=np.uint8)
        model = ErrorModel(substitution=0.0, insertion=0.0, deletion=0.2)
        out = apply_errors(seq, model, rng)
        assert len(out) < len(seq) * 0.9

    @settings(max_examples=20, deadline=None)
    @given(total=st.floats(min_value=0.01, max_value=0.3))
    def test_length_roughly_preserved_with_balanced_model(self, make_rng, total):
        rng = make_rng(11)
        seq = rng.integers(0, 4, 3000).astype(np.uint8)
        out = apply_errors(seq, ErrorModel.with_total(total), rng)
        # insertions (50 %) slightly outnumber deletions (30 %).
        assert 0.8 * len(seq) < len(out) < 1.3 * len(seq)

    def test_error_rate_degrades_alignment_score(self, rng):
        seq = rng.integers(0, 4, 1500).astype(np.uint8)
        noisy = apply_errors(seq, ErrorModel.with_total(0.15), rng)
        score = xdrop_extend(seq, noisy, ScoringScheme(), xdrop=150).best_score
        assert 0.3 * len(seq) < score < 0.95 * len(seq)


class TestSimulateReads:
    def test_read_properties(self, rng):
        genome = simulate_genome(20_000, rng=rng)
        reads = simulate_reads(genome, num_reads=20, mean_length=1000, length_spread=200, rng=rng)
        assert len(reads) == 20
        for read in reads:
            assert 0 <= read.genome_start < read.genome_end <= len(genome)
            assert 700 <= read.true_span <= 1300
            assert read.name.startswith("read_")

    def test_invalid_parameters(self, rng):
        genome = simulate_genome(1000, rng=rng)
        with pytest.raises(DatasetError):
            simulate_reads(genome, num_reads=0, mean_length=100, length_spread=10)
        with pytest.raises(DatasetError):
            simulate_reads(genome, num_reads=5, mean_length=100, length_spread=200)

    def test_true_overlap(self, rng):
        genome = simulate_genome(5000, rng=rng)
        reads = simulate_reads(genome, 2, 1000, 0, error_model=ErrorModel.perfect(), rng=rng)
        a, b = reads
        expected = max(0, min(a.genome_end, b.genome_end) - max(a.genome_start, b.genome_start))
        assert true_overlap(a, b) == expected
        assert true_overlap(a, a) == a.true_span


class TestPairSetGenerator:
    def test_spec_validation(self):
        with pytest.raises(DatasetError):
            PairSetSpec(num_pairs=0)
        with pytest.raises(DatasetError):
            PairSetSpec(min_length=100, max_length=50)
        with pytest.raises(DatasetError):
            PairSetSpec(seed_placement="end")
        with pytest.raises(DatasetError):
            PairSetSpec(unrelated_fraction=1.5)

    def test_deterministic(self):
        spec = PairSetSpec(num_pairs=4, min_length=100, max_length=200, rng_seed=5)
        a = generate_pair_set(spec)
        b = generate_pair_set(spec)
        assert all(
            np.array_equal(x.query, y.query) and np.array_equal(x.target, y.target)
            for x, y in zip(a, b)
        )

    def test_lengths_within_range(self):
        spec = PairSetSpec(num_pairs=10, min_length=150, max_length=300, rng_seed=1)
        jobs = generate_pair_set(spec)
        for job in jobs:
            # Indels shift lengths slightly around the template length.
            assert 100 <= job.query_length <= 400
            assert 100 <= job.target_length <= 400

    def test_seed_region_matches_exactly(self):
        spec = PairSetSpec(
            num_pairs=8, min_length=150, max_length=250, seed_placement="middle", rng_seed=3
        )
        for job in generate_pair_set(spec):
            seed = job.seed
            q = job.query[seed.query_pos : seed.query_end]
            t = job.target[seed.target_pos : seed.target_end]
            np.testing.assert_array_equal(q, t)

    def test_related_pairs_align_well(self, scoring):
        spec = PairSetSpec(num_pairs=5, min_length=300, max_length=400,
                           pairwise_error_rate=0.15, rng_seed=4)
        for job in generate_pair_set(spec):
            res = xdrop_extend(job.query, job.target, scoring, xdrop=100)
            assert res.best_score > 0.2 * min(job.query_length, job.target_length)

    def test_unrelated_fraction(self, scoring):
        spec = PairSetSpec(
            num_pairs=6,
            min_length=200,
            max_length=300,
            unrelated_fraction=0.5,
            seed_placement="middle",
            rng_seed=8,
        )
        jobs = generate_pair_set(spec)
        scores = [
            xdrop_extend(j.query, j.target, ScoringScheme(1, -2, -2), xdrop=20).best_score
            for j in jobs
        ]
        # The first half are unrelated: much lower scores than the related half.
        assert max(scores[:3]) < min(scores[3:])

    def test_scaled_spec(self):
        scaled = PairSetSpec(num_pairs=100).scaled(10)
        assert scaled.num_pairs == 10
        assert scaled.min_length == PairSetSpec().min_length

    def test_mean_length(self):
        assert PairSetSpec(min_length=100, max_length=300).mean_length == 200


class TestDatasetPresets:
    def test_preset_metadata(self):
        assert ECOLI_LIKE.paper_alignments == 1_820_000
        assert CELEGANS_LIKE.paper_alignments == 235_000_000
        assert ECOLI_LIKE.coverage > 5
        assert ECOLI_LIKE.genome_scale_factor > 1

    def test_load_scaled_dataset(self):
        dataset = load_dataset("ecoli_like", scale=0.05)
        assert dataset.num_reads > 0
        assert dataset.total_bases() > 0
        assert len(dataset.genome) < ECOLI_LIKE.genome_length

    def test_default_generator_ignores_the_string_hash_seed(self):
        # Interpreters with different PYTHONHASHSEED values must load the
        # same reads when no generator is passed.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import hashlib; from repro.data import load_dataset; "
            "reads = load_dataset('ecoli_like', scale=0.05).reads; "
            "print(hashlib.sha256(b'|'.join(r.sequence.tobytes() for r in reads)).hexdigest())"
        )
        digests = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    def test_unknown_preset_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("human")

    def test_preset_scaling_validation(self):
        with pytest.raises(DatasetError):
            ECOLI_LIKE.scaled(0)
