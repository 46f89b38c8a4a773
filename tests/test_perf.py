"""Tests for timers, metrics and the process-pool helpers."""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from repro.perf import (
    SPLIT_MIN_CELLS,
    BenchTable,
    StageTimer,
    Timer,
    available_workers,
    balance_by_weight,
    gcups,
    parallel_map,
    speedup,
)
from repro.perf import parallel


class TestTimer:
    def test_measures_elapsed(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009

    def test_accumulates_and_resets(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            time.sleep(0.005)
        assert timer.elapsed > first
        timer.reset()
        assert timer.elapsed == 0.0


class TestStageTimer:
    def test_stage_accumulation_and_fractions(self):
        st = StageTimer()
        with st.stage("a"):
            time.sleep(0.005)
        with st.stage("b"):
            time.sleep(0.001)
        with st.stage("a"):
            pass
        assert st.total >= 0.006
        assert st.fraction("a") > st.fraction("b")
        assert st.fraction("missing") == 0.0
        report = st.report()
        assert "a" in report and "total" in report

    def test_empty_timer(self):
        st = StageTimer()
        assert st.total == 0.0
        assert st.fraction("x") == 0.0


class TestMetrics:
    def test_gcups(self):
        assert gcups(2_000_000_000, 2.0) == pytest.approx(1.0)

    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)

    def test_degenerate_timings_clamp_to_zero(self):
        # inf would poison downstream speedup arithmetic and is not valid
        # JSON; degenerate timings must clamp instead.
        assert gcups(1, 0.0) == 0.0
        assert gcups(1, -1.0) == 0.0
        assert speedup(10.0, 0.0) == 0.0

    def test_degenerate_row_flag_and_json_null(self):
        table = BenchTable(title="t", parameter_name="X", columns=[])
        good = table.add_row(1, a=2.0)
        bad = table.add_row(2, a=float("inf"), b=float("nan"))
        assert not good.degenerate
        assert bad.degenerate
        # A finite sentinel (gcups' 0.0) needs the explicit flag.
        flagged = table.add_row(3, degenerate=True, a=gcups(1, 0.0))
        assert flagged.degenerate and flagged.values["a"] == 0.0
        payload = json.loads(table.to_json())  # strict: would raise on inf
        assert payload["rows"][1]["a"] is None
        assert payload["rows"][1]["b"] is None
        assert payload["rows"][1]["degenerate"] is True
        assert "degenerate" not in payload["rows"][0]
        rebuilt = BenchTable.from_json(table.to_json())
        assert rebuilt.rows[1].degenerate
        assert math.isnan(rebuilt.column("a")[1])
        assert rebuilt.column("a")[0] == 2.0

    def test_bench_table_round_trip(self):
        table = BenchTable(title="Table II", parameter_name="X", columns=["seqan_s"])
        table.add_row(10, seqan_s=5.1, logan_1gpu_s=2.2)
        table.add_row(100, seqan_s=45.7, logan_1gpu_s=7.2)
        assert "logan_1gpu_s" in table.columns
        assert table.column("seqan_s") == [5.1, 45.7]
        text = table.formatted()
        assert "Table II" in text and "45.7" in text
        rebuilt = BenchTable.from_json(table.to_json())
        assert rebuilt.column("logan_1gpu_s") == [2.2, 7.2]
        assert rebuilt.title == table.title

    def test_missing_column_is_nan(self):
        table = BenchTable(title="t", parameter_name="X", columns=["a", "b"])
        table.add_row(1, a=1.0)
        assert math.isnan(table.column("b")[0])


def _square(x: int) -> int:
    return x * x


def _add(x: int, offset: int) -> int:
    return x + offset


class TestParallelMap:
    def test_in_process_path(self):
        assert parallel_map(_square, [1, 2, 3], [1, 1, 1], workers=1) == [1, 4, 9]

    def test_extra_args(self):
        result = parallel_map(_add, [1, 2, 3], [1, 1, 1], args=(10,), workers=1)
        assert result == [11, 12, 13]

    def test_process_pool_matches_serial(self):
        items = list(range(64))
        # Every item alone fills a chunk, so two workers split the items.
        weights = [SPLIT_MIN_CELLS] * len(items)
        serial = parallel_map(_square, items, weights, workers=1)
        split = parallel_map(_square, items, weights, workers=2)
        assert split == serial

    def test_light_inputs_stay_in_process(self, monkeypatch):
        # Below SPLIT_MIN_CELLS per chunk no pool is used, however many
        # items there are.
        def no_pool(*args):
            raise AssertionError("the pool was used")

        monkeypatch.setattr(parallel, "run_chunks", no_pool)
        items = list(range(64))
        weights = [SPLIT_MIN_CELLS // len(items)] * len(items)
        result = parallel_map(_square, items, weights, workers=8)
        assert result == [x * x for x in items]

    def test_empty_input(self):
        assert parallel_map(_square, [], [], workers=4) == []


class TestChunking:
    def test_balance_by_weight_is_longest_processing_time(self):
        parts = balance_by_weight([5, 1, 4, 2, 3], 2)
        # 5 -> part 0, 4 -> 1, 3 -> 1, 2 -> 0, 1 -> 0 (ties to the lower part).
        assert parts == [[0, 1, 3], [2, 4]]

    def test_more_parts_than_weights(self):
        parts = balance_by_weight([2, 1], 5)
        assert sorted(sum(parts, [])) == [0, 1]
        assert parts[2:] == [[], [], []]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            balance_by_weight([1], 0)

    def test_available_workers_caps_at_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert available_workers(8) == 2
        assert available_workers(2) == 2
        assert available_workers(1) == 1
        assert available_workers(-3) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_workers(4) == 1
