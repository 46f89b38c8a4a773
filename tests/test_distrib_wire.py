"""Wire codec and shared-memory packing of the distributed tier.

Everything here is single-process: frames over a socketpair, job/result
JSON round trips, canonical cache-key JSON, and the shared-memory job
block + packed result table that carry batches across the process
boundary.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np
import pytest

from repro.api import AlignConfig
from repro.core.result import ExtensionResult, SeedAlignmentResult
from repro.distrib.shm import (
    RESULT_COLUMNS,
    SharedJobBlock,
    attach_jobs,
    pack_results,
    unpack_results,
)
from repro.distrib.wire import (
    cache_key_to_json,
    job_from_wire,
    job_to_wire,
    recv_frame,
    result_from_wire,
    result_to_wire,
    send_frame,
)
from repro.engine import get_engine
from repro.errors import ServiceError
from repro.service.cache import job_cache_key, result_digest


def _sample_result(band_widths: bool = False) -> SeedAlignmentResult:
    trace = np.array([3, 5, 7], dtype=np.int64) if band_widths else None
    left = ExtensionResult(11, 40, 42, 9, 310, terminated_early=True,
                           band_widths=trace)
    right = ExtensionResult(25, 88, 90, 17, 701, terminated_early=False,
                            band_widths=trace)
    return SeedAlignmentResult(
        score=53,
        left=left,
        right=right,
        seed_score=17,
        query_begin=4,
        query_end=132,
        target_begin=6,
        target_end=136,
    )


class TestJsonCodec:
    def test_job_round_trip(self, small_jobs):
        for job in small_jobs:
            back = job_from_wire(job_to_wire(job))
            assert np.array_equal(back.query, job.query)
            assert np.array_equal(back.target, job.target)
            assert back.seed == job.seed
            assert back.pair_id == job.pair_id

    def test_result_round_trip(self):
        result = _sample_result()
        back = result_from_wire(result_to_wire(result))
        assert back == result

    def test_result_round_trip_preserves_band_widths(self):
        result = _sample_result(band_widths=True)
        back = result_from_wire(result_to_wire(result))
        assert back.score == result.score
        assert np.array_equal(back.left.band_widths, result.left.band_widths)
        assert np.array_equal(back.right.band_widths, result.right.band_widths)

    def test_cache_key_json_is_canonical(self, small_jobs, scoring):
        digest = result_digest(AlignConfig(scoring=scoring, xdrop=37))
        key = job_cache_key(small_jobs[0], digest)
        text = cache_key_to_json(key)
        # Equal keys serialise to byte-identical JSON, with no whitespace.
        assert cache_key_to_json(job_cache_key(small_jobs[0], digest)) == text
        assert " " not in text
        assert json.loads(text) == [*key]
        other = result_digest(AlignConfig(engine="ksw2", scoring=scoring, xdrop=37))
        assert cache_key_to_json(job_cache_key(small_jobs[0], other)) != text


class TestFrames:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "jobs": [1, 2, 3], "text": "αβγ"}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_close_raises(self):
        a, b = socket.socketpair()
        try:
            # A length prefix promising bytes that never arrive.
            a.sendall(b"\x00\x00\x00\x10partial")
            a.close()
            with pytest.raises(ServiceError):
                recv_frame(b)
        finally:
            b.close()

    @pytest.mark.parametrize(
        "body",
        [b"\xff\xfe{not json", "{not json \u03b1}".encode("utf-8")],
        ids=["not-utf8", "utf8-not-json"],
    )
    def test_garbled_frame_raises_service_error(self, body):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ServiceError, match="malformed frame") as excinfo:
                recv_frame(b)
            assert isinstance(excinfo.value.__cause__, ValueError)
        finally:
            a.close()
            b.close()


class TestSharedMemory:
    def test_job_block_round_trip_is_zero_copy(self, small_jobs):
        block = SharedJobBlock.create(small_jobs)
        try:
            shm, back = attach_jobs(block.name)
            try:
                assert len(back) == len(small_jobs)
                for orig, copy in zip(small_jobs, back):
                    assert np.array_equal(copy.query, orig.query)
                    assert np.array_equal(copy.target, orig.target)
                    assert copy.seed == orig.seed
                    assert copy.pair_id == orig.pair_id
                    # The rebuilt jobs alias the mapped segment.
                    assert np.shares_memory(
                        copy.query, np.frombuffer(shm.buf, dtype=np.uint8)
                    )
            finally:
                del back
                shm.close()
        finally:
            block.close()
            block.unlink()

    def test_packed_results_round_trip_real_alignments(self, small_jobs, scoring):
        engine = get_engine("batched", scoring=scoring, xdrop=30)
        results = engine.align_batch(small_jobs).results
        table = pack_results(results)
        assert table.shape == (len(results), RESULT_COLUMNS)
        assert unpack_results(table) == results

    def test_unpack_accepts_plain_lists(self):
        result = _sample_result()
        table = pack_results([result]).tolist()
        assert unpack_results(table) == [result]
