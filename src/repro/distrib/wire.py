"""Wire format for the distributed tier: framing + JSON codecs.

Every boundary in ``repro.distrib`` that cannot share memory — the network
socket and the durable SQLite store — speaks the same representation: plain
JSON objects for jobs, results and cache keys, and (on sockets) frames of
UTF-8 JSON prefixed by a 4-byte big-endian length.

The codecs are exact.  ``job_from_wire(job_to_wire(job))`` re-encodes the
identical uint8 sequence buffers, and ``result_from_wire(result_to_wire(r))``
reproduces every score, coordinate and work counter — including optional
per-sweep band widths when tracing is on — so the conformance harness can
compare networked results bit-for-bit against the in-process oracle.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from ..core.encoding import decode
from ..core.job import AlignmentJob
from ..core.result import ExtensionResult, SeedAlignmentResult
from ..core.seed_extend import Seed
from ..errors import ServiceError

__all__ = [
    "MAX_FRAME_BYTES",
    "cache_key_to_json",
    "job_from_wire",
    "job_to_wire",
    "recv_frame",
    "result_from_wire",
    "result_to_wire",
    "send_frame",
]

# Generous ceiling: a frame is one request/response, i.e. at most one batch
# of sequences plus JSON overhead.  Guards against garbage length prefixes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Framing


def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Serialise ``payload`` as JSON and send it length-prefixed."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte wire limit"
        )
    sock.sendall(_LENGTH.pack(len(data)) + data)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Receive one length-prefixed JSON frame; ``None`` on clean EOF."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(
            f"peer announced a {length}-byte frame, over the "
            f"{MAX_FRAME_BYTES}-byte wire limit"
        )
    data = _recv_exact(sock, length)
    if data is None:
        raise ServiceError("connection closed mid-frame")
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed frame on the wire: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError("wire frames must be JSON objects")
    return payload


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ServiceError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Jobs


def job_to_wire(job: AlignmentJob) -> dict[str, Any]:
    """One job as a JSON-able dict (sequences decoded back to ACGTN text)."""
    return {
        "query": decode(job.query),
        "target": decode(job.target),
        "seed": [job.seed.query_pos, job.seed.target_pos, job.seed.length],
        "pair_id": int(job.pair_id),
    }


def job_from_wire(payload: dict[str, Any]) -> AlignmentJob:
    try:
        q_pos, t_pos, length = payload["seed"]
        return AlignmentJob(
            query=payload["query"],
            target=payload["target"],
            seed=Seed(int(q_pos), int(t_pos), int(length)),
            pair_id=int(payload.get("pair_id", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed job on the wire: {exc}") from exc


# ---------------------------------------------------------------------------
# Results


def _extension_to_wire(ext: ExtensionResult) -> dict[str, Any]:
    out: dict[str, Any] = {
        "best_score": int(ext.best_score),
        "query_end": int(ext.query_end),
        "target_end": int(ext.target_end),
        "anti_diagonals": int(ext.anti_diagonals),
        "cells_computed": int(ext.cells_computed),
        "terminated_early": bool(ext.terminated_early),
    }
    if ext.band_widths is not None:
        out["band_widths"] = [int(w) for w in ext.band_widths]
    return out


def _extension_from_wire(payload: dict[str, Any]) -> ExtensionResult:
    widths = payload.get("band_widths")
    return ExtensionResult(
        best_score=int(payload["best_score"]),
        query_end=int(payload["query_end"]),
        target_end=int(payload["target_end"]),
        anti_diagonals=int(payload["anti_diagonals"]),
        cells_computed=int(payload["cells_computed"]),
        terminated_early=bool(payload["terminated_early"]),
        band_widths=None if widths is None else widths,
    )


def result_to_wire(result: SeedAlignmentResult) -> dict[str, Any]:
    """One alignment result as a JSON-able dict, exact to the last counter."""
    return {
        "score": int(result.score),
        "seed_score": int(result.seed_score),
        "query_begin": int(result.query_begin),
        "query_end": int(result.query_end),
        "target_begin": int(result.target_begin),
        "target_end": int(result.target_end),
        "left": _extension_to_wire(result.left),
        "right": _extension_to_wire(result.right),
    }


def result_from_wire(payload: dict[str, Any]) -> SeedAlignmentResult:
    try:
        return SeedAlignmentResult(
            score=int(payload["score"]),
            left=_extension_from_wire(payload["left"]),
            right=_extension_from_wire(payload["right"]),
            seed_score=int(payload["seed_score"]),
            query_begin=int(payload["query_begin"]),
            query_end=int(payload["query_end"]),
            target_begin=int(payload["target_begin"]),
            target_end=int(payload["target_end"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed result on the wire: {exc}") from exc


# ---------------------------------------------------------------------------
# Cache keys

# A cache key is the tuple produced by ``repro.service.job_cache_key``:
# (query_sha, target_sha, query_pos, target_pos, seed_len, config_digest),
# where ``config_digest`` is the ``repro.service.result_digest`` of the
# engine, engine options, scoring, X and trace mode.  The JSON string is
# canonical (no whitespace, fixed order) so it can serve as a SQLite primary
# key.  It is only ever written: a recovering service recomputes each key
# from the stored job.


def cache_key_to_json(key: tuple) -> str:
    """Canonical JSON string for a cache key (stable across processes)."""
    query_sha, target_sha, q_pos, t_pos, seed_len, digest = key
    return json.dumps(
        [
            str(query_sha),
            str(target_sha),
            int(q_pos),
            int(t_pos),
            int(seed_len),
            str(digest),
        ],
        separators=(",", ":"),
    )
