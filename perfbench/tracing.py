"""Spans recorded from outside the program, and the per-layer metrics.

A :class:`Tracer` patches wrappers around the layers' public functions (and
the module-level names their callers resolve at call time), records one span
per call — name, start, end, parent span and request id — in memory, and
writes the spans out when the run ends.  A layer's self time is its span
minus the part its child spans cover.  Nothing under ``src/`` changes: the
wrappers are installed only in the traced run and removed afterwards.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import repro.distrib.client as client_mod
import repro.distrib.pool as pool_mod
import repro.distrib.server as server_mod
import repro.engine.engines as engines_mod
import repro.logan.kernel as kernel_mod
from repro.core.xdrop_batch import BatchKernelStats
from repro.distrib.client import ServiceClient
from repro.distrib.pool import ProcessWorkerPool
from repro.distrib.shm import SharedJobBlock
from repro.distrib.store import DurableStore
from repro.engine.engines import BatchedEngine
from repro.service.batcher import AdaptiveBatcher
from repro.service.cache import ResultCache
from repro.service.queue import AlignmentTicket
from repro.service.service import AlignmentService
from repro.service.workers import ShardedWorkerPool

_STAT_FIELDS = ("rows", "steps", "row_steps", "active_row_steps", "cells")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, t0, t1, parent, req, info]
        self.samples: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._reqs = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._added: dict[int, float] = {}

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_request(self) -> int:
        """Start a new request id on this thread; later spans carry it."""
        self._local.req = next(self._reqs)
        return self._local.req

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns (result, span)."""
        stack = self._stack()
        span = [
            next(self._ids),
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            getattr(self._local, "req", None),
            {},
        ]
        self.spans.append(span)
        stack.append(span[0])
        try:
            return fn(*args, **kwargs), span
        finally:
            span[3] = time.perf_counter()
            stack.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a class or a module) with ``make(original)``."""
        original = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, original, attr in vars(owner)))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(span, result, args)`` may annotate."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                result, span = tracer.call(name, fn, *args, **kwargs)
                if after is not None:
                    after(span, result, args)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> "Tracer":
        """Wrap every traced layer; :meth:`uninstall` undoes it."""
        tracer = self
        # kernel: per-call work from the stats accumulator the engine passes.
        def kernel_make(fn):
            def wrapper(pairs, *args, stats=None, **kwargs):
                stats = stats if stats is not None else BatchKernelStats()
                before = [getattr(stats, f) for f in _STAT_FIELDS]
                result, span = tracer.call(
                    "kernel", fn, pairs, *args, stats=stats, **kwargs
                )
                work = {
                    f: getattr(stats, f) - b for f, b in zip(_STAT_FIELDS, before)
                }
                span[6].update(work)
                tracer.samples["kernel_calls"].append(
                    [span[3] - span[2]] + [work[f] for f in _STAT_FIELDS]
                )
                return result

            return wrapper

        self._patch(kernel_mod, "xdrop_extend_batch", kernel_make)
        self._span(engines_mod, "prepare_batch", "engine.prepare")
        self._span(BatchedEngine, "align_batch", "engine.align_batch")
        # service, queue and batcher
        self._span(AlignmentService, "submit", "service.submit")
        self._span(AlignmentService, "drain", "service.drain")
        self._span(AdaptiveBatcher, "add", "batcher.add", self._after_add)
        self._span(AdaptiveBatcher, "due", "batcher.due", self._after_flush("wait"))
        self._span(
            AdaptiveBatcher, "flush_all", "batcher.flush_all", self._after_flush("drain")
        )
        self._span(AlignmentTicket, "resolve", "ticket.resolve", self._after_resolve)
        self._span(ShardedWorkerPool, "run_batch", "pool.thread_run", self._after_run)
        self._patch(ProcessWorkerPool, "run_batch", self._process_make)
        # cache, shared memory, durable store
        self._span(ResultCache, "get", "cache.get", self._after_get)
        self._span(ResultCache, "put", "cache.put")
        self._span(SharedJobBlock, "create", "shm.pack")
        self._span(pool_mod, "unpack_results", "shm.unpack")
        for method in ("enqueue", "mark_inflight", "release", "complete", "recover"):
            self._span(DurableStore, method, f"store.{method}")
        self._span(DurableStore, "lookup_result", "store.lookup", self._after_get)
        # wire: frames and codecs on both ends of the socket
        for module, role in ((server_mod, "server"), (client_mod, "client")):
            self._patch(module, "recv_frame", self._recv_make(role))
            self._patch(module, "send_frame", self._send_make(role))
        for module, names in (
            (server_mod, ("job_from_wire", "result_to_wire")),
            (client_mod, ("job_to_wire", "result_from_wire")),
        ):
            for fn_name in names:
                kind = "encode" if fn_name.endswith("to_wire") else "decode"
                self._span(module, fn_name, f"wire.{kind}")
        self._patch(ServiceClient, "submit_detailed", self._request_make)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- wrapper factories and annotations ------------------------------------

    def _process_make(self, fn):
        """Process pool: worker-reported elapsed and kernel stats per batch."""
        tracer = self

        def wrapper(pool, jobs, *args, **kwargs):
            busy = sum(w.seconds for w in pool.worker_stats)
            crashes = pool.crashes
            result, span = tracer.call("pool.process_run", fn, pool, jobs, *args, **kwargs)
            worker_s = sum(w.seconds for w in pool.worker_stats) - busy
            span[6].update(worker_s=worker_s, crashes=pool.crashes - crashes)
            stats = result.extras.get("kernel_stats")
            if stats is not None:
                tracer.samples["kernel_calls"].append(
                    [worker_s] + [getattr(stats, f) for f in _STAT_FIELDS]
                )
                tracer.samples["remote_engine_calls"].append(worker_s)
            tracer._local.run_end = span[3]
            return result

        return wrapper

    def _request_make(self, fn):
        tracer = self

        def wrapper(client, jobs, *args, **kwargs):
            tracer.new_request()
            result, _span = tracer.call("client.request", fn, client, jobs, *args, **kwargs)
            return result

        return wrapper

    def _recv_make(self, role: str):
        tracer = self

        def make(fn):
            def wrapper(sock):
                frame, span = tracer.call("wire.recv", fn, _TimedSocket(sock, tracer))
                if role == "server":
                    tracer.new_request()
                    tracer._local.recv_end = span[3]
                return frame

            return wrapper

        return make

    def _send_make(self, role: str):
        tracer = self

        def make(fn):
            def wrapper(sock, payload):
                result, span = tracer.call("wire.send", fn, sock, payload)
                start = getattr(tracer._local, "recv_end", None)
                if role == "server" and start is not None:
                    tracer.sample("server.request", span[3] - start)
                    tracer._local.recv_end = None
                return result

            return wrapper

        return make

    def _after_add(self, span, formed, args) -> None:
        ticket = args[1]
        if ticket.enqueued_at is not None:
            self.sample("queue_wait", time.monotonic() - ticket.enqueued_at)
        self._added[id(ticket)] = span[2]
        if formed is not None:
            self._formed([formed], "size", span[3])

    def _after_flush(self, reason: str):
        def after(span, formed, args) -> None:
            self._formed(formed, reason, span[3])

        return after

    def _formed(self, batches, reason: str, now: float) -> None:
        for batch in batches:
            self.samples["batches"].append([batch.size, reason])
            for ticket in batch.tickets:
                added = self._added.pop(id(ticket), None)
                if added is not None:
                    self.sample("dwell", now - added)

    def _after_run(self, span, result, args) -> None:
        self._local.run_end = span[3]

    def _after_resolve(self, span, result, args) -> None:
        ticket = args[0]
        run_end = getattr(self._local, "run_end", None)
        if not ticket.cache_hit and run_end is not None:
            self.sample("scatter", span[3] - run_end)

    def _after_get(self, span, result, args) -> None:
        span[6]["hit"] = result is not None

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        """A copy of everything recorded so far (later calls do not leak in)."""
        return {
            "spans": [list(span) for span in self.spans],
            "samples": {key: list(values) for key, values in self.samples.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.export(), handle)


class _TimedSocket:
    """Socket proxy whose blocking ``recv`` calls become ``wire.wait`` spans."""

    def __init__(self, sock, tracer: Tracer) -> None:
        self._sock = sock
        self._tracer = tracer

    def recv(self, count: int) -> bytes:
        data, _span = self._tracer.call("wire.wait", self._sock.recv, count)
        return data


# ---------------------------------------------------------------------------
# Per-layer metrics


def _durations(spans, name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[1] == name and s[3] is not None]


def _self_seconds(spans, name: str) -> float:
    """Total self time of spans named ``name`` (minus covered child time)."""
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] is not None and s[3] is not None:
            children[s[4]] += s[3] - s[2]
    return sum(
        (s[3] - s[2]) - children.get(s[0], 0.0)
        for s in spans
        if s[1] == name and s[3] is not None
    )


def _pct(values, q: float, scale: float = 1e3) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def fit_kernel_cost(calls) -> tuple[float, float]:
    """Fit ``t = c0*steps + c1*cells`` with relative residuals.

    Returns ``(c0 in us/step, c1 in ns/cell)``; ``(0, 0)`` without at
    least two calls.
    """
    rows = [c for c in calls if c[0] > 0 and c[2] > 0]
    if len(rows) < 2:
        return 0.0, 0.0
    t = np.array([c[0] for c in rows])
    design = np.array([[c[2], c[5]] for c in rows], dtype=float) / t[:, None]
    (c0, c1), *_ = np.linalg.lstsq(design, np.ones(len(rows)), rcond=None)
    return float(c0) * 1e6, float(c1) * 1e9


def layer_metrics(exports: list[dict], ladder_calls: list) -> dict[str, float]:
    """Every per-layer metric from the client- and server-side exports."""
    spans = [s for e in exports for s in e["spans"]]
    samples: dict[str, list] = defaultdict(list)
    for e in exports:
        for key, values in e["samples"].items():
            samples[key].extend(values)
    calls = samples["kernel_calls"]
    totals = {f: sum(c[i + 1] for c in calls) for i, f in enumerate(_STAT_FIELDS)}
    kernel_s = sum(c[0] for c in calls)
    local_kernel_s = sum(_durations(spans, "kernel"))
    c0, c1 = fit_kernel_cost(list(calls) + list(ladder_calls))
    batches = samples["batches"]
    gets = [s for s in spans if s[1] == "cache.get"]
    lookups = [s for s in spans if s[1] == "store.lookup"]
    process_runs = [s for s in spans if s[1] == "pool.process_run"]
    return {
        "kernel.calls": len(calls),
        "kernel.s": kernel_s,
        "kernel.steps": totals["steps"],
        "kernel.row_steps": totals["row_steps"],
        "kernel.cells": totals["cells"],
        "kernel.rows_per_call": totals["rows"] / len(calls) if calls else 0.0,
        "kernel.live_fraction": (
            totals["active_row_steps"] / totals["row_steps"]
            if totals["row_steps"]
            else 0.0
        ),
        "kernel.us_per_step": kernel_s / totals["steps"] * 1e6 if totals["steps"] else 0.0,
        "kernel.ns_per_cell": kernel_s / totals["cells"] * 1e9 if totals["cells"] else 0.0,
        "kernel.c0_us_per_step": c0,
        "kernel.c1_ns_per_cell": c1,
        "engine.calls": len(_durations(spans, "engine.align_batch"))
        + len(samples["remote_engine_calls"]),
        "engine.self_s": sum(_durations(spans, "engine.align_batch")) - local_kernel_s,
        "service.submit_ms_p90": _pct(_durations(spans, "service.submit"), 90),
        "service.queue_wait_ms_p50": _pct(samples["queue_wait"], 50),
        "service.batcher_dwell_ms_p50": _pct(samples["dwell"], 50),
        "service.scatter_ms_p50": _pct(samples["scatter"], 50),
        "service.batches": len(batches),
        "service.pairs_per_batch": (
            statistics.fmean(b[0] for b in batches) if batches else 0.0
        ),
        "service.flush_wait_frac": (
            sum(1 for b in batches if b[1] == "wait") / len(batches) if batches else 0.0
        ),
        "cache.hit_frac": (
            sum(1 for s in gets if s[6].get("hit")) / len(gets) if gets else 0.0
        ),
        "cache.get_s": sum(_durations(spans, "cache.get")),
        "cache.put_s": sum(_durations(spans, "cache.put")),
        # Span ids are per process: self time is computed export by export.
        "wire.encode_s": sum(_self_seconds(e["spans"], "wire.send") for e in exports)
        + sum(_durations(spans, "wire.encode")),
        "wire.decode_s": sum(_self_seconds(e["spans"], "wire.recv") for e in exports)
        + sum(_durations(spans, "wire.decode")),
        "server.request_ms_p50": _pct(samples["server.request"], 50),
        "shm.pack_s": sum(_durations(spans, "shm.pack")),
        "shm.unpack_s": sum(_durations(spans, "shm.unpack")),
        "pool.transfer_s": sum(
            (s[3] - s[2]) - s[6].get("worker_s", 0.0) for s in process_runs
        ),
        "pool.crashes": sum(s[6].get("crashes", 0) for s in process_runs),
        "store.enqueue_s": sum(_durations(spans, "store.enqueue")),
        "store.inflight_s": sum(_durations(spans, "store.mark_inflight")),
        "store.complete_s": sum(_durations(spans, "store.complete")),
        "store.lookup_s": sum(_durations(spans, "store.lookup")),
        "store.lookup_hit_frac": (
            sum(1 for s in lookups if s[6].get("hit")) / len(lookups)
            if lookups
            else 0.0
        ),
    }
