"""The three workloads: set-up, timed phase and correctness oracle.

Each ``run_*`` function generates its inputs from the seed, sets the program
up, measures one timed phase with tracing off (or, when traced, an untraced
and a traced pass of the same work), checks every answer outside the timed
phase and returns an :class:`Outcome`.  The program is driven only through
its public entry points: ``BellaPipeline.run``, ``AlignmentService.submit``
and ``ServiceClient.submit_detailed`` against a server in its own process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import inputs
from repro.api import AlignConfig
from repro.bella.binning import choose_seed
from repro.bella.pipeline import BellaPipeline
from repro.core.job import AlignmentJob
from repro.distrib.client import ServiceClient
from repro.distrib.wire import result_to_wire
from repro.engine.base import engine_from_config
from repro.errors import ReproError
from repro.obs.provenance import build_provenance
from repro.service import AlignmentService

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space inside the checkout (durable state, span files).
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Seconds of one bella_ecoli read set at the seed commit, used to size the
#: number of read sets from ``--seconds`` (the same seconds, the same sets).
BELLA_SET_SECONDS = 7.0
#: Batch widths of the traced run's kernel-cost ladder (pairs per call).
LADDER_WIDTHS = (1, 2, 4, 8, 16, 64, 192)
#: Generous per-answer deadline; a miss counts as a wrong answer.
ANSWER_TIMEOUT = 60.0


def align_config() -> AlignConfig:
    return AlignConfig(engine="batched", xdrop=inputs.XDROP)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Host diagnostics


def host_probe() -> float:
    """Seconds of a fixed small-array NumPy loop that does not use the program.

    Timed right before and after each timed phase: a slower probe means a
    slower host, not a slower change.
    """
    rng = np.random.default_rng(7)
    a = rng.integers(-50, 50, size=(8, 600)).astype(np.int32)
    b = rng.integers(-50, 50, size=(8, 600)).astype(np.int32)
    start = time.perf_counter()
    for _ in range(2500):
        c = np.maximum(a[:, 1:] - 1, b[:, :-1] - 1)
        keep = c > -40
        a[:, 1:] = np.where(keep, c, -40)
        b = np.roll(a, 1, axis=1)
        int(np.count_nonzero(keep))
    return time.perf_counter() - start


def steal_seconds() -> float:
    """Cumulative steal time of all CPUs (0 where /proc/stat has none)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


class Phase:
    """Timed phase bracketed by host probes and a steal-time reading."""

    def __enter__(self) -> "Phase":
        self.probe_before = host_probe()
        self._steal = steal_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self.start
        self.steal_s = steal_seconds() - self._steal
        self.probe_after = host_probe()

    @property
    def probe_s(self) -> float:
        return (self.probe_before + self.probe_after) / 2


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def setup_probe(workload: str, seed: int) -> float:
    """One cold set-up in a fresh interpreter (see ``run.py --setup-probe``)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", workload,
         "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe of {workload} failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def kernel_ladder(tracer, seed: int) -> list:
    """Kernel calls at widths 1..192 for the cost fit (traced runs only)."""
    pairs = inputs.ladder_pairs(seed, sum(LADDER_WIDTHS))
    engine = engine_from_config(align_config())
    before = len(tracer.samples["kernel_calls"])
    cursor = 0
    for width in LADDER_WIDTHS:
        engine.align_batch(pairs[cursor : cursor + width])
        cursor += width
    return tracer.samples["kernel_calls"][before:]


def traced_layers(name, tracer, exports, seed, untraced_s, traced_s, phase, extra):
    """Per-layer metrics of a traced run, with its diagnostics.

    ``exports`` are the span sets of the traced pass (the client's and, for
    serve_socket, the server's); they are written to the work directory.
    """
    from tracing import layer_metrics

    ladder = kernel_ladder(tracer, seed)
    tracer.uninstall()
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(WORK_DIR, f"spans-{name}-{seed}.json"), "w") as handle:
        json.dump({"exports": exports, "ladder_calls": ladder}, handle)
    layers = layer_metrics(exports, ladder)
    layers.update(
        {
            "bella.kmer_s": 0.0,
            "bella.overlap_s": 0.0,
            "bella.seed_s": 0.0,
            "bella.classify_s": 0.0,
            "bella.candidates": 0,
            "bella.accepted_frac": 0.0,
            "gen.lag_ms_p90": 0.0,
            "pool.redeliveries": 0,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
            "host.probe_s": phase.probe_s,
            "host.steal_s": phase.steal_s,
        }
    )
    layers.update(extra)
    return layers


# ---------------------------------------------------------------------------
# bella_ecoli: the offline overlapper on a seeded ECOLI_LIKE read set


def bella_setup(reads):
    """Build the pipeline and warm it up on two overlapping read prefixes."""
    first = reads[0].sequence
    warm = [first[:800], first[200:1000]]
    start = time.perf_counter()
    pipeline = BellaPipeline.from_config(align_config())
    pipeline.run(warm)
    return pipeline, time.perf_counter() - start


def _overlap_rows(result) -> list[tuple]:
    """Every classified overlap with its alignment coordinates."""
    return [
        (o.read_i, o.read_j, o.score, o.accepted, o.alignment.query_begin,
         o.alignment.query_end, o.alignment.target_begin, o.alignment.target_end)
        for o in result.overlaps
    ]


def bella_oracle(pipeline, reads, result, sample: int) -> int:
    """Mismatches of ``sample`` evenly spaced alignments against the scalar reference."""
    overlaps = result.overlaps
    if not overlaps or sample < 1:
        return 0
    picks = sorted({int(i) for i in np.linspace(0, len(overlaps) - 1, sample)})
    candidates = {(c.read_i, c.read_j): c for c in result.candidates.candidates}
    seqs = [r.sequence for r in reads]
    jobs = []
    for i in picks:
        o = overlaps[i]
        choice = choose_seed(
            candidates[(o.read_i, o.read_j)],
            kmer_length=pipeline.k,
            len_i=len(seqs[o.read_i]),
            len_j=len(seqs[o.read_j]),
            bin_width=pipeline.bin_width,
        )
        jobs.append(AlignmentJob(query=seqs[o.read_i], target=seqs[o.read_j], seed=choice.seed))
    reference = engine_from_config(AlignConfig(engine="reference", xdrop=inputs.XDROP))
    expected = reference.align_batch(jobs).results
    return sum(result_to_wire(e) != result_to_wire(overlaps[i].alignment) for i, e in zip(picks, expected))


def run_bella(seed: int, seconds: float, trace: bool) -> Outcome:
    n_sets = 1 if trace else max(1, int(round(seconds / BELLA_SET_SECONDS)))
    read_sets = [inputs.bella_reads(seed, k) for k in range(n_sets)]
    setups = [] if trace else [setup_probe("bella_ecoli", seed) for _ in range(SETUP_SAMPLES)]
    pipeline, _ = bella_setup(read_sets[0])
    times, results = [], []
    with Phase() as phase:
        for reads in read_sets:
            start = time.perf_counter()
            results.append(pipeline.run(reads))
            times.append(time.perf_counter() - start)
    peak = self_peak_rss_mb()
    layers = {}
    failed = 0
    if trace:
        from tracing import Tracer

        tracer = Tracer().install()
        with Phase() as traced_phase:
            start = time.perf_counter()
            traced = pipeline.run(read_sets[0])
            traced_s = time.perf_counter() - start
        stages = traced.timer.stages
        layers = traced_layers(
            "bella_ecoli", tracer, [tracer.export()], seed, times[0], traced_s,
            traced_phase,
            {
                "bella.kmer_s": stages.get("kmer_analysis", 0.0),
                "bella.overlap_s": stages.get("overlap_detection", 0.0),
                "bella.seed_s": stages.get("seed_selection", 0.0),
                "bella.classify_s": stages.get("classification", 0.0),
                "bella.candidates": traced.num_alignments,
                "bella.accepted_frac": len(traced.accepted) / max(1, traced.num_alignments),
            },
        )
        # Tracing must not change a single answer.
        first = _overlap_rows(results[0])
        failed += sum(a != b for a, b in zip(first, _overlap_rows(traced)))
        failed += abs(len(first) - traced.num_alignments)
    shares = np.diff(np.linspace(0, inputs.BELLA_ORACLE_SAMPLE, n_sets + 1).round()).astype(int)
    failed += sum(
        bella_oracle(pipeline, reads, result, int(share))
        for reads, result, share in zip(read_sets, results, shares)
    )
    candidates = sum(r.num_alignments for r in results)
    cells = sum(r.work.cells for r in results)
    total_s = sum(times)
    accepted = [sorted(r.accepted_pairs()) for r in results]
    return Outcome(
        metrics={
            "setup_s": statistics.median(setups) if setups else 0.0,
            "pairs_per_s": candidates / total_s,
            "gcups": cells / total_s / 1e9,
            "latency_p50_ms": percentile_ms(times, 50),
            "latency_p90_ms": percentile_ms(times, 90),
            "ok_frac": 1.0 - failed / candidates,
            "peak_rss_mb": peak,
        },
        attempted=candidates + (layers.get("bella.candidates", 0) if trace else 0),
        failed=failed,
        notes={
            "wall_s": total_s,
            "latency_samples": len(times),
            "read_sets": [len(reads) for reads in read_sets],
            "candidates": [r.num_alignments for r in results],
            "cells": [r.work.cells for r in results],
            "seconds_per_set": times,
            "accepted_digest": hashlib.sha1(repr(accepted).encode()).hexdigest()[:16],
            "accepted_pairs": sum(len(a) for a in accepted),
            "host.probe_s": [phase.probe_before, phase.probe_after],
            "host.steal_s": phase.steal_s,
            "provenance": build_provenance(
                config=align_config(), seed=seed,
                workload="bella_ecoli", scale=inputs.BELLA_SCALE,
                workload_signature=inputs.signature(
                    [read for reads in read_sets for read in reads]
                ),
            ),
        },
        layers=layers,
    )


# ---------------------------------------------------------------------------
# serve_socket: closed-loop client against a server in its own process


class SocketServer:
    """The workload's server process plus one connected client.

    Started in its own session so teardown can reach the worker process it
    spawns even when the server itself misbehaves.
    """

    def __init__(self, state_path: str, warm: list, trace_out: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "server.py"), "--state", state_path]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.client = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("alignment server did not start")
            port = json.loads(line)["port"]
            self.client = ServiceClient(port=port, timeout=ANSWER_TIMEOUT)
            self.client.submit(warm)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def close(self) -> dict:
        """Graceful shutdown (drain, join workers); kill the session if stuck.

        Returns the server's exit summary (empty when it did not exit cleanly).
        """
        graceful = self.client is not None
        if graceful:
            try:
                self.client.shutdown_server()
            except (ReproError, OSError):
                graceful = False
            self.client.close()
        if not graceful:
            self._signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            out = ""
        self._signal(signal.SIGKILL)  # whatever of the session is left
        self.proc.wait()
        lines = (out or "").strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def _signal(self, signum) -> None:
        try:
            os.killpg(self.proc.pid, signum)
        except ProcessLookupError:
            pass


def _closed_loop(client, requests):
    """Send every request after the previous answer.

    Returns the per-request latencies and, per pair, ``(pair, result or
    None, cached)``; after a failed request the connection is unusable and
    every later pair counts as unanswered.
    """
    latencies, answers = [], []
    broken = False
    for request in requests:
        if not broken:
            start = time.perf_counter()
            try:
                results, cached = client.submit_detailed(request)
            except (ReproError, OSError):
                broken = True
            else:
                latencies.append(time.perf_counter() - start)
                answers += list(zip(request, results, cached))
                continue
        answers += [(pair, None, False) for pair in request]
    return latencies, answers


def check_answers(answers) -> int:
    """Wrong or missing answers against one direct batched align_batch.

    ``answers`` holds ``(pair, result or None, ...)``; every distinct pair
    is aligned once, outside the timed phase.
    """
    unique = list({id(a[0]): a[0] for a in answers}.values())
    expected = engine_from_config(align_config()).align_batch(unique).results
    truth = {id(p): result_to_wire(r) for p, r in zip(unique, expected)}
    return sum(1 for a in answers if a[1] is None or result_to_wire(a[1]) != truth[id(a[0])])


def run_socket(seed: int, seconds: float, trace: bool) -> Outcome:
    requests = inputs.socket_requests(seed, seconds)
    signature = inputs.signature([p for request in requests for p in request])
    warm = inputs.warmup_pairs(seed, inputs.SOCKET_PAIRS_PER_REQUEST)
    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        setups = []
        starts = 1 if trace else SETUP_SAMPLES
        for k in range(starts):
            server = SocketServer(os.path.join(run_dir, f"state-{k}.sqlite"), warm)
            setups.append(server.setup_s)
            if k < starts - 1:
                server.close()
        try:
            with Phase() as phase:
                latencies, answers = _closed_loop(server.client, requests)
        finally:
            summary = server.close()
        layers = {}
        if trace:
            from tracing import Tracer

            spans_path = os.path.join(run_dir, "server-spans.json")
            tracer = Tracer().install()
            traced_server = SocketServer(
                os.path.join(run_dir, "state-traced.sqlite"), warm, trace_out=spans_path
            )
            try:
                with Phase() as traced_phase:
                    _, traced_answers = _closed_loop(traced_server.client, requests)
            finally:
                traced_summary = traced_server.close()
            with open(spans_path) as handle:
                server_export = json.load(handle)
            layers = traced_layers(
                "serve_socket", tracer, [tracer.export(), server_export], seed,
                phase.seconds, traced_phase.seconds, traced_phase,
                {
                    "pool.redeliveries": traced_summary.get("redeliveries", 0),
                    "pool.crashes": traced_summary.get("crashes", 0),
                },
            )
            checked = answers + traced_answers
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = check_answers(checked if trace else answers)
    answered = [a for a in answers if a[1] is not None]
    fresh_cells = sum(
        r.left.cells_computed + r.right.cells_computed for _, r, hit in answered if not hit
    )
    ok = bool(latencies)
    return Outcome(
        metrics={
            "setup_s": statistics.median(setups),
            "pairs_per_s": len(answered) / phase.seconds,
            "gcups": fresh_cells / phase.seconds / 1e9,
            "latency_p50_ms": percentile_ms(latencies, 50) if ok else 0.0,
            "latency_p90_ms": percentile_ms(latencies, 90) if ok else 0.0,
            "ok_frac": 1.0 - failed / len(answers),
            "peak_rss_mb": summary.get("peak_rss_mb", 0.0),
        },
        attempted=len(checked if trace else answers),
        failed=failed,
        notes={
            "wall_s": phase.seconds,
            "latency_samples": len(latencies),
            "requests": len(requests),
            "pairs": len(answers),
            "cached_answers": sum(1 for a in answered if a[2]),
            "host.probe_s": [phase.probe_before, phase.probe_after],
            "host.steal_s": phase.steal_s,
            "provenance": build_provenance(
                config=_socket_config_dict(), seed=seed, workload="serve_socket",
                workload_signature=signature,
            ),
        },
        layers=layers,
    )


def _socket_config_dict() -> dict:
    from server import socket_config

    return socket_config("<fresh state file>").to_dict()


# ---------------------------------------------------------------------------
# serve_open: live background service fed on a seeded Poisson schedule


def open_setup(warm):
    """Start the default background service and answer one warm-up pair."""
    start = time.perf_counter()
    service = AlignmentService(config=align_config()).start()
    service.submit(warm[0]).result(timeout=ANSWER_TIMEOUT)
    return service, time.perf_counter() - start


def _open_loop(service, schedule, lags):
    """Submit each pair at its due time; latency from due time to resolve."""

    def wait(ticket):
        try:
            result = ticket.result(timeout=ANSWER_TIMEOUT)
        except ReproError:
            result = None
        return time.perf_counter(), result

    futures = []
    with ThreadPoolExecutor(max_workers=16) as waiters:
        start = time.perf_counter()
        for due, pair in zip(schedule.due, schedule.pairs):
            delay = start + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - start - due)
            futures.append(waiters.submit(wait, service.submit(pair)))
        done = [f.result() for f in futures]
    latencies = [t - start - due for (t, _), due in zip(done, schedule.due)]
    return latencies, [r for _, r in done], max(t for t, _ in done) - start


def run_open(seed: int, seconds: float, trace: bool) -> Outcome:
    schedule = inputs.open_schedule(seed, seconds)
    warm = inputs.warmup_pairs(seed, 1)
    setups = [] if trace else [setup_probe("serve_open", seed) for _ in range(SETUP_SAMPLES)]
    service, _ = open_setup(warm)
    lags: list = []
    try:
        with Phase() as phase:
            latencies, answers, span_s = _open_loop(service, schedule, lags)
    finally:
        service.shutdown()
    peak = self_peak_rss_mb()
    pairs = list(schedule.pairs)
    layers = {}
    if trace:
        from tracing import Tracer

        tracer = Tracer().install()
        service, _ = open_setup(warm)
        traced_lags: list = []
        try:
            with Phase() as traced_phase:
                traced_latencies, traced_answers, _ = _open_loop(
                    service, schedule, traced_lags
                )
        finally:
            service.shutdown()
        layers = traced_layers(
            "serve_open", tracer, [tracer.export()], seed,
            statistics.fmean(latencies), statistics.fmean(traced_latencies),
            traced_phase, {"gen.lag_ms_p90": percentile_ms(traced_lags, 90)},
        )
        pairs = pairs + pairs
        answers = answers + traced_answers
    failed = check_answers(list(zip(pairs, answers)))
    answered = [r for r in answers[: len(latencies)] if r is not None]
    cells = sum(r.left.cells_computed + r.right.cells_computed for r in answered)
    return Outcome(
        metrics={
            "setup_s": statistics.median(setups) if setups else 0.0,
            "pairs_per_s": len(answered) / span_s,
            "gcups": cells / span_s / 1e9,
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p90_ms": percentile_ms(latencies, 90),
            "ok_frac": 1.0 - failed / len(pairs),
            "peak_rss_mb": peak,
        },
        attempted=len(pairs),
        failed=failed,
        notes={
            "wall_s": span_s,
            "latency_samples": len(latencies),
            "offered_rate": inputs.OPEN_RATE,
            "gen.lag_ms_p90": percentile_ms(lags, 90),
            "host.probe_s": [phase.probe_before, phase.probe_after],
            "host.steal_s": phase.steal_s,
            "provenance": build_provenance(
                config=align_config(), seed=seed, workload="serve_open",
                workload_signature=inputs.signature(schedule.pairs),
            ),
        },
        layers=layers,
    )


RUNNERS = {"bella_ecoli": run_bella, "serve_socket": run_socket, "serve_open": run_open}


def setup_only(workload: str, seed: int) -> float:
    """Set-up seconds of one cold start, minus input generation (probe child)."""
    if workload == "bella_ecoli":
        _, seconds = bella_setup(inputs.bella_reads(seed))
        return seconds
    service, seconds = open_setup(inputs.warmup_pairs(seed, 1))
    service.shutdown()
    return seconds
