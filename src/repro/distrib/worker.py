"""Worker-process entry point of the process transport.

The worker is a spawned interpreter that rebuilds its engine from the
coordinator's :class:`~repro.api.AlignConfig` dict with ``workers=1`` (it
runs each batch whole), then loops: take a task off its queue, attach the
named shared-memory job block, align, and reply with a packed result
table.  A task carries only its sequence number, the block name and the
job count; scoring and X are the config's, fixed when the engine was
built.  Three side channels ride on every reply:

* the five-field work summary plus kernel telemetry (``BatchKernelStats``
  is a plain picklable dataclass),
* counter *deltas* between consecutive registry snapshots, so the
  coordinator can fold per-process metrics into its own registry without
  double counting,
* on failure, the exception traceback and a flight-recorder dump — workers
  always run with the flight recorder on, so a crash ships its last spans
  and events back for diagnosis.

Fault injection for crash-recovery tests is explicit: a spec may carry
``{"fault": {"after": N}}``, which hard-exits the process (``os._exit``)
when the N-th task arrives — indistinguishable from a real segfault as far
as the coordinator can tell.
"""

from __future__ import annotations

import os
import traceback
from typing import Any

from .. import obs as obs_mod
from ..api import AlignConfig
from ..engine import engine_from_config
from .shm import attach_jobs, pack_results

__all__ = ["worker_main"]

# Exit code used by injected faults; tests assert on it.
FAULT_EXIT_CODE = 3


def worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    spec: dict[str, Any],
) -> None:
    """Run one worker until a ``None`` sentinel arrives."""
    ob = obs_mod.configure(flight_recorder=True)
    fault = spec.get("fault") or None
    tasks_seen = 0
    try:
        # The worker runs each batch whole: a daemonic process cannot
        # start the process pool that a split call would use.
        config = AlignConfig.from_dict(spec["config"]).replace(workers=1)
        engine = engine_from_config(config)
    except BaseException as exc:  # startup failure: report, then stop
        result_queue.put(_error_reply(worker_id, None, exc, ob))
        return

    last_snapshot = ob.registry.snapshot()
    while True:
        task = task_queue.get()
        if task is None:
            return
        tasks_seen += 1
        if fault is not None and tasks_seen >= int(fault.get("after", 1)):
            os._exit(FAULT_EXIT_CODE)
        seq = task["seq"]
        shm = None
        try:
            shm, jobs = attach_jobs(task["shm"])
            batch = engine.align_batch(jobs)
            snapshot = ob.registry.snapshot()
            summary = batch.summary
            reply = {
                "ok": True,
                "worker": worker_id,
                "seq": seq,
                "results": pack_results(batch.results),
                "summary": (
                    summary.alignments,
                    summary.extensions,
                    summary.cells,
                    summary.iterations,
                    summary.max_band_width,
                ),
                "elapsed": batch.elapsed_seconds,
                "kernel_stats": batch.extras.get("kernel_stats"),
                "counters": _counter_deltas(last_snapshot, snapshot),
            }
            last_snapshot = snapshot
            result_queue.put(reply)
        except BaseException as exc:
            result_queue.put(_error_reply(worker_id, seq, exc, ob))
        finally:
            if shm is not None:
                # Jobs alias the mapped buffer; they are dead past this
                # point, which is fine — the reply already copied results.
                del jobs
                shm.close()


def _counter_deltas(prev, cur) -> list[dict[str, Any]]:
    """Counter increments between two snapshots (counters only).

    Histogram sums and gauges are not safely mergeable as increments, so
    the coordinator only receives counter deltas; each entry carries the
    labels dict (declaration order preserved) so the coordinator can
    redeclare the instrument identically.
    """
    previous: dict[tuple, float] = {}
    for sample in prev.series:
        if sample.kind == "counter":
            key = (sample.name, tuple(sorted(sample.labels.items())))
            previous[key] = sample.value
    deltas: list[dict[str, Any]] = []
    for sample in cur.series:
        if sample.kind != "counter":
            continue
        key = (sample.name, tuple(sorted(sample.labels.items())))
        delta = sample.value - previous.get(key, 0.0)
        if delta > 0.0:
            deltas.append(
                {
                    "name": sample.name,
                    "help": sample.help,
                    "labels": dict(sample.labels),
                    "delta": delta,
                }
            )
    return deltas


def _error_reply(worker_id, seq, exc, ob) -> dict[str, Any]:
    dump = None
    try:
        recorder = ob.recorder
        if recorder is not None:
            dump = recorder.dump(
                reason="worker_exception",
                provenance={"worker": str(worker_id)},
            )
    except Exception:
        dump = None
    return {
        "ok": False,
        "worker": worker_id,
        "seq": seq,
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
        "flight_recorder": dump,
    }
