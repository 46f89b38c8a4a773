"""Benchmark subsystem: measured performance as a recorded, gated trajectory.

The repository's performance story is *cumulative* and *enforced*: one
front door, ``repro-bench perf`` (:func:`repro.cli.main_bench_perf`),
measures, checks, gates and records, and it is the only code that writes
the trajectory files.

* :mod:`repro.bench.schema` — typed results: :class:`BenchResult` (one
  engine row: wall clock, GCUPS, speed-up over the scalar reference,
  score-parity flag, kernel telemetry) and :class:`BenchEntry` (one
  trajectory point: the workload signature plus its rows and a timestamp).
* :mod:`repro.bench.runner` — deterministic measurement:
  :func:`run_engine_bench` times every requested engine on a fixed-seed
  pair set (comparing every engine's scores with the reference) and
  :func:`run_service_bench` times the serving layer against direct and
  per-job submission.
* :mod:`repro.bench.store` — :class:`BaselineStore`, an append-only
  trajectory persisted in ``BENCH_engines.json`` / ``BENCH_service.json``
  at the repository root.  Every recorded run *appends* an entry and
  leaves the stored ones as written, so the perf history of the codebase
  is diffable in version control.
* :mod:`repro.bench.compare` — :func:`check` lists what makes an entry
  unfit to record (a row that differs from its reference, unless its
  engine is inexact; for the service, no cache hit on resubmission or no
  multi-job batch), and :func:`compare` gates a fresh entry against the
  stored baseline with a configurable regression tolerance.  A run that
  fails either records nothing.

Typical flow (see the README "Performance" section)::

    from repro.bench import BaselineStore, check, compare, run_engine_bench

    entry = run_engine_bench(pairs=256, xdrop=50, seed=2020)
    store = BaselineStore("BENCH_engines.json")
    report = compare(entry, store.latest_matching(entry), tolerance=0.30)
    if report.ok and not check(entry):
        store.append(entry)          # extend the committed trajectory

Comparisons default to the ``speedup_vs_scalar`` metric because it is
normalised by the same-run scalar reference, which makes entries recorded
on different machines comparable; raw seconds/GCUPS are stored alongside
for same-machine trend reading.
"""

from .compare import ComparisonReport, MetricDelta, check, compare
from .runner import run_engine_bench, run_service_bench
from .schema import BenchEntry, BenchResult
from .store import BaselineStore

__all__ = [
    "BaselineStore",
    "BenchEntry",
    "BenchResult",
    "ComparisonReport",
    "MetricDelta",
    "check",
    "compare",
    "run_engine_bench",
    "run_service_bench",
]
