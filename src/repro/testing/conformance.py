"""Differential conformance harness: every engine vs the scalar oracle.

The library's central correctness claim — every *exact* engine returns
scores, extents and work accounting bit-identical to
:func:`repro.core.xdrop.xdrop_extend_reference` — is turned into an
executable artifact here.  A :class:`ConformanceRunner` replays any batch
of jobs through:

* every registered engine (uniform ``scoring``/``xdrop``/``trace``
  options), asserting bit-identity for engines declaring ``exact = True``
  and run-to-run determinism for the rest (the ksw2 Z-drop engine is
  *comparable*, not identical, by design);
* the :class:`~repro.service.AlignmentService` path (queue -> batcher ->
  cache -> workers), asserting bit-identity with the direct
  engine call, then a second cache-served round asserting the cache
  returns exactly what the engine computed.

On a mismatch the runner *shrinks*: it first minimises the failing batch
(exact engines are batch-independent, but inter-sequence batched kernels
can fail only in company), then greedily trims the failing pair's
sequences while the mismatch persists, and reports the smallest failing
pair together with the workload seed and the JSON config — everything
needed to replay the failure from its printed form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..core.encoding import decode
from ..core.job import AlignmentJob
from ..core.result import SeedAlignmentResult
from ..core.seed_extend import Seed
from ..engine import describe_engines, get_engine, list_engines
from ..errors import ConfigurationError
from ..obs.provenance import build_provenance
from ..obs.runtime import get_observability
from ..workloads import Workload

__all__ = [
    "FieldMismatch",
    "ConformanceFailure",
    "ConformanceReport",
    "ConformanceRunner",
    "compare_results",
]

#: The semantic oracle every exact engine is measured against.
ORACLE_ENGINE = "reference"

#: What a shrink predicate reports: (index of the failing job within the
#: candidate batch, its field mismatches), or None when the batch passes.
PredicateResult = "tuple[int, list[FieldMismatch]] | None"

#: Per-extension fields that must match bit-for-bit on exact engines.
_EXTENSION_FIELDS = (
    "best_score",
    "query_end",
    "target_end",
    "anti_diagonals",
    "cells_computed",
    "terminated_early",
)

#: The semantic subset checked for exact engines whose *work accounting*
#: is an estimate rather than a DP replay (``work_exact = False`` in the
#: registry, e.g. the cost-space wavefront engine).
_CORE_EXTENSION_FIELDS = (
    "best_score",
    "query_end",
    "target_end",
    "terminated_early",
)

#: Top-level result fields that must match bit-for-bit.
_RESULT_FIELDS = (
    "score",
    "seed_score",
    "query_begin",
    "query_end",
    "target_begin",
    "target_end",
)


@dataclass(frozen=True)
class FieldMismatch:
    """One differing field between the oracle and an engine result."""

    field: str
    expected: Any
    actual: Any

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.field}: expected {self.expected!r}, got {self.actual!r}"


@dataclass
class ConformanceFailure:
    """A shrunk, replayable conformance violation.

    Everything needed to reproduce is carried inline: the decoded
    sequences of the minimal failing pair, the seed anchor, the JSON
    config, and — when the jobs came from the workload bank — the profile
    name and root seed of the generator run.
    """

    engine: str
    mismatches: list[FieldMismatch]
    query: str
    target: str
    seed: tuple[int, int, int]
    config: dict[str, Any]
    job_index: int
    profile: str | None = None
    workload_seed: int | None = None
    shrunk: bool = False
    minimal_batch: int = 1
    #: Flight-recorder dump captured at record time (see
    #: :func:`repro.obs.configure`); ``None`` when the recorder was off.
    flight_recorder: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the CI failure artifact)."""
        return {
            "engine": self.engine,
            "mismatches": [
                {"field": m.field, "expected": _jsonable(m.expected),
                 "actual": _jsonable(m.actual)}
                for m in self.mismatches
            ],
            "query": self.query,
            "target": self.target,
            "seed": list(self.seed),
            "config": self.config,
            "job_index": self.job_index,
            "profile": self.profile,
            "workload_seed": self.workload_seed,
            "shrunk": self.shrunk,
            "minimal_batch": self.minimal_batch,
            "flight_recorder": self.flight_recorder,
        }

    def replay_hint(self) -> str:
        """A copy-pasteable snippet reproducing this failure."""
        if not self.query:  # crash record with no isolated pair
            return (
                "# crash during the round; regenerate the jobs via "
                f"generate_workload({self.profile!r}, "
                f"WorkloadSpec(seed={self.workload_seed}, ...))"
            )
        qpos, tpos, k = self.seed
        note = ""
        if self.minimal_batch > 1:
            note = (
                f"# batch-dependent: needs {self.minimal_batch} co-batched jobs; "
                "the single pair below may pass alone — regenerate the round "
                f"via generate_workload({self.profile!r}, "
                f"WorkloadSpec(seed={self.workload_seed}, ...))\n"
            )
        return (
            note + "from repro.core.job import AlignmentJob\n"
            "from repro.core.seed_extend import Seed\n"
            "from repro.testing import ConformanceRunner\n"
            "from repro.api import AlignConfig\n"
            f"job = AlignmentJob({self.query!r}, {self.target!r}, "
            f"Seed({qpos}, {tpos}, {k}))\n"
            f"config = AlignConfig.from_dict({self.config!r})\n"
            f"ConformanceRunner(config, engines=[{self.engine!r}])"
            ".run_jobs([job]).summary()"
        )

    def describe(self) -> str:
        """Human-readable one-failure report."""
        origin = (
            f"profile={self.profile!r} workload_seed={self.workload_seed}"
            if self.profile is not None
            else f"job_index={self.job_index}"
        )
        fields = "; ".join(str(m) for m in self.mismatches)
        return (
            f"[{self.engine}] {origin} minimal pair "
            f"({len(self.query)}x{len(self.target)} bp, seed={self.seed}, "
            f"shrunk={self.shrunk}, minimal_batch={self.minimal_batch}): {fields}\n"
            f"  query : {self.query}\n"
            f"  target: {self.target}"
        )


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


@dataclass
class ConformanceReport:
    """Aggregate outcome of one conformance run."""

    engines: list[str] = field(default_factory=list)
    jobs: int = 0
    comparisons: int = 0
    elapsed_seconds: float = 0.0
    service_checked: bool = False
    network_checked: bool = False
    failures: list[ConformanceFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every comparison was bit-identical (or sane, if inexact)."""
        return not self.failures

    def merge(self, other: "ConformanceReport") -> "ConformanceReport":
        """Fold *other* into this report (in place) and return self."""
        for name in other.engines:
            if name not in self.engines:
                self.engines.append(name)
        self.jobs += other.jobs
        self.comparisons += other.comparisons
        self.elapsed_seconds += other.elapsed_seconds
        self.service_checked = self.service_checked or other.service_checked
        self.network_checked = self.network_checked or other.network_checked
        self.failures.extend(other.failures)
        return self

    def summary(self) -> str:
        """Printable multi-line report."""
        head = (
            f"conformance: {self.jobs} jobs x {len(self.engines)} engines "
            f"({self.comparisons} comparisons"
            f"{', +service' if self.service_checked else ''}"
            f"{', +network' if self.network_checked else ''}) in "
            f"{self.elapsed_seconds:.2f}s -> "
            f"{'OK' if self.ok else f'{len(self.failures)} FAILURE(S)'}"
        )
        if self.ok:
            return head
        return "\n".join([head] + [f.describe() for f in self.failures])


def compare_results(
    expected: SeedAlignmentResult,
    actual: SeedAlignmentResult,
    trace: bool = False,
    work_exact: bool = True,
) -> list[FieldMismatch]:
    """Field-by-field bit-identity check of two seed-alignment results.

    With ``work_exact=False`` the per-extension comparison is restricted to
    the semantic fields (score, extents, early termination) and band traces
    are not compared — the contract of exact engines whose work accounting
    is an estimate (see :func:`repro.engine.describe_engines`).
    """
    mismatches: list[FieldMismatch] = []
    for name in _RESULT_FIELDS:
        exp, act = getattr(expected, name), getattr(actual, name)
        if int(exp) != int(act):
            mismatches.append(FieldMismatch(name, int(exp), int(act)))
    extension_fields = _EXTENSION_FIELDS if work_exact else _CORE_EXTENSION_FIELDS
    for side in ("left", "right"):
        exp_ext, act_ext = getattr(expected, side), getattr(actual, side)
        for name in extension_fields:
            exp, act = getattr(exp_ext, name), getattr(act_ext, name)
            if bool(exp != act):
                mismatches.append(FieldMismatch(f"{side}.{name}", exp, act))
        if trace and work_exact:
            exp_bw, act_bw = exp_ext.band_widths, act_ext.band_widths
            same = (exp_bw is None) == (act_bw is None) and (
                exp_bw is None or np.array_equal(exp_bw, act_bw)
            )
            if not same:
                mismatches.append(
                    FieldMismatch(f"{side}.band_widths", exp_bw, act_bw)
                )
    return mismatches


class ConformanceRunner:
    """Replays job batches through every engine (and the service) vs the oracle.

    Parameters
    ----------
    config:
        The :class:`repro.api.AlignConfig` supplying ``scoring``, ``xdrop``
        and ``trace`` (shared by every engine) plus the engine/serving
        parameters of the service path.  Defaults to ``AlignConfig()``.
    engines:
        Engine names to test (default: every registered engine).  The
        oracle (``reference``) is never compared to itself.
    include_service:
        Also run the :class:`~repro.service.AlignmentService` path and a
        second, cache-served round.
    include_network:
        Also replay every batch through a live
        :class:`~repro.distrib.AlignmentServer` — jobs and results cross a
        real socket (and, when the config says ``transport="process"``,
        real worker processes) and must still come back bit-identical.
        One server is started lazily and reused across ``run_jobs`` calls;
        use the runner as a context manager (or call :meth:`close`) to
        shut it down.
    shrink:
        Minimise the first failing case per engine (batch, then sequences).
    max_shrink_evals:
        Budget of extra engine evaluations the shrinker may spend per
        failure.
    """

    def __init__(
        self,
        config=None,
        engines: Sequence[str] | None = None,
        include_service: bool = True,
        include_network: bool = False,
        shrink: bool = True,
        max_shrink_evals: int = 200,
    ) -> None:
        if config is None:
            from ..api import AlignConfig

            config = AlignConfig()
        self.config = config
        registered = list_engines()
        names = list(engines) if engines is not None else registered
        unknown = sorted(set(n.lower() for n in names) - set(registered))
        if unknown:
            raise ConfigurationError(
                f"unknown engine(s) {', '.join(map(repr, unknown))}; "
                f"available: {', '.join(registered)}"
            )
        self.engine_names = [n.lower() for n in names]
        self.include_service = include_service
        self.include_network = include_network
        self.shrink = shrink
        self.max_shrink_evals = int(max_shrink_evals)
        self._engines: dict[str, Any] = {}
        self._config_engine: Any = None
        self._network_server: Any = None

    def close(self) -> None:
        """Shut down the shared network server (no-op when never started)."""
        if self._network_server is not None:
            self._network_server.close(drain=True)
            self._network_server = None

    def __enter__(self) -> "ConformanceRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _build(self, name: str):
        """Build (and memoise) one engine with the uniform options."""
        if name not in self._engines:
            self._engines[name] = get_engine(
                name,
                scoring=self.config.scoring,
                xdrop=self.config.xdrop,
                trace=self.config.trace,
            )
        return self._engines[name]

    def _is_exact(self, name: str) -> bool:
        # Public registry introspection; an engine that does not declare
        # exactness (``exact`` is None) gets the weaker determinism check.
        exact = {row["name"]: row["exact"] for row in describe_engines()}
        return bool(exact.get(name))

    def _is_work_exact(self, name: str) -> bool:
        # Whether the engine's work accounting / band traces are also
        # bit-identical (restricts the compared fields when not).
        rows = {row["name"]: row["work_exact"] for row in describe_engines()}
        return bool(rows.get(name))

    def _oracle_results(self, jobs: Sequence[AlignmentJob]) -> list[SeedAlignmentResult]:
        return self._build(ORACLE_ENGINE).align_batch(list(jobs)).results

    # ------------------------------------------------------------------ #
    def run_workload(self, workload: Workload) -> ConformanceReport:
        """Conformance-check one generated workload (provenance attached)."""
        return self.run_jobs(
            workload.jobs,
            profile=workload.profile,
            workload_seed=workload.spec.seed,
        )

    def run_jobs(
        self,
        jobs: Iterable[AlignmentJob],
        profile: str | None = None,
        workload_seed: int | None = None,
    ) -> ConformanceReport:
        """Replay *jobs* through every configured engine and the service.

        An engine (or the service) *raising* is itself a conformance
        failure, not an abort: the exception is recorded — with the first
        individually-crashing job isolated when possible — and the run
        continues, so a fuzz campaign always produces its report/artifact.
        """
        jobs = list(jobs)
        report = ConformanceReport(engines=list(self.engine_names), jobs=len(jobs))
        if not jobs:
            return report
        started = time.perf_counter()
        try:
            oracle = self._oracle_results(jobs)
        except Exception as error:
            self._record_crash(
                report, ORACLE_ENGINE, jobs, error, profile, workload_seed
            )
            report.elapsed_seconds = time.perf_counter() - started
            return report

        for name in self.engine_names:
            if name == ORACLE_ENGINE:
                continue
            try:
                if self._is_exact(name):
                    self._check_exact(
                        name, jobs, oracle, report, profile, workload_seed
                    )
                else:
                    self._check_inexact(name, jobs, report, profile, workload_seed)
            except Exception as error:
                self._record_crash(report, name, jobs, error, profile, workload_seed)

        if self.include_service:
            try:
                self._check_service(jobs, oracle, report, profile, workload_seed)
            except Exception as error:
                self._record_crash(
                    report, "service", jobs, error, profile, workload_seed
                )
            report.service_checked = True
        if self.include_network:
            try:
                self._check_network(jobs, oracle, report, profile, workload_seed)
            except Exception as error:
                self._record_crash(
                    report, "network", jobs, error, profile, workload_seed
                )
            report.network_checked = True
        report.elapsed_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------ #
    def _record(
        self,
        report: ConformanceReport,
        engine: str,
        job: AlignmentJob,
        job_index: int,
        mismatches: list[FieldMismatch],
        profile: str | None,
        workload_seed: int | None,
        predicate: "Callable[[list[AlignmentJob]], PredicateResult] | None" = None,
        batch: list[AlignmentJob] | None = None,
    ) -> None:
        """Shrink (when enabled) and append one failure to *report*."""
        shrunk = False
        minimal_batch = 1
        if self.shrink and predicate is not None:
            job, mismatches, minimal_batch = self._shrink(
                job, mismatches, predicate, batch or [job]
            )
            shrunk = True
        report.failures.append(
            ConformanceFailure(
                engine=engine,
                mismatches=mismatches,
                query=decode(job.query),
                target=decode(job.target),
                seed=(job.seed.query_pos, job.seed.target_pos, job.seed.length),
                config=self.config.to_dict(),
                job_index=job_index,
                profile=profile,
                workload_seed=workload_seed,
                shrunk=shrunk,
                minimal_batch=minimal_batch,
                flight_recorder=self._flight_dump(engine, mismatches),
            )
        )

    def _flight_dump(
        self, engine: str, mismatches: list[FieldMismatch]
    ) -> dict[str, Any] | None:
        """Snapshot the flight recorder into the failure artifact, if active.

        The ring buffer holds the spans/events/metric deltas leading up to
        the violation, so the dump answers "what was the system doing right
        before this failed" without re-running under a debugger.
        """
        ob = get_observability()
        if ob.recorder is None:
            return None
        ob.event(
            "conformance_failure",
            engine=engine,
            fields=[m.field for m in mismatches],
        )
        return ob.recorder.dump(
            reason="conformance_failure",
            provenance=build_provenance(config=self.config),
        )

    def _record_count_mismatch(
        self, report, engine, jobs, results, profile, workload_seed
    ) -> bool:
        """Record a result-count violation; True when one was found.

        An engine that drops or truncates results must fail loudly — a
        silent ``zip`` would certify it as conformant on the jobs it never
        answered.
        """
        if len(results) == len(jobs):
            return False
        self._record(
            report, engine, jobs[0], 0,
            [FieldMismatch("result_count", len(jobs), len(results))],
            profile, workload_seed, None,
        )
        return True

    def _record_crash(
        self, report, engine, jobs, error, profile, workload_seed
    ) -> None:
        """Record an engine exception, isolating one crashing job if possible."""
        crash_index = 0
        crash_job = jobs[0]
        if engine in list_engines():
            try:
                runner = self._build(engine)
                for index, job in enumerate(jobs):
                    try:
                        runner.align_batch([job])
                    except Exception:
                        crash_index, crash_job = index, job
                        break
            except Exception:  # engine cannot even be built/probed
                pass
        self._record(
            report, engine, crash_job, crash_index,
            [FieldMismatch("exception", "a completed run",
                           f"{type(error).__name__}: {error}")],
            profile, workload_seed, None,
        )

    def _check_exact(self, name, jobs, oracle, report, profile, workload_seed) -> None:
        engine = self._build(name)
        results = engine.align_batch(jobs).results
        if self._record_count_mismatch(
            report, name, jobs, results, profile, workload_seed
        ):
            return
        trace = self.config.trace
        work_exact = self._is_work_exact(name)
        for index, (exp, act) in enumerate(zip(oracle, results)):
            report.comparisons += 1
            mismatches = compare_results(exp, act, trace=trace, work_exact=work_exact)
            if not mismatches:
                continue

            def predicate(batch: list[AlignmentJob]) -> PredicateResult:
                exp_b = self._oracle_results(batch)
                act_b = engine.align_batch(batch).results
                if len(act_b) != len(exp_b):
                    return 0, [FieldMismatch("result_count", len(exp_b), len(act_b))]
                for i, (e, a) in enumerate(zip(exp_b, act_b)):
                    found = compare_results(e, a, trace=trace, work_exact=work_exact)
                    if found:
                        return i, found
                return None

            self._record(
                report, name, jobs[index], index, mismatches,
                profile, workload_seed, predicate, batch=jobs,
            )
            return  # one shrunk failure per engine per run keeps cost bounded

    def _check_inexact(self, name, jobs, report, profile, workload_seed) -> None:
        """Inexact engines: determinism across replays + extent sanity."""
        engine = self._build(name)
        first = engine.align_batch(jobs).results
        second = engine.align_batch(jobs).results
        if self._record_count_mismatch(
            report, name, jobs, first, profile, workload_seed
        ) or self._record_count_mismatch(
            report, name, jobs, second, profile, workload_seed
        ):
            return
        for index, (job, a, b) in enumerate(zip(jobs, first, second)):
            report.comparisons += 1
            mismatches = [
                FieldMismatch(f"determinism.{m.field}", m.expected, m.actual)
                for m in compare_results(a, b, trace=False)
            ]
            if not (
                0 <= a.query_begin <= a.query_end <= job.query_length
                and 0 <= a.target_begin <= a.target_end <= job.target_length
            ):
                mismatches.append(
                    FieldMismatch(
                        "extents-in-bounds",
                        f"within 0..{job.query_length}/0..{job.target_length}",
                        (a.query_begin, a.query_end, a.target_begin, a.target_end),
                    )
                )
            if mismatches:
                self._record(
                    report, name, job, index, mismatches,
                    profile, workload_seed, None,
                )
                return

    def _config_baseline(self, jobs, oracle) -> list[SeedAlignmentResult]:
        """Direct-engine results the service run is compared against.

        When the configured engine is exact with no engine-specific options
        the oracle already *is* the direct answer (bit-identity is the
        engines' contract), so no duplicate alignment runs; otherwise the
        config engine is built once per runner and memoised.
        """
        if (
            not self.config.engine_options
            and self._is_exact(self.config.engine)
            and self._is_work_exact(self.config.engine)
        ):
            return oracle
        if self._config_engine is None:
            self._config_engine = self.config.build_engine()
        return self._config_engine.align_batch(jobs).results

    def _check_service(self, jobs, oracle, report, profile, workload_seed) -> None:
        """Service path must be bit-identical to the direct engine call."""
        from ..service import AlignmentService

        direct = self._config_baseline(jobs, oracle)
        with AlignmentService(config=self.config) as service:
            for round_name in ("service", "service-cache"):
                tickets = service.submit_many(jobs)
                service.drain()
                results = [t.result(timeout=60.0) for t in tickets]
                if self._record_count_mismatch(
                    report, round_name, jobs, results, profile, workload_seed
                ):
                    return
                for index, (exp, act) in enumerate(zip(direct, results)):
                    report.comparisons += 1
                    mismatches = compare_results(exp, act, trace=self.config.trace)
                    if mismatches and not self._prefilter_forgives(
                        jobs[index], exp, act
                    ):
                        self._record(
                            report, round_name, jobs[index], index,
                            mismatches, profile, workload_seed, None,
                        )
                        return

    def _prefilter_forgives(self, job, direct, actual) -> bool:
        """Whether a service/network mismatch is an *enforced* rejection.

        Under ``prefilter="enforce"`` the service answers reject-class
        pairs with the deterministic seed-only placeholder instead of a
        real alignment.  That divergence is the mode's contract, not a
        conformance violation — provided the direct result would have
        failed the policy's BELLA threshold anyway (i.e. the rejection is
        not a false one).  ``advise`` mode gets no forgiveness: it must
        stay bit-identical.
        """
        service = getattr(self.config, "service", None)
        if service is None or getattr(service, "prefilter", "off") != "enforce":
            return False
        from ..prefilter import PrefilterPolicy, rejected_result

        synthetic = rejected_result(job, self.config.scoring)
        if compare_results(synthetic, actual, trace=False):
            return False  # not the placeholder: a genuine mismatch
        policy = PrefilterPolicy.from_options(service.prefilter_options)
        threshold = policy.threshold(self.config.scoring)
        return not threshold.passes(direct.score, direct.overlap_length)

    def _ensure_server(self):
        """Start (once) and return the shared networked-service server.

        Reusing one server across ``run_jobs`` calls amortises the worker
        spawn cost over every replayed workload — exactly how a real
        deployment would serve them.
        """
        if self._network_server is None:
            from ..distrib import AlignmentServer

            self._network_server = AlignmentServer(config=self.config).start()
        return self._network_server

    def _check_network(self, jobs, oracle, report, profile, workload_seed) -> None:
        """Networked service must be bit-identical to the direct engine.

        Jobs round-trip through the wire codec and the server's service
        (worker processes included when the config transport says so); a
        second round must answer from the server-side cache with the same
        bytes.
        """
        from ..distrib import ServiceClient

        direct = self._config_baseline(jobs, oracle)
        server = self._ensure_server()
        with ServiceClient(server.host, server.port) as client:
            for round_name in ("network", "network-cache"):
                results = client.submit(jobs)
                if self._record_count_mismatch(
                    report, round_name, jobs, results, profile, workload_seed
                ):
                    return
                for index, (exp, act) in enumerate(zip(direct, results)):
                    report.comparisons += 1
                    mismatches = compare_results(exp, act, trace=self.config.trace)
                    if mismatches and not self._prefilter_forgives(
                        jobs[index], exp, act
                    ):
                        self._record(
                            report, round_name, jobs[index], index,
                            mismatches, profile, workload_seed, None,
                        )
                        return

    # ------------------------------------------------------------------ #
    # Shrinking
    def _shrink(
        self,
        job: AlignmentJob,
        mismatches: list[FieldMismatch],
        predicate: "Callable[[list[AlignmentJob]], PredicateResult]",
        batch: list[AlignmentJob],
    ) -> tuple[AlignmentJob, list[FieldMismatch], int]:
        """Minimise a failing case; returns (job, mismatches, minimal_batch).

        Exact-engine failures are usually batch-independent, so the single
        job is tried alone first.  A batch-dependent failure (one that only
        reproduces in company — possible for inter-sequence batched
        kernels) is instead delta-minimised to the smallest job subset that
        still fails, and the job *that actually mismatches within that
        subset* is reported, with ``minimal_batch`` recording how much
        company it needs.
        """
        evals = 0

        def still_fails(candidate: list[AlignmentJob]) -> PredicateResult:
            nonlocal evals
            evals += 1
            return predicate(candidate)

        alone = still_fails([job])
        if alone is None:
            minimal = self._minimize_batch(batch, still_fails)
            outcome = still_fails(minimal)
            if outcome is None:  # pragma: no cover - ddmin invariant
                return job, mismatches, len(batch)
            index, found = outcome
            return minimal[index], found, len(minimal)
        mismatches = alone[1]

        current = job
        improved = True
        while improved and evals < self.max_shrink_evals:
            improved = False
            for candidate in _reduction_candidates(current):
                if evals >= self.max_shrink_evals:
                    break
                found = still_fails([candidate])
                if found is not None:
                    current, mismatches, improved = candidate, found[1], True
                    break
        return current, mismatches, 1

    def _minimize_batch(
        self,
        batch: list[AlignmentJob],
        still_fails: "Callable[[list[AlignmentJob]], PredicateResult]",
    ) -> list[AlignmentJob]:
        """ddmin-style reduction of a batch-dependent failure."""
        current = list(batch)
        chunk = max(1, len(current) // 2)
        evals = 0
        while evals < self.max_shrink_evals:
            reduced = False
            i = 0
            while i < len(current) and evals < self.max_shrink_evals:
                trial = current[:i] + current[i + chunk :]
                evals += 1
                if trial and still_fails(trial) is not None:
                    current = trial
                    reduced = True
                else:
                    i += chunk
            if not reduced:
                if chunk == 1:
                    break
                chunk = max(1, chunk // 2)
        return current


def _reduction_candidates(job: AlignmentJob) -> Iterable[AlignmentJob]:
    """Candidate reductions of one job, most aggressive first.

    Tail bases after the seed and head bases before it are trimmed (head
    trims shift the seed anchor); the seed itself is never altered, so
    every candidate is a valid job.
    """
    q, t, s = job.query, job.target, job.seed
    q_tail = len(q) - s.query_end
    t_tail = len(t) - s.target_end
    for keep in _cut_schedule(q_tail):
        yield AlignmentJob(
            np.ascontiguousarray(q[: s.query_end + keep]), t, s, job.pair_id
        )
    for keep in _cut_schedule(t_tail):
        yield AlignmentJob(
            q, np.ascontiguousarray(t[: s.target_end + keep]), s, job.pair_id
        )
    for keep in _cut_schedule(s.query_pos):
        cut = s.query_pos - keep
        yield AlignmentJob(
            np.ascontiguousarray(q[cut:]),
            t,
            Seed(keep, s.target_pos, s.length),
            job.pair_id,
        )
    for keep in _cut_schedule(s.target_pos):
        cut = s.target_pos - keep
        yield AlignmentJob(
            q,
            np.ascontiguousarray(t[cut:]),
            Seed(s.query_pos, keep, s.length),
            job.pair_id,
        )


def _cut_schedule(extent: int) -> list[int]:
    """How much of an *extent*-base flank to keep, biggest cut first."""
    if extent <= 0:
        return []
    keeps = [0, extent // 2, extent - 1]
    return sorted({k for k in keeps if 0 <= k < extent})
