"""Command-line interface.

Six tools, each run from the source tree as ``python -m repro <tool>``
(:mod:`repro.__main__` dispatches to the ``main_*`` functions below; the
repository carries no packaging metadata, so nothing installs them as
console scripts).  Their usage lines name them ``repro-<tool>``:

``repro-align``
    Align a synthetic benchmark pair set (or two FASTA files) with LOGAN (or
    another engine), printing per-batch timing, GCUPS and modeled platform
    runtimes; ``--baseline`` adds SeqAn's modeled POWER9 runtime for the
    same pairs.

``repro-bella``
    Run the BELLA overlap pipeline on a named synthetic dataset preset (or a
    FASTA file) with a selectable alignment kernel.

``repro-bench``
    Regenerate one of the paper's tables/figures from the benchmark harness
    without going through pytest (useful for quick sweeps), or — as
    ``repro-bench perf`` — run the benchmark subsystem
    (:mod:`repro.bench`): measure the engines/service on fixed workloads,
    check them (score parity; for the service also cache hits and batching),
    gate against the stored baseline trajectory (``BENCH_engines.json`` /
    ``BENCH_service.json``) with a configurable regression tolerance, and
    append the fresh entries to the committed trajectory.  ``repro-bench
    perf`` is the only code that writes those files.

``repro-service``
    Drive the asynchronous alignment service: ``serve`` runs a workload
    through the queue/batcher/cache/worker stack and reports service stats
    (``--metrics-format prom`` exports the Prometheus exposition, ``--trace``
    with ``--flight-recorder-out`` the flight-recorder dump); ``submit``
    aligns ad-hoc pairs through a short-lived service.

``repro-fuzz``
    Bounded differential conformance fuzzing: replay generated scenario
    workloads (:mod:`repro.workloads`) through every registered engine and
    the service path, asserting bit-identity with the scalar reference and
    printing the shrunk minimal failing pair on a violation.

``repro-obs``
    The telemetry subsystem's tools: ``read`` parses a JSON-lines metrics
    file back into snapshots; ``overhead`` measures the cost of full
    observability against a disabled run on the quick bench workload.

``repro-align``, ``repro-bella``, ``repro-service`` and ``repro-fuzz``
share one declarative configuration surface: the ``alignment
configuration`` argument group is generated from the fields of
:class:`repro.api.AlignConfig` (see :func:`repro.api.add_config_arguments`),
and ``--config config.json`` (an :class:`~repro.api.AlignConfig` JSON)
overrides the keys it names, which individual flags then override.
``repro-bench`` has no such group: each paper experiment and each
``perf`` workload fixes its own alignment parameters.  Those five entry points also accept ``--list-engines`` to
print the registered alignment engines (name, exactness, summary) and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from .api import AlignConfig, add_config_arguments, config_from_args, default_seed
from .baselines import SEQAN_POWER9_MODEL
from .bella import BellaPipeline
from .core import encode
from .core.job import AlignmentJob
from .data import PairSetSpec, generate_pair_set, load_dataset, read_fasta
from .engine import BatchedEngine, LoganEngine, describe_engines, list_engines
from .errors import DatasetError

__all__ = [
    "main_align",
    "main_bella",
    "main_bench",
    "main_bench_perf",
    "main_service",
    "main_fuzz",
    "main_obs",
]


class _ListEnginesAction(argparse.Action):
    """``--list-engines``: print the engine registry and exit (like --help)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        for row in describe_engines():
            exact = {True: "exact", False: "inexact", None: "?"}[row["exact"]]
            print(f"{row['name']:>12s}  {exact:<8s} {row['summary']}")
        parser.exit(0)


def _add_engine_discovery(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--list-engines",
        action=_ListEnginesAction,
        help="list registered alignment engines and exit",
    )


def _with_gpus(config: AlignConfig, args: argparse.Namespace) -> AlignConfig:
    """Fold the ``--gpus`` convenience flag into ``engine_options``."""
    gpus = getattr(args, "gpus", None)
    if gpus is None or config.engine != "logan":
        return config
    return config.replace(engine_options={**config.engine_options, "gpus": gpus})


def _emit(payload: dict, as_json: bool, skip: Sequence[str] = ()) -> None:
    """Print *payload* as JSON, or one ``key: value`` line per key not in *skip*."""
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if key not in skip:
            print(f"{key:>26s}: {value}")


def _add_pair_arguments(
    parser: argparse.ArgumentParser, pairs: int, min_length: int, max_length: int
) -> None:
    """The pair input: a synthetic set with these defaults, or two FASTA files."""
    parser.add_argument("--pairs", type=int, default=pairs, help="number of synthetic pairs")
    parser.add_argument("--min-length", type=int, default=min_length)
    parser.add_argument("--max-length", type=int, default=max_length)
    parser.add_argument("--error-rate", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=2020, help="random seed")
    parser.add_argument(
        "--query-fasta", type=str, default=None, help="align records of this FASTA"
    )
    parser.add_argument(
        "--target-fasta", type=str, default=None, help="against records of this FASTA"
    )


def _pair_jobs(args, parser, seed_policy: str) -> list[AlignmentJob]:
    """The paired FASTA records if the FASTA flags are given, else the synthetic set."""
    if args.query_fasta or args.target_fasta:
        if not (args.query_fasta and args.target_fasta):
            parser.error("--query-fasta and --target-fasta must be given together")
        jobs = _fasta_jobs(parser, args.query_fasta, args.target_fasta, seed_policy)
        if not jobs:
            parser.error("the FASTA files hold no records")
        return jobs
    try:
        spec = PairSetSpec(
            num_pairs=args.pairs,
            min_length=args.min_length,
            max_length=args.max_length,
            pairwise_error_rate=args.error_rate,
            seed_placement=seed_policy,
            rng_seed=args.seed,
        )
    except DatasetError as error:
        parser.error(str(error))
    return generate_pair_set(spec)


def _fasta_jobs(
    parser, query_fasta: str, target_fasta: str, seed_policy: str
) -> list[AlignmentJob]:
    queries = [r.sequence for r in read_fasta(query_fasta)]
    targets = [r.sequence for r in read_fasta(target_fasta)]
    if len(queries) != len(targets):
        parser.error("query and target FASTA files must have the same record count")
    return [
        AlignmentJob(
            query=encode(q),
            target=encode(t),
            seed=default_seed(seed_policy, len(q), len(t)),
            pair_id=i,
        )
        for i, (q, t) in enumerate(zip(queries, targets))
    ]


# Fields only BELLA reads: commands that never run it take no flag for them.
_BELLA_ONLY = ("bin_width",)


# --------------------------------------------------------------------------- #
# repro-align
# --------------------------------------------------------------------------- #
_ALIGN_DEFAULTS = AlignConfig(engine="logan")


def main_align(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-align``."""
    parser = argparse.ArgumentParser(
        prog="repro-align",
        description="Batch X-drop alignment with the LOGAN GPU execution model.",
    )
    _add_pair_arguments(parser, pairs=100, min_length=1000, max_length=2000)
    parser.add_argument("--gpus", type=int, default=None, help="modeled GPU count")
    parser.add_argument(
        "--replicate-to",
        type=int,
        default=None,
        help="model a workload of this many pairs using the generated sample",
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="also model SeqAn on 168 POWER9 threads from a batched run of "
        "the same pairs, and report the speed-up",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    add_config_arguments(parser, defaults=_ALIGN_DEFAULTS, exclude=_BELLA_ONLY)
    _add_engine_discovery(parser)
    args = parser.parse_args(argv)

    config = _with_gpus(config_from_args(args, _ALIGN_DEFAULTS), args)
    jobs = _pair_jobs(args, parser, config.seed_policy)
    engine = config.build_engine()
    result = engine.align_batch(jobs)
    replication = 1.0
    platform = {}
    modeled_fields = {"modeled_seconds": result.modeled_seconds}
    if isinstance(engine, LoganEngine):
        # Workload replication is a property of the V100 model: the sample
        # is aligned once and its replay stands for the full workload.
        if args.replicate_to:
            replication = max(1.0, args.replicate_to / len(jobs))
        timing = engine.model.replay(jobs, result.results, replication)
        platform = {
            "gpus": engine.model.system.num_devices,
            "threads_per_block": timing.threads_per_block,
        }
        modeled_fields = {
            "modeled_seconds": timing.modeled_seconds,
            "modeled_gcups": timing.modeled_gcups,
        }
    elif args.replicate_to:
        print(
            "warning: --replicate-to applies only to the logan engine; "
            "running the sample unreplicated",
            file=sys.stderr,
        )
    payload = {
        "pairs": len(jobs),
        "engine": config.engine,
        "replication": replication,
        "xdrop": config.xdrop,
        **platform,
        "measured_seconds": result.elapsed_seconds,
        "measured_gcups": result.measured_gcups(),
        **modeled_fields,
        "mean_score": float(np.mean(result.scores())),
    }
    if args.baseline:
        # SeqAn's X-drop on 168 POWER9 threads, modeled from the work of a
        # batched sweep of the same jobs: the engine's own run when it is
        # one, else a second run, whose scores also cross-check the engine.
        seqan = (
            result
            if isinstance(engine, BatchedEngine)
            else config.replace(engine="batched", engine_options={})
            .build_engine()
            .align_batch(jobs)
        )
        payload["baseline_modeled_seconds"] = SEQAN_POWER9_MODEL.seconds_for(
            seqan.summary.scaled(replication)
        )
        # None for engines without a platform model (keeps --json strict).
        modeled = payload["modeled_seconds"]
        payload["modeled_speedup"] = (
            payload["baseline_modeled_seconds"] / modeled
            if modeled is not None and modeled > 0
            else None
        )
        payload["scores_identical"] = result.scores() == seqan.scores()
    _emit(payload, args.json)
    return 0


# --------------------------------------------------------------------------- #
# repro-bella
# --------------------------------------------------------------------------- #
_BELLA_DEFAULTS = AlignConfig(engine="logan", xdrop=25)


def main_bella(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-bella``."""
    parser = argparse.ArgumentParser(
        prog="repro-bella",
        description="Run the BELLA long-read overlap pipeline on a synthetic dataset.",
    )
    parser.add_argument(
        "--dataset",
        choices=["ecoli_like", "celegans_like"],
        default="ecoli_like",
        help="synthetic dataset preset",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1, help="down-scaling factor of the preset"
    )
    parser.add_argument("--fasta", type=str, default=None, help="use reads from this FASTA")
    parser.add_argument("--kmer", "-k", type=int, default=17)
    parser.add_argument("--gpus", type=int, default=None)
    parser.add_argument("--min-overlap", type=int, default=500)
    parser.add_argument("--json", action="store_true")
    # seed_policy excluded: BELLA derives every seed from shared k-mers.
    add_config_arguments(parser, defaults=_BELLA_DEFAULTS, exclude=("seed_policy",))
    _add_engine_discovery(parser)
    args = parser.parse_args(argv)

    config = _with_gpus(config_from_args(args, _BELLA_DEFAULTS), args)

    if args.fasta:
        reads = [r.sequence for r in read_fasta(args.fasta)]
        error_rate = 0.15
    else:
        dataset = load_dataset(args.dataset, scale=args.scale)
        reads = dataset.reads
        error_rate = dataset.preset.error_rate

    pipeline = BellaPipeline(
        config=config,
        k=args.kmer,
        error_rate=error_rate,
        min_overlap=args.min_overlap,
    )
    result = pipeline.run(reads)

    payload = {
        "reads": len(reads),
        "kmer": args.kmer,
        "xdrop": config.xdrop,
        "aligner": config.engine,
        "engine": config.engine,
        "reliable_kmers": result.index.retained_kmers,
        "pruned_fraction": result.index.pruned_fraction,
        "candidates": result.candidates.num_candidates,
        "aligned": result.num_alignments,
        "accepted": len(result.accepted),
        "alignment_cells": result.work.cells,
        "alignment_modeled_seconds": result.alignment_modeled_seconds,
        "stage_seconds": dict(result.timer.stages),
        "stage_breakdown": result.timer.to_dict(),
    }
    _emit(payload, args.json, skip=("stage_breakdown",))
    if not args.json:
        print(result.timer.report())
    return 0


# --------------------------------------------------------------------------- #
# repro-bench
# --------------------------------------------------------------------------- #
def main_bench_perf(argv: Sequence[str] | None = None) -> int:
    """``repro-bench perf``: measure, check, gate and record the trajectory.

    Times the engine layer (and optionally the serving layer) on the fixed
    benchmark workloads, checks each fresh entry (:func:`repro.bench.check`:
    score parity, and for the service cache hits on resubmission and a
    multi-job batch), compares it against the stored baseline in
    ``BENCH_engines.json`` / ``BENCH_service.json`` with a configurable
    regression tolerance, and — with ``--record`` — appends the entries to
    the committed trajectories.  Exit status 1 on a failed check or a
    regression beyond the tolerance (the CI perf-smoke gate); a failing run
    records neither entry.
    """
    from .bench import (
        BaselineStore,
        check,
        compare,
        run_engine_bench,
        run_service_bench,
    )

    parser = argparse.ArgumentParser(
        prog="repro-bench perf",
        description=(
            "Benchmark the alignment engines/service, gate the result "
            "against the stored baseline trajectory, and optionally record it."
        ),
    )
    parser.add_argument("--pairs", type=int, default=256, help="engine batch size")
    parser.add_argument("--xdrop", type=int, default=50, help="X-drop threshold")
    parser.add_argument("--seed", type=int, default=2020, help="workload RNG seed")
    parser.add_argument(
        "--repeats", type=int, default=1, help="timed runs per engine (best kept)"
    )
    parser.add_argument(
        "--engines",
        nargs="*",
        default=None,
        help=(
            "subset of engines to time (default: all registered; "
            "quick: reference+batched)"
        ),
    )
    from .workloads import list_profiles

    parser.add_argument(
        "--profile",
        choices=list_profiles(),
        default=None,
        help=(
            "bench a workload-bank profile instead of the default random "
            "pair set (recorded as its own baseline series)"
        ),
    )
    parser.add_argument(
        "--min-length",
        type=int,
        default=None,
        help="profile mode: minimum template length (WorkloadSpec default)",
    )
    parser.add_argument(
        "--max-length",
        type=int,
        default=None,
        help="profile mode: maximum template length (WorkloadSpec default)",
    )
    parser.add_argument(
        "--error-rate",
        type=float,
        default=None,
        help="profile mode: pairwise divergence (WorkloadSpec default)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale: small batch, reference+batched engines only",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="also benchmark the serving layer (BENCH_service.json)",
    )
    parser.add_argument(
        "--process",
        action="store_true",
        help=(
            "with --service: also time a process-transport service_mp row "
            "(starts its own series)"
        ),
    )
    parser.add_argument(
        "--prefilter",
        choices=["off", "advise", "enforce"],
        default="off",
        help=(
            "with --service: run the mixed triage workload and add a "
            "service_prefilter row under this admission mode, recording "
            "reject precision/recall vs ground truth (own series)"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=str,
        default="BENCH_engines.json",
        help="engine trajectory file (default: BENCH_engines.json)",
    )
    parser.add_argument(
        "--service-baseline",
        type=str,
        default="BENCH_service.json",
        help="service trajectory file (default: BENCH_service.json)",
    )
    parser.add_argument(
        "--no-compare",
        action="store_true",
        help=(
            "skip the regression gate against the stored baseline "
            "(the checks still run)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "exit nonzero when a series/engine has no recorded baseline "
            "yet (default: report it and pass)"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="fractional regression tolerance of the gate (default 0.30)",
    )
    parser.add_argument(
        "--metric",
        choices=["speedup_vs_scalar", "measured_seconds", "measured_gcups"],
        default="speedup_vs_scalar",
        help="gated metric (default: host-normalised speedup_vs_scalar)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help=(
            "append the fresh entries to the trajectory file(s) when the "
            "run passes"
        ),
    )
    parser.add_argument("--label", type=str, default="", help="entry label")
    parser.add_argument(
        "--artifact",
        type=str,
        default=None,
        metavar="JSON",
        help="write entry + comparison report to this file (CI artifact)",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    args = parser.parse_args(argv)

    payload: dict = {"check_failures": []}

    def gate(bench_entry, store) -> bool:
        """Compare one entry; a missing baseline is a clear message, not a
        KeyError, and fails the run only under ``--strict``."""
        series = bench_entry.kind + (
            f"/{bench_entry.profile}" if bench_entry.profile else ""
        )
        where = (
            f"(pairs={bench_entry.batch_size}, X={bench_entry.xdrop}, "
            f"seed={bench_entry.rng_seed}) on this host in {store.path}"
        )
        baseline = store.latest_matching(bench_entry)
        if baseline is None:
            msg = (
                f"no baseline recorded for series {series!r} {where}; "
                "run with --record to start the trajectory"
            )
            payload.setdefault("missing_baselines", []).append(msg)
            if not args.json:
                print(msg)
            return args.strict
        report = compare(
            bench_entry, baseline, tolerance=args.tolerance, metric=args.metric
        )
        payload[f"{bench_entry.kind}_comparison"] = report.to_dict()
        if not args.json:
            print(report.formatted())
        gate_failed = not report.ok
        for row in bench_entry.rows:
            if baseline.row(row.engine) is not None:
                continue
            msg = (
                f"no baseline recorded for series {series!r} engine "
                f"{row.engine!r} {where}; run with --record to add it"
            )
            payload.setdefault("missing_baselines", []).append(msg)
            if not args.json:
                print(msg)
            gate_failed = gate_failed or args.strict
        return gate_failed

    def judge(bench_entry, store) -> bool:
        """Print, check and gate one entry; True when it fails the run."""
        payload[bench_entry.kind] = bench_entry.to_dict()
        if not args.json:
            print(bench_entry.formatted())
        failures = check(bench_entry)
        payload["check_failures"].extend(failures)
        if not args.json:
            for message in failures:
                print(f"FAIL: {message}")
        gate_failed = not args.no_compare and gate(bench_entry, store)
        return bool(failures) or gate_failed

    entry = run_engine_bench(
        pairs=args.pairs,
        xdrop=args.xdrop,
        seed=args.seed,
        engines=args.engines,
        repeats=args.repeats,
        quick=args.quick,
        label=args.label,
        profile=args.profile,
        min_length=args.min_length,
        max_length=args.max_length,
        error_rate=args.error_rate,
    )
    measured = [(entry, BaselineStore(args.baseline))]
    failed = judge(*measured[0])
    if args.service:
        service_entry = run_service_bench(
            xdrop=args.xdrop,
            seed=args.seed,
            quick=args.quick,
            label=args.label,
            process=args.process,
            prefilter=args.prefilter,
        )
        measured.append((service_entry, BaselineStore(args.service_baseline)))
        failed = judge(*measured[1]) or failed

    if args.record and failed:
        # Both entries or neither: a failing run leaves the history as it was.
        if not args.json:
            print("nothing recorded: the run failed")
    elif args.record:
        for bench_entry, store in measured:
            store.append(bench_entry)
            if not args.json:
                print(f"recorded entry in {store.path}")

    payload["ok"] = not failed
    if args.artifact:
        with open(args.artifact, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    return 1 if failed else 0


def main_bench(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-bench``: paper tables/figures, or ``perf``.

    ``repro-bench perf`` dispatches to the benchmark subsystem
    (:mod:`repro.bench`): trajectory measurement, checks, baseline
    comparison and recording.  Every other positional regenerates a paper
    table/figure from the benchmark harness, whose parameters each
    experiment fixes to the paper's setup.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "perf":
        return main_bench_perf(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate one of the paper's tables/figures, or run "
            "'repro-bench perf' for the trajectory benchmark subsystem."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig12",
            "fig13",
            "fig2",
            "accuracy",
            "ablation_threads",
            "ablation_memory",
            "ablation_reversal",
            "ablation_reduction",
            "ablation_loadbalance",
        ],
        help="experiment id (the paper table or figure it regenerates)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="work multiplier for the measured sample (1.0 = default laptop scale)",
    )
    _add_engine_discovery(parser)
    args = parser.parse_args(argv)

    # The benchmark harness lives next to the repository (benchmarks/), not
    # inside the installed package, so resolve it relative to the current
    # working directory (run `repro-bench` from the repository root).
    import os

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "benchmarks", "harness.py")):
        parser.error(
            "repro-bench must be run from the repository root "
            "(the directory containing benchmarks/harness.py)"
        )
    if root not in sys.path:
        sys.path.insert(0, root)
    from benchmarks import harness  # deferred: benchmarks ship next to the repo

    print(harness.run_experiment(args.experiment, scale=args.scale).formatted())
    return 0


# --------------------------------------------------------------------------- #
# repro-service
# --------------------------------------------------------------------------- #
# serve's synthetic workload historically seeded mid-read; submit's literal
# and FASTA pairs extended from the origin.  Per-subcommand defaults keep
# both behaviours while letting --seed-policy / --config override either.
_SERVE_DEFAULTS = AlignConfig(engine="batched", seed_policy="middle")
_SUBMIT_DEFAULTS = AlignConfig(engine="batched", seed_policy="start")


def _add_service_arguments(
    parser: argparse.ArgumentParser, defaults: AlignConfig
) -> None:
    add_config_arguments(
        parser, defaults=defaults, include_service=True, exclude=_BELLA_ONLY
    )
    parser.add_argument("--json", action="store_true")


def main_service(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-service``."""
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Asynchronous alignment service (queue -> batcher -> cache -> workers).",
    )
    _add_engine_discovery(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve",
        help="run a workload through the live service and report stats",
        description=(
            "Submit a synthetic pair set (or two FASTA files) to the service "
            "one job at a time, let the batcher/cache/worker stack align it, "
            "and print the service statistics."
        ),
    )
    _add_pair_arguments(serve, pairs=200, min_length=500, max_length=1500)
    serve.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="submission rounds of the same workload (>=2 exercises the cache)",
    )
    serve.add_argument(
        "--inline",
        action="store_true",
        help="process on drain instead of a background thread (deterministic)",
    )
    serve.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="export metrics-registry snapshots to this file",
    )
    serve.add_argument(
        "--metrics-format",
        choices=("jsonl", "prom"),
        default="jsonl",
        help="snapshot format: JSON lines (append) or Prometheus text (rewrite)",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=1.0,
        help="seconds between interval exports (background mode)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="enable span tracing and the flight recorder for this run",
    )
    serve.add_argument(
        "--flight-recorder-out",
        type=str,
        default=None,
        help="write a flight-recorder dump to this file after the run "
        "(implies --trace)",
    )
    serve.add_argument(
        "--listen",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help=(
            "run as a network front door instead of a local workload: bind "
            "this address (port 0 picks a free port), print the bound "
            "address as a JSON line, and serve until SIGINT/SIGTERM"
        ),
    )
    _add_service_arguments(serve, _SERVE_DEFAULTS)

    submit = sub.add_parser(
        "submit",
        help="align ad-hoc pairs through a short-lived service",
        description=(
            "Align literal sequences (--query/--target) or paired FASTA "
            "records through a one-shot service and print the scores."
        ),
    )
    submit.add_argument("--query", type=str, default=None, help="literal query sequence")
    submit.add_argument("--target", type=str, default=None, help="literal target sequence")
    submit.add_argument("--query-fasta", type=str, default=None)
    submit.add_argument("--target-fasta", type=str, default=None)
    submit.add_argument(
        "--connect",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help=(
            "submit to a running 'repro-service serve --listen' server "
            "instead of a one-shot in-process service"
        ),
    )
    _add_service_arguments(submit, _SUBMIT_DEFAULTS)

    args = parser.parse_args(argv)
    if args.command == "serve":
        return _run_serve(args, parser)
    return _run_submit(args, parser)


def _parse_endpoint(value: str, flag: str, parser) -> tuple[str, int]:
    """Split a ``HOST:PORT`` CLI value, tolerating a bare port."""
    host, _, port_text = value.rpartition(":")
    if not host:
        host, port_text = "127.0.0.1", value
    try:
        port = int(port_text)
    except ValueError:
        parser.error(f"{flag} expects HOST:PORT, got {value!r}")
    if not (0 <= port <= 65535):
        parser.error(f"{flag} port out of range: {port}")
    return host, port


def _serve_network(args, parser, config) -> int:
    """``repro-service serve --listen``: run the distributed front door."""
    import os

    from . import obs as obs_mod
    from .distrib import AlignmentServer

    host, port = _parse_endpoint(args.listen, "--listen", parser)
    server = AlignmentServer(config=config, host=host, port=port)
    server.start()
    ready = {
        "listening": {"host": server.host, "port": server.port},
        "pid": os.getpid(),
        "engine": server.service.engine.name,
        "transport": server.service.transport,
    }
    print(json.dumps(ready), flush=True)
    # Blocks until SIGINT/SIGTERM or a client 'shutdown' op, then drains
    # the queue, flushes durable state and joins the worker.
    server.serve_forever(install_signal_handlers=True)
    stats = server.service.stats()
    if args.flight_recorder_out and server.service.obs.recorder is not None:
        server.service.obs.recorder.dump(
            path=args.flight_recorder_out,
            reason="serve_exit",
            provenance=obs_mod.build_provenance(config=config, seed=args.seed),
        )
    payload = {
        "command": "serve",
        "mode": "listen",
        "engine": server.service.engine.name,
        **stats.to_dict(),
    }
    if args.flight_recorder_out:
        payload["flight_recorder_out"] = args.flight_recorder_out
    _emit(payload, args.json)
    return 0


def _run_serve(args, parser) -> int:
    from . import obs as obs_mod
    from .distrib import GracefulShutdown
    from .perf.timers import Timer
    from .service import AlignmentService

    config = config_from_args(args, _SERVE_DEFAULTS)
    if args.trace or args.flight_recorder_out:
        obs_mod.configure(tracing=True, flight_recorder=True)
    if args.listen:
        return _serve_network(args, parser, config)
    jobs = _pair_jobs(args, parser, config.seed_policy)
    service = AlignmentService(config=config)
    exporter = None
    if args.metrics_out:
        recorder = service.obs.recorder
        exporter = obs_mod.IntervalExporter(
            service.obs.registry,
            args.metrics_out,
            fmt=args.metrics_format,
            interval=args.metrics_interval,
            provenance=obs_mod.build_provenance(config=config, seed=args.seed),
            on_export=recorder.tick if recorder is not None else None,
        )
    if not args.inline:
        service.start()
        if exporter is not None:
            exporter.start()
    timer = Timer()
    interrupted = False
    # SIGINT/SIGTERM between rounds stops submitting and falls through to
    # the normal drain/flush/shutdown path instead of dying mid-flight.
    with timer, GracefulShutdown() as stop:
        rounds = []
        for _ in range(max(1, args.repeat)):
            if stop.requested.is_set():
                interrupted = True
                break
            tickets = service.submit_many(jobs)
            service.drain()
            rounds.append([t.result(timeout=60.0).score for t in tickets])
            if exporter is not None:
                exporter.export_now()
    stats = service.stats()
    if exporter is not None:
        exporter.stop(final_export=True)
    if args.flight_recorder_out and service.obs.recorder is not None:
        service.obs.recorder.dump(
            path=args.flight_recorder_out,
            reason="serve_exit",
            provenance=obs_mod.build_provenance(config=config, seed=args.seed),
        )
    service.shutdown()

    payload = {
        "command": "serve",
        "engine": service.engine.name,
        "pairs": len(jobs),
        "rounds": len(rounds),
        "wall_seconds": timer.elapsed,
        "mean_score": float(np.mean(rounds[0])) if rounds and rounds[0] else 0.0,
        "rounds_identical": all(r == rounds[0] for r in rounds),
        "interrupted": interrupted,
        **stats.to_dict(),
    }
    if exporter is not None:
        payload["metrics_out"] = args.metrics_out
        payload["metrics_exports"] = exporter.exports
    if args.flight_recorder_out:
        payload["flight_recorder_out"] = args.flight_recorder_out
    _emit(payload, args.json)
    return 0


def _run_submit(args, parser) -> int:
    from .service import AlignmentService

    config = config_from_args(args, _SUBMIT_DEFAULTS)
    if args.query and args.target:
        jobs = [
            AlignmentJob(
                query=encode(args.query),
                target=encode(args.target),
                seed=default_seed(
                    config.seed_policy, len(args.query), len(args.target)
                ),
            )
        ]
    elif args.query_fasta and args.target_fasta:
        jobs = _fasta_jobs(
            parser, args.query_fasta, args.target_fasta, config.seed_policy
        )
    else:
        parser.error("submit needs --query/--target or --query-fasta/--target-fasta")

    if args.connect:
        from .distrib import ServiceClient

        host, port = _parse_endpoint(args.connect, "--connect", parser)
        with ServiceClient(host, port) as client:
            identity = client.ping()
            results, cached = client.submit_detailed(jobs)
        engine_name = identity.get("engine", "remote")
    else:
        cached = None
        with AlignmentService(config=config) as service:
            tickets = service.submit_many(jobs)
            service.drain()
            results = [t.result(timeout=60.0) for t in tickets]
        engine_name = service.engine.name

    payload = {
        "command": "submit",
        "engine": engine_name,
        "pairs": len(jobs),
        "scores": [r.score for r in results],
        "query_extents": [[r.query_begin, r.query_end] for r in results],
        "target_extents": [[r.target_begin, r.target_end] for r in results],
    }
    if args.connect:
        payload["connected"] = args.connect
        payload["cached"] = cached
    _emit(payload, args.json)
    return 0


# --------------------------------------------------------------------------- #
# repro-fuzz
# --------------------------------------------------------------------------- #
_FUZZ_DEFAULTS = AlignConfig(engine="batched", xdrop=20)


def main_fuzz(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-fuzz``: bounded differential conformance runs.

    Exit status is 0 when every comparison was bit-identical (exact
    engines) / deterministic (inexact ones), 1 when any conformance
    violation was found — the shrunk minimal failing pair, its workload
    seed and the JSON config are printed (and written to ``--artifact``
    when given) so the failure replays from its printed form.
    """
    from .testing import run_fuzz
    from .workloads import describe_profiles, list_profiles

    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description=(
            "Differential conformance fuzzing: generated scenario workloads "
            "replayed through every registered engine and the alignment "
            "service, checked bit-for-bit against the scalar reference."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="root fuzz seed")
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="stop after checking at least this many jobs (default 500 "
        "when --time is not given)",
    )
    parser.add_argument(
        "--time",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this wall-clock budget",
    )
    parser.add_argument(
        "--batch", type=int, default=25, help="jobs generated per fuzz round"
    )
    parser.add_argument("--min-length", type=int, default=40)
    parser.add_argument("--max-length", type=int, default=160)
    parser.add_argument(
        "--profiles",
        action="append",
        choices=list_profiles(),
        default=None,
        help="restrict to these workload profiles (repeatable; default all)",
    )
    parser.add_argument(
        "--engines",
        action="append",
        choices=list_engines(),
        default=None,
        help="engines under test (repeatable; default every registered engine)",
    )
    parser.add_argument(
        "--no-service",
        action="store_true",
        help="skip the AlignmentService conformance path",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimising them",
    )
    parser.add_argument(
        "--artifact",
        type=str,
        default=None,
        metavar="JSON",
        help="write the full fuzz report (incl. shrunk failures) to this file",
    )
    parser.add_argument(
        "--list-profiles",
        action="store_true",
        help="list registered workload profiles and exit",
    )
    parser.add_argument("--quiet", action="store_true", help="no per-round progress")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    # The config group's --engine selects the *service/config* engine; the
    # engines under differential test are the repeatable --engines above.
    add_config_arguments(parser, defaults=_FUZZ_DEFAULTS, exclude=_BELLA_ONLY)
    _add_engine_discovery(parser)
    args = parser.parse_args(argv)

    if args.list_profiles:
        for row in describe_profiles():
            print(f"{row['name']:>16s}  {row['summary']}")
        return 0

    config = config_from_args(args, _FUZZ_DEFAULTS)
    progress = None
    if not args.quiet and not args.json:
        progress = lambda line: print(line, file=sys.stderr)  # noqa: E731

    report = run_fuzz(
        config,
        seed=args.seed,
        count=args.count,
        time_budget=args.time,
        batch_size=args.batch,
        min_length=args.min_length,
        max_length=args.max_length,
        profiles=args.profiles,
        engines=args.engines,
        include_service=not args.no_service,
        shrink=not args.no_shrink,
        progress=progress,
    )

    if args.artifact:
        with open(args.artifact, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def main_obs(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-obs``: telemetry reader and overhead gate.

    ``read`` parses a JSON-lines metrics file written by ``repro-service
    serve --metrics-out`` back into snapshots and summarises the series
    (``serve --metrics-format prom`` writes the Prometheus exposition
    itself).  ``overhead`` times the quick engine benchmark with
    observability disabled and again with full tracing + flight recorder,
    printing the relative cost against the subsystem's < 5 % budget
    (``--check`` turns the budget into the exit status).
    """
    from . import obs as obs_mod

    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect and exercise the unified telemetry subsystem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    read = sub.add_parser(
        "read",
        help="summarise a JSON-lines metrics file (repro-service --metrics-out)",
    )
    read.add_argument("path", type=str, help="JSON-lines metrics file")
    read.add_argument(
        "--series",
        action="append",
        default=None,
        metavar="NAME",
        help="only show these series (repeatable; default: all)",
    )
    read.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    overhead = sub.add_parser(
        "overhead",
        help="measure full-observability cost vs a disabled run (< 5 %% budget)",
    )
    overhead.add_argument("--pairs", type=int, default=64, help="workload size")
    overhead.add_argument("--seed", type=int, default=2020, help="workload RNG seed")
    overhead.add_argument(
        "--repeats", type=int, default=3, help="runs per mode (best-of)"
    )
    overhead.add_argument(
        "--budget",
        type=float,
        default=0.05,
        help="relative overhead budget (default 0.05 = 5%%)",
    )
    overhead.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the measured overhead exceeds the budget",
    )

    args = parser.parse_args(argv)
    if args.command == "read":
        return _run_obs_read(args, obs_mod)
    return _run_obs_overhead(args, obs_mod)


def _run_obs_read(args, obs_mod) -> int:
    try:
        snapshots = obs_mod.read_jsonl(args.path)
    except OSError as error:
        print(f"error: cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    if not snapshots:
        print(f"{args.path}: no snapshots")
        return 0
    last = snapshots[-1]
    wanted = set(args.series) if args.series else None
    samples = [
        s
        for s in sorted(
            last.series, key=lambda s: (s.name, sorted(s.labels.items()))
        )
        if wanted is None or s.name in wanted
    ]
    if args.json:
        payload = {
            "path": args.path,
            "snapshots": len(snapshots),
            "series": [s.to_dict() for s in samples],
            "provenance": last.provenance,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{args.path}: {len(snapshots)} snapshot(s); latest:")
    for sample in samples:
        labels = ",".join(f"{k}={v}" for k, v in sorted(sample.labels.items()))
        suffix = f"{{{labels}}}" if labels else ""
        if sample.kind == "histogram" and sample.histogram is not None:
            print(
                f"  {sample.name}{suffix}  count={sample.histogram['count']} "
                f"sum={sample.histogram['sum']:.6g}"
            )
        else:
            print(f"  {sample.name}{suffix}  {sample.value:.6g}")
    if last.provenance:
        sha = last.provenance.get("git_sha", "")
        print(f"  (provenance: git_sha={sha or 'unknown'})")
    return 0


def _run_obs_overhead(args, obs_mod) -> int:
    from .bench.runner import engine_bench_jobs
    from .engine import get_engine

    jobs = engine_bench_jobs(args.pairs, args.seed)

    def best_seconds() -> float:
        engine = get_engine("batched")
        best = None
        for _ in range(max(1, args.repeats)):
            batch = engine.align_batch(jobs)
            if best is None or batch.elapsed_seconds < best:
                best = batch.elapsed_seconds
        return float(best)

    obs_mod.reset()
    engine = get_engine("batched")
    engine.align_batch(jobs)  # warm-up outside both measured modes
    baseline = best_seconds()
    obs_mod.configure(tracing=True, flight_recorder=True)
    try:
        enabled = best_seconds()
    finally:
        obs_mod.reset()
    overhead = (enabled - baseline) / baseline if baseline > 0 else 0.0
    print(
        f"disabled: {baseline:.4f}s  enabled: {enabled:.4f}s  "
        f"overhead: {100 * overhead:+.2f}%  (budget {100 * args.budget:.1f}%)"
    )
    if args.check and overhead > args.budget:
        print("overhead budget exceeded", file=sys.stderr)
        return 1
    return 0
