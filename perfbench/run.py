#!/usr/bin/env python3
"""Benchmark of the LOGAN X-drop reproduction: three seeded workloads.

    python3 perfbench/run.py --workload bella_ecoli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any answer is wrong or the program is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("bella_ecoli", "serve_socket", "serve_open")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=("bella_ecoli", "serve_open"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(args) -> int:
    """Child of a set-up measurement: import, construct and warm up once."""
    start = time.perf_counter()
    import workloads

    imported = time.perf_counter() - start
    seconds = workloads.setup_only(args.setup_probe, args.seed)
    print(json.dumps({"setup_s": imported + seconds}))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's source is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return _setup_probe(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return _run_all(args)

    import workloads

    outcome = workloads.RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = outcome.layers if args.trace else outcome.metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}", file=sys.stderr)
        return 3
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    samples = outcome.notes.get("latency_samples")
    for metric in declared:
        count = f"  (n={samples})" if metric["name"].startswith("latency_p") else ""
        print(f"{metric['name']:28s} {values[metric['name']]:>16.6g} {metric['unit']}{count}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {json.dumps(value, default=str)}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
