"""The program names perfbench's tracer wraps must all still exist.

``perfbench/tracing.py`` patches wrappers around the serving stack's
public methods and module functions from outside ``src/``.  It resolves
each name at install time, so a rename or removal in the program breaks
the benchmark's traced run without any tier-1 failure.  This test installs
the tracer (loaded by file path, as ``perfbench/run.py`` sees it) and
checks that every patch landed and that uninstalling restores the
originals.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import repro.logan.kernel as kernel_mod
from repro.distrib.pool import ProcessWorkerPool
from repro.engine import get_engine
from repro.service.batcher import AdaptiveBatcher
from repro.workloads import WorkloadSpec, generate_workload

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_wrapped_name_and_uninstalls():
    originals = {
        "add": inspect.getattr_static(AdaptiveBatcher, "add"),
        "run_batch": inspect.getattr_static(ProcessWorkerPool, "run_batch"),
        "kernel": kernel_mod.xdrop_extend_batch,
    }
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original, _own in patches:
            assert inspect.getattr_static(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert inspect.getattr_static(AdaptiveBatcher, "add") is originals["add"]
    assert (
        inspect.getattr_static(ProcessWorkerPool, "run_batch")
        is originals["run_batch"]
    )
    assert kernel_mod.xdrop_extend_batch is originals["kernel"]


def test_traced_engine_call_reaches_the_wrapped_names():
    """A traced ``batched`` call is seen by every wrapper on its path: one
    kernel call carrying the engine's own rows, one ``engine.prepare``
    span and one ``engine.align_batch`` span.  A kernel or split called
    under another name would leave these per-layer metrics reading 0."""
    spec = WorkloadSpec(count=4, seed=5, min_length=60, max_length=200, xdrop=20)
    jobs = generate_workload("pacbio", spec).jobs
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = get_engine("batched", xdrop=spec.xdrop).align_batch(jobs)
    finally:
        tracer.uninstall()
    rows = result.extras["kernel_stats"].rows
    assert rows > 0
    (call,) = tracer.samples["kernel_calls"]
    assert dict(zip(tracing._STAT_FIELDS, call[1:]))["rows"] == rows
    names = [span[1] for span in tracer.spans]
    assert names.count("engine.prepare") == 1
    assert names.count("engine.align_batch") == 1
