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
from repro.service.batcher import AdaptiveBatcher

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
