"""Benchmark harness reproducing every table and figure of the LOGAN paper.

Run with ``pytest benchmarks/ --benchmark-only``.  Each ``bench_*.py`` file
regenerates one paper artefact (the experiment index is
``harness._EXPERIMENTS``), prints the reproduced rows next to the paper's
published numbers and archives a JSON copy under ``benchmarks/results/``.
"""
