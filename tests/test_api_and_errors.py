"""Tests for the public API surface and the exception hierarchy."""

from __future__ import annotations

import importlib

import pytest

import repro
from repro import errors


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.baselines",
            "repro.gpusim",
            "repro.logan",
            "repro.bella",
            "repro.data",
            "repro.roofline",
            "repro.perf",
        ],
    )
    def test_subpackage_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        assert mod.__all__, f"{module} must export a public API"
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.__all__ lists missing name {name!r}"

    def test_headline_entry_points_are_exported(self):
        from repro.bella import BellaPipeline
        from repro.logan import LoganModel

        assert callable(LoganModel)
        assert callable(BellaPipeline)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.SequenceError,
            errors.AlignmentError,
            errors.ResourceModelError,
            errors.DatasetError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)

    def test_library_failures_are_catchable_with_base_class(self):
        from repro.core import encode

        with pytest.raises(errors.ReproError):
            encode("")

    def test_resource_errors_from_gpu_model(self):
        from repro.gpusim import TESLA_V100, occupancy

        with pytest.raises(errors.ReproError):
            occupancy(TESLA_V100, threads_per_block=4096)
