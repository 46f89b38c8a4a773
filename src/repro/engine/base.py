"""Alignment-engine protocol and registry.

Every engine in the library — the scalar reference loop (the oracle), the
inter-sequence batched kernel, the WFA-style wavefront kernel, the ksw2
affine Z-drop runner and LOGAN (the batched sweep plus its V100 model) — is
exposed through one uniform interface so that consumers (the BELLA
pipeline, the CLI, the benchmark harness) select an implementation by
*name* instead of importing a concrete class:

>>> from repro.engine import get_engine, list_engines
>>> engine = get_engine("batched", xdrop=50)
>>> batch = engine.align_batch(jobs)
>>> batch.scores()

The registry is open: downstream code can plug in its own engine with
:func:`register_engine` (usable as a decorator) and the CLI / benchmarks
pick it up automatically via :func:`list_engines`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..core.job import AlignmentJob, BatchWorkSummary
from ..core.result import SeedAlignmentResult
from ..errors import ConfigurationError

__all__ = [
    "EngineBatchResult",
    "AlignmentEngine",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_from_config",
    "list_engines",
    "describe_engines",
]


@dataclass
class EngineBatchResult:
    """Uniform result of one engine batch run.

    Attributes
    ----------
    engine:
        Name of the engine that produced the batch.
    results:
        Per-job seed alignment results, in job order.
    summary:
        Aggregate work accounting (cells, extensions, iterations).
    elapsed_seconds:
        Measured wall-clock of the Python run.
    modeled_seconds:
        Modeled wall-clock on LOGAN's V100(s) for the ``logan`` engine,
        otherwise ``None``.
    extras:
        Engine-specific detail (e.g. the ``logan`` engine's modeled
        ``timing``) for callers that need more than the uniform surface.
    """

    engine: str
    results: list[SeedAlignmentResult]
    summary: BatchWorkSummary
    elapsed_seconds: float
    modeled_seconds: float | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def scores(self) -> list[int]:
        """Per-job alignment scores (left + seed + right)."""
        return [r.score for r in self.results]

    def measured_gcups(self) -> float:
        """GCUPS of the measured Python run."""
        return self.summary.gcups(self.elapsed_seconds)


@runtime_checkable
class AlignmentEngine(Protocol):
    """Interface every registered alignment engine implements.

    ``exact`` declares whether the engine reproduces the X-drop reference
    scores bit-for-bit (the ksw2 engine does not: it runs an affine-gap
    Z-drop recurrence, which is only comparable, not identical).  The
    scoring scheme and X are fixed when the engine is built; a batch call
    takes only the jobs.
    """

    name: str
    exact: bool

    def align_batch(
        self, jobs: Sequence[AlignmentJob]
    ) -> EngineBatchResult:  # pragma: no cover - protocol
        """Align a batch of jobs with the engine's scoring and X."""
        ...


_REGISTRY: dict[str, Callable[..., AlignmentEngine]] = {}


def register_engine(
    name: str, factory: Callable[..., AlignmentEngine] | None = None
):
    """Register an engine *factory* (a class or callable) under *name*.

    Usable directly (``register_engine("logan", LoganEngine)``) or as a
    class decorator (``@register_engine("logan")``).  Names are
    case-insensitive and must be unique.
    """

    def _register(obj: Callable[..., AlignmentEngine]):
        key = str(name).lower()
        if key in _REGISTRY:
            raise ConfigurationError(f"engine {key!r} is already registered")
        _REGISTRY[key] = obj
        return obj

    if factory is None:
        return _register
    return _register(factory)


def unregister_engine(name: str) -> None:
    """Remove an engine from the registry (no-op if absent)."""
    _REGISTRY.pop(str(name).lower(), None)


def get_engine(name: str, **options: Any) -> AlignmentEngine:
    """Instantiate the engine registered under *name*.

    Keyword *options* are forwarded to the engine factory (typical ones:
    ``scoring``, ``xdrop``, ``workers``; the LOGAN engine also accepts
    ``system``).
    """
    factory = _REGISTRY.get(str(name).lower())
    if factory is None:
        raise ConfigurationError(
            f"unknown engine {name!r}; available: {', '.join(list_engines())}"
        )
    return factory(**options)


def engine_from_config(config: Any) -> AlignmentEngine:
    """Instantiate the engine described by an :class:`repro.api.AlignConfig`.

    Also reachable as ``get_engine.from_config(config)``.  The config's
    ``scoring``/``xdrop``/``workers``/``trace`` become the uniform factory
    options and ``engine_options`` are forwarded verbatim (e.g.
    ``{"bandwidth": 64}`` for ksw2).  Every factory must accept the four
    uniform options, so the engine aligns with exactly the config's scoring
    and X; one that does not fails here.  Anything duck-typed with those
    attributes works — the registry never imports :mod:`repro.api`.

    Unknown ``engine_options`` keys raise a :class:`ConfigurationError`
    naming the option and the factory's accepted parameters instead of a
    bare ``TypeError`` from deep inside the constructor.
    """
    key = str(config.engine).lower()
    factory = _REGISTRY.get(key)
    if factory is None:
        raise ConfigurationError(
            f"engine: unknown engine {config.engine!r}; "
            f"available: {', '.join(list_engines())}"
        )
    options: dict[str, Any] = {
        "scoring": config.scoring,
        "xdrop": config.xdrop,
        "workers": config.workers,
        "trace": config.trace,
    }
    extra = dict(getattr(config, "engine_options", None) or {})
    shadowed = sorted(set(extra) & set(options))
    if shadowed:
        raise ConfigurationError(
            f"engine_options: {', '.join(map(repr, shadowed))} shadow the "
            "uniform config fields of the same name; set them on the config "
            "itself (scoring/xdrop/workers/trace) so every layer agrees"
        )

    target = factory.__init__ if inspect.isclass(factory) else factory
    parameters = inspect.signature(target).parameters
    accepts_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    accepted = {name for name in parameters if name != "self"}
    if not accepts_any:
        unknown = sorted(set(extra) - accepted)
        if unknown:
            raise ConfigurationError(
                f"engine_options: {', '.join(map(repr, unknown))} not accepted "
                f"by engine {key!r}; accepted: {', '.join(sorted(accepted))}"
            )
    options.update(extra)
    return factory(**options)


get_engine.from_config = engine_from_config  # the config-first spelling


def list_engines() -> list[str]:
    """Sorted names of every registered engine."""
    return sorted(_REGISTRY)


def describe_engines() -> list[dict[str, Any]]:
    """One description row per registered engine, for CLI discovery.

    Each row carries the registered ``name``, the factory's ``exact`` flag
    (``None`` when the factory does not declare one, e.g. a plain callable),
    ``work_exact`` (whether work accounting and band traces are also
    bit-identical to the reference; defaults to the ``exact`` flag when the
    factory does not declare it) and the first line of its docstring as a
    human-readable ``summary``.  Introspection only — no engine is
    instantiated.
    """
    rows: list[dict[str, Any]] = []
    for name in list_engines():
        factory = _REGISTRY[name]
        doc = inspect.getdoc(factory) or ""
        exact = getattr(factory, "exact", None)
        rows.append(
            {
                "name": name,
                "exact": exact,
                "work_exact": getattr(factory, "work_exact", exact),
                "summary": doc.splitlines()[0] if doc else "",
            }
        )
    return rows
