"""One front door for the alignment stack: ``AlignConfig`` + ``Aligner``.

The library is pluggable by design — BELLA swaps SeqAn/ksw2/LOGAN aligners
behind one seam — but each layer historically grew its own configuration
surface: :func:`repro.core.xdrop_vectorized.xdrop_extend` takes raw
sequences, :func:`repro.engine.get_engine` free-form factory options,
:class:`repro.service.AlignmentService` a constructor of its own, and
:class:`repro.bella.pipeline.BellaPipeline` a dozen loose kwargs.  This
module unifies them behind a single *declarative* configuration object and
one session facade:

``AlignConfig``
    A frozen, validating dataclass naming the engine (plus free-form
    ``engine_options``), the :class:`~repro.core.scoring.ScoringScheme`,
    the X-drop threshold, worker count, seed policy, band/bin parameters
    and — nested as a :class:`ServiceConfig` — every serving-layer knob.
    ``to_dict()``/``from_dict()`` round-trip through plain JSON, so one
    ``config.json`` can drive the library, every aligning CLI subcommand
    (``--config config.json``) and any external orchestration.

``Aligner``
    A session facade over the configured engine: ``align(query, target)``
    for one pair, ``align_batch(jobs)`` for the classic batch call,
    ``align_iter(jobs)`` for a streaming generator that flows through the
    service batcher/cache, and ``open_service()`` for a fully configured
    :class:`~repro.service.AlignmentService`.  All paths return the
    existing typed results, bit-identical to calling the layers directly.

Quickstart
----------

>>> from repro.api import Aligner, AlignConfig
>>> aligner = Aligner(AlignConfig(engine="batched", xdrop=50))
>>> result = aligner.align("ACGTACGTTT", "ACGTACGTAA")
>>> result.score
8

Every consumer accepts the same object: ``get_engine.from_config(cfg)``,
``AlignmentService(config=cfg)``, ``BellaPipeline(config=cfg)``.  For
``engine="logan"`` the V100 model is ``cfg.build_engine().model``, which
replays the engine's results, so one config gets one answer everywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .core.encoding import SequenceLike, encode
from .core.job import AlignmentJob
from .core.result import SeedAlignmentResult
from .core.scoring import ScoringScheme
from .core.seed_extend import Seed
from .engine.base import AlignmentEngine, EngineBatchResult, engine_from_config, list_engines
from .errors import ConfigurationError

__all__ = [
    "SEED_POLICIES",
    "default_seed",
    "ServiceConfig",
    "AlignConfig",
    "Aligner",
    "add_config_arguments",
    "config_from_args",
]

#: Accepted values of :attr:`AlignConfig.seed_policy` — where the anchor
#: seed is synthesised when :meth:`Aligner.align` is called without one.
SEED_POLICIES = ("start", "middle")

_TRANSPORTS = ("thread", "process")

_PREFILTER_MODES = ("off", "advise", "enforce")


def default_seed(policy: str, query_length: int, target_length: int) -> Seed:
    """The anchor seed a *policy* synthesises for an unseeded pair.

    ``"start"`` anchors at position (0, 0) — the LOGAN benchmark
    convention; ``"middle"`` at the centre of the shorter sequence.  The
    single definition shared by :meth:`Aligner.align` and the CLI job
    builders, so every front door anchors identically.
    """
    if policy == "middle":
        centre = max(0, min(query_length, target_length) // 2 - 1)
        return Seed(centre, centre, 1)
    if policy != "start":
        raise ConfigurationError(
            f"seed_policy: must be one of {', '.join(SEED_POLICIES)}, got {policy!r}"
        )
    return Seed(0, 0, 1)


def _require(condition: bool, field_name: str, message: str) -> None:
    """Raise a :class:`ConfigurationError` naming the offending field."""
    if not condition:
        raise ConfigurationError(f"{field_name}: {message}")


# --------------------------------------------------------------------------- #
# ServiceConfig
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServiceConfig:
    """Serving-layer knobs, nested inside :class:`AlignConfig`.

    Attributes
    ----------
    num_workers:
        Workers of the pool; 1 is the default and only value, kept so
        saved configs that name it still load.  Each transport runs one
        worker, and the service waits for each batch under its lock, so
        a second process worker only took turns (within host noise of
        one on the ``service_mp`` bench row).  To align in parallel, set
        :attr:`AlignConfig.workers`, which the thread transport honours;
        the process transport's worker runs each batch whole.
    max_batch_size:
        Most jobs in one engine call.  Each flush (a drain or, in
        background mode, the worker going idle) takes every pending job
        in length order and splits it into batches of at most this many,
        so the cap only matters for flushes larger than itself.
    cache_capacity:
        LRU result-cache entries (0 disables caching).
    queue_capacity:
        Bound of the submission queue (backpressure limit).
    worker_policy:
        Dispatch policy; ``"batch"`` (each formed batch runs whole on one
        worker) is the default and only value, kept so configs that name
        it still load.
    submit_timeout:
        Seconds ``submit`` may block on a full queue before raising.
    transport:
        ``"thread"`` (default) runs each formed batch inline in the
        coordinator, on the thread that dispatches it, splitting it as
        :attr:`AlignConfig.workers` allows; ``"process"`` spawns one
        worker process fed through shared memory (``repro.distrib``),
        taking engine dispatch out of the coordinator's GIL.  That worker
        builds its engine with ``workers=1`` and runs each batch whole.
    state_path:
        Optional path of the durable SQLite store.  When set, submissions
        and results survive restarts: unfinished jobs are redelivered and
        completed results answer from disk (WAL mode, content-addressed
        with the in-memory cache's keys).
    prefilter:
        Admission triage mode.  ``"off"`` skips sketching entirely;
        ``"advise"`` classifies every submission and counts the outcome
        without changing results; ``"enforce"`` additionally resolves
        ``reject``-class pairs instantly with the seed-only placeholder
        result, never dispatching them to an engine.
    prefilter_options:
        Keyword overrides for :class:`repro.prefilter.PrefilterPolicy`
        (``k``, ``metric``, ``reject_distance``, ...).  Validated at
        config construction whenever the prefilter is on.
    """

    num_workers: int = 1
    max_batch_size: int = 64
    cache_capacity: int = 4096
    queue_capacity: int = 1024
    worker_policy: str = "batch"
    submit_timeout: float = 5.0
    transport: str = "thread"
    state_path: str | None = None
    prefilter: str = "off"
    prefilter_options: dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            self.num_workers == 1,
            "service.num_workers",
            f"must be 1 (each transport runs one worker), got "
            f"{self.num_workers!r}; set AlignConfig.workers to align in parallel",
        )
        object.__setattr__(self, "num_workers", 1)
        _require(
            int(self.max_batch_size) >= 1,
            "service.max_batch_size",
            f"must be >= 1, got {self.max_batch_size}",
        )
        object.__setattr__(self, "max_batch_size", int(self.max_batch_size))
        _require(
            int(self.cache_capacity) >= 0,
            "service.cache_capacity",
            f"must be >= 0 (0 disables caching), got {self.cache_capacity}",
        )
        object.__setattr__(self, "cache_capacity", int(self.cache_capacity))
        _require(
            int(self.queue_capacity) >= 1,
            "service.queue_capacity",
            f"must be >= 1, got {self.queue_capacity}",
        )
        object.__setattr__(self, "queue_capacity", int(self.queue_capacity))
        _require(
            self.worker_policy == "batch",
            "service.worker_policy",
            "must be 'batch' (formed batches are never split), "
            f"got {self.worker_policy!r}",
        )
        _require(
            float(self.submit_timeout) > 0.0,
            "service.submit_timeout",
            f"must be positive, got {self.submit_timeout}",
        )
        object.__setattr__(self, "submit_timeout", float(self.submit_timeout))
        _require(
            self.transport in _TRANSPORTS,
            "service.transport",
            f"must be one of {', '.join(_TRANSPORTS)}, got {self.transport!r}",
        )
        if self.state_path is not None:
            _require(
                isinstance(self.state_path, str) and bool(self.state_path),
                "service.state_path",
                f"must be a non-empty path or None, got {self.state_path!r}",
            )
        _require(
            self.prefilter in _PREFILTER_MODES,
            "service.prefilter",
            f"must be one of {', '.join(_PREFILTER_MODES)}, "
            f"got {self.prefilter!r}",
        )
        _require(
            isinstance(self.prefilter_options, Mapping)
            and all(isinstance(k, str) for k in self.prefilter_options),
            "service.prefilter_options",
            "must be a mapping with string keys, "
            f"got {self.prefilter_options!r}",
        )
        object.__setattr__(
            self, "prefilter_options", dict(self.prefilter_options)
        )
        if self.prefilter != "off" or self.prefilter_options:
            # Validate the policy kwargs eagerly so a bad --prefilter-* or
            # config file fails at construction, naming the config field.
            from .prefilter import PrefilterPolicy

            try:
                PrefilterPolicy.from_options(self.prefilter_options)
            except TypeError as exc:
                raise ConfigurationError(
                    f"service.prefilter_options: {exc}"
                ) from exc

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceConfig":
        """Build from a plain mapping; unknown keys raise, naming themselves."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"service: unknown option(s) {', '.join(map(repr, unknown))}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))


def _json_object(text: str) -> dict[str, Any]:
    """The JSON object *text* holds; anything else raises."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"config: invalid JSON ({error})") from error
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"config: JSON document must be an object, got {type(data).__name__}"
        )
    return data


# --------------------------------------------------------------------------- #
# AlignConfig
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AlignConfig:
    """Declarative configuration of the whole alignment stack.

    Every layer consumes the same object — the engine registry
    (``get_engine.from_config``), the :class:`~repro.service.AlignmentService`
    (``config=``), the :class:`~repro.bella.pipeline.BellaPipeline`
    (``config=``) and every aligning CLI subcommand (``--config config.json``) —
    so adding a scenario means adding a field here instead of plumbing a
    kwarg through five layers.  ``engine_options`` are checked in one place,
    :func:`~repro.engine.engine_from_config`; ``repro-align`` takes its
    :class:`~repro.logan.LoganModel` from the built ``logan`` engine.

    Attributes
    ----------
    engine:
        Registered engine name (see :func:`repro.engine.list_engines`).
    engine_options:
        Free-form factory options forwarded to the engine constructor
        (e.g. ``{"gpus": 6}`` for the LOGAN engine, ``{"bandwidth": 64}``
        for ksw2's static band).  Keep the values JSON-serialisable if the
        config must round-trip through :meth:`to_dict`.
    scoring:
        Linear-gap scoring scheme shared by every layer.
    xdrop:
        X-drop termination threshold.
    workers:
        Most processes one engine call splits its batch across — the one
        way to align in parallel (LOGAN's split of a batch across GPUs,
        balanced by estimated cells, on CPU processes).  Defaults to the
        host's cores.  Results are bit-identical to ``workers=1``.  A call
        of any engine splits only when each chunk gets at least
        :data:`~repro.perf.parallel.SPLIT_MIN_CELLS` (4 M) estimated
        cells, so serving calls and 64-pair service batches at X = 50
        stay in-process, while BELLA's one wide call splits.  The split
        runs on one process-wide ``spawn`` pool
        (:mod:`repro.perf.parallel`), started by the first call that
        splits, whose workers stay resident until the process exits; a
        script that splits must guard its entry point with
        ``if __name__ == "__main__":``.  The default is resolved when the
        config is built and :meth:`to_dict` writes the number, so a saved
        config pins its core count (one saved on a 2-core host caps a
        larger host at 2), and the provenance ``config_hash`` of the
        default config differs between hosts with different core counts.
    trace:
        Record per-anti-diagonal band traces in every result.
    seed_policy:
        Where :meth:`Aligner.align` anchors the seed when none is given:
        ``"start"`` (position 0/0, the LOGAN benchmark convention) or
        ``"middle"`` (centre of the shorter sequence).
    bin_width:
        Width in bases of BELLA's diagonal seed bins
        (:func:`repro.bella.binning.choose_seed`); at least 1.
    service:
        Nested serving-layer configuration (:class:`ServiceConfig`).
    """

    engine: str = "batched"
    engine_options: dict[str, Any] = field(default_factory=dict)
    scoring: ScoringScheme = field(default_factory=ScoringScheme)
    xdrop: int = 100
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    trace: bool = False
    seed_policy: str = "start"
    bin_width: int = 500
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        key = str(self.engine).lower()
        object.__setattr__(self, "engine", key)
        _require(
            key in list_engines(),
            "engine",
            f"unknown engine {self.engine!r}; available: {', '.join(list_engines())}",
        )
        _require(
            isinstance(self.engine_options, Mapping)
            and all(isinstance(k, str) for k in self.engine_options),
            "engine_options",
            f"must be a mapping with string keys, got {self.engine_options!r}",
        )
        object.__setattr__(self, "engine_options", dict(self.engine_options))
        if isinstance(self.scoring, Mapping):
            object.__setattr__(self, "scoring", ScoringScheme(**self.scoring))
        _require(
            isinstance(self.scoring, ScoringScheme),
            "scoring",
            f"must be a ScoringScheme (or its mapping form), got {self.scoring!r}",
        )
        _require(
            int(self.xdrop) >= 0, "xdrop", f"must be >= 0, got {self.xdrop}"
        )
        object.__setattr__(self, "xdrop", int(self.xdrop))
        _require(
            int(self.workers) >= 1, "workers", f"must be >= 1, got {self.workers}"
        )
        object.__setattr__(self, "workers", int(self.workers))
        object.__setattr__(self, "trace", bool(self.trace))
        _require(
            self.seed_policy in SEED_POLICIES,
            "seed_policy",
            f"must be one of {', '.join(SEED_POLICIES)}, got {self.seed_policy!r}",
        )
        _require(
            int(self.bin_width) >= 1, "bin_width", f"must be >= 1, got {self.bin_width}"
        )
        object.__setattr__(self, "bin_width", int(self.bin_width))
        if isinstance(self.service, Mapping):
            object.__setattr__(self, "service", ServiceConfig.from_dict(self.service))
        _require(
            isinstance(self.service, ServiceConfig),
            "service",
            f"must be a ServiceConfig (or its mapping form), got {self.service!r}",
        )

    # ------------------------------------------------------------------ #
    # Serialisation.
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        return {
            "engine": self.engine,
            "engine_options": dict(self.engine_options),
            "scoring": {
                "match": self.scoring.match,
                "mismatch": self.scoring.mismatch,
                "gap": self.scoring.gap,
            },
            "xdrop": self.xdrop,
            "workers": self.workers,
            "trace": self.trace,
            "seed_policy": self.seed_policy,
            "bin_width": self.bin_width,
            "service": self.service.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlignConfig":
        """Build from a plain mapping; unknown keys raise, naming themselves.

        ``AlignConfig.from_dict(cfg.to_dict()) == cfg`` holds for every
        config whose ``engine_options`` are JSON values.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"config: unknown option(s) {', '.join(map(repr, unknown))}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AlignConfig":
        """Parse a config from JSON text (inverse of :meth:`to_json`)."""
        return cls.from_dict(_json_object(text))

    @classmethod
    def load(cls, path) -> "AlignConfig":
        """Read a full config from a JSON file (inverse of :meth:`save`)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path) -> None:
        """Write the config to a JSON file (inverse of :meth:`load`)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    # ------------------------------------------------------------------ #
    def replace(self, **overrides: Any) -> "AlignConfig":
        """A copy with *overrides* applied (validated like the constructor)."""
        return dataclasses.replace(self, **overrides)

    def build_engine(self) -> AlignmentEngine:
        """Instantiate the configured engine (``get_engine.from_config``)."""
        return engine_from_config(self)


# --------------------------------------------------------------------------- #
# Aligner facade
# --------------------------------------------------------------------------- #
class Aligner:
    """Session facade over one configured alignment engine.

    Parameters
    ----------
    config:
        The :class:`AlignConfig` to run with (default: ``AlignConfig()``).

    The engine is built lazily on first use and shared by every call, so a
    session amortises construction (and, for :meth:`align_iter`, the
    service's batcher and result cache) across requests.  ``Aligner`` is a
    context manager; leaving the ``with`` block shuts down any service the
    session opened internally.
    """

    def __init__(self, config: AlignConfig | None = None) -> None:
        if config is None:
            config = AlignConfig()
        elif not isinstance(config, AlignConfig):
            raise ConfigurationError(
                f"config: must be an AlignConfig, got {type(config).__name__}"
            )
        self._config = config
        self._engine: AlignmentEngine | None = None
        self._service = None

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> AlignConfig:
        """The immutable configuration of this session."""
        return self._config

    @property
    def engine(self) -> AlignmentEngine:
        """The configured engine (built lazily, shared by every call)."""
        if self._engine is None:
            self._engine = engine_from_config(self._config)
        return self._engine

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Aligner(engine={self._config.engine!r}, xdrop={self._config.xdrop})"

    # ------------------------------------------------------------------ #
    def align(
        self,
        query: SequenceLike,
        target: SequenceLike,
        seed: Seed | None = None,
    ) -> SeedAlignmentResult:
        """Seed-and-extend one pair; returns the typed per-pair result.

        Without an explicit *seed* the anchor is synthesised by the
        configured ``seed_policy`` (``"start"``: position 0/0;
        ``"middle"``: centre of the shorter sequence).
        """
        q = encode(query)
        t = encode(target)
        if seed is None:
            seed = default_seed(self._config.seed_policy, len(q), len(t))
        job = AlignmentJob(query=q, target=t, seed=seed)
        return self.align_batch([job]).results[0]

    def align_batch(self, jobs: Sequence[AlignmentJob]) -> EngineBatchResult:
        """Align a batch through the configured engine.

        Bit-identical to ``get_engine(config.engine, ...).align_batch(jobs)``
        — the facade adds no transformation, only configuration.
        """
        return self.engine.align_batch(jobs)

    def align_iter(
        self, jobs: Iterable[AlignmentJob]
    ) -> Iterator[SeedAlignmentResult]:
        """Stream results for *jobs*, flowing through the service batcher.

        Jobs are consumed lazily in windows of the configured
        ``service.max_batch_size``; each window is submitted to the
        session's internal :class:`~repro.service.AlignmentService`
        (opened on first use), drained, and its results yielded in
        submission order.  Repeated pairs inside one session are answered
        from the service's content-addressed cache.
        """
        service = self._internal_service()
        window: list[AlignmentJob] = []
        window_size = max(1, self._config.service.max_batch_size)
        for job in jobs:
            window.append(job)
            if len(window) >= window_size:
                yield from self._flush_window(service, window)
                window = []
        if window:
            yield from self._flush_window(service, window)

    @staticmethod
    def _flush_window(service, window: list[AlignmentJob]):
        tickets = service.submit_many(window)
        service.drain()
        for ticket in tickets:
            yield ticket.result(timeout=60.0)

    # ------------------------------------------------------------------ #
    def open_service(self):
        """A fully configured :class:`~repro.service.AlignmentService`.

        The caller owns the returned service (use it as a context manager
        or call ``shutdown()``); the session's internal service used by
        :meth:`align_iter` is managed separately.
        """
        from .service import AlignmentService

        return AlignmentService(config=self._config)

    def _internal_service(self):
        if self._service is None:
            self._service = self.open_service()
        return self._service

    def close(self) -> None:
        """Shut down the internal service, if :meth:`align_iter` opened one."""
        if self._service is not None:
            self._service.shutdown()
            self._service = None

    def __enter__(self) -> "Aligner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Shared CLI argument group, generated from the config fields
# --------------------------------------------------------------------------- #
#: (field, flag, type, help) rows for the simple AlignConfig scalars.
_CONFIG_FLAGS = (
    ("engine", "--engine", str, "alignment engine from the registry"),
    ("xdrop", "--xdrop", int, "X-drop termination threshold"),
    ("workers", "--workers", int, "most processes one engine call splits its batch across"),
    ("seed_policy", "--seed-policy", str, "default seed anchor (start|middle)"),
    ("bin_width", "--bin-width", int, "BELLA diagonal seed-bin width in bases"),
)

#: (field, flag, type, help) rows for the ScoringScheme sub-fields.
_SCORING_FLAGS = (
    ("match", "--match", int, "match score"),
    ("mismatch", "--mismatch", int, "mismatch score"),
    ("gap", "--gap", int, "gap score"),
)

#: (field, flag, type, help) rows for the nested ServiceConfig.
_SERVICE_FLAGS = (
    ("max_batch_size", "--batch-size", int, "most jobs in one engine call"),
    ("cache_capacity", "--cache-capacity", int, "LRU result-cache entries"),
    ("queue_capacity", "--queue-capacity", int, "submission queue bound"),
    ("transport", "--transport", str, "worker transport (thread/process)"),
    ("state_path", "--state", str, "durable SQLite state file"),
    ("prefilter", "--prefilter", str, "admission triage (off/advise/enforce)"),
)


def _dest(flag: str) -> str:
    """The argparse namespace attribute a ``--flag-name`` lands on."""
    return flag.lstrip("-").replace("-", "_")


def add_config_arguments(
    parser: argparse.ArgumentParser,
    *,
    defaults: AlignConfig | None = None,
    include_service: bool = False,
    exclude: Sequence[str] = (),
) -> None:
    """Add the shared ``AlignConfig`` argument group to *parser*.

    One group serves every aligning CLI subcommand: ``--config
    config.json`` overrides the keys of *defaults* that the file names, and
    the per-field flags (generated from the config's fields) override
    whatever the file or *defaults* carry.  *defaults* supplies the
    per-command baseline shown in ``--help``; *exclude* drops fields a
    command never reads (e.g. ``bin_width`` where BELLA never runs);
    *include_service* adds the nested :class:`ServiceConfig` flags.
    """
    shown = defaults if defaults is not None else AlignConfig()
    group = parser.add_argument_group(
        "alignment configuration",
        "shared AlignConfig surface (file first, then per-field overrides)",
    )
    group.add_argument(
        "--config",
        type=str,
        default=None,
        metavar="JSON",
        help="AlignConfig JSON file (see AlignConfig.to_dict); the keys it "
        "names override the command's defaults",
    )
    for name, flag, ftype, help_text in _CONFIG_FLAGS:
        if name in exclude:
            continue
        extra: dict[str, Any] = {}
        if name == "engine":
            extra["choices"] = list_engines()
        if name == "seed_policy":
            extra["choices"] = list(SEED_POLICIES)
        flags = ("--xdrop", "-x") if name == "xdrop" else (flag,)
        default_shown = getattr(shown, name)
        group.add_argument(
            *flags,
            type=ftype,
            default=None,
            help=f"{help_text} (default {default_shown})",
            **extra,
        )
    for name, flag, ftype, help_text in _SCORING_FLAGS:
        if name in exclude:
            continue
        group.add_argument(
            flag,
            type=ftype,
            default=None,
            help=f"{help_text} (default {getattr(shown.scoring, name)})",
        )
    if include_service:
        for name, flag, ftype, help_text in _SERVICE_FLAGS:
            if name in exclude:
                continue
            extra = {}
            if name == "transport":
                extra["choices"] = list(_TRANSPORTS)
            if name == "prefilter":
                extra["choices"] = list(_PREFILTER_MODES)
            group.add_argument(
                flag,
                type=ftype,
                default=None,
                help=f"{help_text} (default {getattr(shown.service, name)})",
                **extra,
            )


def config_from_args(
    args: argparse.Namespace,
    defaults: AlignConfig | None = None,
    exclude: Sequence[str] = (),
) -> AlignConfig:
    """Resolve the effective :class:`AlignConfig` of one CLI invocation.

    Precedence (lowest to highest): the command's *defaults*, the
    ``--config`` JSON file, explicit per-field flags.  The file overrides
    only the keys it names (a ``scoring`` or ``service`` object only its
    own keys), so ``{"trace": true}`` keeps the command's engine and X.
    Pass the same *exclude* as :func:`add_config_arguments` so fields a
    command defines itself (with different semantics) are not read back
    as overrides.
    """
    base = defaults if defaults is not None else AlignConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as handle:
            named = _json_object(handle.read())
        merged = base.to_dict()
        for key, value in named.items():
            if key in ("scoring", "service") and isinstance(value, Mapping):
                value = {**merged[key], **value}
            merged[key] = value
        base = AlignConfig.from_dict(merged)

    overrides: dict[str, Any] = {}
    for name, flag, _, _ in _CONFIG_FLAGS:
        if name in exclude:
            continue
        value = getattr(args, _dest(flag), None)
        if value is not None:
            overrides[name] = value

    scoring_overrides = {
        name: getattr(args, _dest(flag))
        for name, flag, _, _ in _SCORING_FLAGS
        if name not in exclude and getattr(args, _dest(flag), None) is not None
    }
    if scoring_overrides:
        overrides["scoring"] = dataclasses.replace(base.scoring, **scoring_overrides)

    service_overrides = {
        name: getattr(args, _dest(flag))
        for name, flag, _, _ in _SERVICE_FLAGS
        if name not in exclude and getattr(args, _dest(flag), None) is not None
    }
    if service_overrides:
        overrides["service"] = dataclasses.replace(base.service, **service_overrides)

    return base.replace(**overrides) if overrides else base
