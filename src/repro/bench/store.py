"""Append-only baseline store for performance trajectories.

A :class:`BaselineStore` wraps one JSON file (``BENCH_engines.json`` /
``BENCH_service.json`` at the repository root) holding::

    {
      "schema": "repro-bench-trajectory/1",
      "trajectory": [ <BenchEntry dict>, ... ]     # oldest first
    }

Entries are only ever appended — the stored trajectory is the project's
recorded performance history, diffable in version control.  An append
writes the stored entries back as it read them, not through
:class:`BenchEntry` (which would add keys an old entry lacks and drop
ones it does not know), so recording one entry adds only that entry to
the file's diff.  Both committed trajectories start with the converted
pre-subsystem snapshot (timestamp ``"legacy"``), so the first recorded
baseline (the pre-compaction kernel) remains the comparison anchor.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import ConfigurationError
from .schema import BenchEntry

__all__ = ["BaselineStore"]

_SCHEMA = "repro-bench-trajectory/1"


class BaselineStore:
    """Reads/appends one trajectory file; never rewrites recorded entries.

    Parameters
    ----------
    path:
        The JSON file (created on first :meth:`append` if missing).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------ #
    def _read(self) -> dict:
        """The file's JSON document, as stored (a new one for a missing file)."""
        if not self.path.exists():
            return {"schema": _SCHEMA, "trajectory": []}
        try:
            data = json.loads(self.path.read_text())
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"baseline store {self.path} is not valid JSON: {error}"
            ) from error
        if isinstance(data, dict) and isinstance(data.get("trajectory"), list):
            return data
        raise ConfigurationError(
            f"baseline store {self.path} has an unrecognised layout "
            "(expected a trajectory)"
        )

    def load(self) -> list[BenchEntry]:
        """The stored trajectory, oldest first (empty for a missing file)."""
        return [BenchEntry.from_dict(e) for e in self._read()["trajectory"]]

    def latest(self, kind: str | None = None) -> BenchEntry | None:
        """Most recent entry (optionally restricted to one ``kind``)."""
        entries = self.load()
        for entry in reversed(entries):
            if kind is None or entry.kind == kind:
                return entry
        return None

    def latest_matching(self, entry: BenchEntry) -> BenchEntry | None:
        """Most recent stored entry with *entry*'s workload signature.

        Only entries measuring the *same* workload (kind, batch size, X,
        seed, scoring, quick flag) are comparable; ``None`` means nothing
        comparable is stored yet (first recording of this signature).
        """
        entries = self.load()
        for stored in reversed(entries):
            if stored.signature() == entry.signature():
                return stored
        return None

    # ------------------------------------------------------------------ #
    def append(self, entry: BenchEntry) -> None:
        """Append *entry*; every stored entry is written back as it was read."""
        data = self._read()
        data["trajectory"].append(entry.to_dict())
        self.path.write_text(json.dumps(data, indent=2) + "\n")
