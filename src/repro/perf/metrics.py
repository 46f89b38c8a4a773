"""Performance metrics: GCUPS, speed-ups and benchmark report rows.

GCUPS (giga cell updates per second) is the standard throughput metric for
alignment kernels and the one the paper uses throughout Section VI; speed-up
is always reported relative to a named baseline (SeqAn on 168 threads, ksw2
on 80 threads, or BELLA-with-SeqAn).  The small dataclasses here are what
the benchmark harness prints and serialises, one row per X value — the same
rows as the paper's tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["gcups", "speedup", "BenchRow", "BenchTable"]


def gcups(cells: int, seconds: float) -> float:
    """Giga cell updates per second.

    Returns the ``0.0`` sentinel for non-positive durations: a degenerate
    timing must not inflate a throughput claim, and ``inf`` would poison
    downstream :func:`speedup` arithmetic and JSON serialisation (``inf``
    is not valid JSON).  The sentinel is deliberately finite, so a caller
    that wants a report row flagged must say so —
    ``table.add_row(x, degenerate=seconds <= 0, ...)``; non-finite values
    reaching :meth:`BenchTable.add_row` from other sources are flagged
    automatically.
    """
    if seconds <= 0:
        return 0.0
    return cells / seconds / 1e9


def speedup(baseline_seconds: float, accelerated_seconds: float) -> float:
    """Baseline time divided by accelerated time (``> 1`` means faster).

    A non-positive accelerated time is degenerate; it clamps to ``0.0`` (see
    :func:`gcups`) instead of returning ``inf``.
    """
    if accelerated_seconds <= 0:
        return 0.0
    return baseline_seconds / accelerated_seconds


@dataclass
class BenchRow:
    """One row of a reproduced table: a parameter value plus named timings.

    Attributes
    ----------
    parameter:
        The swept parameter value (the X-drop threshold in Tables II-V, the
        GPU count in Fig. 12).
    values:
        Column name -> value (seconds, GCUPS or speed-up, as labelled by the
        owning table).
    degenerate:
        True when any value of the row came from a degenerate measurement
        (non-finite, e.g. a zero-duration timing); set automatically by
        :meth:`BenchTable.add_row`.
    """

    parameter: float
    values: dict[str, float] = field(default_factory=dict)
    degenerate: bool = False

    def formatted(self, columns: Sequence[str], width: int = 14) -> str:
        """Fixed-width text rendering of the row for the given column order."""
        cells = [f"{self.parameter:>{width}g}"]
        for col in columns:
            val = self.values.get(col, float("nan"))
            cells.append(f"{val:>{width}.3f}")
        return "".join(cells)


@dataclass
class BenchTable:
    """A reproduced table or figure series.

    Collects :class:`BenchRow` objects, renders them as fixed-width text
    (mirroring the layout of the paper's tables) and serialises to JSON so
    regression checks can consume the numbers.
    """

    title: str
    parameter_name: str
    columns: list[str]
    rows: list[BenchRow] = field(default_factory=list)
    notes: str = ""

    def add_row(
        self, parameter: float, degenerate: bool = False, **values: float
    ) -> BenchRow:
        """Append a row; unknown columns are added to the column list.

        Rows containing a non-finite value (NaN/inf from a degenerate
        measurement) are flagged ``degenerate`` automatically; pass
        ``degenerate=True`` to flag a row whose values are finite sentinels
        (e.g. the ``0.0`` that :func:`gcups` returns for a zero duration).
        """
        for key in values:
            if key not in self.columns:
                self.columns.append(key)
        degenerate = degenerate or any(
            not math.isfinite(v) for v in values.values()
        )
        row = BenchRow(parameter=parameter, values=dict(values), degenerate=degenerate)
        self.rows.append(row)
        return row

    def column(self, name: str) -> list[float]:
        """All values of one column, in row order (NaN when missing)."""
        return [row.values.get(name, float("nan")) for row in self.rows]

    def formatted(self, width: int = 14) -> str:
        """Fixed-width text rendering of the whole table."""
        header = [f"{self.parameter_name:>{width}s}"] + [
            f"{c:>{width}s}" for c in self.columns
        ]
        lines = [self.title, "".join(header)]
        lines.extend(row.formatted(self.columns, width) for row in self.rows)
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)

    def to_json(self) -> str:
        """JSON representation (used to archive benchmark outputs).

        Non-finite values serialise as ``null`` so the output is strict JSON
        (``json.dumps`` would otherwise emit the invalid literals
        ``Infinity``/``NaN``); degenerate rows carry ``"degenerate": true``.
        """

        def _finite(value: float):
            return value if math.isfinite(value) else None

        rows = []
        for row in self.rows:
            entry = {"parameter": row.parameter}
            entry.update({k: _finite(v) for k, v in row.values.items()})
            if row.degenerate:
                entry["degenerate"] = True
            rows.append(entry)
        payload = {
            "title": self.title,
            "parameter_name": self.parameter_name,
            "columns": self.columns,
            "rows": rows,
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "BenchTable":
        """Rebuild a table from :meth:`to_json` output (null -> NaN)."""
        payload = json.loads(text)
        table = cls(
            title=payload["title"],
            parameter_name=payload["parameter_name"],
            columns=list(payload["columns"]),
            notes=payload.get("notes", ""),
        )
        for row in payload["rows"]:
            parameter = row.pop("parameter")
            degenerate = bool(row.pop("degenerate", False))
            values = {
                k: (float("nan") if v is None else v) for k, v in row.items()
            }
            table.rows.append(
                BenchRow(parameter=parameter, values=values, degenerate=degenerate)
            )
        return table
