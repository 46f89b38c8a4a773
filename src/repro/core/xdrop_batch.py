"""Inter-sequence batched X-drop extension kernel (compacting).

The LOGAN paper's central observation (Section IV) is that X-drop extension
only scales when *inter-sequence* parallelism is exploited: one GPU block per
extension, thousands of extensions in flight at once.  The per-pair kernel in
:mod:`repro.core.xdrop_vectorized` captures the *intra*-sequence parallelism
of one anti-diagonal; this module adds the missing axis.

:func:`xdrop_extend_batch` packs every extension of a batch into padded 2-D
NumPy arrays — one row per alignment, exactly mirroring LOGAN's
one-block-per-extension layout — and advances a single global anti-diagonal
counter.  Each step performs one set of array operations over the whole
batch:

* every row's band is derived from its two previous bands at once;
* the three-parent recurrence is evaluated for every alignment's band at
  once (rows whose band does not cover a column are masked to ``-inf``);
* the X-drop prune uses a per-row running best (the per-block shared
  variable of the GPU kernel);
* the band is trimmed per row by locating the first/last finite cell.

Because every row shares the step, an anti-diagonal costs a fixed number of
NumPy calls whatever the batch holds: the per-step floor that bounds small
batches.  Three choices keep that number to about 35 calls a step:

**Stacked band state.**  The bands live in one ``(2, rows)`` int64 array of
``[d - lo, hi]`` per row: the band's last target column and last query row.
In that form both matrix bounds are the constant ``[n, m]``, and deriving a
band is ``min(max(previous, before previous) + 1, [n, m])`` — three calls,
no ``where`` — while the union window of the live bands is one ``max`` over
the rows.  An empty band is the sentinel ``_EMPTY_BAND`` (``-2**31``) in
both entries, and a retired row's bounds are set to it, which pins its band
there.  The sentinel can enter neither the window nor the mask: every live
entry is ``>= 0``, so the sentinel never wins the window's maximum; and it
puts the row's ``lo`` (``d + 2**31``) above and its ``hi`` below every
column, so the band mask prunes every cell of the row.

**Event-driven retirement.**  A row retires when X-drop prunes every cell
of its anti-diagonal (an early stop), or after it computes its far corner
``(m, n)`` on anti-diagonal ``m + n``.  Its band cannot empty any earlier:
the previous band always reaches one in-matrix row of the next
anti-diagonal.  Each step counts the rows whose maximum is the pruned
sentinel; retired rows are among them, so only a count above the known
dead rows is an event, and corner events are known from ``m + n`` in
advance.  The event alone records the row's anti-diagonal count, its
early-termination flag and its cells, and pins its band: no per-step work
tracks liveness.  Cells come from one running sum of the stacked band per
row, since a row sweeps a contiguous run of anti-diagonals from ``d = 1``;
the target end of the best cell comes from its anti-diagonal after the
sweep.  Target wildcards are re-coded at pack time, so equality alone marks
a match.

**Active-row compaction.**  Extensions retire at wildly different
anti-diagonals (a one-base pair is done at ``d = 2`` while a 600 bp pair
runs for over a thousand steps).  Whenever the live fraction of the packed
rows drops below :data:`COMPACT_THRESHOLD`, retired rows are scattered into
the result arrays and every per-row array is physically compacted to the
survivors — so a retired extension stops costing band derivation, masking
and buffer traffic on every subsequent step.  Compacting at a fractional
threshold keeps the total copy cost geometric (``O(batch)`` rows copied
over the whole sweep).  Compaction also shrinks the *column* extent of the
scratch buffers to the longest surviving query, which matters for
length-skewed batches.

**Downsized DP buffers (int16/int32).**  When the score magnitudes the
batch can possibly produce (``(max_m + max_n) * max|param| + xdrop``) fit
comfortably inside a smaller integer, the anti-diagonal buffers are
allocated as int16 (sentinel ``-2**14``, short-read batches — four cells
per int64's cache footprint) or int32 (sentinel ``-2**30``).  Each
sentinel keeps the same invariant the int64 sentinel has: a pruned parent
plus the largest substitution score still lies strictly below any
reachable X-drop cutoff, so masked cells can never fake a finite score.
Batches that could overflow fall back to int64 automatically (the
overflow guard).

Only the union of the live per-row bands is computed at every step, in one
pass over its columns, so the work per anti-diagonal is
``O(live_rows * union_band_width)``.  Scores, end positions, cell counts
and band traces are bit-identical to the scalar reference for every row —
and invariant to :data:`COMPACT_THRESHOLD` — the properties the
conformance suite enforces.

Pass a :class:`BatchKernelStats` as ``stats`` to collect the sweep's work
telemetry (steps, carried and live row-steps, compactions, useful and
window cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .encoding import SequenceLike, WILDCARD_CODE, encode
from .result import NEG_INF, ExtensionResult
from .scoring import ScoringScheme

__all__ = [
    "BatchKernelStats",
    "COMPACT_THRESHOLD",
    "xdrop_extend_batch",
]

#: Compact the packed arrays when the live fraction drops below this
#: (``0`` never compacts, ``1`` compacts at every retirement).  Read at
#: call time; results are invariant to it.
COMPACT_THRESHOLD = 0.5

_NEG64 = np.int64(NEG_INF)
#: Pruned-cell sentinels: a quarter of each dtype's range, so adding any
#: guarded score can neither wrap around nor climb above a real cutoff.
_NEG32 = np.int32(-(2**30))
_NEG16 = np.int16(-(2**14))
#: Largest score magnitude (including the X threshold) each downsized tier
#: accepts; beyond the int32 limit the kernel falls back to int64.
_INT32_SCORE_LIMIT = 2**30 - 1
_INT16_SCORE_LIMIT = 2**14 - 1
#: Both entries of an empty band's stacked ``[d - lo, hi]`` state (see the
#: module docstring): below every real entry, which is ``>= 0``.
_EMPTY_BAND = -(2**31)


@dataclass
class BatchKernelStats:
    """Work telemetry of one (or more, via :meth:`merge`) batched sweeps.

    Attributes
    ----------
    rows:
        Extensions entering the kernel.
    steps:
        Global anti-diagonal steps executed.
    row_steps:
        Sum over steps of the packed rows carried through the step — the
        quantity compaction minimises (without compaction it would be
        ``rows * steps``).
    active_row_steps:
        Sum over steps of the rows actually still extending.
    compactions:
        Physical compaction events.
    peak_window:
        Widest union band window seen (columns).
    cells:
        Useful DP cells computed (matches the per-result accounting).
    window_cells:
        Sum over steps of the packed rows carried times the union window
        width: the cells the sweep actually evaluates.  ``cells - rows``
        (the origin cells are not swept) never exceeds it.
    dtype:
        DP buffer dtype chosen by the overflow guard (``int16``/``int32``/
        ``int64``; ``mixed`` after merging sweeps that chose differently).
    """

    rows: int = 0
    steps: int = 0
    row_steps: int = 0
    active_row_steps: int = 0
    compactions: int = 0
    peak_window: int = 0
    cells: int = 0
    window_cells: int = 0
    dtype: str = ""

    @property
    def live_fraction(self) -> float:
        """Mean fraction of carried rows that were still extending."""
        if self.row_steps == 0:
            return 1.0
        return self.active_row_steps / self.row_steps

    def merge(self, other: "BatchKernelStats") -> "BatchKernelStats":
        """Fold *other* into this accumulator (in place) and return self."""
        self.rows += other.rows
        self.steps += other.steps
        self.row_steps += other.row_steps
        self.active_row_steps += other.active_row_steps
        self.compactions += other.compactions
        self.peak_window = max(self.peak_window, other.peak_window)
        self.cells += other.cells
        self.window_cells += other.window_cells
        if other.dtype:
            self.dtype = other.dtype if not self.dtype else self.dtype
            if other.dtype != self.dtype:
                self.dtype = "mixed"
        return self

    def to_dict(self) -> dict:
        """JSON-ready representation (service stats / benchmarks)."""
        return {
            "rows": self.rows,
            "steps": self.steps,
            "row_steps": self.row_steps,
            "active_row_steps": self.active_row_steps,
            "live_fraction": self.live_fraction,
            "compactions": self.compactions,
            "peak_window": self.peak_window,
            "cells": self.cells,
            "window_cells": self.window_cells,
            "dtype": self.dtype,
        }


def _select_dtype(max_m: int, max_n: int, scoring: ScoringScheme, xdrop: int):
    """DP buffer dtype + pruned-cell sentinel, guarded against overflow.

    A downsized dtype is used only when every score the batch can possibly
    produce — bounded by ``(max_m + max_n) * max|param|`` — plus the X
    threshold and a few parameter magnitudes of transient slack stays
    strictly inside a quarter of the dtype's range, so ``sentinel +
    max(param)`` can neither wrap around nor rise above any reachable
    cutoff.  Short-read batches with small scoring parameters fit int16
    (quadrupling the cells per cache line); anything that could overflow
    falls back through int32 to int64.
    """
    max_abs = max(
        abs(int(scoring.match)), abs(int(scoring.mismatch)), abs(int(scoring.gap)), 1
    )
    bound = (max_m + max_n) * max_abs + int(xdrop) + 4 * max_abs
    if bound < _INT16_SCORE_LIMIT:
        return np.int16, _NEG16
    if bound < _INT32_SCORE_LIMIT:
        return np.int32, _NEG32
    return np.int64, _NEG64


def _pack(seqs: list[np.ndarray], width: int) -> np.ndarray:
    """Pack variable-length code arrays into one padded uint8 matrix.

    Column 0 is a guard column so the base consumed by DP row ``i`` /
    column ``j`` lives at matrix column ``i`` / ``j`` — the per-step reads
    become plain (possibly reversed) slices instead of index gathers.
    Padding and the guard use the wildcard code, which never scores a
    match; padded cells are additionally masked out by the per-row band
    bounds.
    """
    out = np.full((len(seqs), max(width, 1) + 1), WILDCARD_CODE, dtype=np.uint8)
    for row, seq in enumerate(seqs):
        if len(seq):
            out[row, 1 : len(seq) + 1] = seq
    return out


def xdrop_extend_batch(
    pairs: Sequence[tuple[SequenceLike, SequenceLike]],
    scoring: ScoringScheme | None = None,
    xdrop: int = 100,
    trace: bool = False,
    *,
    stats: BatchKernelStats | None = None,
) -> list[ExtensionResult]:
    """X-drop-extend every (query, target) pair of a batch simultaneously.

    Parameters
    ----------
    pairs:
        The extensions to run, each a ``(query, target)`` tuple (strings or
        encoded ``uint8`` arrays).  Every extension starts at its own
        position (0, 0), as in :func:`repro.core.xdrop.xdrop_extend_reference`.
        Empty sequences are rejected (the shared kernel contract): callers
        must filter seed-flush extensions, as the batch runners do.
    scoring:
        Linear-gap scoring scheme shared by the whole batch.
    xdrop:
        X-drop threshold shared by the whole batch.
    trace:
        Record per-anti-diagonal band widths in every result (consumed by
        the GPU execution model).
    stats:
        Optional :class:`BatchKernelStats` accumulator updated in place
        with the sweep's work telemetry.

    Returns
    -------
    list[ExtensionResult]
        One result per pair, in input order, identical to running the
        scalar reference on each pair individually.
    """
    if xdrop < 0:
        raise ConfigurationError(f"X-drop threshold must be non-negative, got {xdrop}")
    compact_threshold = COMPACT_THRESHOLD
    scoring = scoring if scoring is not None else ScoringScheme()
    if not pairs:
        return []

    queries = [encode(q) for q, _ in pairs]
    targets = [encode(t) for _, t in pairs]
    batch = len(pairs)
    m = np.array([len(q) for q in queries], dtype=np.int64)
    n = np.array([len(t) for t in targets], dtype=np.int64)
    max_m = int(m.max())
    max_n = int(n.max())
    dtype, neg = _select_dtype(max_m, max_n, scoring, xdrop)
    match, mismatch, gap = dtype(scoring.match), dtype(scoring.mismatch), dtype(scoring.gap)
    xdrop_c = dtype(xdrop)

    q_mat = _pack(queries, max_m)
    t_mat = _pack(targets, max_n)
    # Target wildcards (padding and guard included) get a code of their
    # own, so a query wildcard equals no target base and equality alone
    # marks a match.
    t_mat[t_mat == WILDCARD_CODE] = WILDCARD_CODE + 1

    # Three anti-diagonal buffers, one row per alignment.  Buffer column
    # b corresponds to DP row i = b - 1; column 0 is a -inf guard.
    size = max_m + 2
    prev2 = np.full((batch, size), neg, dtype=dtype)
    prev = np.full((batch, size), neg, dtype=dtype)
    cur = np.full((batch, size), neg, dtype=dtype)
    prev[:, 1] = 0  # origin cell (0, 0) of every alignment
    # Extent of columns last written into each buffer, cleared on reuse so a
    # recycled buffer never exposes stale scores ([start, stop) or None).
    prev2_ext: tuple[int, int] | None = None
    prev_ext: tuple[int, int] | None = (1, 2)
    cur_ext: tuple[int, int] | None = None

    # Stacked band state: column r holds ``[d - lo, hi]`` of row r, the
    # band's last target column and last query row, so the matrix bounds
    # are the constant ``[n, m]``.  An empty band is _EMPTY_BAND in both,
    # and a retired row's bounds are set to it, which pins its band there.
    bounds = np.stack([n, m])
    band_prev = np.zeros((2, batch), dtype=np.int64)  # d = 0: the origin
    band_prev2 = np.full((2, batch), _EMPTY_BAND, dtype=np.int64)
    band_sum = np.zeros((2, batch), dtype=np.int64)  # over the swept steps
    # A band never empties before its far corner (the previous band always
    # reaches an in-matrix row), so rows end there or at an X-drop stop.
    corners = set((m + n).tolist())

    best = np.zeros(batch, dtype=dtype)
    best_i = np.zeros(batch, dtype=np.int64)
    best_d = np.zeros(batch, dtype=np.int64)  # anti-diagonal of the best
    cells = np.zeros(batch, dtype=np.int64)
    anti = np.zeros(batch, dtype=np.int64)
    early = np.zeros(batch, dtype=bool)
    live = np.ones(batch, dtype=bool)
    dead = 0

    # Rows are physically compacted as they retire; ``row_ids`` maps packed
    # rows back to input order and retired rows are scattered into the
    # ``out_*`` result arrays (at compaction time, or after the sweep).
    row_ids = np.arange(batch, dtype=np.int64)
    out_best = np.zeros(batch, dtype=np.int64)
    out_best_i = np.zeros(batch, dtype=np.int64)
    out_best_d = np.zeros(batch, dtype=np.int64)
    out_cells = np.zeros(batch, dtype=np.int64)
    out_anti = np.zeros(batch, dtype=np.int64)
    out_early = np.zeros(batch, dtype=bool)
    rows = batch

    last_diag = int((m + n).max())
    widths_rec: np.ndarray | None = None
    if trace:
        widths_rec = np.zeros((last_diag + 1, batch), dtype=np.int64)
        widths_rec[0, :] = 1

    sweep = BatchKernelStats(rows=batch, dtype=np.dtype(dtype).name)
    for d in range(1, last_diag + 1):
        # Rows retire only at the end of a step, so this sees every row
        # the previous steps retired.
        if compact_threshold > 0.0 and dead and rows - dead <= rows * compact_threshold:
            dropped = ~live
            ids = row_ids[dropped]
            out_best[ids] = best[dropped]
            out_best_i[ids] = best_i[dropped]
            out_best_d[ids] = best_d[dropped]
            out_cells[ids] = cells[dropped]
            out_anti[ids] = anti[dropped]
            out_early[ids] = early[dropped]

            keep = live
            row_ids = row_ids[keep]
            bounds = bounds[:, keep]
            max_n, max_m = (int(x) for x in bounds.max(axis=1))
            q_mat = q_mat[keep, : max_m + 1]
            t_mat = t_mat[keep, : max_n + 1]
            size = max_m + 2
            prev2 = prev2[keep, :size]
            prev = prev[keep, :size]
            cur = cur[keep, :size]
            prev2_ext = _clamp_ext(prev2_ext, size)
            prev_ext = _clamp_ext(prev_ext, size)
            cur_ext = _clamp_ext(cur_ext, size)
            band_prev, band_prev2 = band_prev[:, keep], band_prev2[:, keep]
            band_sum = band_sum[:, keep]
            best, best_i, best_d = best[keep], best_i[keep], best_d[keep]
            cells, anti, early = cells[keep], anti[keep], early[keep]
            rows -= dead
            dead = 0
            live = np.ones(rows, dtype=bool)
            sweep.compactions += 1

        # Band of anti-diagonal d: one past the far ends of the two previous
        # (trimmed) bands, clipped to the matrix (or pinned to _EMPTY_BAND).
        # The band before the previous one is spent, so the new one
        # overwrites it.
        band = np.maximum(band_prev, band_prev2, out=band_prev2)
        band += 1
        np.minimum(band, bounds, out=band)
        band_sum += band

        # Union window of the live bands: the only columns computed.  The
        # _EMPTY_BAND columns of retired rows never win the maximum.
        far = band.max(axis=1, keepdims=True)
        win_lo = d - int(far[0, 0])
        win_hi = int(far[1, 0])
        width = win_hi - win_lo + 1

        sweep.steps += 1
        sweep.row_steps += rows
        sweep.active_row_steps += rows - dead
        sweep.window_cells += rows * width
        if width > sweep.peak_window:
            sweep.peak_window = width
        if widths_rec is not None:
            # (d - lo) + hi - (d - 1); negative for retired rows, dropped below.
            widths_rec[d, row_ids] = band[0] + band[1] - (d - 1)

        cutoff = (best - xdrop_c)[:, None]
        lo_col, hi_col = (d - band[0])[:, None], band[1][:, None]
        # Clear only the stale part of the recycled scratch diagonal the
        # sweep will not overwrite (it fills [win_lo + 1, win_hi + 2)).
        if cur_ext is not None:
            a, b = cur_ext
            if a < win_lo + 1:
                cur[:, a : min(b, win_lo + 1)] = neg
            if b > win_hi + 2:
                cur[:, max(a, win_hi + 2) : b] = neg
        cur_ext = (win_lo + 1, win_hi + 2)

        # Guard-column packing makes both substitution operands plain
        # slices: the query bases of DP rows win_lo..win_hi sit at columns
        # win_lo..win_hi, the target bases of the matching anti-diagonal
        # columns at d - i (a reversed slice).  Guard reads at i == 0 /
        # j == 0 are harmless: the corresponding parents are -inf.
        qa = q_mat[:, win_lo : win_hi + 1]
        j_stop = d - win_hi - 1
        ta = t_mat[:, d - win_lo : (j_stop if j_stop >= 0 else None) : -1]
        vals = cur[:, win_lo + 1 : win_hi + 2]
        np.multiply(qa == ta, match - mismatch, out=vals, casting="unsafe")
        vals += mismatch
        vals += prev2[:, win_lo : win_hi + 1]  # parent (i-1, j-1)
        # Horizontal parents: column c of prev holds the diag-(d-1) cell of
        # DP row c - 1, so the window's (i-1, j) and (i, j-1) parents are
        # two adjacent slices of one gap-penalised copy.
        prev_gap = prev[:, win_lo : win_hi + 2] + gap
        np.maximum(vals, prev_gap[:, :width], out=vals)  # (i-1, j)
        np.maximum(vals, prev_gap[:, 1:], out=vals)  # (i, j-1)

        # Retired rows carry an _EMPTY_BAND band (lo far above every
        # column, hi far below), so one pair of bound comparisons masks
        # both out-of-band and retired cells.
        i_idx = np.arange(win_lo, win_hi + 1, dtype=np.int64)
        np.copyto(
            vals,
            neg,
            where=(i_idx < lo_col) | (i_idx > hi_col) | (vals < cutoff),
        )
        # Every unmasked cell scores at least the cutoff, which lies above
        # the sentinel, so a row kept a finite cell iff its maximum does.
        row_best = vals.max(axis=1)
        stopped = row_best == neg
        if np.count_nonzero(stopped) > dead:
            # Retirement event: X-drop pruned every cell of these rows.
            new = stopped & live
            early[new] = True
            dead += _retire(new, d, band_sum, bounds, anti, cells, live)
            if dead == rows:
                break

        # Per-row anti-diagonal maximum (the warp-shuffle reduction of the
        # GPU kernel); the shared best is updated after the whole diagonal.
        improved = row_best > best
        np.copyto(best_i, win_lo + vals.argmax(axis=1), where=improved)
        np.copyto(best_d, d, where=improved)
        np.copyto(best, row_best, where=improved)

        if d in corners:
            # Retirement event: these rows just computed their far corner.
            ended = bounds[0] + bounds[1] == d
            dead += _retire(ended, d, band_sum, bounds, anti, cells, live)
            if dead == rows:
                break

        # Trim every band to its first/last finite cell, in the stacked
        # form: d - first and last are the window's far ends minus the
        # offsets of the first finite cell from either end.  (A retired
        # row trims to the whole window; its pinned bounds discard that.)
        # The derived band is spent, so the trimmed one overwrites it.
        finite = vals > neg
        finite.argmax(axis=1, out=band[0])
        finite[:, ::-1].argmax(axis=1, out=band[1])
        np.subtract(far, band, out=band)

        band_prev2, band_prev = band_prev, band
        prev2, prev, cur = prev, cur, prev2
        prev2_ext, prev_ext, cur_ext = prev_ext, cur_ext, prev2_ext

    # Every row retired inside the sweep (the last step is the far corner
    # of the longest rows); scatter the ones still packed.
    out_best[row_ids] = best
    out_best_i[row_ids] = best_i
    out_best_d[row_ids] = best_d
    out_cells[row_ids] = cells
    out_anti[row_ids] = anti
    out_early[row_ids] = early
    if stats is not None:
        sweep.cells = int(out_cells.sum())
        stats.merge(sweep)

    results: list[ExtensionResult] = []
    for k in range(batch):
        band_widths = None
        if widths_rec is not None:
            col = widths_rec[:, k]
            band_widths = np.ascontiguousarray(col[col > 0])
        results.append(
            ExtensionResult(
                best_score=int(out_best[k]),
                query_end=int(out_best_i[k]),
                target_end=int(out_best_d[k] - out_best_i[k]),
                anti_diagonals=int(out_anti[k]),
                cells_computed=int(out_cells[k]),
                terminated_early=bool(out_early[k]),
                band_widths=band_widths,
            )
        )
    return results


def _retire(
    rows: np.ndarray,
    swept: int,
    band_sum: np.ndarray,
    bounds: np.ndarray,
    anti: np.ndarray,
    cells: np.ndarray,
    live: np.ndarray,
) -> int:
    """Retire *rows* after anti-diagonals ``1..swept``; return how many.

    A row sweeps a contiguous run of anti-diagonals from ``d = 1``, and each
    adds ``[d - lo, hi]`` to *band_sum*, so its cells (the origin plus
    ``hi - lo + 1`` per anti-diagonal) are the two sums minus
    ``1 + ... + swept`` plus its anti-diagonal count ``swept + 1``.  The
    row's bounds are pinned to the empty band for the rest of the sweep.
    """
    anti[rows] = swept + 1
    cells[rows] = band_sum[:, rows].sum(axis=0) + (swept + 1 - swept * (swept + 1) // 2)
    bounds[:, rows] = _EMPTY_BAND
    live[rows] = False
    return int(np.count_nonzero(rows))


def _clamp_ext(ext: tuple[int, int] | None, size: int) -> tuple[int, int] | None:
    """Clip a buffer-extent record to a shrunken column count."""
    if ext is None:
        return None
    return (min(ext[0], size), min(ext[1], size))
