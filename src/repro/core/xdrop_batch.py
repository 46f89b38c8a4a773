"""Inter-sequence batched X-drop extension kernel.

The LOGAN paper's central observation (Section IV) is that X-drop extension
only scales when *inter-sequence* parallelism is exploited: one GPU block per
extension, thousands of extensions in flight at once.  The per-pair kernel in
:mod:`repro.core.xdrop_vectorized` captures the *intra*-sequence parallelism
of one anti-diagonal; this module adds the missing axis.

:func:`xdrop_extend_batch` packs every extension of a batch into padded 2-D
NumPy arrays — one row per alignment, mirroring LOGAN's
one-block-per-extension layout — and advances a single global anti-diagonal
counter.  Each step performs one set of array operations over a group of
rows:

* every row's band is derived from its two previous bands at once;
* the three-parent recurrence is evaluated over the group's window
  (cells outside a row's band are masked to ``-inf``);
* the X-drop prune uses a per-row running best (the per-block shared
  variable of the GPU kernel);
* the band is trimmed per row by locating the first/last finite cell.

**Band frames.**  A GPU block holds one band, wherever it sits.  Here every
row has a frame offset ``c`` and works in row coordinates ``x = i - c``:
its DP buffers are indexed from the frame base ``d // 2 + c`` (column
``k + off`` of anti-diagonal ``d`` holds DP row ``d // 2 + c + k``), and
its query and target are packed shifted by ``c``.  The base moves by the
same 0 or 1 columns for every row, so the parent on anti-diagonal ``d - 2``
sits in the cell's own column and the parents on ``d - 1`` sit ``d % 2``
columns to the left, and both sequence operands of a window are forward
slices: parent and base reads stay plain slices.  A group's window is then
the union of its rows' bands around their own centres, not around the
main diagonal, so a row no longer pays for the others' drift.  Frames are
exact because they only rename columns: every row still reads exactly its
own parents and bases.

**Two row groups.**  LOGAN sizes its block to X
(:func:`repro.core.scoring.block_width`, 64 columns at X = 50), so a wide
band costs only its own block.  A row whose band exceeds the block joins a
second, contiguous row group with its own window, and returns once its
band narrows to half the block; narrow rows no longer pay for the widest
band.  Each group computes only its own rows, so grouping is exact too.

**Re-layouts.**  Every layout change happens at one event, a re-layout:
it drops retired rows, regroups the rows and re-centres every frame on its
band (``c`` becomes the band-centre offset), with one gather per per-row
array.  The two previous anti-diagonals move with their rows into the new
frames; a frame range keeps half a block of margin around the group's
window, so every finite cell of them lands inside it.  A re-layout fires
when the live fraction drops below :data:`COMPACT_THRESHOLD`, or when a
group's window has grown or drifted half a block past its extent at the
last re-layout, or emptied because its last live row retired (Python int
comparisons per group and step).  The first step lays the rows out.
Extensions retire at wildly different anti-diagonals, and dropping them at
a fractional threshold keeps the total copy cost geometric.

**Stacked band state.**  The bands live in one ``(2, rows)`` int64 array
of ``[d - lo, hi]`` per row, in row coordinates: the band's last target
column and last query row.  In that form both matrix bounds are the
constant ``[n + c, m - c]``, deriving a band is ``min(max(previous,
before previous) + 1, bounds)`` — three calls, no ``where`` — and a group's
window is one ``maximum.reduceat`` over its rows.  Re-centring shifts the
entries by ``[shift, -shift]``.  An empty band is the sentinel
``_EMPTY_BAND`` (``-2**31``) in both entries, and a retired row's bounds
are set to it, which pins its band there.  The sentinel can enter neither
the window nor the mask: it lies far below every live entry, and it puts
the row's ``lo`` above and its ``hi`` below every column.

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
row (its two entries' ``±c`` cancel).  Target wildcards are re-coded at
pack time, so equality alone marks a match.

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

A one-group step costs about 35 NumPy calls whatever the batch holds (the
per-step floor that bounds small batches), and its per-cell work is the
group's rows times its window width.  Scores, end positions, cell counts
and band traces are bit-identical to the scalar reference for every row —
and invariant to :data:`COMPACT_THRESHOLD` — the properties the
conformance suite enforces.

Pass a :class:`BatchKernelStats` as ``stats`` to collect the sweep's work
telemetry (steps, carried and live row-steps, group-steps, re-layouts,
useful and window cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .encoding import SequenceLike, WILDCARD_CODE, encode
from .result import NEG_INF, ExtensionResult
from .scoring import ScoringScheme, block_width

__all__ = [
    "BatchKernelStats",
    "COMPACT_THRESHOLD",
    "xdrop_extend_batch",
]

#: Re-lay out, dropping retired rows, when the live fraction drops below
#: this (``0`` never drops a row, ``1`` drops every one at the next step).
#: Read at call time; results are invariant to it.
COMPACT_THRESHOLD = 0.9

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
#: Rows of the sweep's stacked per-row record: input index, the best cell's
#: row coordinate, frame offset c, the best cell's anti-diagonal, cell and
#: anti-diagonal counts and the early-termination flag.
_ID, _X, _C, _D, _CELLS, _ANTI, _EARLY = range(7)
_REC_ROWS = 7


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
    group_steps:
        Sum over steps of the row groups swept (one or two per step): each
        group costs its own set of per-cell NumPy calls.
    compactions:
        Re-layout events: each drops retired rows (unless
        :data:`COMPACT_THRESHOLD` is 0), regroups and re-centres the rows.
    peak_window:
        Widest group window seen (columns).
    cells:
        Useful DP cells computed (matches the per-result accounting).
    window_cells:
        Sum over steps and groups of the group's rows times its window
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
    group_steps: int = 0
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

    @property
    def useful_fraction(self) -> float:
        """Fraction of the evaluated window cells that were useful DP cells."""
        if self.window_cells == 0:
            return 1.0
        return (self.cells - self.rows) / self.window_cells

    def merge(self, other: "BatchKernelStats") -> "BatchKernelStats":
        """Fold *other* into this accumulator (in place) and return self."""
        self.rows += other.rows
        self.steps += other.steps
        self.row_steps += other.row_steps
        self.active_row_steps += other.active_row_steps
        self.group_steps += other.group_steps
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
            "group_steps": self.group_steps,
            "compactions": self.compactions,
            "peak_window": self.peak_window,
            "cells": self.cells,
            "window_cells": self.window_cells,
            "useful_fraction": self.useful_fraction,
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
        must filter seed-flush extensions, as the engines do.
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
    # LOGAN's block for this X: a row whose band outgrows it is swept in a
    # second group, until its band narrows to half the block.  Half a block
    # is also how far a group's window may grow or drift before a re-layout
    # (no band is wider than the longest query, which caps the margin).
    block = block_width(xdrop, scoring.gap)
    half = min(block, max_m + 2) // 2

    # Packed sequences in row coordinates x = i - c (c = 0 until the first
    # re-layout): column x - q_x0 holds the base of DP row x + c, and column
    # t_y1 - y the base of DP column y - c, so both operands of a window on
    # anti-diagonal d (y = d - x) are forward slices.  Target wildcards
    # (padding and guard included) get a code of their own, so a query
    # wildcard equals no target base and equality alone marks a match.
    q_mat = _pack(queries, max_m)
    t_mat = _pack(targets, max_n)
    t_mat[t_mat == WILDCARD_CODE] = WILDCARD_CODE + 1
    t_mat = np.ascontiguousarray(t_mat[:, ::-1])
    q_x0, t_y1 = 0, max_n

    # Three anti-diagonal buffers, one row per alignment, in frame columns:
    # column k + off of anti-diagonal d holds DP row d // 2 + c + k, and
    # anti-diagonal d lives in ``bufs[d % 3]``.  Each group keeps its window
    # inside its own frame range (``limits``), and the columns either side
    # of the widest range are never written.
    off = half + 1
    bufs = [np.full((batch, 2 * half + 3), neg, dtype=dtype) for _ in range(3)]
    bufs[0][:, off] = 0  # origin cell (0, 0) of every alignment

    # Per-row state, stacked so that a re-layout moves it in few gathers
    # (``rec`` rows: see _ID .. _EARLY).
    rec = np.zeros((_REC_ROWS, batch), dtype=np.int64)
    rec[_ID] = np.arange(batch)
    best = np.zeros(batch, dtype=dtype)
    live = np.ones(batch, dtype=bool)
    dead = 0
    # Stacked band state in row coordinates: ``state[d % 2]`` holds
    # ``[d - lo, hi]`` of every row's band on anti-diagonal d, in x units, so
    # the matrix bounds ``state[2]`` are the constant ``[n + c, m - c]``;
    # ``state[3]`` sums the swept bands.  An empty band is _EMPTY_BAND in
    # both entries, and a retired row's bounds are set to it, which pins its
    # band there.
    state = np.zeros((4, 2, batch), dtype=np.int64)  # d = 0: the origin
    state[1] = _EMPTY_BAND  # d = -1
    state[2] = np.stack([n, m])
    bands, bounds = state[:2], state[2]
    # A band never empties before its far corner (the previous band always
    # reaches an in-matrix row), so rows end there or at an X-drop stop.
    corners = set((m + n).tolist())
    # The records of rows a re-layout drops, scattered to input order after
    # the sweep.
    retired: list[tuple[np.ndarray, np.ndarray]] = []
    rows = batch

    last_diag = int((m + n).max())
    widths_rec: np.ndarray | None = None
    if trace:
        widths_rec = np.zeros((last_diag + 1, batch), dtype=np.int64)
        widths_rec[0, :] = 1

    group_starts = np.zeros(1, dtype=np.intp)
    relayouts = -1  # the first step lays the rows out, which is not one
    steps = row_steps = active_row_steps = group_steps = 0
    peak_window = window_cells = 0
    for d in range(1, last_diag + 1):
        # Band of anti-diagonal d: one past the far ends of the two previous
        # (trimmed) bands, clipped to the matrix (or pinned to _EMPTY_BAND).
        # The band before the previous one is spent, so the new one
        # overwrites it.
        bi = d % 2
        band = bands[bi]
        np.maximum(bands[1 - bi], band, out=band)
        band += 1
        np.minimum(band, bounds, out=band)
        # Each group's window: the union of its live bands (the _EMPTY_BAND
        # columns of retired rows never win the maximum).
        far = np.maximum.reduceat(band, group_starts, axis=1)
        lo_fars, hi_fars = far.tolist()
        base = d // 2
        relayout = d == 1 or (
            compact_threshold > 0.0 and dead and rows - dead <= rows * compact_threshold
        )
        if not relayout:
            # A window that left its frame range, outgrew its width limit,
            # or emptied (its group's last live row retired).
            for (k_min, k_max, w_max), f0, f1 in zip(limits, lo_fars, hi_fars):
                k_lo, k_hi = d - f0 - base, f1 - base
                if k_lo < k_min or k_hi > k_max or not 0 <= k_hi - k_lo < w_max:
                    relayout = True
                    break

        if relayout:
            # Re-layout: drop retired rows, regroup and re-centre every row.
            relayouts += 1
            kept = live if compact_threshold > 0.0 else np.ones(rows, dtype=bool)
            if compact_threshold > 0.0 and dead:
                dropped = ~live
                retired.append((rec[:, dropped], best[dropped]))
                dead = 0
            # A row is wide while its band (hi - lo + 1, that is the stacked
            # band's sum minus d - 1) exceeds the block, and once wide until
            # it narrows to half the block.  Retired rows never are.
            extent = band[0] + band[1]
            wide = extent > block + d - 1
            first_wide = int(group_starts[-1])
            if first_wide:
                wide[first_wide:] |= extent[first_wide:] > half + d - 1
            order = None
            if wide.any():
                narrow = np.flatnonzero(kept & ~wide)
                if live[narrow].any():
                    order = np.concatenate([narrow, np.flatnonzero(wide)])
                    group_starts = np.array([0, narrow.size], dtype=np.intp)
            if order is None:
                order = np.flatnonzero(kept)
                group_starts = np.zeros(1, dtype=np.intp)
            # ``take`` keeps each row contiguous (``rec[:, order]`` would not).
            rec, state = np.take(rec, order, axis=1), np.take(state, order, axis=2)
            best, live = best[order], live[order]
            row_ids, best_x, c, best_d, cells, anti, early = rec
            bands, bounds, band_sum = state[:2], state[2], state[3]
            band = bands[bi]
            rows = order.size
            # Each row's frame base d // 2 + c moves to its band centre
            # (d - lo + hi) // 2 + c: the stacked band shifts by [shift,
            # -shift], and so do the bounds.  A retired row's band entries
            # are equal, so it does not move.
            shift = band[1] - band[0]
            shift += bi
            shift //= 2
            stacked_shift = np.stack([shift, -shift])
            state[:3] += stacked_shift
            rec[_X : _C + 1] -= stacked_shift

            far = np.maximum.reduceat(band, group_starts, axis=1)
            lo_fars, hi_fars = far.tolist()
            limits = []
            for f0, f1 in zip(lo_fars, hi_fars):
                k_lo, k_hi = d - f0 - base, f1 - base
                limits.append((k_lo - half, k_hi + half, k_hi - k_lo + 1 + half))
            k_min = min(limit[0] for limit in limits)
            k_max = max(limit[1] for limit in limits)
            span = int(shift.min()), int(shift.max())
            # The two previous anti-diagonals, moved into the new frames;
            # every other cell reads -inf.
            new_off = 1 - k_min
            size = k_max + new_off + 2
            for back in (1, 2):
                k = (d - back) % 3
                bufs[k] = _rows_from(bufs[k], order, shift, span, off - new_off, size, neg)
            bufs[d % 3] = np.full_like(bufs[k], neg)
            off = new_off
            exts = [[(0, size)] * 3 for _ in limits]
            # The sequences from the lowest row coordinate any window can
            # reach, and from the largest target coordinate down.
            y1, x1 = bounds.max(axis=1).tolist()
            x0 = k_min + base
            q_width = x1 - x0 + 1
            t_width = y1 - (d + 1) // 2 + k_max + 1
            q_mat = _rows_from(q_mat, order, shift, span, x0 - q_x0, q_width, WILDCARD_CODE)
            t_mat = _rows_from(t_mat, order, shift, span, t_y1 - y1, t_width, WILDCARD_CODE + 1)
            q_x0, t_y1 = x0, y1
            x_range = np.arange(x0, x0 + q_width, dtype=np.int64)  # q_mat's columns
            # Every group's row views, valid until the next re-layout.
            row_best = np.empty(rows, dtype=dtype)
            arg = np.empty(rows, dtype=np.int64)
            views = [
                (
                    q_mat[g0:g1], t_mat[g0:g1], best[g0:g1], row_best[g0:g1],
                    arg[g0:g1], [buf[g0:g1] for buf in bufs], bands[:, :, g0:g1],
                )
                for g0, g1 in zip(group_starts.tolist(), [*group_starts[1:].tolist(), rows])
            ]

        band_sum += band
        steps += 1
        row_steps += rows
        active_row_steps += rows - dead
        group_steps += len(views)
        if widths_rec is not None:
            # (d - lo) + hi - (d - 1); negative for retired rows, dropped below.
            widths_rec[d, row_ids] = band[0] + band[1] - (d - 1)

        cur_k, prev_k, prev2_k = d % 3, (d - 1) % 3, (d - 2) % 3
        t_base = t_y1 - d
        for g, (q_g, t_g, best_g, row_best_g, arg_g, bufs_g, bands_g) in enumerate(views):
            win_lo, win_hi = d - lo_fars[g], hi_fars[g]
            width = win_hi - win_lo + 1
            window_cells += len(best_g) * width
            if width > peak_window:
                peak_window = width
            # Buffer columns of the window.  Clear only the stale part of
            # the recycled scratch diagonal the sweep will not overwrite.
            a = win_lo - base + off
            b = a + width
            cur = bufs_g[cur_k]
            ext = exts[g]
            if ext[cur_k] is not None:
                ea, eb = ext[cur_k]
                if ea < a:
                    cur[:, ea : min(eb, a)] = neg
                if eb > b:
                    cur[:, max(ea, b) : eb] = neg
            ext[cur_k] = (a, b)

            vals = cur[:, a:b]
            np.multiply(
                q_g[:, win_lo - q_x0 : win_hi + 1 - q_x0]
                == t_g[:, t_base + win_lo : t_base + win_hi + 1],
                match - mismatch,
                out=vals,
                casting="unsafe",
            )
            vals += mismatch
            # The frame base advances on even anti-diagonals, so the parent
            # (i-1, j-1) on d - 2 sits in this cell's own column, and the
            # parents on d - 1 sit ``d % 2`` columns to the left.
            vals += bufs_g[prev2_k][:, a:b]  # parent (i-1, j-1)
            # Horizontal parents: the window's (i-1, j) and (i, j-1) parents
            # are two adjacent slices of one gap-penalised copy.
            prev_gap = bufs_g[prev_k][:, a - bi : b + 1 - bi] + gap
            np.maximum(vals, prev_gap[:, :width], out=vals)  # (i-1, j)
            np.maximum(vals, prev_gap[:, 1:], out=vals)  # (i, j-1)

            # Retired rows carry an _EMPTY_BAND band (lo far above every
            # column, hi far below), so one pair of bound comparisons masks
            # both out-of-band and retired cells.
            band_g = bands_g[bi]
            x_idx = x_range[win_lo - q_x0 : win_hi + 1 - q_x0]
            pruned = (
                (x_idx < (d - band_g[0])[:, None])
                | (x_idx > band_g[1][:, None])
                | (vals < (best_g - xdrop_c)[:, None])
            )
            np.copyto(vals, neg, where=pruned)
            # Every unmasked cell scores at least the cutoff, which lies
            # above the sentinel, so a row kept a finite cell iff its
            # maximum does, and the finite cells are the unpruned ones.
            vals.max(axis=1, out=row_best_g)
            np.add(vals.argmax(axis=1), win_lo, out=arg_g)

            # Trim every band to its first/last finite cell, in the stacked
            # form: d - first and last are the window's far ends minus the
            # offsets of the first unpruned cell from either end.  (A
            # retired row trims to the whole window; its pinned bounds
            # discard that.)  The derived band is spent, so the trimmed one
            # overwrites it.
            pruned.argmin(axis=1, out=band_g[0])
            pruned[:, ::-1].argmin(axis=1, out=band_g[1])
            np.subtract(far[:, g : g + 1], band_g, out=band_g)

        stopped = row_best == neg
        if np.count_nonzero(stopped) > dead:
            # Retirement event: X-drop pruned every cell of these rows.
            new = stopped & live
            early[new] = 1
            dead += _retire(new, d, band_sum, bounds, anti, cells, live)
            if dead == rows:
                break

        # Per-row anti-diagonal maximum (the warp-shuffle reduction of the
        # GPU kernel); the shared best is updated after the whole diagonal.
        improved = row_best > best
        np.copyto(best_x, arg, where=improved)
        np.copyto(best_d, d, where=improved)
        np.copyto(best, row_best, where=improved)

        if d in corners:
            # Retirement event: these rows just computed their far corner.
            ended = bounds[0] + bounds[1] == d
            dead += _retire(ended, d, band_sum, bounds, anti, cells, live)
            if dead == rows:
                break

    # Every row retired inside the sweep (the last step is the far corner
    # of the longest rows); scatter every record to input order.
    retired.append((rec, best))
    done = np.concatenate([piece for piece, _ in retired], axis=1)
    out = np.empty_like(done)
    out[:, done[_ID]] = done
    out_best = np.empty(batch, dtype=np.int64)
    out_best[done[_ID]] = np.concatenate([piece for _, piece in retired])
    if stats is not None:
        stats.merge(
            BatchKernelStats(
                rows=batch,
                steps=steps,
                row_steps=row_steps,
                active_row_steps=active_row_steps,
                group_steps=group_steps,
                compactions=relayouts,
                peak_window=peak_window,
                cells=int(out[_CELLS].sum()),
                window_cells=window_cells,
                dtype=np.dtype(dtype).name,
            )
        )

    _, best_xs, offsets, best_ds, cell_counts, anti_counts, early_flags = out.tolist()
    results: list[ExtensionResult] = []
    for k in range(batch):
        band_widths = None
        if widths_rec is not None:
            col = widths_rec[:, k]
            band_widths = np.ascontiguousarray(col[col > 0])
        best_i = best_xs[k] + offsets[k]
        results.append(
            ExtensionResult(
                best_score=int(out_best[k]),
                query_end=best_i,
                target_end=best_ds[k] - best_i,
                anti_diagonals=anti_counts[k],
                cells_computed=cell_counts[k],
                terminated_early=bool(early_flags[k]),
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
    adds ``[d - lo, hi]`` (shifted by ``±c``, which cancels) to *band_sum*,
    so its cells (the origin plus ``hi - lo + 1`` per anti-diagonal) are the
    two sums minus ``1 + ... + swept`` plus its anti-diagonal count
    ``swept + 1``.  The row's bounds are pinned to the empty band for the
    rest of the sweep.
    """
    anti[rows] = swept + 1
    cells[rows] = band_sum[:, rows].sum(axis=0) + (swept + 1 - swept * (swept + 1) // 2)
    bounds[:, rows] = _EMPTY_BAND
    live[rows] = False
    return int(np.count_nonzero(rows))


def _rows_from(
    src: np.ndarray,
    rows: np.ndarray,
    shift: np.ndarray,
    span: tuple[int, int],
    first: int,
    width: int,
    fill,
) -> np.ndarray:
    """``src[rows[k], s : s + width]`` with ``s = first + shift[k]``, as one gather.

    *span* is ``(min(shift), max(shift))``.  Columns beyond either end of
    *src* read *fill*.
    """
    lo = min(0, first + span[0])
    stop = max(src.shape[1], first + span[1] + width)
    if lo or stop > src.shape[1]:
        padded = np.full((src.shape[0], stop - lo), fill, dtype=src.dtype)
        padded[:, -lo : src.shape[1] - lo] = src
        src, first = padded, first - lo
    # Every ``width``-wide window of every row, as a view (*src* is
    # C-contiguous: a fresh buffer or an earlier gather).
    windows = np.ndarray(
        (src.shape[0], src.shape[1] - width + 1, width),
        dtype=src.dtype,
        buffer=src,
        strides=src.strides + src.strides[1:],
    )
    return windows[rows, shift + first]
