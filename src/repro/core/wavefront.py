"""Wavefront (furthest-reaching) X-drop extension for unit scoring.

This kernel reformulates the anti-diagonal X-drop DP of
:func:`repro.core.xdrop.xdrop_extend_reference` in cost space.  Under the
unit scheme (match ``+1``, mismatch ``-1``, gap ``-1``) every cell at
anti-diagonal depth ``d = i + j`` with score ``s`` satisfies
``2*s = d - E`` where ``E = 4*mismatches + 3*gaps`` is the accumulated
penalty of its best path.  Instead of sweeping every cell of every
anti-diagonal, the kernel sweeps *cost levels* ``E = 0, 1, 2, ...`` and
tracks, per diagonal ``k = i - j``, the contiguous depth intervals
occupied by surviving cost-``E`` cells.  Runs of exact matches ("snakes")
are free and resolved with a block-compare inner loop over the packed
uint8 encodings from :mod:`repro.core.encoding`, memoised per diagonal so
each match run is walked once no matter how many cost levels re-enter it.

Exactness is not approximate: the kernel reproduces the reference
pruning semantics cell-for-cell.

* Pruning.  The reference drops a cell at depth ``d`` with score ``s``
  when ``s < B[d-1] - X`` where ``B`` is the running best over all
  shallower surviving cells.  Because the running best can grow by at
  most one per two depth units while the score of same-cost cells grows
  by exactly one per two depth units, the margin ``s - B[d-1]`` is
  non-decreasing along each cost level: pruned cost-``E`` cells always
  form a depth *prefix*.  Writing ``first_cost[s]`` for the first cost
  level that reaches score ``s`` (exact, because scores step by one along
  surviving paths), a cost-``E`` entry at depth ``d`` survives iff
  ``first_cost[(d-E)/2 + X + 1] >= E - 2X - 2`` — monotone in ``d``, so
  a single threshold depth per cost captures the exact pruned set.
* Termination.  The reference aborts at the first anti-diagonal with no
  surviving cell, even when a diagonal (match) move could skip across
  it.  The kernel runs cost-major, records per-depth coverage with
  parity-split difference arrays, locates the first uncovered depth
  ``D``, and — when one exists — re-solves the affected pairs with a
  hard depth cap of ``D - 1``.  Cells shallower than ``D`` are
  unaffected by anything at or beyond ``D`` (paths are depth-monotone),
  so the second pass is exactly the reference's truncated computation.

The kernel is exact on ``best_score``/``query_end``/``target_end`` and
``terminated_early``; ``anti_diagonals``/``cells_computed`` and trace
``band_widths`` are honest work *estimates* in wavefront units (labelled
cells), not the reference's band accounting — engines built on this
kernel must advertise ``work_exact = False``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .encoding import WILDCARD_CODE
from .result import ExtensionResult
from .scoring import ScoringScheme
from .xdrop import xdrop_extend_reference

__all__ = [
    "UNIT_SCORING",
    "ensure_unit_scoring",
    "wavefront_extend_batch",
]

UNIT_SCORING = (1, -1, -1)

_MISMATCH_COST = 4  # penalty units per mismatch: 2*(match - mismatch) / match
_GAP_COST = 3  # penalty units per gap: (match - 2*gap) / match
_LARGE = np.int64(2**62)
_CHUNK = 16
_CHUNK_ARANGE = np.arange(_CHUNK, dtype=np.int64)
_QPAD = np.uint8(251)
_TPAD = np.uint8(252)
_EMPTY = (np.zeros(0, np.int64),) * 4


def ensure_unit_scoring(scoring: ScoringScheme) -> None:
    """Raise unless *scoring* is the unit scheme the kernel serves exactly.

    The wavefront formulation hard-codes penalty steps of 4 (mismatch)
    and 3 (gap) in half-score units, which is exact only for
    ``match=1, mismatch=-1, gap=-1``.
    """
    if scoring.as_tuple() != UNIT_SCORING:
        raise ConfigurationError(
            "wavefront engine requires unit scoring "
            "(match=1, mismatch=-1, gap=-1); got "
            f"match={scoring.match}, mismatch={scoring.mismatch}, "
            f"gap={scoring.gap}. Use the 'batched' engine for non-unit "
            "schemes."
        )


def _as_arrays(pairs):
    out = []
    for query, target in pairs:
        out.append(
            (
                np.ascontiguousarray(query, dtype=np.uint8),
                np.ascontiguousarray(target, dtype=np.uint8),
            )
        )
    return out


class _Problem:
    """Padded batch views shared by both solver passes."""

    def __init__(self, pairs):
        self.count = len(pairs)
        self.m = np.array([len(q) for q, _ in pairs], dtype=np.int64)
        self.n = np.array([len(t) for _, t in pairs], dtype=np.int64)
        self.total = self.m + self.n
        max_m = int(self.m.max())
        max_n = int(self.n.max())
        self.q_mat = np.full((self.count, max_m + _CHUNK + 1), _QPAD, np.uint8)
        self.t_mat = np.full((self.count, max_n + _CHUNK + 1), _TPAD, np.uint8)
        for row, (q, t) in enumerate(pairs):
            self.q_mat[row, : len(q)] = q
            self.t_mat[row, : len(t)] = t
        self.smax = int(np.minimum(self.m, self.n).max())


class _Solution:
    def __init__(self, count):
        self.best_score = np.zeros(count, dtype=np.int64)
        self.best_i = np.zeros(count, dtype=np.int64)
        self.best_j = np.zeros(count, dtype=np.int64)
        self.first_gap = np.full(count, -1, dtype=np.int64)  # D; -1 = none
        self.cells = np.zeros(count, dtype=np.int64)
        self.cov_even = None
        self.cov_odd = None
        # Interval log: one row per final (task, diagonal) interval per
        # cost level, concatenated in cost order.
        self.log_t = None
        self.log_k = None
        self.log_a = None
        self.log_r = None
        self.log_cost = None


def _resolve_capped(sol, count):
    """Re-answer tasks that terminated early, without a second sweep.

    Labels shallower than the first uncovered depth ``D`` are exactly
    the reference's surviving cells (paths are depth-monotone), and the
    reference's truncated run considers precisely the cells at depth
    ``<= D - 1``.  So the capped answer is the best interval-log row
    clipped to that depth, with the reference tie-break (earliest cost
    = earliest anti-diagonal, then smallest diagonal = smallest i).
    Updates ``sol.best_*`` and ``sol.cells`` for affected tasks in place.
    """
    redo = np.flatnonzero(sol.first_gap >= 0)
    if redo.size == 0:
        return
    cap = np.full(count, -1, dtype=np.int64)
    cap[redo] = sol.first_gap[redo] - 1
    sel = np.flatnonzero(cap[sol.log_t] >= 0)
    r_t = sol.log_t[sel]
    r_k = sol.log_k[sel]
    r_a = sol.log_a[sel]
    r_cost = sol.log_cost[sel]
    capk = cap[r_t] - ((cap[r_t] - r_k) & 1)
    d_c = np.minimum(sol.log_r[sel], capk)
    ok = np.flatnonzero(r_a <= d_c)
    r_t, r_k, r_a, r_cost, d_c = r_t[ok], r_k[ok], r_a[ok], r_cost[ok], d_c[ok]
    score = (d_c - r_cost) // 2
    k_bound = np.int64(int(np.abs(r_k).max(initial=0)) + 2)
    c_bound = np.int64(int(r_cost.max(initial=0)) + 2)
    comp = (score * c_bound - r_cost) * (2 * k_bound) + (k_bound - r_k)
    order = np.lexsort((-comp, r_t))
    r_t, r_k, r_a, d_c, r_cost = (
        r_t[order],
        r_k[order],
        r_a[order],
        d_c[order],
        r_cost[order],
    )
    first = np.empty(r_t.size, dtype=bool)
    first[0] = True
    first[1:] = r_t[1:] != r_t[:-1]
    win = np.flatnonzero(first)
    w_t = r_t[win]
    sol.best_score[w_t] = (d_c[win] - r_cost[win]) // 2
    sol.best_i[w_t] = (d_c[win] + r_k[win]) // 2
    sol.best_j[w_t] = (d_c[win] - r_k[win]) // 2
    cells = np.bincount(
        r_t,
        weights=((d_c - r_a) // 2 + 1).astype(np.float64),
        minlength=count,
    ).astype(np.int64)
    sol.cells[w_t] = cells[w_t]


def _merge_sorted(t_arr, k_arr, a_arr, r_arr):
    """Union-merge intervals sorted by ``(task, diagonal, start)``.

    Intervals with the same ``(task, diagonal)`` whose starts fall at or
    before the running maximum end plus one parity step are fused.
    Returns the merged arrays (still sorted).
    """
    if t_arr.size == 0:
        return t_arr, k_arr, a_arr, r_arr
    new_seg = np.empty(t_arr.size, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = (t_arr[1:] != t_arr[:-1]) | (k_arr[1:] != k_arr[:-1])
    seg_ids = np.cumsum(new_seg)
    # Shift each segment's ends into a disjoint band so a running max
    # cannot leak across segment boundaries.
    span = np.int64(int(r_arr.max()) - int(r_arr.min()) + 2)
    band = seg_ids * span
    cm = np.maximum.accumulate(r_arr + band) - band
    start_flag = new_seg
    start_flag[1:] |= a_arr[1:] > cm[:-1] + 2
    starts = np.flatnonzero(start_flag)
    merged_r = np.maximum.reduceat(r_arr, starts)
    return t_arr[starts], k_arr[starts], a_arr[starts], merged_r


def _snake(problem, t_idx, k_arr, d_arr):
    """Extend each cell ``(task, diagonal, depth)`` through its match run.

    Block-compares the packed uint8 sequences in ``_CHUNK``-wide slabs;
    distinct pad sentinels guarantee the run stops at either sequence
    boundary, and ``WILDCARD_CODE`` never matches (not even itself).
    Returns the reached depths.
    """
    i = (d_arr + k_arr) // 2
    j = (d_arr - k_arr) // 2
    act = np.arange(d_arr.size)
    qm, tm = problem.q_mat, problem.t_mat
    while act.size:
        ia = i[act]
        ja = j[act]
        ta = t_idx[act]
        qc = qm[ta[:, None], ia[:, None] + _CHUNK_ARANGE]
        tc = tm[ta[:, None], ja[:, None] + _CHUNK_ARANGE]
        eq = (qc == tc) & (qc != WILDCARD_CODE)
        full = eq.all(axis=1)
        run = np.where(full, _CHUNK, eq.argmin(axis=1))
        i[act] = ia + run
        j[act] = ja + run
        act = act[full]
    return i + j


def _solve(problem, task_ids, caps, xdrop, want_cells):
    """Run the cost-major sweep for the sub-batch *task_ids*.

    *caps* is the per-task hard depth cap (``total`` on the first pass,
    ``D - 1`` on the truncation pass).  Returns a :class:`_Solution`.
    """
    t_all = np.asarray(task_ids, dtype=np.int64)
    count = t_all.size
    sub_total = problem.total[t_all]
    caps = np.asarray(caps, dtype=np.int64)
    smax = problem.smax
    sol = _Solution(count)

    # first_cost[t, s]: first cost level at which task t reaches score s.
    first_cost = np.full((count, smax + 2), _LARGE, dtype=np.int64)
    first_cost[:, 0] = 0
    score_hi = 0  # global max score reached so far (bounds threshold scans)

    sub_m = problem.m[t_all]
    sub_n = problem.n[t_all]

    # Snake memo: the last match run walked per (task, diagonal), stored
    # as [walk start, walk end].  Any later entry inside the stored run
    # reaches the same end without touching the sequences.
    koff = int(sub_total.max()) + 2
    memo_lo = np.full((count, 2 * koff + 3), _LARGE, dtype=np.int64)
    memo_hi = np.full((count, 2 * koff + 3), -_LARGE, dtype=np.int64)

    # Spurious-label filter: a contiguous depth span per (task, diagonal)
    # known to be fully labelled by cheaper cost levels.  A child entry
    # range falling entirely inside the span is a relabel of cells whose
    # minimum cost is strictly lower — it cannot improve any candidate,
    # adds no coverage, and its children are again relabels, so it is
    # dropped before the sort/merge/extension pipeline.
    span_lo = np.full((count, 2 * koff + 3), _LARGE, dtype=np.int64)
    span_hi = np.full((count, 2 * koff + 3), -_LARGE, dtype=np.int64)

    # Deferred interval log: every final (task, diagonal, start, reach)
    # row of every cost level.  The hot loop only appends views; the log
    # drives coverage, work accounting, and — because labels shallower
    # than the first uncovered depth are exactly the reference's cells —
    # the closed-form truncated re-answer that replaces a second sweep.
    slots = int(sub_total.max()) // 2 + 2
    log_t: list[np.ndarray] = []
    log_k: list[np.ndarray] = []
    log_a: list[np.ndarray] = []
    log_r: list[np.ndarray] = []
    log_costs: list[tuple[int, int]] = []  # (cost, row count)

    def snake_memo(tc, kc, rc):
        col = kc + koff
        lo = memo_lo[tc, col]
        hi = memo_hi[tc, col]
        known = (rc >= lo) & (rc <= hi)
        ext = np.where(known, hi, np.int64(0))
        miss = np.flatnonzero(~known)
        if miss.size:
            walked = _snake(problem, t_all[tc[miss]], kc[miss], rc[miss])
            ext[miss] = walked
            memo_lo[tc[miss], col[miss]] = rc[miss]
            memo_hi[tc[miss], col[miss]] = walked
        return ext

    def record(f_t, f_k, f_a, f_r, cost):
        nonlocal score_hi
        log_t.append(f_t)
        log_k.append(f_k)
        log_a.append(f_a)
        log_r.append(f_r)
        log_costs.append((cost, f_t.size))
        # Per-task winner: deepest reach, smallest diagonal on ties
        # (rows are sorted by (task, k, a); the composite prefers max r
        # then min row position).  Deepest reach at fixed cost is also
        # the best score, so the winner drives both the running best and
        # the first_cost table.
        nrows = f_t.size
        comp = f_r * np.int64(nrows + 1) + np.arange(nrows - 1, -1, -1, dtype=np.int64)
        task_start = np.empty(nrows, dtype=bool)
        task_start[0] = True
        task_start[1:] = f_t[1:] != f_t[:-1]
        starts = np.flatnonzero(task_start)
        seg = np.maximum.reduceat(comp, starts)
        r_win = seg // (nrows + 1)
        row_win = nrows - 1 - (seg % (nrows + 1))
        t_seg = f_t[starts]
        sc = (r_win - cost) // 2
        upd = np.flatnonzero(sc > sol.best_score[t_seg])
        if upd.size == 0:
            return
        g_t = t_seg[upd]
        g_new = sc[upd]
        rows = row_win[upd]
        sol.best_i[g_t] = (r_win[upd] + f_k[rows]) // 2
        sol.best_j[g_t] = (r_win[upd] - f_k[rows]) // 2
        counts = g_new - sol.best_score[g_t]
        csum = np.cumsum(counts)
        offs = np.arange(int(csum[-1]), dtype=np.int64) - np.repeat(csum - counts, counts)
        s_vals = np.repeat(sol.best_score[g_t] + 1, counts) + offs
        first_cost[np.repeat(g_t, counts), s_vals] = cost
        sol.best_score[g_t] = g_new
        score_hi = max(score_hi, int(g_new.max()))

    # Cost level 0: the origin snake on diagonal 0.
    rows0 = np.arange(count, dtype=np.int64)
    k0 = np.zeros(count, dtype=np.int64)
    cap0 = caps - (caps & 1)
    r0 = np.minimum(snake_memo(rows0, k0, np.zeros(count, dtype=np.int64)), cap0)
    state = {0: (rows0, k0, np.zeros(count, dtype=np.int64), r0)}
    record(rows0, k0, np.zeros(count, dtype=np.int64), r0, 0)
    span_lo[rows0, koff] = 0
    span_hi[rows0, koff] = r0

    max_live = 0
    cost = 0
    cost_limit = 4 * int(sub_total.max()) + 8
    while cost <= max_live + _MISMATCH_COST and cost < cost_limit:
        cost += 1
        src_gap = state.get(cost - _GAP_COST)
        src_mis = state.get(cost - _MISMATCH_COST)
        state.pop(cost - _MISMATCH_COST - 1, None)
        if (src_gap is None or src_gap[0].size == 0) and (
            src_mis is None or src_mis[0].size == 0
        ):
            state[cost] = _EMPTY
            continue

        # Exact pruning threshold per task: an entry at depth d survives
        # iff no shallower cell already scores (d-cost)/2 + X + 1, i.e.
        # first_cost[(d-cost)/2 + X + 1] >= cost - 2X - 2.  Monotone in
        # d, so the first surviving depth is a closed form over the
        # first score level whose first_cost crosses the threshold.
        threshold = cost - 2 * xdrop - 2
        if threshold <= 0:
            dstar = np.full(count, 2 - (cost & 1), dtype=np.int64)
        else:
            s_fail = np.count_nonzero(
                first_cost[:, : score_hi + 2] < threshold, axis=1
            )
            dstar = np.maximum(2 - (cost & 1), 2 * (s_fail - xdrop - 1) + cost)

        chunks = []
        if src_gap is not None and src_gap[0].size:
            gt_, gk, ga, gr = src_gap
            # gap consuming a query base: child diagonal k+1
            ck = gk + 1
            cr = np.minimum(gr + 1, 2 * sub_m[gt_] - ck)
            chunks.append((gt_, ck, ga + 1, cr))
            # gap consuming a target base: child diagonal k-1
            ck = gk - 1
            cr = np.minimum(gr + 1, 2 * sub_n[gt_] + ck)
            chunks.append((gt_, ck, ga + 1, cr))
        if src_mis is not None and src_mis[0].size:
            mt, mk, _, mr = src_mis
            point = mr + 2
            ok = (point <= 2 * sub_m[mt] - mk) & (point <= 2 * sub_n[mt] + mk)
            chunks.append((mt[ok], mk[ok], point[ok], point[ok]))

        tc = np.concatenate([c[0] for c in chunks])
        kc = np.concatenate([c[1] for c in chunks])
        ac = np.concatenate([c[2] for c in chunks])
        rc = np.concatenate([c[3] for c in chunks])

        capk = caps[tc] - ((caps[tc] - kc) & 1)
        rc = np.minimum(rc, capk)
        ac = np.maximum(ac, dstar[tc])
        col = kc + koff
        keep = (ac <= rc) & ~(
            (ac >= span_lo[tc, col]) & (rc <= span_hi[tc, col])
        )
        if not keep.any():
            state[cost] = _EMPTY
            continue
        tc, kc, ac, rc = tc[keep], kc[keep], ac[keep], rc[keep]

        # Single stable sort on a composite (task, diagonal, start) key;
        # the input is a concatenation of three already-sorted streams.
        key = (tc * np.int64(2 * koff + 3) + (kc + koff)) * np.int64(
            2 * koff + 4
        ) + ac
        order = np.argsort(key, kind="stable")
        tc, kc, ac, rc = tc[order], kc[order], ac[order], rc[order]
        tc, kc, ac, rc = _merge_sorted(tc, kc, ac, rc)

        ext = snake_memo(tc, kc, rc)
        capk = caps[tc] - ((caps[tc] - kc) & 1)
        rc = np.minimum(ext, capk)
        tc, kc, ac, rc = _merge_sorted(tc, kc, ac, rc)

        state[cost] = (tc, kc, ac, rc)
        if tc.size:
            max_live = cost
            record(tc, kc, ac, rc, cost)
            # Grow the labelled spans from the deepest final interval of
            # each (task, diagonal): extend on overlap/adjacency, else
            # prefer the deeper of old span and new interval.
            last = np.empty(tc.size, dtype=bool)
            last[-1] = True
            last[:-1] = (tc[1:] != tc[:-1]) | (kc[1:] != kc[:-1])
            l_t = tc[last]
            l_col = kc[last] + koff
            l_a = ac[last]
            l_r = rc[last]
            s_lo = span_lo[l_t, l_col]
            s_hi = span_hi[l_t, l_col]
            touch = (l_a <= s_hi + 2) & (l_r >= s_lo - 2)
            deeper = ~touch & (l_r > s_hi)
            span_lo[l_t, l_col] = np.where(
                touch, np.minimum(s_lo, l_a), np.where(deeper, l_a, s_lo)
            )
            span_hi[l_t, l_col] = np.where(
                touch, np.maximum(s_hi, l_r), np.where(deeper, l_r, s_hi)
            )

    # Concatenate the interval log and fold it into parity-split
    # per-depth coverage counts and the labelled-cell work estimate.
    sol.log_t = np.concatenate(log_t)
    sol.log_k = np.concatenate(log_k)
    sol.log_a = np.concatenate(log_a)
    sol.log_r = np.concatenate(log_r)
    sol.log_cost = np.repeat(
        np.array([c for c, _ in log_costs], dtype=np.int64),
        np.array([n for _, n in log_costs], dtype=np.int64),
    )
    width = slots + 1
    covs = []
    for parity in (0, 1):
        sel = (sol.log_cost & 1) == parity
        t_cat = sol.log_t[sel]
        flat = np.bincount(
            t_cat * width + sol.log_a[sel] // 2, minlength=count * width
        ) - np.bincount(
            t_cat * width + sol.log_r[sel] // 2 + 1, minlength=count * width
        )
        covs.append(np.cumsum(flat.reshape(count, width)[:, :-1], axis=1))
    sol.cov_even, sol.cov_odd = covs
    if want_cells:
        sol.cells = np.bincount(
            sol.log_t,
            weights=((sol.log_r - sol.log_a) // 2 + 1).astype(np.float64),
            minlength=count,
        ).astype(np.int64)

    # First uncovered depth per task (either parity), within [1, cap].
    first_gap = np.full(count, _LARGE, dtype=np.int64)
    for parity, counts in ((0, sol.cov_even), (1, sol.cov_odd)):
        depths = 2 * np.arange(counts.shape[1], dtype=np.int64) + parity
        uncovered = (counts <= 0) & (depths[None, :] <= caps[:, None])
        if parity == 0:
            uncovered[:, 0] = False  # the origin is always occupied
        has = uncovered.any(axis=1)
        pos = np.argmax(uncovered, axis=1)
        cand = np.where(has, 2 * pos + parity, _LARGE)
        first_gap = np.minimum(first_gap, cand)
    sol.first_gap = np.where(first_gap <= sub_total, first_gap, -1)
    return sol


def _trace_widths(sol, row, last_depth):
    """Labelled-cell count per depth 0..last_depth (wavefront estimate)."""
    widths = [1]
    even = sol.cov_even[row]
    odd = sol.cov_odd[row]
    for depth in range(1, last_depth + 1):
        counts = even if depth % 2 == 0 else odd
        slot = depth // 2
        widths.append(int(counts[slot]) if slot < counts.shape[0] else 0)
    return widths


def wavefront_extend_batch(
    pairs: Sequence[tuple],
    scoring: ScoringScheme | None = None,
    xdrop: int = 100,
    trace: bool = False,
) -> list[ExtensionResult]:
    """Batched wavefront X-drop extension, exact against the reference.

    Accepts the same ``(query, target)`` uint8 pair sequence as
    :func:`repro.core.xdrop_batch.xdrop_extend_batch` and returns
    :class:`ExtensionResult` rows whose ``best_score``/``query_end``/
    ``target_end``/``terminated_early`` are bit-identical to
    :func:`xdrop_extend_reference`.  Raises :class:`ConfigurationError`
    for non-unit scoring schemes.
    """
    scoring = scoring or ScoringScheme()
    ensure_unit_scoring(scoring)
    if xdrop < 0:
        raise ConfigurationError(f"xdrop must be non-negative; got {xdrop}")
    pairs = _as_arrays(pairs)
    results: list[ExtensionResult | None] = [None] * len(pairs)

    live = []
    for idx, (q, t) in enumerate(pairs):
        if len(q) == 0 or len(t) == 0:
            # Degenerate extensions are rare; reuse the scalar oracle so
            # empty-side semantics stay exactly the reference's.
            results[idx] = xdrop_extend_reference(q, t, scoring, xdrop, trace)
        else:
            live.append(idx)
    if live:
        problem = _Problem([pairs[i] for i in live])
        all_rows = np.arange(len(live), dtype=np.int64)
        sol = _solve(problem, all_rows, problem.total.copy(), xdrop, True)
        # Pairs whose band empties early get their truncated answer directly
        # from the interval log; everything shallower is already identical.
        _resolve_capped(sol, len(live))

        for pos, idx in enumerate(live):
            gap = int(sol.first_gap[pos])
            early = gap >= 0
            total = int(problem.total[pos])
            last_depth = gap if early else total
            results[idx] = ExtensionResult(
                best_score=int(sol.best_score[pos]),
                query_end=int(sol.best_i[pos]),
                target_end=int(sol.best_j[pos]),
                anti_diagonals=1 + last_depth,
                cells_computed=max(1, int(sol.cells[pos])),
                terminated_early=early,
                band_widths=_trace_widths(sol, pos, min(last_depth, total)) if trace else None,
            )
    return results  # type: ignore[return-value]
