"""ksw2-style affine-gap extension alignment with Z-drop termination.

minimap2's alignment kernel ``ksw2`` (Suzuki & Kasahara difference
recurrences, SSE2-vectorised) computes a *global extension* alignment with
affine gap penalties and terminates early with the **Z-drop** test: when the
best score of the current row falls more than ``Z`` below the global best
(corrected by the gap cost of the diagonal drift), the extension stops.
The LOGAN paper benchmarks against ksw2 on a Skylake platform (Table III /
Fig. 9) because it is the closest production heuristic to X-drop.

This module implements the same recurrence family in row-vectorised NumPy:

* ``H(i,j) = max(H(i-1,j-1) + s(i,j), E(i,j), F(i,j))``
* ``E(i,j) = max(E(i,j-1), H(i,j-1) - gap_open) - gap_extend``  (gap in query)
* ``F(i,j) = max(F(i-1,j), H(i-1,j) - gap_open) - gap_extend``  (gap in target)

The within-row ``E``/``H`` coupling unrolls to a prefix maximum (see
``_row_scan``), so each row is a handful of vectorised operations.  An
optional fixed band ``bandwidth`` reproduces ksw2's ``-w`` option; the
Z-drop rule reproduces its early termination.  Scores are exact for the
affine model (validated against a brute-force oracle in the tests).
"""

from __future__ import annotations

import numpy as np

from ..core.encoding import SequenceLike, encode
from ..core.result import NEG_INF, ExtensionResult
from ..core.scoring import AffineScoringScheme
from ..errors import ConfigurationError

__all__ = ["ksw2_extend", "ksw2_extend_affine_oracle"]

_NEG = np.int64(NEG_INF)


def _row_scan(h0: np.ndarray, js: np.ndarray, gap_open: int, gap_extend: int) -> np.ndarray:
    """Resolve the within-row affine recurrence.

    Given ``h0[j] = max(diag + sub, F)`` for the columns ``js`` of one row,
    returns ``H[j] = max(h0[j], E[j])`` where
    ``E[j] = max_{k < j} (h0[k] - gap_open - (j - k) * gap_extend)``.
    """
    if h0.size == 0:
        return h0
    # prefix[j] = max_{k <= j} (h0[k] + k * gap_extend)
    shifted = h0 + js * gap_extend
    prefix = np.maximum.accumulate(shifted)
    e = np.full_like(h0, _NEG)
    if h0.size > 1:
        # E[j] = max_{k<j} (h0[k] + k*ge) - gap_open - j*ge
        e[1:] = prefix[:-1] - gap_open - js[1:] * gap_extend
    return np.maximum(h0, e)


def ksw2_extend(
    query: SequenceLike,
    target: SequenceLike,
    scoring: AffineScoringScheme = AffineScoringScheme(),
    zdrop: int = 400,
    bandwidth: int | None = None,
) -> ExtensionResult:
    """Affine-gap extension of *query* against *target* with Z-drop termination.

    Parameters
    ----------
    query, target:
        Sequences (strings or encoded arrays); the extension starts at
        position (0, 0) like the X-drop kernels.
    scoring:
        Affine scoring scheme (minimap2 map-pb defaults: 2/-4/4/2).
    zdrop:
        Z-drop threshold.  After each row, if the global best exceeds the
        row best by more than ``zdrop`` plus the gap-extend cost of the
        diagonal drift, the extension terminates.  Pass a very large value
        to disable early termination.
    bandwidth:
        Optional fixed band half-width (ksw2 ``-w``); ``None`` means the full
        matrix, which is ksw2's behaviour when the band is set to the read
        length, and is the regime in which its cost explodes for large Z.

    Returns
    -------
    ExtensionResult
        Its ``anti_diagonals`` counts the DP rows evaluated (row 0
        included) before the Z-drop rule fired: ksw2 sweeps rows, and the
        Skylake cost model charges per row.  No band trace is recorded.
    """
    if zdrop < 0:
        raise ConfigurationError(f"zdrop must be non-negative, got {zdrop}")
    if bandwidth is not None and bandwidth < 0:
        raise ConfigurationError(f"bandwidth must be non-negative, got {bandwidth}")
    q = encode(query)
    t = encode(target)
    m, n = len(q), len(t)
    match = np.int64(scoring.match)
    mismatch = np.int64(scoring.mismatch)
    go = int(scoring.gap_open)
    ge = int(scoring.gap_extend)

    # Row 0: H(0, j) = -(go + j*ge) for j >= 1, H(0,0) = 0.
    cols = np.arange(0, n + 1, dtype=np.int64)
    h_prev = np.where(cols == 0, 0, -(go + cols * ge)).astype(np.int64)
    f_prev = np.full(n + 1, _NEG, dtype=np.int64)

    best = 0
    best_i = best_j = 0
    cells = n + 1
    rows = 1
    terminated = False

    for i in range(1, m + 1):
        if bandwidth is None:
            j_lo, j_hi = 0, n
        else:
            j_lo = max(0, i - bandwidth)
            j_hi = min(n, i + bandwidth)
            if j_lo > j_hi:
                break
        js = np.arange(j_lo, j_hi + 1, dtype=np.int64)
        width = js.size
        cells += width
        rows += 1

        # F(i, j): gap in the target (vertical), from the previous row.
        f_cur = np.maximum(f_prev[j_lo : j_hi + 1], h_prev[j_lo : j_hi + 1] - go) - ge

        # Diagonal candidate.
        sub = np.where(
            (t[js - 1] == q[i - 1]) & (t[js - 1] != 4), match, mismatch
        ).astype(np.int64)
        diag = np.where(js >= 1, h_prev[js - 1] + sub, _NEG)

        h0 = np.maximum(diag, f_cur)
        if j_lo == 0:
            # H(i, 0) = -(go + i*ge): a gap spanning the whole query prefix.
            h0[0] = -(go + i * ge)
        h_row = _row_scan(h0, js, go, ge)

        row_arg = int(np.argmax(h_row))
        row_best = int(h_row[row_arg])
        row_best_j = j_lo + row_arg
        if row_best > best:
            best = row_best
            best_i = i
            best_j = row_best_j

        # Z-drop test (ksw2 semantics): allow for the diagonal drift between
        # the global best cell and the current row best cell.
        drift = abs((i - best_i) - (row_best_j - best_j))
        if best - row_best > zdrop + drift * ge:
            terminated = True
            break

        # Prepare the next iteration's previous-row views (full width).
        new_h_prev = np.full(n + 1, _NEG, dtype=np.int64)
        new_f_prev = np.full(n + 1, _NEG, dtype=np.int64)
        new_h_prev[j_lo : j_hi + 1] = h_row
        new_f_prev[j_lo : j_hi + 1] = f_cur
        h_prev, f_prev = new_h_prev, new_f_prev

    return ExtensionResult(
        best_score=int(best),
        query_end=int(best_i),
        target_end=int(best_j),
        anti_diagonals=int(rows),
        cells_computed=int(cells),
        terminated_early=terminated,
    )


def ksw2_extend_affine_oracle(
    query: SequenceLike,
    target: SequenceLike,
    scoring: AffineScoringScheme = AffineScoringScheme(),
) -> int:
    """Brute-force affine-gap best prefix-extension score (test oracle).

    Straightforward three-matrix Gotoh dynamic programming over the full
    matrix in Python loops — only suitable for short sequences in tests.
    """
    q = encode(query)
    t = encode(target)
    m, n = len(q), len(t)
    go, ge = scoring.gap_open, scoring.gap_extend

    H = [[0] * (n + 1) for _ in range(m + 1)]
    E = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    F = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    for j in range(1, n + 1):
        H[0][j] = -(go + j * ge)
        E[0][j] = -(go + j * ge)
    for i in range(1, m + 1):
        H[i][0] = -(go + i * ge)
        F[i][0] = -(go + i * ge)
    best = 0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            sub = scoring.match if (q[i - 1] == t[j - 1] and q[i - 1] != 4) else scoring.mismatch
            E[i][j] = max(E[i][j - 1] - ge, H[i][j - 1] - go - ge)
            F[i][j] = max(F[i - 1][j] - ge, H[i - 1][j] - go - ge)
            H[i][j] = max(H[i - 1][j - 1] + sub, E[i][j], F[i][j])
            if H[i][j] > best:
                best = H[i][j]
    return int(best)
