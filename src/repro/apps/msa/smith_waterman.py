"""Smith–Waterman local alignment: the real kernel plus its cost model.

ClustalW's first stage computes the pairwise distance matrix via
Smith–Waterman dynamic programming — "almost 90% of the time is spent in
the first stage".  Two faces here:

* :func:`sw_score` — an actual vectorized implementation (row-wise NumPy
  with affine-free linear gap penalty), unit-tested against a reference
  O(mn) Python DP.  Examples and correctness tests call this.
* :func:`sw_work` — the cost model handed to the runtime simulator for
  at-scale runs, over arrays of sequence-length pairs: ``m × n`` DP
  cells, each a handful of integer max/add operations with excellent
  cache behaviour (two rolling rows); :func:`sw_work_signature` is its
  one-pair view.

Scores convert to ClustalW-style distances with :func:`score_to_distance`.
"""

from __future__ import annotations

import numpy as np

from ...machine import WorkSignature

#: Linear gap penalty (positive cost per gap).
GAP_PENALTY = 8
#: Match reward / mismatch penalty (simplified BLOSUM-ish scoring).
MATCH_SCORE = 5
MISMATCH_SCORE = -4


def _encode(seq: str) -> np.ndarray:
    return np.frombuffer(seq.encode(), dtype=np.uint8)


def sw_score(seq_a: str, seq_b: str) -> int:
    """Optimal Smith–Waterman local alignment score (linear gaps).

    Vectorized over the inner dimension: each outer-loop iteration updates
    a whole DP row with NumPy primitives.  ``H[i,j] = max(0, diag + s(a,b),
    up - gap, left - gap)``; the ``left`` recurrence is resolved with a
    prefix-scan trick (two passes suffice for linear gaps because the
    penalty is uniform).
    """
    if not seq_a or not seq_b:
        return 0
    a = _encode(seq_a)
    b = _encode(seq_b)
    m, n = len(a), len(b)
    prev = np.zeros(n + 1, dtype=np.int64)
    best = 0
    for i in range(m):
        sub = np.where(b == a[i], MATCH_SCORE, MISMATCH_SCORE)
        # candidates independent of the left-neighbour in this row
        cand = np.maximum(prev[:-1] + sub, prev[1:] - GAP_PENALTY)
        cand = np.maximum(cand, 0)
        # resolve the in-row dependency H[j] >= H[j-1] - gap with a scan:
        # H[j] = max_k<=j (cand[k] - gap*(j-k)) = max scan of cand[k]+gap*k
        # minus gap*j
        idx = np.arange(n, dtype=np.int64)
        scan = np.maximum.accumulate(cand + GAP_PENALTY * idx)
        row = np.maximum(cand, scan - GAP_PENALTY * idx)
        row = np.maximum(row, 0)
        cur = np.empty(n + 1, dtype=np.int64)
        cur[0] = 0
        cur[1:] = row
        best = max(best, int(row.max(initial=0)))
        prev = cur
    return best


def sw_score_reference(seq_a: str, seq_b: str) -> int:
    """Straightforward O(mn) scalar DP — the oracle for testing."""
    a, b = seq_a, seq_b
    m, n = len(a), len(b)
    H = [[0] * (n + 1) for _ in range(m + 1)]
    best = 0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            s = MATCH_SCORE if a[i - 1] == b[j - 1] else MISMATCH_SCORE
            h = max(
                0,
                H[i - 1][j - 1] + s,
                H[i - 1][j] - GAP_PENALTY,
                H[i][j - 1] - GAP_PENALTY,
            )
            H[i][j] = h
            best = max(best, h)
    return best


def score_to_distance(score: int, len_a: int, len_b: int) -> float:
    """ClustalW-style distance: 1 - score / best-possible-self-score."""
    denom = MATCH_SCORE * min(len_a, len_b)
    if denom <= 0:
        return 1.0
    return float(np.clip(1.0 - score / denom, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Cost model for the simulator
# ---------------------------------------------------------------------------

#: Integer operations per DP cell (3 adds + 3 max + substitution lookup).
OPS_PER_CELL = 7.0
#: Loads per cell (two rolling rows + substitution row, amortized).
LOADS_PER_CELL = 2.0
STORES_PER_CELL = 1.0
#: Branches per cell (loop control folds in at the row level).
BRANCHES_PER_CELL = 0.25


def sw_work(len_a, len_b) -> dict:
    """Work columns of aligning sequences of lengths ``len_a`` and
    ``len_b`` (arrays of pairs, or one pair), as
    :class:`~repro.machine.processor.TaskTable` arguments.

    Integer-dominated, tiny working set (two DP rows + both sequences),
    high reuse — the MSA case study's bottleneck is *load balance*, not
    memory, and the signature reflects that.
    """
    len_a, len_b = np.asarray(len_a, float), np.asarray(len_b, float)
    if (len_a < 0).any() or (len_b < 0).any():
        raise ValueError("sequence lengths must be non-negative")
    cells = len_a * len_b
    return dict(
        int_ops=cells * OPS_PER_CELL, loads=cells * LOADS_PER_CELL,
        stores=cells * STORES_PER_CELL, branches=cells * BRANCHES_PER_CELL,
        footprint_bytes=(2.0 * (len_b + 1)) * 8.0 + len_a + len_b,
        reuse=0.98, mispredict_rate=0.02, fp_dependency=0.0,
        issue_inflation=1.05,
    )


def sw_work_signature(len_a: int, len_b: int) -> WorkSignature:
    """:func:`sw_work` of one pair, as a signature."""
    return WorkSignature(**{k: float(v) for k, v in sw_work(len_a, len_b).items()})
