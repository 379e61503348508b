"""Turn frame scores into summaries.

Two selection paths: the evaluation protocol picks the top-scoring
``TOP_FRACTION`` (15%) of individual frames; the deployment path picks whole
temporal fragments under a frame budget by exact 0/1 knapsack.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TOP_FRACTION",
    "select_top_fraction",
    "fixed_fragmentation",
    "validate_fragments",
    "fragment_knapsack",
]

# the share of its frames a summary holds: what the protocol selects, what
# summarize budgets by default and what the synthetic corpus plants
TOP_FRACTION = 0.15


def select_top_fraction(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Binary selection of the k = max(1, floor(fraction*N)) best-scoring frames.

    Ties break toward the smaller frame index. Returns a 0/1 float32 vector
    with exactly k ones.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = s.shape[0]
    if n < 1:
        raise ValueError("select_top_fraction needs at least one score")
    k = max(1, int(np.floor(fraction * n)))
    order = np.argsort(-s, kind="stable")
    out = np.zeros(n, dtype=np.float32)
    out[order[:k]] = 1.0
    return out


def fixed_fragmentation(n: int, segment_len: int) -> list[tuple[int, int]]:
    """Consecutive fragments of ``segment_len`` frames covering [0, n)."""
    if n < 1:
        raise ValueError(f"need at least one frame, got {n}")
    if segment_len < 1:
        raise ValueError(f"segment_len must be >= 1, got {segment_len}")
    return [(i, min(i + segment_len, n)) for i in range(0, n, segment_len)]


def validate_fragments(fragments: list[tuple[int, int]], n: int) -> None:
    cursor = 0
    for start, end in fragments:
        if not (start == cursor and start < end <= n):
            raise ValueError(
                f"fragments must be sorted, disjoint and cover [0, {n}); "
                f"offending fragment ({start}, {end}) at position {cursor}"
            )
        cursor = end
    if cursor != n:
        raise ValueError(f"fragments cover [0, {cursor}) but the video has {n} frames")


def fragment_knapsack(scores: np.ndarray, fragments: list[tuple[int, int]],
                      budget_frames: int) -> list[int]:
    """Exact 0/1 knapsack over fragments; returns selected fragment indices.

    Fragment value is the sum of its frame scores, weight its frame count,
    capacity ``budget_frames``. Among equal-value optima the lexicographically
    smallest index set is returned, via a suffix DP and a front-to-back walk
    that includes a fragment whenever inclusion preserves optimality.
    """
    if budget_frames < 0:
        raise ValueError(f"budget_frames must be >= 0, got {budget_frames}")
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    validate_fragments(fragments, s.shape[0])
    values = [float(s[a:b].sum()) for a, b in fragments]
    weights = [b - a for a, b in fragments]
    nf, cap = len(fragments), budget_frames

    # best[i][w]: max value achievable with fragments i.. and capacity w
    best = np.zeros((nf + 1, cap + 1), dtype=np.float64)
    for i in range(nf - 1, -1, -1):
        best[i] = best[i + 1]
        w = weights[i]
        if w <= cap:
            take = values[i] + best[i + 1, :cap + 1 - w]
            best[i, w:] = np.maximum(best[i + 1, w:], take)

    chosen = []
    w = cap
    for i in range(nf):
        if weights[i] <= w and values[i] + best[i + 1, w - weights[i]] == best[i, w]:
            chosen.append(i)
            w -= weights[i]
    return chosen
