"""Evaluation protocol: F-Score over binary summaries, rank correlations,
and the per-annotator overlap matrix.

The dataset F-Score follows the two-level averaging protocol: per video, the
machine summary for each (script, reference summary) pair is scored against
that pair's labels and the per-pair scores are averaged; the dataset score is
the mean over videos. Machine summaries are the top-15% scoring frames.

Rank correlations (generic mode) compare one score vector per video with the
averaged reference labels: Kendall tau-b and Spearman rho, both tie-aware.
Videos where either input is entirely tied have no defined correlation; they
return None and are excluded from the averages, with the exclusion count
reported on the result.

One per-video loop serves both modes over ``mode_pairs``, the one rule for
what a mode scores (shared with training): the evaluations average its
records over a split, and the overlap matrix lays out their per-summary
F-Scores.

Evaluation is decoupled from the network through a ``score_fn(X, Y) ->
scores`` callable, so oracle scorers and trained models run the identical
protocol path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError
from .datasets import DatasetManifest, LoadedVideo, load_split
from .errors import ManifestError
from .selection import select_top_fraction

__all__ = [
    "TOP_FRACTION",
    "fscore_binary",
    "kendall_tau_b",
    "spearman_rho",
    "average_ground_truth",
    "mode_pairs",
    "EvalRecord",
    "EvalResult",
    "evaluate_script_driven",
    "evaluate_generic",
    "OverlapMatrix",
    "overlap_matrix",
]

TOP_FRACTION = 0.15


def fscore_binary(pred: np.ndarray, gt: np.ndarray) -> float:
    """F-Score (%) between two binary frame selections; 0 when disjoint."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    g = np.asarray(gt, dtype=np.float64).reshape(-1)
    if p.shape != g.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {g.shape[0]}")
    inter = float((p * g).sum())
    if inter == 0.0:
        return 0.0
    # 200*P*R/(P+R) reduced to counts: exactly symmetric, one rounding.
    return 200.0 * inter / (float(p.sum()) + float(g.sum()))


def _changes(v: np.ndarray) -> np.ndarray:
    return v[1:] != v[:-1]


def _tied_pairs(new_run: np.ndarray) -> int:
    """Sum of t(t-1)/2 over runs of t equal neighbours; ``new_run[i]`` marks
    that value i+1 starts a run."""
    starts = np.flatnonzero(np.concatenate(([True], new_run)))
    runs = np.diff(np.append(starts, new_run.shape[0] + 1))
    return int((runs * (runs - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j] (ranks >= 0), by a bottom-up merge sort.

    The ranks are padded to a power-of-two length with a value above all of
    them, which adds no inversion. Each level merges neighbouring sorted
    blocks of ``width`` values. A key offset per block keeps the left blocks
    apart in one sorted array, so one ``searchsorted`` counts, for every
    value of a right block, the values of its left block that are not
    greater; the rest of that left block are its inversions.
    """
    n, top = ranks.shape[0], int(ranks.max()) + 1
    size = 1 << (n - 1).bit_length()
    values = np.full(size, top, dtype=np.int64)
    values[:n] = ranks
    count, width = 0, 1
    while width < size:
        blocks = size // (2 * width)
        keys = values.reshape(blocks, 2, width) + (np.arange(blocks) * (top + 1))[:, None, None]
        not_greater = np.searchsorted(keys[:, 0].ravel(), keys[:, 1].ravel(), side="right")
        # a right value of block b has b*width left values before its block's
        count += width * width * blocks * (blocks + 1) // 2 - int(not_greater.sum())
        values = np.sort(values.reshape(blocks, 2 * width), axis=1)
        width *= 2
    return count


def kendall_tau_b(a, b) -> float | None:
    """Tie-corrected Kendall rank correlation; None when either input is all ties.

    tau_b = (C - D) / sqrt((T0 - T_a) (T0 - T_b)), with C/D the concordant and
    discordant pair counts, T0 = n(n-1)/2, and T_a/T_b the per-input tied-pair
    counts. Knight's O(n log n) method: sorted by (a, b), the discordant pairs
    are the inversions of b, and C - D = T0 - T_a - T_b + T_ab - 2D, with
    T_ab the pairs tied in both.
    """
    x = np.asarray(a, dtype=np.float64).reshape(-1)
    y = np.asarray(b, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    t0 = n * (n - 1) // 2
    order = np.lexsort((y, x))
    xs, ys, y_sorted = x[order], y[order], np.sort(y)
    new_x = _changes(xs)
    ties_x = _tied_pairs(new_x)
    ties_y = _tied_pairs(_changes(y_sorted))
    if ties_x == t0 or ties_y == t0:
        return None
    ties_xy = _tied_pairs(new_x | _changes(ys))
    # equal y values share a rank, so they count as no inversion
    discordant = _inversions(np.searchsorted(y_sorted, ys))
    c_minus_d = float(t0 - ties_x - ties_y + ties_xy - 2 * discordant)
    return c_minus_d / math.sqrt(float((t0 - ties_x) * (t0 - ties_y)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values assigned the mean of their rank range."""
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # sorted positions [i, j] of each run of equal values
    i = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    j = np.append(i[1:], n) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((i + j) / 2.0 + 1.0, j - i + 1)
    return ranks


def spearman_rho(a, b) -> float | None:
    """Pearson correlation of average ranks; None when either rank set is constant."""
    x = np.asarray(a, dtype=np.float64).reshape(-1)
    y = np.asarray(b, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    rx = _average_ranks(x) - (x.shape[0] + 1) / 2.0
    ry = _average_ranks(y) - (y.shape[0] + 1) / 2.0
    denom = float(np.sqrt((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0.0:
        return None
    return float((rx * ry).sum()) / denom


def average_ground_truth(summaries: list[np.ndarray]) -> np.ndarray:
    """Per-frame mean of binary summaries; order-invariant by exact summation."""
    if not summaries:
        raise ValueError("average_ground_truth needs at least one summary")
    first = np.asarray(summaries[0], dtype=np.float64).reshape(-1)
    total = np.zeros_like(first)
    for s in summaries:
        a = np.asarray(s, dtype=np.float64).reshape(-1)
        if a.shape != first.shape:
            raise ShapeError(
                f"summary length {a.shape[0]} does not match {first.shape[0]}"
            )
        total += a
    return (total / len(summaries)).astype(np.float32)


# ---------------------------------------------------------------------------
# protocol


@dataclass
class EvalRecord:
    video_id: str
    per_summary: list[float]
    fscore: float
    tau: float | None = None
    rho: float | None = None


@dataclass
class EvalResult:
    split: str
    mode: str
    fscore: float
    tau: float | None
    rho: float | None
    records: list[EvalRecord] = field(default_factory=list)
    degenerate_tau: int = 0
    degenerate_rho: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "split": self.split,
            "mode": self.mode,
            "fscore": self.fscore,
            "tau": self.tau,
            "rho": self.rho,
            "videos": [
                {"id": r.video_id, "fscore": r.fscore, "per_summary": r.per_summary,
                 "tau": r.tau, "rho": r.rho}
                for r in self.records
            ],
        }, indent=1)


def mode_pairs(video: LoadedVideo, mode: str) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """What a mode scores on one video: (text, reference labels) pairs.

    script_driven: each summary's script with its own labels, in summary
    order. generic: one pair, the video's description with every summary's
    labels; a video without a description is a ``ManifestError``.
    """
    if mode == "generic":
        if video.description is None:
            raise ManifestError(f"video {video.id!r}: generic mode needs a description embedding")
        return [(video.description, [s.labels for s in video.summaries])]
    return [(s.script, [s.labels]) for s in video.summaries]


def _evaluate(score_fn, manifest: DatasetManifest, split: str, mode: str, cache) -> EvalResult:
    """The protocol's per-video loop, one record per video: each of the
    video's ``mode_pairs`` is one summary, scored against each of its
    references. In generic mode the one pair's scores are also
    rank-correlated with the average of its references."""
    generic = mode == "generic"
    records = []
    for v in load_split(manifest, split, cache):
        per, tau, rho = [], None, None
        for text, refs in mode_pairs(v, mode):
            scores = score_fn(v.frames, text)
            sel = select_top_fraction(scores, TOP_FRACTION)
            per += [fscore_binary(sel, labels) for labels in refs]
        if generic:   # its one pair, against the mean of its references
            avg = average_ground_truth(refs)
            tau, rho = kendall_tau_b(scores, avg), spearman_rho(scores, avg)
        records.append(EvalRecord(video_id=v.id, per_summary=per,
                                  fscore=float(np.mean(per)), tau=tau, rho=rho))
    taus = [r.tau for r in records if r.tau is not None]
    rhos = [r.rho for r in records if r.rho is not None]
    return EvalResult(
        split=split, mode=mode,
        fscore=float(np.mean([r.fscore for r in records])),
        tau=float(np.mean(taus)) if taus else None,
        rho=float(np.mean(rhos)) if rhos else None,
        records=records,
        degenerate_tau=len(records) - len(taus) if generic else 0,
        degenerate_rho=len(records) - len(rhos) if generic else 0,
    )


def evaluate_script_driven(score_fn, manifest: DatasetManifest, split: str,
                           cache=None) -> EvalResult:
    """Per (script, reference) pair: score, select top fraction, F-Score."""
    return _evaluate(score_fn, manifest, split, "script_driven", cache)


def evaluate_generic(score_fn, manifest: DatasetManifest, split: str, cache=None) -> EvalResult:
    """One description-conditioned prediction per video, scored against every
    reference summary; rank correlations against the averaged references."""
    return _evaluate(score_fn, manifest, split, "generic", cache)


# ---------------------------------------------------------------------------
# overlap analysis


@dataclass
class OverlapMatrix:
    video_ids: list[str]
    values: np.ndarray   # (videos, annotators), F-Score percentages

    def to_csv(self) -> str:
        cols = self.values.shape[1]
        lines = ["video_id," + ",".join(str(j + 1) for j in range(cols))]
        for vid, row in zip(self.video_ids, self.values):
            lines.append(vid + "," + ",".join(f"{x:.2f}" for x in row))
        return "\n".join(lines) + "\n"


def overlap_matrix(result: EvalResult, video_ids: list[str]) -> OverlapMatrix:
    """Per-video, per-annotator F-Scores: the evaluation's ``per_summary``
    rows for the given videos, which must lie in the evaluated split and all
    have the same number of summaries."""
    rows = {r.video_id: r.per_summary for r in result.records}
    for vid in video_ids:
        if vid not in rows:
            raise ManifestError(f"video {vid!r} is not in the evaluated {result.split!r} split")
        if len(rows[vid]) != len(rows[video_ids[0]]):
            raise ManifestError(f"video {vid!r} has {len(rows[vid])} summaries, "
                                f"expected {len(rows[video_ids[0]])}")
    return OverlapMatrix(video_ids=list(video_ids),
                         values=np.array([rows[vid] for vid in video_ids], dtype=np.float64))
