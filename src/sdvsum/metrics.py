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

One per-video loop serves both modes: the evaluations average its records
over a split, and the overlap matrix lays out their per-summary F-Scores.

Evaluation is decoupled from the network through a ``score_fn(X, Y) ->
scores`` callable, so oracle scorers and trained models run the identical
protocol path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError
from .datasets import DatasetManifest, load_split
from .errors import ManifestError
from .selection import select_top_fraction

__all__ = [
    "TOP_FRACTION",
    "fscore_binary",
    "kendall_tau_b",
    "spearman_rho",
    "average_ground_truth",
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


def _pair_signs(x: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(x.shape[0], 1)
    return np.sign(x[j] - x[i])


def kendall_tau_b(a, b) -> float | None:
    """Tie-corrected Kendall rank correlation; None when either input is all ties.

    tau_b = (C - D) / sqrt((T0 - T_a) (T0 - T_b)), with C/D the concordant and
    discordant pair counts, T0 = n(n-1)/2, and T_a/T_b the per-input tied-pair
    counts. Quadratic pair enumeration; fine at per-video scale.
    """
    x = np.asarray(a, dtype=np.float64).reshape(-1)
    y = np.asarray(b, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("rank correlation needs at least 2 values")
    sx = _pair_signs(x)
    sy = _pair_signs(y)
    t0 = n * (n - 1) // 2
    ties_x = int((sx == 0).sum())
    ties_y = int((sy == 0).sum())
    if ties_x == t0 or ties_y == t0:
        return None
    c_minus_d = float((sx * sy).sum())
    return c_minus_d / float(np.sqrt((t0 - ties_x) * (t0 - ties_y)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values assigned the mean of their rank range."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.shape[0], dtype=np.float64)
    i = 0
    while i < x.shape[0]:
        j = i
        while j + 1 < x.shape[0] and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_rho(a, b) -> float | None:
    """Pearson correlation of average ranks; None when either rank set is constant."""
    x = np.asarray(a, dtype=np.float64).reshape(-1)
    y = np.asarray(b, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("rank correlation needs at least 2 values")
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


def _evaluate(score_fn, manifest: DatasetManifest, split: str, mode: str,
              fraction: float, cache) -> EvalResult:
    """The protocol's per-video loop, one record per video. script_driven:
    summary j comes from script j and is scored against reference j.
    generic: one description-conditioned summary is scored against every
    reference, and its scores are rank-correlated with their average."""
    videos = load_split(manifest, split, cache)
    if not videos:
        raise ManifestError(f"split {split!r} is empty")
    records = []
    for v in videos:
        tau = rho = None
        if mode == "generic":
            if v.description is None:
                raise ManifestError(
                    f"video {v.id!r}: generic evaluation needs a description embedding"
                )
            scores = score_fn(v.frames, v.description)
            sel = select_top_fraction(scores, fraction)
            per = [fscore_binary(sel, s.labels) for s in v.summaries]
            avg = average_ground_truth([s.labels for s in v.summaries])
            tau = kendall_tau_b(scores, avg)
            rho = spearman_rho(scores, avg)
        else:
            per = []
            for s in v.summaries:
                sel = select_top_fraction(score_fn(v.frames, s.script), fraction)
                per.append(fscore_binary(sel, s.labels))
        records.append(EvalRecord(video_id=v.id, per_summary=per,
                                  fscore=float(np.mean(per)), tau=tau, rho=rho))
    taus = [r.tau for r in records if r.tau is not None]
    rhos = [r.rho for r in records if r.rho is not None]
    generic = mode == "generic"
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
                           fraction: float = TOP_FRACTION,
                           cache=None) -> EvalResult:
    """Per (script, reference) pair: score, select top fraction, F-Score."""
    return _evaluate(score_fn, manifest, split, "script_driven", fraction, cache)


def evaluate_generic(score_fn, manifest: DatasetManifest, split: str,
                     fraction: float = TOP_FRACTION, cache=None) -> EvalResult:
    """One description-conditioned prediction per video, scored against every
    reference summary; rank correlations against the averaged references."""
    return _evaluate(score_fn, manifest, split, "generic", fraction, cache)


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
