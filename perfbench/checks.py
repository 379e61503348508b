"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports sdvsum. Each ``check_*`` function returns ``None`` when
the program's output agrees and a one-line reason when it does not; the
caller counts every reason as one failed operation.

Tolerances follow from the arithmetic. The program computes in float32 and
these references in float64: scores were seen to agree within 1e-6 and
directional derivatives within a relative 1e-6, so the tolerances below
leave a wide margin while a wrong layer or a 1% gradient error still fails.
Protocol values (selections, F-Scores, rank correlations, knapsack values)
are computed in float64 by both sides from the same scores and must agree
to 1e-9.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import stats

TOP_FRACTION = 0.15
SCORE_ATOL = 1e-4          # float32 forward vs float64 reference, scores in (0, 1)
GRAD_RTOL = 1e-3           # float32 backward vs float64 central difference
EXACT_TOL = 1e-9           # float64 protocol arithmetic on identical inputs
BCE_CLAMP = 1e-7
LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# the inference network, from its description


def to_float64(weights: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}


def _positions(n: int, dim: int) -> np.ndarray:
    pos = np.arange(n, dtype=np.float64)[:, None]
    freq = 10000.0 ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    pe = np.zeros((n, dim))
    pe[:, 0::2] = np.sin(pos * freq)
    pe[:, 1::2] = np.cos(pos * freq)
    return pe


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _attention(q_in, kv_in, w, prefix: str, heads: int, temperature: float):
    outs = []
    for h in range(heads):
        q = q_in @ w[f"{prefix}.h{h}.wq"] + w[f"{prefix}.h{h}.bq"]
        k = kv_in @ w[f"{prefix}.h{h}.wk"] + w[f"{prefix}.h{h}.bk"]
        v = kv_in @ w[f"{prefix}.h{h}.wv"] + w[f"{prefix}.h{h}.bv"]
        logits = q @ k.T / temperature
        a = np.exp(logits - logits.max(axis=1, keepdims=True))
        outs.append((a / a.sum(axis=1, keepdims=True)) @ v)
    return np.hstack(outs) @ w[f"{prefix}.out.w"] + w[f"{prefix}.out.b"]


def reference_scores(x, y, w64: dict[str, np.ndarray], config: dict) -> np.ndarray:
    """Inference-mode frame scores, float64, for the multi-vector direct-head model.

    ``config`` is the model config as a dict (``ModelConfig.to_dict()``).
    """
    if config["text_rep"] != "multi_vector" or config["scorer_head"] != "direct":
        raise ValueError("reference covers the multi_vector text rep with a direct head")
    d, heads = config["dim"], config["heads"]
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)   # multi-vector: the sentences are the keys/values
    z = _attention(x, y, w64, "attn", heads, math.sqrt(d) if config["use_scaling"] else 1.0)
    z = _layer_norm(z + _positions(x.shape[0], d), w64["post.ln.gain"], w64["post.ln.bias"])
    for l in range(config["encoder_layers"]):
        att = _attention(z, z, w64, f"enc{l}.attn", heads, math.sqrt(d // heads))
        z = _layer_norm(z + att, w64[f"enc{l}.ln1.gain"], w64[f"enc{l}.ln1.bias"])
        hidden = np.maximum(z @ w64[f"enc{l}.ffn.w1"] + w64[f"enc{l}.ffn.b1"], 0.0)
        ffn = hidden @ w64[f"enc{l}.ffn.w2"] + w64[f"enc{l}.ffn.b2"]
        z = _layer_norm(z + ffn, w64[f"enc{l}.ln2.gain"], w64[f"enc{l}.ln2.bias"])
    logits = (z @ w64["scorer.head.w"] + w64["scorer.head.b"])[:, 0]
    return 1.0 / (1.0 + np.exp(-logits))


def reference_bce(x, y, labels, w64, config) -> float:
    s = np.clip(reference_scores(x, y, w64, config), BCE_CLAMP, 1.0 - BCE_CLAMP)
    t = np.asarray(labels, dtype=np.float64).reshape(-1)
    return float(-np.mean(t * np.log(s) + (1.0 - t) * np.log(1.0 - s)))


def check_scores(program: np.ndarray, reference: np.ndarray) -> str | None:
    program = np.asarray(program, dtype=np.float64).reshape(-1)
    if program.shape != reference.shape:
        return f"score shape {program.shape} != reference {reference.shape}"
    err = float(np.max(np.abs(program - reference)))
    if not err <= SCORE_ATOL:
        return f"scores differ from the float64 reference by {err:.3g} (tol {SCORE_ATOL})"
    return None


def check_gradient(grads: dict[str, np.ndarray], loss_at, w64: dict[str, np.ndarray],
                   seed: int, step: float = 1e-6) -> str | None:
    """Directional derivative of the reference loss against the program's gradient.

    The direction is half the program's gradient direction and half a seeded
    random direction, so the projection is never close to zero. ``loss_at``
    maps float64 weights to the reference loss.
    """
    rng = np.random.default_rng(seed)
    names = sorted(w64)
    g = {k: np.asarray(grads[k], dtype=np.float64) for k in names}
    r = {k: rng.standard_normal(w64[k].shape) for k in names}
    g_norm = math.sqrt(sum(float((v * v).sum()) for v in g.values()))
    r_norm = math.sqrt(sum(float((v * v).sum()) for v in r.values()))
    if not g_norm > 0.0:
        return "program gradient is zero"
    d = {k: g[k] / g_norm + r[k] / r_norm for k in names}
    d_norm = math.sqrt(sum(float((v * v).sum()) for v in d.values()))
    d = {k: v / d_norm for k, v in d.items()}
    analytic = sum(float((g[k] * d[k]).sum()) for k in names)
    hi = loss_at({k: w64[k] + step * d[k] for k in names})
    lo = loss_at({k: w64[k] - step * d[k] for k in names})
    numeric = (hi - lo) / (2.0 * step)
    err = abs(analytic - numeric) / max(abs(numeric), 1e-12)
    if not err <= GRAD_RTOL:
        return (f"directional derivative {analytic:.6g} from backward vs {numeric:.6g} "
                f"by central difference (relative error {err:.3g}, tol {GRAD_RTOL})")
    return None


# ---------------------------------------------------------------------------
# protocol


def top_fraction(scores, fraction: float = TOP_FRACTION) -> set[int]:
    """Indices of the floor(fraction*N) best scores (at least one); ties to the lower index."""
    s = [float(v) for v in np.asarray(scores).reshape(-1)]
    k = max(1, int(math.floor(fraction * len(s))))
    return set(sorted(range(len(s)), key=lambda i: (-s[i], i))[:k])


def fscore(selected: set[int], labels) -> float:
    truth = {i for i, v in enumerate(np.asarray(labels).reshape(-1)) if v == 1.0}
    hit = len(selected & truth)
    if hit == 0:
        return 0.0
    precision, recall = hit / len(selected), hit / len(truth)
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def _differs(a, b) -> bool:
    if a is None or b is None:
        return (a is None) != (b is None)
    return not abs(a - b) <= EXACT_TOL * max(1.0, abs(b))


def check_pair_fscore(program_f: float, scores, labels) -> str | None:
    want = fscore(top_fraction(scores), labels)
    if _differs(program_f, want):
        return f"pair F-Score {program_f!r}, independent top-15% selection gives {want!r}"
    return None


def check_means(program_video: list[float], program_dataset: float,
                per_pair: list[list[float]]) -> str | None:
    """Two-level averaging: per-video mean of pairs, dataset mean of videos."""
    videos = [sum(p) / len(p) for p in per_pair]
    for got, want in zip(program_video, videos):
        if _differs(got, want):
            return f"video F-Score {got!r}, mean of its pairs is {want!r}"
    if _differs(program_dataset, sum(videos) / len(videos)):
        return f"dataset F-Score {program_dataset!r}, mean of videos is {sum(videos) / len(videos)!r}"
    return None


def _scipy_or_none(value) -> float | None:
    return None if math.isnan(value) else float(value)


def check_ranks(tau, rho, scores, summaries_labels) -> str | None:
    """Kendall tau-b and Spearman rho against scipy, on the averaged references."""
    avg = np.mean([np.asarray(l, dtype=np.float64).reshape(-1) for l in summaries_labels], axis=0)
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want_tau = _scipy_or_none(stats.kendalltau(s, avg, variant="b").statistic)
        want_rho = _scipy_or_none(stats.spearmanr(s, avg).statistic)
    if _differs(tau, want_tau):
        return f"kendall tau-b {tau!r}, scipy gives {want_tau!r}"
    if _differs(rho, want_rho):
        return f"spearman rho {rho!r}, scipy gives {want_rho!r}"
    return None


def knapsack_optimum(values: list[float], weights: list[int], capacity: int) -> float:
    """Best total value of a 0/1 selection with total weight <= capacity."""
    best = np.zeros(capacity + 1)
    for v, w in zip(values, weights):
        if w <= capacity:
            best[w:] = np.maximum(best[w:], best[:capacity + 1 - w] + v)
    return float(best[capacity])


def check_knapsack(chosen, scores, fragments, budget: int) -> str | None:
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if len(set(chosen)) != len(chosen) or any(not 0 <= i < len(fragments) for i in chosen):
        return f"knapsack returned invalid fragment indices {chosen!r}"
    used = sum(fragments[i][1] - fragments[i][0] for i in chosen)
    if used > budget:
        return f"knapsack selection uses {used} frames, budget is {budget}"
    values = [float(s[a:b].sum()) for a, b in fragments]
    got = sum(values[i] for i in chosen)
    want = knapsack_optimum(values, [b - a for a, b in fragments], budget)
    if _differs(got, want):
        return f"knapsack value {got!r}, optimum is {want!r}"
    return None


def check_report(best_val_fscore: float, per_video_pairs) -> str | None:
    """``per_video_pairs``: per validation video, its (scores, labels) pairs."""
    videos = [sum(fscore(top_fraction(s), l) for s, l in pairs) / len(pairs)
              for pairs in per_video_pairs]
    want = sum(videos) / len(videos)
    if _differs(best_val_fscore, want):
        return f"report best_val_fscore {best_val_fscore!r}, best checkpoint scores {want!r}"
    return None
