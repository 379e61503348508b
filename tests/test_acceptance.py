"""End-to-end acceptance gates.

One test per criterion; each prints a single ``[criterion N] PASS/FAIL``
line with the measured numbers (run with ``-s`` to see them live). Every
expected value comes from an oracle computed inside this file — brute-force
enumeration, closed forms, or hand-built datasets with known answers — never
from the code under test.
"""

import json
import math
import time

import numpy as np
import pytest

from sdvsum.autodiff import (
    Tape,
    add,
    attention,
    bce,
    dropout,
    dropout_mask,
    layer_norm,
    linear,
    mse,
    relu,
    sigmoid,
)
from sdvsum.datasets import SynthSpec, generate_synthetic, load_manifest, load_split
from sdvsum.metrics import (
    evaluate_generic,
    evaluate_script_driven,
    fscore_binary,
    kendall_tau_b,
    overlap_matrix,
    spearman_rho,
)
from sdvsum.model import (
    ModelConfig,
    attention_matrices,
    init_weights,
    load_checkpoint,
    make_score_fn,
    model_forward,
    parameter_count,
    save_checkpoint,
    score_frames,
)
from sdvsum.rng import Rng
from sdvsum.sdve import read_embeddings, write_container, write_embeddings
from sdvsum.selection import fixed_fragmentation, fragment_knapsack, select_top_fraction
from sdvsum.training import TrainConfig, bce_loss, train_run

from conftest import ACCEPT_EPOCHS, SDVSUM_MODEL, VARIANT3_MODEL
from gradcheck import bilinear, grad_check


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def rnd(*shape, seed, margin_level=None, margin=0.05):
    a = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    if margin_level is not None:
        for level in np.atleast_1d(margin_level):
            d = a - level
            push = np.abs(d) < margin
            a[push] = level + margin * np.where(d[push] >= 0, 1.0, -1.0).astype(np.float32)
    return a


def _scores(n, seed):
    """An n x 1 column in (0.1, 0.9), away from the BCE clamp."""
    return (0.5 + 0.4 * np.tanh(rnd(n, 1, seed=seed))).astype(np.float32)


def _labels(n):
    return (np.arange(n) % 3 == 0).astype(np.float32).reshape(n, 1)


def _two_segment_attention(q, k, v):
    """Queries 0-1 attend to keys 0-2 and queries 2-4 to keys 3-4, with dropout."""
    g = Rng(3).stream("dropout", 2)   # made per call, so the masks are the same each time
    masks = [dropout_mask((2, 2, 3), 0.5, g, True), dropout_mask((2, 3, 2), 0.5, g, True)]
    return attention(q, k, v, 2, 1.0, masks, None, [0, 2, 5], [0, 3, 5])


def _op_checks():
    """(name, params, builder) for every differentiable tape operation."""

    def p(tape, params, name):
        return tape.param(name, params[name])

    checks = [
        ("linear", {"x": rnd(3, 4, seed=1), "w": rnd(4, 2, seed=2), "b": rnd(1, 2, seed=40)},
         lambda t, pr: bilinear(linear(p(t, pr, "x"), p(t, pr, "w"), p(t, pr, "b")))),
        ("linear_blocks", {"x": rnd(2, 4, seed=22), "w0": rnd(4, 1, seed=23),
                           "w1": rnd(4, 3, seed=41), "w2": rnd(4, 2, seed=42),
                           "b0": rnd(1, 1, seed=43), "b1": rnd(1, 3, seed=44),
                           "b2": rnd(1, 2, seed=45)},
         lambda t, pr: bilinear(linear(p(t, pr, "x"), [p(t, pr, f"w{i}") for i in range(3)],
                                       [p(t, pr, f"b{i}") for i in range(3)]))),
        ("add", {"a": rnd(3, 3, seed=4), "b": rnd(3, 3, seed=5)},
         lambda t, pr: bilinear(add(p(t, pr, "a"), p(t, pr, "b")))),
        ("relu", {"a": rnd(4, 4, seed=12, margin_level=0.0)},
         lambda t, pr: bilinear(relu(p(t, pr, "a")))),
        ("sigmoid", {"a": rnd(4, 4, seed=13)},
         lambda t, pr: bilinear(sigmoid(p(t, pr, "a")))),
        ("layer_norm", {"a": rnd(3, 6, seed=17), "g": rnd(1, 6, seed=18),
                        "b": rnd(1, 6, seed=19)},
         lambda t, pr: bilinear(layer_norm(p(t, pr, "a"), p(t, pr, "g"),
                                           p(t, pr, "b")))),
        ("dropout_train", {"a": rnd(4, 4, seed=20)},
         lambda t, pr: bilinear(dropout(p(t, pr, "a"), dropout_mask(
             (4, 4), 0.5, Rng(3).stream("dropout", 0), True)))),
        ("dropout_eval", {"a": rnd(4, 4, seed=21)},
         lambda t, pr: bilinear(dropout(p(t, pr, "a"), dropout_mask((4, 4), 0.7, None, False)))),
        ("attention", {"q": rnd(3, 4, seed=3), "k": rnd(5, 4, seed=16),
                       "v": rnd(5, 4, seed=24)},
         lambda t, pr: bilinear(attention(p(t, pr, "q"), p(t, pr, "k"),
                                          p(t, pr, "v"), 2))),
        ("attention_q_is_k", {"a": rnd(4, 6, seed=27), "v": rnd(4, 6, seed=29)},
         lambda t, pr: bilinear(attention(p(t, pr, "a"), p(t, pr, "a"),
                                          p(t, pr, "v"), 3))),
        ("attention_scaled", {"q": rnd(2, 4, seed=30), "k": rnd(3, 4, seed=31),
                              "v": rnd(3, 4, seed=32)},
         lambda t, pr: bilinear(attention(p(t, pr, "q"), p(t, pr, "k"),
                                          p(t, pr, "v"), 2, logit_scale=0.7))),
        ("attention_dropout", {"q": rnd(4, 4, seed=33), "k": rnd(3, 4, seed=34),
                               "v": rnd(3, 4, seed=35)},
         lambda t, pr: bilinear(attention(p(t, pr, "q"), p(t, pr, "k"),
                                          p(t, pr, "v"), 2, 1.0, [dropout_mask(
                                              (2, 4, 3), 0.5, Rng(3).stream("dropout", 1),
                                              True)]))),
        ("attention_segments_dropout", {"q": rnd(5, 4, seed=36), "k": rnd(5, 4, seed=37),
                                        "v": rnd(5, 4, seed=38)},
         lambda t, pr: bilinear(_two_segment_attention(
             p(t, pr, "q"), p(t, pr, "k"), p(t, pr, "v")))),
        ("bce", {"f": _scores(4, seed=6)},
         lambda t, pr: bce(p(t, pr, "f"), _labels(4))),
        ("bce_segments", {"f": _scores(7, seed=7)},
         lambda t, pr: bce(p(t, pr, "f"), _labels(7), [0, 1, 4, 7])),
        ("mse", {"f": _scores(4, seed=8)},
         lambda t, pr: mse(p(t, pr, "f"), _scores(4, seed=9))),
        ("mse_segments", {"f": _scores(7, seed=10)},
         lambda t, pr: mse(p(t, pr, "f"), _scores(7, seed=11), [0, 2, 3, 7])),
    ]
    return checks


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    worst_op, worst_err = "", 0.0
    for name, params, build in _op_checks():
        def f(pr, build=build):
            tape = Tape()
            return build(tape, pr)

        err = grad_check(f, params, eps=1e-3).max_error
        if err > worst_err:
            worst_op, worst_err = name, err

    # full forward + BCE composite: N=4, M=2, D=16, H=4, dropout off.
    # Weight/data seeds are pinned to keep every encoder ReLU pre-activation
    # at least 0.04 away from its kink, far beyond the 1e-3 probe step.
    cfg = ModelConfig(dim=16, heads=4)
    weights = init_weights(cfg, Rng(17))
    rng = np.random.default_rng(2)
    X, Y = unit_rows(rng, 4, 16), unit_rows(rng, 2, 16)
    labels = np.array([1.0, 0.0, 1.0, 0.0], dtype=np.float32)

    def composite(params):
        tape = Tape()
        return bce_loss(model_forward(tape, X, Y, params, cfg, training=False),
                        labels)

    comp_err = grad_check(composite, weights, eps=1e-3).max_error
    elapsed = time.monotonic() - t0
    ok = worst_err <= 1e-3 and comp_err <= 1e-3 and elapsed < 30
    _report(1, ok, f"ops max rel err {worst_err:.2e} ({worst_op}), "
                   f"composite {comp_err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: attention invariants


def test_criterion_2_attention_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    ones_checked = 0
    for trial in range(100):
        d = int(rng.choice([8, 16, 32, 64]))
        heads = int(rng.choice([h for h in (1, 2, 4, 8) if d % h == 0]))
        cfg = ModelConfig(dim=d, heads=heads, use_scaling=bool(rng.integers(2)))
        w = init_weights(cfg, Rng(trial))
        n = int(rng.integers(1, 9))
        m = 1 if trial < 10 else int(rng.integers(1, 7))
        X = rng.normal(size=(n, d)).astype(np.float32)
        Y = rng.normal(size=(m, d)).astype(np.float32)
        for a in attention_matrices(X, Y, w, cfg):
            worst = max(worst, float(np.abs(a.sum(axis=1) - 1.0).max()))
            if m == 1:
                assert np.array_equal(a, np.ones((n, 1), dtype=np.float32))
                ones_checked += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and ones_checked >= 10 and elapsed < 10
    _report(2, ok, f"100 configs, worst row-sum dev {worst:.2e}, "
                   f"{ones_checked} single-sentence all-ones heads, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: metric oracles


def oracle_fscore(p, g):
    tp = float(np.sum((p == 1) & (g == 1)))
    if tp == 0.0:
        return 0.0
    prec, rec = tp / p.sum(), tp / g.sum()
    return 200.0 * prec * rec / (prec + rec)


def oracle_tau(a, b):
    n = len(a)
    conc = disc = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[j] - a[i], b[j] - b[i]
            if da == 0:
                ties_a += 1
            if db == 0:
                ties_b += 1
            if da != 0 and db != 0:
                if (da > 0) == (db > 0):
                    conc += 1
                else:
                    disc += 1
    t0 = n * (n - 1) / 2
    den = math.sqrt((t0 - ties_a) * (t0 - ties_b))
    return None if den == 0 else (conc - disc) / den


def oracle_ranks(x):
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def oracle_rho(a, b):
    ra = oracle_ranks(np.asarray(a, dtype=np.float64))
    rb = oracle_ranks(np.asarray(b, dtype=np.float64))
    ra -= ra.mean()
    rb -= rb.mean()
    den = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    return None if den == 0 else float((ra * rb).sum()) / den


def test_criterion_3_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst_f = worst_tau = worst_rho = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        p = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.float64)
        g = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.float64)
        worst_f = max(worst_f, abs(fscore_binary(p, g) - oracle_fscore(p, g)))

        if rng.integers(2):
            a = rng.integers(0, 6, size=n).astype(np.float64)
            b = rng.integers(0, 6, size=n).astype(np.float64)
        else:
            a = rng.normal(size=n)
            b = rng.normal(size=n)
        for got, want in ((kendall_tau_b(a, b), oracle_tau(a, b)),):
            assert (got is None) == (want is None)
            if got is not None:
                worst_tau = max(worst_tau, abs(got - want))
        got, want = spearman_rho(a, b), oracle_rho(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            worst_rho = max(worst_rho, abs(got - want))

    ident = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    exact = (
        fscore_binary(ident, ident) == 100.0
        and kendall_tau_b(x, x) == 1.0 and spearman_rho(x, x) == 1.0
        and fscore_binary(ident, 1.0 - ident) == 0.0
        and kendall_tau_b(x, -x) == -1.0 and spearman_rho(x, -x) == -1.0
    )
    elapsed = time.monotonic() - t0
    ok = (worst_f <= 1e-6 and worst_tau <= 1e-9 and worst_rho <= 1e-9
          and exact and elapsed < 30)
    _report(3, ok, f"1000 instances: |dF| {worst_f:.1e}, |dtau| {worst_tau:.1e}, "
                   f"|drho| {worst_rho:.1e}, identity/reversal exact={exact}, "
                   f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: knapsack optimality


def oracle_knapsack_value(values, weights, budget):
    k = len(values)
    masks = np.arange(1 << k, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(k)) & 1).astype(np.float64)
    feasible = bits @ weights <= budget
    return float((bits @ values)[feasible].max())


def test_criterion_4_knapsack_optimality():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    for trial in range(200):
        k = int(rng.integers(1, 16))
        lengths = rng.integers(1, 5, size=k)
        n = int(lengths.sum())
        # integer scores make every fragment value exact in float32, so the
        # dynamic program and the enumeration must agree to the last bit
        scores = rng.integers(-3, 10, size=n).astype(np.float32)
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        fragments = [(int(bounds[i]), int(bounds[i + 1])) for i in range(k)]
        budget = int(rng.integers(0, n + 1))
        chosen = fragment_knapsack(scores, fragments, budget)
        got_w = sum(b - a for a, b in (fragments[i] for i in chosen))
        got_v = float(sum(float(scores[a:b].sum())
                          for a, b in (fragments[i] for i in chosen)))
        values = np.array([float(scores[a:b].sum()) for a, b in fragments])
        weights = lengths.astype(np.float64)
        best = oracle_knapsack_value(values, weights, budget)
        assert got_w <= budget
        assert got_v == best, f"trial {trial}: {got_v} vs enumerated {best}"
    elapsed = time.monotonic() - t0
    ok = elapsed < 30
    _report(4, ok, f"200 instances up to 15 fragments match enumeration exactly, "
                   f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: protocol conformance


def test_criterion_5_protocol_conformance(tmp_path):
    t0 = time.monotonic()
    n, d, n_videos, n_summaries = 60, 60, 4, 10
    rng = np.random.default_rng(3)
    videos = []
    for v in range(n_videos):
        tensors = {"frames": np.eye(n, dtype=np.float32)}
        for j in range(n_summaries):
            labels = np.zeros(n, dtype=np.float32)
            labels[rng.choice(n, size=9, replace=False)] = 1.0  # 9/60 = 0.15
            tensors[f"labels_{j:02d}"] = labels.reshape(n, 1)
            # the script IS the label row: with identity frames the dot
            # product X @ script reproduces the labels as scores
            tensors[f"script_{j:02d}"] = labels.reshape(1, n)
        write_container({"video": f"v{v}"}, tensors, tmp_path / f"v{v}.sdvc")
        videos.append({"id": f"v{v}", "split": "test", "file": f"v{v}.sdvc"})
    (tmp_path / "manifest.json").write_text(
        json.dumps({"dimension": d, "videos": videos}))
    manifest = load_manifest(tmp_path / "manifest.json")

    oracle_model = lambda x, y: (x @ y.T)[:, 0]
    result = evaluate_script_driven(oracle_model, manifest, "test")
    elapsed = time.monotonic() - t0
    ok = abs(result.fscore - 100.0) <= 0.5 and elapsed < 60
    _report(5, ok, f"oracle-model dataset F-Score {result.fscore:.3f} "
                   f"(want 100 ± 0.5), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: synthetic learnability


def test_criterion_6_synthetic_learnability(reference_dataset, sdvsum_runs):
    t0 = time.monotonic()
    manifest = reference_dataset["manifest"]

    # Monte-Carlo random-selection baseline; closed form gives
    # 2*p*0.15/(p+0.15)*100 = 15 at p = 0.15.
    rng = np.random.default_rng(4)
    cache: dict = {}
    videos = load_split(manifest, "test", cache)
    draws = []
    for _ in range(1000):
        v = videos[int(rng.integers(len(videos)))]
        s = v.summaries[int(rng.integers(len(v.summaries)))]
        n = v.frames.shape[0]
        sel = np.zeros(n, dtype=np.float64)
        sel[rng.choice(n, size=max(1, math.floor(0.15 * n)), replace=False)] = 1.0
        draws.append(fscore_binary(sel, s.labels))
    baseline = float(np.mean(draws))

    fscores = {seed: run["test_fscore"] for seed, run in sdvsum_runs["runs"].items()}
    passing = sum(f >= 40.0 for f in fscores.values())
    total_seconds = (reference_dataset["seconds"] + sdvsum_runs["seconds"]
                     + time.monotonic() - t0)
    ok = (passing >= 2 and abs(baseline - 15.0) <= 2.5
          and ACCEPT_EPOCHS <= 50 and total_seconds < 900)
    detail = ", ".join(f"seed {s}: F {f:.1f}" for s, f in sorted(fscores.items()))
    _report(6, ok, f"{detail} ({passing}/3 at >= 40, {ACCEPT_EPOCHS} epochs); "
                   f"random baseline {baseline:.1f} (closed form 15.0); "
                   f"{total_seconds:.0f}s total")


# ---------------------------------------------------------------------------
# criterion 7: ablation direction


def test_criterion_7_ablation_direction(reference_dataset, sdvsum_runs,
                                        variant3_runs):
    t0 = time.monotonic()
    multi = [run["test_fscore"] for run in sdvsum_runs["runs"].values()]
    single = [run["test_fscore"] for run in variant3_runs["runs"].values()]
    mean_multi, mean_single = float(np.mean(multi)), float(np.mean(single))
    p_multi = parameter_count(SDVSUM_MODEL)
    p_single = parameter_count(VARIANT3_MODEL)
    total_seconds = (reference_dataset["seconds"] + sdvsum_runs["seconds"]
                     + variant3_runs["seconds"] + time.monotonic() - t0)
    ok = (mean_multi >= mean_single and p_multi < p_single
          and total_seconds < 2700)
    _report(7, ok, f"mean test F multi {mean_multi:.1f} vs single-vector "
                   f"{mean_single:.1f}; parameters {p_multi} < {p_single}; "
                   f"{total_seconds:.0f}s total")


# ---------------------------------------------------------------------------
# criterion 8: determinism and persistence


def test_criterion_8_determinism_and_persistence(tmp_path):
    t0 = time.monotonic()
    spec = SynthSpec(topics=4, dim=16, videos_train=3, videos_validation=1,
                     videos_test=1, frames_min=12, frames_max=16,
                     sentences_min=3, sentences_max=4, summaries_per_video=3,
                     seed=9)
    manifest = generate_synthetic(spec, tmp_path / "data")
    model_config = ModelConfig(dim=16, heads=4)
    train_config = TrainConfig(learning_rate=1e-3, epochs=2, seed=7)
    r1 = train_run(manifest, model_config, train_config, tmp_path / "a")
    r2 = train_run(manifest, model_config, train_config, tmp_path / "b")
    reports_equal = r1.to_json_lines() == r2.to_json_lines()

    w1, c1 = load_checkpoint(tmp_path / "a" / r1.checkpoint)
    w2, _ = load_checkpoint(tmp_path / "b" / r2.checkpoint)
    weights_equal = all(np.array_equal(w1[k], w2[k]) for k in w1)

    video = load_split(manifest, "test", {})[0]
    s1 = score_frames(video.frames, video.summaries[0].script, w1, c1)
    save_checkpoint(w1, c1, tmp_path / "copy.sdvc")
    w3, c3 = load_checkpoint(tmp_path / "copy.sdvc")
    s2 = score_frames(video.frames, video.summaries[0].script, w3, c3)
    scores_bitwise = np.array_equal(s1, s2)

    arr = np.random.default_rng(5).normal(size=(7, 5)).astype(np.float32)
    write_embeddings(arr, tmp_path / "x.sdvc")
    back = read_embeddings(tmp_path / "x.sdvc")
    write_embeddings(back, tmp_path / "y.sdvc")
    embeddings_exact = (np.array_equal(arr, back) and
                        (tmp_path / "x.sdvc").read_bytes() == (tmp_path / "y.sdvc").read_bytes())
    save_checkpoint(w3, c3, tmp_path / "copy2.sdvc")
    sdvc_exact = ((tmp_path / "copy.sdvc").read_bytes()
                  == (tmp_path / "copy2.sdvc").read_bytes())

    elapsed = time.monotonic() - t0
    ok = (reports_equal and weights_equal and scores_bitwise and embeddings_exact
          and sdvc_exact and elapsed < 60)
    _report(8, ok, f"reports equal={reports_equal}, weights bitwise={weights_equal}, "
                   f"scores bitwise={scores_bitwise}, embeddings byte-exact={embeddings_exact}, "
                   f"SDVC byte-exact={sdvc_exact}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: overlap analysis structure


def test_criterion_9_overlap_structure(reference_dataset, sdvsum_runs):
    t0 = time.monotonic()
    manifest = reference_dataset["manifest"]
    run = sdvsum_runs["runs"][42]
    score_fn = make_score_fn(run["weights"], run["config"])
    ids = [v.id for v in manifest.split_videos("test")]
    cache: dict = {}
    script_m = overlap_matrix(evaluate_script_driven(score_fn, manifest, "test", cache=cache),
                              ids)
    generic_m = overlap_matrix(evaluate_generic(score_fn, manifest, "test", cache=cache), ids)

    # generic rows must be explainable by exactly one prediction per video:
    # re-deriving the row from that single selection reproduces every entry,
    # and annotators with identical labels must receive identical entries
    one_prediction = True
    agree_pairs = checked_pairs = 0
    for row, vid in zip(generic_m.values, generic_m.video_ids):
        v = cache[vid]
        sel = select_top_fraction(score_fn(v.frames, v.description), 0.15)
        rederived = [fscore_binary(sel, s.labels) for s in v.summaries]
        one_prediction &= np.array_equal(row, np.array(rederived))
        for j in range(len(v.summaries)):
            for k in range(j + 1, len(v.summaries)):
                if np.array_equal(v.summaries[j].labels, v.summaries[k].labels):
                    checked_pairs += 1
                    agree_pairs += row[j] == row[k]

    gap = float(script_m.values.mean() - generic_m.values.mean())
    elapsed = time.monotonic() - t0
    ok = (one_prediction and agree_pairs == checked_pairs and gap >= 10.0
          and elapsed < 300)
    _report(9, ok, f"script rows mean {script_m.values.mean():.1f} vs generic "
                   f"{generic_m.values.mean():.1f} (gap {gap:.1f} >= 10); "
                   f"single-prediction rows={one_prediction}, "
                   f"{agree_pairs}/{checked_pairs} identical-label pairs equal, "
                   f"{elapsed:.1f}s")
