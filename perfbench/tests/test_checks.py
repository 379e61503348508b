"""Each independent check accepts the program's output and rejects a wrong one."""

import math

import numpy as np
import pytest

import checks
from sdvsum.autodiff import Tape
from sdvsum.metrics import fscore_binary, kendall_tau_b, spearman_rho
from sdvsum.model import ModelConfig, init_weights, model_forward, score_frames
from sdvsum.rng import Rng
from sdvsum.selection import fixed_fragmentation, fragment_knapsack, select_top_fraction
from sdvsum.training import bce_loss


@pytest.fixture(scope="module")
def net():
    config = ModelConfig(dim=16, heads=2, ffn_dim=32)
    weights = init_weights(config, Rng(7))
    g = np.random.default_rng(7)
    x = g.standard_normal((40, 16)).astype(np.float32)
    y = g.standard_normal((5, 16)).astype(np.float32)
    labels = (g.random(40) < 0.3).astype(np.float32)
    labels[0] = 1.0
    return config, weights, x, y, labels


def test_reference_forward_matches_program_and_rejects_perturbed_scores(net):
    config, weights, x, y, _ = net
    ref = checks.reference_scores(x, y, checks.to_float64(weights), config.to_dict())
    program = score_frames(x, y, weights, config)
    assert checks.check_scores(program, ref) is None
    bad = program.copy()
    bad[3] += 1e-3
    assert "differ" in checks.check_scores(bad, ref)
    assert checks.check_scores(program[:-1], ref) is not None


def test_reference_rejects_configs_it_does_not_model(net):
    config, weights, x, y, _ = net
    with pytest.raises(ValueError):
        checks.reference_scores(x, y, checks.to_float64(weights),
                                {**config.to_dict(), "scorer_head": "hidden"})


def test_gradient_check_accepts_backward_and_rejects_wrong_gradients(net):
    config, weights, x, y, labels = net
    tape = Tape()
    grads = tape.backward(bce_loss(model_forward(tape, x, y, weights, config), labels))
    w64 = checks.to_float64(weights)
    cfg = config.to_dict()
    loss_at = lambda w: checks.reference_bce(x, y, labels, w, cfg)  # noqa: E731
    assert checks.check_gradient(grads, loss_at, w64, seed=1) is None
    scaled = {k: 1.01 * v for k, v in grads.items()}
    assert checks.check_gradient(scaled, loss_at, w64, seed=1) is not None
    dropped = dict(grads, **{"enc0.ffn.w1": np.zeros_like(grads["enc0.ffn.w1"])})
    assert checks.check_gradient(dropped, loss_at, w64, seed=1) is not None


def test_fscore_check_rejects_a_swapped_selection():
    g = np.random.default_rng(3)
    scores = g.random(60)
    labels = (g.random(60) < 0.2).astype(np.float32)
    sel = select_top_fraction(scores, 0.15)
    assert checks.check_pair_fscore(fscore_binary(sel, labels), scores, labels) is None
    # move one selected frame onto an unselected positive frame
    out_idx = int(np.flatnonzero((sel == 0) & (labels == 1))[0])
    in_idx = int(np.flatnonzero((sel == 1) & (labels == 0))[0])
    swapped = sel.copy()
    swapped[[in_idx, out_idx]] = swapped[[out_idx, in_idx]]
    assert checks.check_pair_fscore(fscore_binary(swapped, labels), scores, labels) is not None


def test_tie_break_goes_to_the_lower_index():
    assert checks.top_fraction(np.zeros(20), 0.15) == {0, 1, 2}
    sel = select_top_fraction(np.zeros(20), 0.15)
    assert set(np.flatnonzero(sel)) == checks.top_fraction(np.zeros(20), 0.15)


def test_mean_check_rejects_a_wrong_average():
    per_pair = [[10.0, 20.0], [30.0, 50.0, 70.0]]
    assert checks.check_means([15.0, 50.0], 32.5, per_pair) is None
    assert checks.check_means([15.0, 50.0], 33.0, per_pair) is not None
    assert checks.check_means([15.0, 49.0], 32.0, per_pair) is not None


def test_rank_check_agrees_with_program_and_rejects_wrong_values():
    g = np.random.default_rng(5)
    scores = g.random(80).astype(np.float32)
    labels = [(g.random(80) < 0.2).astype(np.float32) for _ in range(4)]
    avg = np.mean(labels, axis=0)
    tau, rho = kendall_tau_b(scores, avg), spearman_rho(scores, avg)
    assert checks.check_ranks(tau, rho, scores, labels) is None
    assert checks.check_ranks(tau + 0.01, rho, scores, labels) is not None
    assert checks.check_ranks(tau, -rho, scores, labels) is not None
    assert checks.check_ranks(None, rho, scores, labels) is not None
    flat = [np.zeros(80, dtype=np.float32)]
    assert checks.check_ranks(None, None, scores, flat) is None


def test_knapsack_check_rejects_over_budget_and_suboptimal_sets():
    g = np.random.default_rng(9)
    scores = g.random(97)
    fragments = fixed_fragmentation(97, 5)
    budget = math.floor(0.15 * 97)
    chosen = fragment_knapsack(scores, fragments, budget)
    assert checks.check_knapsack(chosen, scores, fragments, budget) is None
    unused = [i for i in range(len(fragments)) if i not in chosen]
    assert "budget" in checks.check_knapsack(chosen + unused[:1], scores, fragments, budget)
    worst = sorted(unused, key=lambda i: scores[fragments[i][0]:fragments[i][1]].sum())
    weaker = [worst[0]] + chosen[1:]
    assert "optimum" in checks.check_knapsack(weaker, scores, fragments, budget)
    assert checks.check_knapsack(chosen + chosen[:1], scores, fragments, budget) is not None


def test_report_check_rejects_a_wrong_best_fscore():
    g = np.random.default_rng(11)
    videos = []
    for _ in range(3):
        pairs = []
        for _ in range(4):
            labels = (g.random(60) < 0.2).astype(np.float32)
            labels[5] = 1.0
            pairs.append((g.random(60), labels))
        videos.append(pairs)
    per_video = [np.mean([fscore_binary(select_top_fraction(s, 0.15), l) for s, l in pairs])
                 for pairs in videos]
    best = float(np.mean(per_video))
    assert checks.check_report(best, videos) is None
    assert checks.check_report(best + 0.5, videos) is not None
