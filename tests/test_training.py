"""Losses, Adam, and the training loop: hand oracles plus loop accounting."""

import dataclasses
import json
import math

import numpy as np
import pytest

import sdvsum.model
from sdvsum import training
from sdvsum.autodiff import ShapeError, Tape, bce, mse, sigmoid
from sdvsum.datasets import SynthSpec, generate_synthetic, load_split
from sdvsum.errors import ConfigError, DataFormatError, NumericError
from sdvsum.metrics import evaluate_script_driven, mode_pairs
from sdvsum.model import (ModelConfig, fuse_heads, init_weights, load_checkpoint,
                          make_score_fn, model_forward)
from sdvsum.rng import Rng
from sdvsum.training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    average_ground_truth,
    bce_loss,
    train_run,
)

from gradcheck import grad_check

TINY = SynthSpec(topics=4, dim=16, videos_train=3, videos_validation=1,
                 videos_test=1, frames_min=12, frames_max=16, sentences_min=3,
                 sentences_max=4, summaries_per_video=10, seed=5)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    return generate_synthetic(TINY, out)


def train_samples(manifest, mode):
    """The training samples of a mode, in train_run's order, built from mode_pairs."""
    return [(v.id, v.frames, text, average_ground_truth(refs))
            for v in load_split(manifest, "train", {}) for text, refs in mode_pairs(v, mode)]


def node(values):
    tape = Tape()
    return tape.constant(np.asarray(values, dtype=np.float32).reshape(-1, 1))


# ---------------------------------------------------------------------------
# config


def test_train_config_validation():
    TrainConfig().validate()
    for bad in [
        TrainConfig(learning_rate=0.0),
        TrainConfig(epochs=0),
        TrainConfig(mode="reinforce"),
        TrainConfig(seed=-1),
    ]:
        with pytest.raises(ConfigError):
            bad.validate()


# ---------------------------------------------------------------------------
# losses


def test_bce_perfect_prediction_limit():
    y = np.array([1.0, 0.0, 1.0], dtype=np.float32)
    loss = bce_loss(node(y), y).item()
    assert loss <= 1.7e-5  # clamped logs stay at |log(1e-7)| * 1e-7 scale


def test_bce_uninformative_half():
    for labels in ([1, 0, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]):
        y = np.array(labels, dtype=np.float32)
        loss = bce_loss(node(np.full_like(y, 0.5)), y).item()
        assert loss == pytest.approx(math.log(2.0), abs=1e-6)


def test_bce_hand_value():
    loss = bce_loss(node([0.9, 0.1]), np.array([1.0, 0.0])).item()
    assert loss == pytest.approx(0.10536, abs=1e-4)


def test_bce_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        bce_loss(node([0.5, 0.5]), np.array([1.0]))
    for labels in ([0.5, 1.0], [np.nan, 1.0], [2.0, 0.0]):
        with pytest.raises(DataFormatError, match="^bce_loss needs strictly binary labels$"):
            bce_loss(node([0.5, 0.5]), np.array(labels))


def test_mse_hand_values():
    t = np.array([0.3, 0.8], dtype=np.float32)
    assert mse(node(t), t).item() == 0.0
    assert mse(node([1.0, 0.0]), np.array([0.0, 1.0])).item() == pytest.approx(1.0)
    assert mse(node([0.6, 0.2]), np.array([0.5, 0.5])).item() == pytest.approx(0.05, abs=1e-7)
    with pytest.raises(ShapeError):
        mse(node([0.5]), np.array([0.5, 0.5]))


def test_loss_gradients_pass_grad_check():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 1)).astype(np.float32)
    y = (rng.random(6) < 0.5).astype(np.float32)
    t = rng.random(6).astype(np.float32)

    def f_bce(params):
        tape = Tape()
        return bce_loss(sigmoid(tape.param("s", params["s"])), y)

    def f_mse(params):
        tape = Tape()
        return mse(sigmoid(tape.param("s", params["s"])), t)

    for f in (f_bce, f_mse):
        report = grad_check(f, {"s": logits})
        assert report.max_error < 1e-3


def test_a_stacked_loss_is_one_node_summing_the_samples_mean_losses():
    for loss_fn, target in ((bce_loss, [1.0, 0.0, 1.0]), (mse, [0.2, 0.5, 0.9])):
        f = node([0.3, 0.6, 0.8])
        collected = []
        loss = loss_fn(f, np.array(target), [0, 1, 3], collected)
        assert len(f.tape.nodes) == 2
        assert len(collected) == 2 and loss.item() == pytest.approx(sum(collected))
        alone = loss_fn(node([0.6, 0.8]), np.array(target[1:]))
        assert collected[1] == pytest.approx(alone.item())


@pytest.mark.parametrize("loss_fn", [bce, mse, bce_loss])
def test_a_target_vector_reads_as_the_column_bitwise(loss_fn):
    rng = np.random.default_rng(3)
    scores = rng.random((7, 1)).astype(np.float32)
    target = (rng.random(7) < 0.5).astype(np.float64)   # float64 is cast like the scores

    def run(t):
        tape = Tape()
        loss = loss_fn(tape.param("s", scores), t)
        return loss.value, tape.backward(loss)["s"]

    column_value, column_grad = run(target.reshape(-1, 1))
    vector_value, vector_grad = run(target)
    assert vector_value.tobytes() == column_value.tobytes()
    assert vector_grad.tobytes() == column_grad.tobytes()
    for wrong in (target[:-1], target[:-1].reshape(-1, 1), np.append(target, 1.0)):
        with pytest.raises(ShapeError):
            run(wrong)


# ---------------------------------------------------------------------------
# averaged ground truth


def test_average_ground_truth_examples():
    one = np.array([1.0, 0.0, 1.0], dtype=np.float32)
    assert np.array_equal(average_ground_truth([one]), one)
    got = average_ground_truth([np.array([1.0, 0.0]), np.array([0.0, 0.0])])
    assert np.array_equal(got, np.array([0.5, 0.0], dtype=np.float32))
    tens = [np.array([1.0 if i < 7 else 0.0]) for i in range(10)]
    assert average_ground_truth(tens)[0] == pytest.approx(0.7)


def test_average_ground_truth_order_invariant():
    rng = np.random.default_rng(1)
    summaries = [(rng.random(9) < 0.4).astype(np.float32) for _ in range(10)]
    a = average_ground_truth(summaries)
    b = average_ground_truth(summaries[::-1])
    assert np.array_equal(a, b)
    with pytest.raises(ShapeError):
        average_ground_truth([np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        average_ground_truth([])


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_everything_is_fixed_point(monkeypatch):
    monkeypatch.setattr(training, "L2_FACTOR", 0.5)
    w = np.zeros(4, dtype=np.float32)
    state = OptimizerState.for_weights(w)
    adam_step(w, np.zeros(4, dtype=np.float32), state, TrainConfig())
    assert np.array_equal(w, np.zeros(4, dtype=np.float32))
    assert state.step == 1


def test_adam_first_step_magnitude(monkeypatch):
    # g'=l2*theta=0.1; bias-corrected m_hat/sqrt(v_hat)=1, so the step is ~lr
    monkeypatch.setattr(training, "L2_FACTOR", 0.1)
    cfg = TrainConfig(learning_rate=1e-2)
    w = np.ones(1, dtype=np.float32)
    adam_step(w, np.zeros(1, dtype=np.float32), OptimizerState.for_weights(w), cfg)
    assert w[0] == pytest.approx(1.0 - 1e-2, abs=1e-6)


def test_adam_matches_float64_reference(monkeypatch):
    _check_adam_against_float64_reference(monkeypatch, scale=1.0)


def test_adam_matches_float64_reference_at_eps_sized_gradients(monkeypatch):
    # gradients about eps in size make eps matter as much as the gradient
    _check_adam_against_float64_reference(monkeypatch, scale=1e-8)


def _check_adam_against_float64_reference(monkeypatch, scale):
    # Adam's own constants, as literals: beta1 0.9, beta2 0.999, eps 1e-8
    monkeypatch.setattr(training, "L2_FACTOR", 1e-2 * scale)
    cfg = TrainConfig(learning_rate=3e-3)
    rng = np.random.default_rng(2)
    w = rng.normal(size=16).astype(np.float32)
    ref = w.astype(np.float64)
    m = np.zeros_like(ref)
    v2 = np.zeros_like(ref)
    state = OptimizerState.for_weights(w)
    for t in range(1, 4):
        grads = (scale * rng.normal(size=w.shape)).astype(np.float32)
        g = grads.astype(np.float64) + training.L2_FACTOR * ref
        adam_step(w, grads, state, cfg)
        m = 0.9 * m + (1 - 0.9) * g
        v2 = 0.999 * v2 + (1 - 0.999) * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v2 / (1 - 0.999 ** t)
        ref = ref - cfg.learning_rate * mh / (np.sqrt(vh) + 1e-8)
    assert np.abs(w - ref).max() < 1e-5


def test_adam_pure_l2_shrinks_norms():
    cfg = TrainConfig(learning_rate=1e-3)
    w = np.ones(16, dtype=np.float32)
    state = OptimizerState.for_weights(w)
    prev = np.linalg.norm(w)
    for _ in range(5):
        adam_step(w, np.zeros(16, dtype=np.float32), state, cfg)
        cur = np.linalg.norm(w)
        assert cur < prev
        prev = cur


def test_adam_deterministic_trajectory():
    cfg = TrainConfig(learning_rate=1e-3)
    rng = np.random.default_rng(3)
    init = rng.normal(size=6).astype(np.float32)
    grads = [rng.normal(size=6).astype(np.float32) for _ in range(4)]

    def run():
        w = init.copy()
        state = OptimizerState.for_weights(w)
        for g in grads:
            adam_step(w, g.copy(), state, cfg)
        return w

    assert np.array_equal(run(), run())


def test_adam_is_bitwise_the_float32_expression():
    # the sliced in-place update against the plain float32 expression it
    # replaces, over three whole slices and a remainder
    cfg = TrainConfig(learning_rate=3e-3)
    rng = np.random.default_rng(4)
    size = 3 * training.ADAM_SLICE + 123
    w = (rng.normal(size=size) * np.logspace(-6, 2, size)).astype(np.float32)
    ref = w.copy()
    m, v = np.zeros_like(ref), np.zeros_like(ref)
    b1, b2 = np.float32(training.ADAM_BETA1), np.float32(training.ADAM_BETA2)
    lr, eps = np.float32(cfg.learning_rate), np.float32(training.ADAM_EPS)
    state = OptimizerState.for_weights(w)
    for t in range(1, 4):
        grad = (rng.normal(size=w.shape) * np.logspace(2, -6, w.size)).astype(np.float32)
        g = grad + np.float32(training.L2_FACTOR) * ref
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        c1 = np.float32(1.0 - training.ADAM_BETA1 ** t)
        c2 = np.float32(1.0 - training.ADAM_BETA2 ** t)
        ref -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        adam_step(w, grad, state, cfg)
        assert w.tobytes() == ref.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


# ---------------------------------------------------------------------------
# the loop


MODEL = ModelConfig(dim=16, heads=4)
FAST = TrainConfig(learning_rate=1e-2, epochs=2, seed=7)


def test_train_run_step_count_per_epoch(tiny, tmp_path, monkeypatch):
    # 3 train videos x 10 summaries = 30 samples; batch 4 -> 8 steps (last of 2)
    calls = []
    real = training.adam_step
    monkeypatch.setattr(training, "adam_step", lambda *a: (calls.append(1), real(*a)))
    train_run(tiny, MODEL, dataclasses.replace(FAST, epochs=1), tmp_path / "r")
    assert len(calls) == 8


def test_train_run_generic_one_sample_per_video(tiny, tmp_path, monkeypatch):
    calls = []
    real = training.adam_step
    monkeypatch.setattr(training, "adam_step", lambda *a: (calls.append(1), real(*a)))
    cfg = dataclasses.replace(FAST, epochs=1, mode="generic")
    train_run(tiny, MODEL, cfg, tmp_path / "g")
    assert len(calls) == 1  # 3 videos, batch 4 -> one remainder group


def test_remainder_group_is_averaged_over_its_actual_size(tiny, tmp_path, monkeypatch):
    # generic mode: 3 train videos, batch 4 -> one step on the mean of 3 gradients;
    # dropout off, so that the run's gradients are those of the plain forward
    monkeypatch.setattr(sdvsum.model, "DROPOUT_RATE", 0.0)
    seen = []
    real = training.adam_step
    monkeypatch.setattr(training, "adam_step",
                        lambda w, g, state, cfg: (seen.append(g.copy()), real(w, g, state, cfg)))
    cfg = dataclasses.replace(FAST, epochs=1, mode="generic")
    train_run(tiny, MODEL, cfg, tmp_path / "g")
    weights = init_weights(MODEL, Rng(cfg.seed))
    total = np.zeros_like(seen[0])
    for _, x, y, target in train_samples(tiny, "generic"):
        tape = Tape()
        grads = tape.backward(mse(model_forward(tape, x, y, weights, MODEL), target))
        # in the run's layout: training holds the Q/K/V tensors fused
        total += np.concatenate([a.reshape(-1) for a in fuse_heads(grads, MODEL).values()])
    assert len(seen) == 1
    np.testing.assert_allclose(seen[0], total / 3, rtol=1e-5, atol=1e-8)


def test_train_run_outputs_and_best_selection(tiny, tmp_path):
    out = tmp_path / "o"
    report = train_run(tiny, MODEL, FAST, out)
    assert sorted(p.name for p in out.iterdir()) == ["best.sdvc", "train_report.jsonl"]
    scores = [r.val_fscore for r in report.epochs]
    assert report.best_val_fscore == max(scores)
    assert report.best_epoch == scores.index(max(scores)) + 1  # earliest on ties
    assert report.checkpoint == training.BEST_CHECKPOINT == "best.sdvc"
    lines = (out / "train_report.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == {"epoch": 1,
                                    "train_loss": report.epochs[0].train_loss,
                                    "val_fscore": report.epochs[0].val_fscore}
    assert json.loads(lines[-1])["best_epoch"] == report.best_epoch


def test_train_run_writes_the_checkpoint_at_each_improvement_only(tiny, tmp_path,
                                                                  monkeypatch):
    monkeypatch.setattr(sdvsum.model, "DROPOUT_RATE", 0.0)   # for the scores pinned below
    saved = []
    real = sdvsum.model.save_checkpoint
    monkeypatch.setattr(sdvsum.model, "save_checkpoint",
                        lambda *a: (saved.append(a[2].name), real(*a)))
    cfg = dataclasses.replace(FAST, epochs=3, seed=9)
    report = train_run(tiny, MODEL, cfg, tmp_path / "three")
    scores = [r.val_fscore for r in report.epochs]
    improved = [e for e in range(3) if all(scores[e] > s for s in scores[:e])]
    assert 1 < report.best_epoch < 3   # this seed improves at epoch 2, then ties
    assert saved == ["best.sdvc"] * len(improved) and len(improved) == 2
    assert sorted(p.name for p in (tmp_path / "three").iterdir()) == \
        ["best.sdvc", "train_report.jsonl"]
    lines = (tmp_path / "three" / "train_report.jsonl").read_text().splitlines()
    assert json.loads(lines[-1]) == {"best_epoch": 2, "best_val_fscore": max(scores),
                                     "checkpoint": "best.sdvc"}
    # the shuffle and dropout streams are keyed by epoch: a run that stops at
    # the best epoch holds the same weights
    train_run(tiny, MODEL, dataclasses.replace(cfg, epochs=report.best_epoch),
              tmp_path / "short")
    assert ((tmp_path / "three" / "best.sdvc").read_bytes()
            == (tmp_path / "short" / "best.sdvc").read_bytes())


def test_a_failed_rerun_leaves_the_report_in_step_with_the_checkpoint(tiny, tmp_path,
                                                                     monkeypatch):
    out = tmp_path / "r"
    first = train_run(tiny, MODEL, dataclasses.replace(FAST, epochs=1, seed=7), out)
    steps = []
    real = training.adam_step

    class Stopped(Exception):
        pass

    def stop_in_epoch_2(*a):   # 8 Adam steps per epoch
        steps.append(1)
        if len(steps) > 8:
            raise Stopped
        real(*a)

    monkeypatch.setattr(training, "adam_step", stop_in_epoch_2)
    with pytest.raises(Stopped):
        train_run(tiny, MODEL, dataclasses.replace(FAST, epochs=3, seed=9), out)
    best = json.loads((out / "train_report.jsonl").read_text().splitlines()[-1])
    weights, config = load_checkpoint(out / best["checkpoint"])
    val = evaluate_script_driven(make_score_fn(weights, config), tiny, "validation").fscore
    assert best["best_val_fscore"] == val
    assert val != first.best_val_fscore   # the second run's epoch 1 replaced the first run


def test_train_run_deterministic_across_reruns(tiny, tmp_path):
    r1 = train_run(tiny, MODEL, FAST, tmp_path / "a")
    r2 = train_run(tiny, MODEL, FAST, tmp_path / "b")
    assert r1.to_json_lines() == r2.to_json_lines()
    w1, _ = load_checkpoint(tmp_path / "a" / r1.checkpoint)
    w2, _ = load_checkpoint(tmp_path / "b" / r2.checkpoint)
    assert all(np.array_equal(w1[k], w2[k]) for k in w1)


def test_train_run_loss_decreases_on_tiny_data(tiny, tmp_path):
    report = train_run(tiny, MODEL, dataclasses.replace(FAST, epochs=3), tmp_path / "d")
    losses = [r.train_loss for r in report.epochs]
    assert all(math.isfinite(l) for l in losses)
    assert min(losses[1:]) < losses[0]


def test_train_run_on_epoch_callback(tiny, tmp_path):
    seen = []
    train_run(tiny, MODEL, dataclasses.replace(FAST, epochs=1), tmp_path / "c",
              on_epoch=seen.append)
    assert [r.epoch for r in seen] == [1]
    assert math.isfinite(seen[0].train_loss)


def test_train_run_empty_split_rejected(tiny, tmp_path):
    no_val = dataclasses.replace(
        tiny, videos=[v for v in tiny.videos if v.split != "validation"])
    with pytest.raises(DataFormatError, match="^validation split is empty$"):
        train_run(no_val, MODEL, FAST, tmp_path / "e")
    no_train = dataclasses.replace(
        tiny, videos=[v for v in tiny.videos if v.split != "train"])
    with pytest.raises(DataFormatError, match="^train split is empty$"):
        train_run(no_train, MODEL, FAST, tmp_path / "f")


def test_train_run_reports_nonfinite_loss(tiny, tmp_path, monkeypatch):
    real = training.bce_loss

    def nan_means(f, labels, offsets, collect):
        loss = real(f, labels, offsets, collect)
        collect[:] = [math.nan] * len(collect)
        return loss

    monkeypatch.setattr(training, "bce_loss", nan_means)
    with pytest.raises(NumericError, match="epoch 1"):
        train_run(tiny, MODEL, FAST, tmp_path / "n")


def test_nonfinite_loss_names_the_adam_steps_before_it(tmp_path):
    # learning_rate 3e38 is finite in float32: the first step leaves every
    # weight finite, near 3e38, and the next group's forward overflows, so
    # the sample the message names is only where the blow-up showed
    spec = SynthSpec(dim=16, topics=4, videos_train=5, videos_validation=1, videos_test=1,
                     frames_min=12, frames_max=16, summaries_per_video=1, seed=5)
    manifest = generate_synthetic(spec, tmp_path / "data")
    cfg = TrainConfig(epochs=1, learning_rate=3e38)
    with pytest.raises(
            NumericError, match=r"epoch 1, .*after 1 Adam step.*largest \|weight\| 3e\+38"):
        train_run(manifest, ModelConfig(dim=16, heads=2), cfg, tmp_path / "r")


# ---------------------------------------------------------------------------
# stacked groups


@pytest.mark.parametrize("mode", ["script_driven", "generic"])
@pytest.mark.parametrize("text_rep", ["multi_vector", "single_vector"])
def test_stacked_group_gradient_is_the_mean_of_sample_gradients(tiny, tmp_path, monkeypatch,
                                                                mode, text_rep):
    # the first group's gradient, one stacked tape, against each of its samples
    # run alone on its own tape with the same dropout stream, in the same order
    model = ModelConfig(dim=16, heads=4, text_rep=text_rep)
    cfg = dataclasses.replace(FAST, epochs=1, mode=mode)
    seen = []
    real = training.adam_step
    monkeypatch.setattr(training, "adam_step",
                        lambda w, g, state, c: (seen.append(g.copy()), real(w, g, state, c)))
    train_run(tiny, model, cfg, tmp_path / "s")

    samples = train_samples(tiny, mode)
    rng = Rng(cfg.seed)
    order = rng.stream("shuffle", 1).permutation(len(samples))
    drop = rng.stream("dropout", 1)
    weights = init_weights(model, rng)
    group = [samples[i] for i in order[:training.BATCH_SIZE]]
    loss_fn = mse if mode == "generic" else bce_loss
    total = np.zeros_like(seen[0])
    for _, x, y, target in group:
        tape = Tape()
        f = model_forward(tape, x, y, weights, model, rng_gen=drop, training=True)
        grads = tape.backward(loss_fn(f, target))
        total += np.concatenate([a.reshape(-1) for a in fuse_heads(grads, model).values()])
    assert len(group) > 1
    # stacking changes only float32 summation order (over each sample's frames, for
    # the condenser's gradient), so the error scales with the largest component
    mean = total / len(group)
    np.testing.assert_allclose(seen[0], mean, rtol=1e-5, atol=1e-6 * np.abs(mean).max())


def test_a_group_is_one_tape_unless_its_frames_exceed_the_row_budget():
    frames = lambda n: np.zeros((n, 2), dtype=np.float32)  # noqa: E731
    sizes = lambda runs: [[s[1].shape[0] for s in run] for run in runs]  # noqa: E731
    samples = [("v", frames(n), None, None) for n in (60, 60, 60, 60)]
    assert sizes(training._stacks(samples)) == [[60, 60, 60, 60]]
    samples = [("v", frames(n), None, None) for n in (100, 600, 300, 212, 1)]
    assert sizes(training._stacks(samples)) == [[100], [600], [300, 212], [1]]
    assert training.STACK_ROWS == 512


def test_train_run_runs_one_forward_per_stack(tiny, tmp_path, monkeypatch):
    # 30 samples of 12-16 frames, batch 4: 8 groups, each one stacked forward
    rows = []
    real = training.model_forward

    def spy(tape, x, y, *args):
        rows.append(x.shape[0])
        return real(tape, x, y, *args)

    monkeypatch.setattr(training, "model_forward", spy)
    train_run(tiny, MODEL, dataclasses.replace(FAST, epochs=1), tmp_path / "r")
    assert len(rows) == 8 and all(48 <= n <= 64 for n in rows[:7])
