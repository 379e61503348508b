"""Network forward: config rules, init, attention invariants, numpy oracle."""

import gc
import math
import weakref

import numpy as np
import pytest

import sdvsum.model
from sdvsum.autodiff import ShapeError, Tape
from sdvsum.errors import ConfigError, ConfigMismatchError, TensorNameError, TensorShapeError
from sdvsum.model import (
    ModelConfig,
    attention_matrices,
    condense_text,
    cross_modal_attention,
    init_weights,
    load_checkpoint,
    model_forward,
    parameter_count,
    positional_encoding,
    save_checkpoint,
    score_frames,
    scorer_forward,
    tensor_shapes,
)
from sdvsum.rng import Rng
from sdvsum.sdve import write_checkpoint_file
from sdvsum.training import bce_loss


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


# ---------------------------------------------------------------------------
# plain-numpy forward oracle (float64, no tape) mirroring the contract


def np_softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    return xc / np.sqrt(var + eps) * gain + bias


def np_multi_head(q_in, kv_in, w, prefix, heads, logit_scale):
    head_dim = q_in.shape[1] // heads
    outs = []
    for h in range(heads):
        q = q_in @ w[f"{prefix}.h{h}.wq"] + w[f"{prefix}.h{h}.bq"]
        k = kv_in @ w[f"{prefix}.h{h}.wk"] + w[f"{prefix}.h{h}.bk"]
        v = kv_in @ w[f"{prefix}.h{h}.wv"] + w[f"{prefix}.h{h}.bv"]
        att = np_softmax_rows(q @ k.T / logit_scale)
        outs.append(att @ v)
    cat = np.concatenate(outs, axis=1)
    return cat @ w[f"{prefix}.out.w"] + w[f"{prefix}.out.b"]


def np_forward(X, Y, w64, cfg):
    """Inference-mode forward, step by step, independent of the tape code."""
    d = cfg.dim
    if cfg.text_rep == "single_vector":
        m, t = Y.shape[0], cfg.single_vector_t
        idx = [(i * m) // t for i in range(t)]
        flat = Y[idx].reshape(1, t * d)
        y_rep = flat @ w64["condenser.w"] + w64["condenser.b"]
    else:
        y_rep = Y
    scale = math.sqrt(d) if cfg.use_scaling else 1.0
    z = np_multi_head(X, y_rep, w64, "attn", cfg.heads, scale)
    z = z + positional_encoding(X.shape[0], d).astype(np.float64)
    z = np_layer_norm(z, w64["post.ln.gain"], w64["post.ln.bias"])
    for l in range(cfg.encoder_layers):
        att = np_multi_head(z, z, w64, f"enc{l}.attn", cfg.heads,
                            math.sqrt(cfg.head_dim))
        z = np_layer_norm(z + att, w64[f"enc{l}.ln1.gain"], w64[f"enc{l}.ln1.bias"])
        hidden = np.maximum(z @ w64[f"enc{l}.ffn.w1"] + w64[f"enc{l}.ffn.b1"], 0.0)
        ffn = hidden @ w64[f"enc{l}.ffn.w2"] + w64[f"enc{l}.ffn.b2"]
        z = np_layer_norm(z + ffn, w64[f"enc{l}.ln2.gain"], w64[f"enc{l}.ln2.bias"])
    if cfg.scorer_head == "hidden":
        z = np.maximum(z @ w64["scorer.hidden.w"] + w64["scorer.hidden.b"], 0.0)
    logits = z @ w64["scorer.head.w"] + w64["scorer.head.b"]
    return 1.0 / (1.0 + np.exp(-logits))


# ---------------------------------------------------------------------------
# config and shapes


def test_config_validation():
    ModelConfig(dim=64, heads=8).validate()
    with pytest.raises(ConfigError):
        ModelConfig(dim=510, heads=4).validate()  # not divisible
    with pytest.raises(ConfigError):
        ModelConfig(dim=15, heads=3).validate()  # odd dim breaks the position code
    with pytest.raises(ConfigError):
        ModelConfig(dropout_rate=1.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(dropout_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        ModelConfig(encoder_layers=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(text_rep="both").validate()


def test_tensor_shapes_and_projection_sizes():
    cfg = ModelConfig(dim=64, heads=8)
    shapes = tensor_shapes(cfg)
    assert shapes["attn.h0.wq"] == (64, 8)
    assert shapes["attn.h0.bq"] == (1, 8)
    assert shapes["attn.out.w"] == (64, 64)
    assert shapes["enc0.ffn.w1"] == (64, 256)
    assert shapes["scorer.head.w"] == (64, 1)
    assert "condenser.w" not in shapes

    single = ModelConfig(dim=64, heads=8, text_rep="single_vector", single_vector_t=8)
    s2 = tensor_shapes(single)
    assert s2["condenser.w"] == (8 * 64, 64)
    assert s2["condenser.b"] == (1, 64)


def test_parameter_count_multi_below_single():
    base = dict(dim=64, heads=8)
    multi = parameter_count(ModelConfig(**base))
    single = parameter_count(ModelConfig(**base, text_rep="single_vector",
                                         single_vector_t=8))
    assert single - multi == 8 * 64 * 64 + 64  # condenser weights + bias


def test_parameter_count_matches_shapes():
    cfg = ModelConfig(dim=32, heads=4, scorer_head="hidden")
    total = sum(r * c for r, c in tensor_shapes(cfg).values())
    assert parameter_count(cfg) == total


# ---------------------------------------------------------------------------
# init


def test_init_bound_and_biases():
    cfg = ModelConfig(dim=64, heads=8)
    w = init_weights(cfg, Rng(0))
    bound = math.sqrt(2) * math.sqrt(6.0 / (64 + 8))
    assert bound == pytest.approx(0.4082, abs=5e-4)
    wq = w["attn.h0.wq"]
    assert np.abs(wq).max() <= bound + 1e-6
    assert np.abs(wq).max() > 0.9 * bound  # actually fills the range
    for name, val in w.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            assert np.all(val == 1.0)
        elif leaf == "bias":
            assert np.all(val == 0.0)
        elif leaf.startswith("b"):
            assert np.all(val == np.float32(0.1))


def test_init_deterministic():
    cfg = ModelConfig(dim=32, heads=4)
    a = init_weights(cfg, Rng(7))
    b = init_weights(cfg, Rng(7))
    c = init_weights(cfg, Rng(8))
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


# ---------------------------------------------------------------------------
# positional encoding


def test_positional_encoding_values():
    pe = positional_encoding(4, 6)
    assert np.array_equal(pe[0, 0::2], np.zeros(3, dtype=np.float32))
    assert np.array_equal(pe[0, 1::2], np.ones(3, dtype=np.float32))
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-6)
    assert np.abs(pe).max() <= 1.0


def test_positional_encoding_matches_formula():
    n, d = 7, 10
    pe = positional_encoding(n, d)
    for pos in range(n):
        for i in range(d // 2):
            angle = pos / 10000 ** (2 * i / d)
            assert pe[pos, 2 * i] == pytest.approx(math.sin(angle), abs=1e-6)
            assert pe[pos, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-6)


def test_positional_encoding_odd_dim_rejected():
    with pytest.raises(ValueError):
        positional_encoding(4, 7)


# ---------------------------------------------------------------------------
# condense_text sampling rule


def condense(y, w, cfg):
    tape = Tape()
    return condense_text(tape, tape.constant(y), w, cfg).value


def test_condense_exact_fit_and_stride():
    cfg = ModelConfig(dim=8, heads=2, text_rep="single_vector", single_vector_t=4)
    w = init_weights(cfg, Rng(3))
    rng = np.random.default_rng(0)
    y16 = rng.normal(size=(16, 8)).astype(np.float32)
    # M=16, T=4 -> rows {0,4,8,12}; feeding exactly those rows as M=T must match
    direct = condense(y16[[0, 4, 8, 12]], w, cfg)
    strided = condense(y16, w, cfg)
    assert np.array_equal(direct, strided)


def test_condense_single_sentence_repeats():
    cfg = ModelConfig(dim=8, heads=2, text_rep="single_vector", single_vector_t=4)
    w = init_weights(cfg, Rng(3))
    y1 = np.random.default_rng(1).normal(size=(1, 8)).astype(np.float32)
    rep = np.repeat(y1, 4, axis=0)
    assert np.array_equal(condense(y1, w, cfg), condense(rep, w, cfg))


def test_condense_requires_single_vector_mode():
    cfg = ModelConfig(dim=8, heads=2)
    w = init_weights(cfg, Rng(3))
    with pytest.raises(ConfigError):
        condense(np.zeros((2, 8), dtype=np.float32), w, cfg)


# ---------------------------------------------------------------------------
# cross-modal attention


def test_attention_shapes_and_row_sums():
    cfg = ModelConfig(dim=64, heads=8)
    w = init_weights(cfg, Rng(1))
    rng = np.random.default_rng(2)
    X, Y = unit_rows(rng, 5, 64), unit_rows(rng, 3, 64)
    mats = attention_matrices(X, Y, w, cfg)
    assert len(mats) == 8
    for a in mats:
        assert a.shape == (5, 3)
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-6


def test_attention_single_key_all_ones():
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(1))
    rng = np.random.default_rng(3)
    mats = attention_matrices(unit_rows(rng, 6, 16), unit_rows(rng, 1, 16), w, cfg)
    for a in mats:
        assert np.array_equal(a, np.ones((6, 1), dtype=np.float32))


def test_attention_row_stochastic_many_configs():
    rng = np.random.default_rng(9)
    for trial in range(30):
        d = int(rng.choice([8, 16, 32]))
        heads = int(rng.choice([1, 2, 4]))
        cfg = ModelConfig(dim=d, heads=heads, use_scaling=bool(rng.integers(2)))
        w = init_weights(cfg, Rng(trial))
        X = rng.normal(size=(int(rng.integers(1, 7)), d)).astype(np.float32)
        Y = rng.normal(size=(int(rng.integers(1, 5)), d)).astype(np.float32)
        for a in attention_matrices(X, Y, w, cfg):
            assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-6


def test_scaling_equivalence_under_query_rescale():
    # with zero query bias, dividing X by sqrt(D) reproduces the scaled logits
    d = 16
    cfg_s = ModelConfig(dim=d, heads=4, use_scaling=True)
    cfg_u = ModelConfig(dim=d, heads=4, use_scaling=False)
    w = init_weights(cfg_s, Rng(5))
    for h in range(4):
        w[f"attn.h{h}.bq"] = np.zeros((1, d // 4), dtype=np.float32)
    rng = np.random.default_rng(6)
    X, Y = unit_rows(rng, 5, d), unit_rows(rng, 3, d)
    scaled = attention_matrices(X, Y, w, cfg_s)
    rescaled = attention_matrices((X / math.sqrt(d)).astype(np.float32), Y, w, cfg_u)
    for a, b in zip(scaled, rescaled):
        assert np.abs(a - b).max() < 1e-5


def test_identical_frames_identical_pre_position_rows():
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(2))
    rng = np.random.default_rng(7)
    X = unit_rows(rng, 4, 16)
    X[2] = X[0]
    Y = unit_rows(rng, 3, 16)
    tape = Tape()
    z = cross_modal_attention(tape, tape.constant(X), tape.constant(Y), w, cfg)
    pre = z.value - positional_encoding(4, 16)
    assert np.abs(pre[2] - pre[0]).max() < 1e-6


def test_attention_dim_mismatch():
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(2))
    tape = Tape()
    with pytest.raises(ShapeError):
        cross_modal_attention(tape, tape.constant(np.zeros((3, 8), dtype=np.float32)),
                              tape.constant(np.zeros((2, 16), dtype=np.float32)), w, cfg)


def test_sentence_permutation_invariance():
    cfg = ModelConfig(dim=32, heads=4)
    w = init_weights(cfg, Rng(4))
    rng = np.random.default_rng(8)
    X, Y = unit_rows(rng, 6, 32), unit_rows(rng, 4, 32)
    f1 = score_frames(X, Y, w, cfg)
    f2 = score_frames(X, Y[[2, 0, 3, 1]], w, cfg)
    assert np.abs(f1 - f2).max() < 1e-5


# ---------------------------------------------------------------------------
# full forward vs numpy oracle


@pytest.mark.parametrize("cfg", [
    ModelConfig(dim=8, heads=2),
    ModelConfig(dim=8, heads=2, use_scaling=True),
    ModelConfig(dim=8, heads=4, text_rep="single_vector", single_vector_t=3),
    ModelConfig(dim=8, heads=2, scorer_head="hidden", encoder_layers=2),
])
def test_forward_matches_numpy_oracle(cfg):
    w = init_weights(cfg, Rng(10))
    w64 = {k: v.astype(np.float64) for k, v in w.items()}
    rng = np.random.default_rng(11)
    X, Y = unit_rows(rng, 4, 8), unit_rows(rng, 3, 8)
    got = score_frames(X, Y, w, cfg)
    want = np_forward(X.astype(np.float64), Y.astype(np.float64), w64, cfg).ravel()
    assert got.shape == (4,)
    assert np.abs(got - want).max() < 1e-5


def test_scores_in_open_interval():
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(12))
    rng = np.random.default_rng(13)
    f = score_frames(unit_rows(rng, 9, 16), unit_rows(rng, 2, 16), w, cfg)
    assert np.all((f > 0.0) & (f < 1.0))


def test_degenerate_single_frame_single_sentence():
    cfg = ModelConfig(dim=8, heads=2)
    w = init_weights(cfg, Rng(14))
    rng = np.random.default_rng(15)
    f = score_frames(unit_rows(rng, 1, 8), unit_rows(rng, 1, 8), w, cfg)
    assert f.shape == (1,)
    assert 0.0 < f[0] < 1.0


def test_inference_deterministic():
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(16))
    rng = np.random.default_rng(17)
    X, Y = unit_rows(rng, 5, 16), unit_rows(rng, 3, 16)
    assert np.array_equal(score_frames(X, Y, w, cfg), score_frames(X, Y, w, cfg))


def test_training_dropout_stochastic_but_seeded():
    cfg = ModelConfig(dim=16, heads=4, dropout_rate=0.5)
    w = init_weights(cfg, Rng(18))
    rng = np.random.default_rng(19)
    X, Y = unit_rows(rng, 5, 16), unit_rows(rng, 3, 16)

    def run(stream):
        tape = Tape()
        return model_forward(tape, X, Y, w, cfg, rng_gen=stream, training=True).value

    r = Rng(99)
    a = run(r.stream("dropout", 0))
    b = run(r.stream("dropout", 0))
    c = run(r.stream("dropout", 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_identical_scorer_inputs_identical_scores():
    cfg = ModelConfig(dim=8, heads=2)
    w = init_weights(cfg, Rng(20))
    z = np.random.default_rng(21).normal(size=(4, 8)).astype(np.float32)
    z[3] = z[1]
    tape = Tape()
    f = scorer_forward(tape, tape.constant(z), w, cfg).value
    assert f[3, 0] == f[1, 0]


def _gradient_step(X, Y, w, cfg):
    """Forward, BCE loss and backward on one tape, with no clean-up call."""
    tape = sdvsum.model.Tape()
    f = model_forward(tape, X, Y, w, cfg, rng_gen=Rng(27).stream("dropout", 0),
                      training=True)
    return tape.backward(bce_loss(f, np.ones(X.shape[0], dtype=np.float32)))


@pytest.mark.parametrize("infer", [score_frames, attention_matrices, _gradient_step])
def test_inference_tape_is_freed_without_the_cyclic_gc(monkeypatch, infer):
    tapes = []

    class RecordedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(sdvsum.model, "Tape", RecordedTape)
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(25))
    rng = np.random.default_rng(26)
    X, Y = unit_rows(rng, 5, 16), unit_rows(rng, 3, 16)
    gc.disable()
    try:
        infer(X, Y, w, cfg)
        assert len(tapes) == 1
        assert tapes[0]() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(dim=16, heads=4, text_rep="single_vector", single_vector_t=2)
    w = init_weights(cfg, Rng(22))
    path = tmp_path / "m.sdvc"
    save_checkpoint(w, cfg, path)
    w2, cfg2 = load_checkpoint(path)
    assert cfg2.to_dict() == cfg.to_dict()
    assert set(w2) == set(w)
    for k in w:
        assert np.array_equal(w2[k], w[k])


def test_checkpoint_expect_mismatch(tmp_path):
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(23))
    path = tmp_path / "m.sdvc"
    save_checkpoint(w, cfg, path)
    load_checkpoint(path, expect=cfg)  # matching succeeds
    with pytest.raises(ConfigMismatchError):
        load_checkpoint(path, expect=ModelConfig(dim=16, heads=2))


@pytest.mark.parametrize("key, value", [
    ("use_scaling", "false"), ("dim", 16.0), ("heads", True), ("dropout_rate", False),
    ("text_rep", 1), ("ffn_dim", 64.0), ("single_vector_t", None),
])
def test_config_from_dict_rejects_mistyped_values(key, value):
    blob = ModelConfig(dim=16, heads=4).to_dict()
    blob[key] = value
    with pytest.raises(ConfigError, match=key):
        ModelConfig.from_dict(blob)


def test_config_from_dict_accepts_null_ffn_dim_and_whole_number_rates():
    blob = dict(ModelConfig(dim=16, heads=4).to_dict(), dropout_rate=0)
    assert blob["ffn_dim"] is None
    assert ModelConfig.from_dict(blob).dropout_rate == 0.0


def test_checkpoint_rejects_missing_tensor(tmp_path):
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(24))
    del w["scorer.head.b"]
    with pytest.raises(TensorNameError):
        save_checkpoint(w, cfg, tmp_path / "m.sdvc")


@pytest.mark.parametrize("tamper, error", [
    (lambda w: w.pop("scorer.head.b"), TensorNameError),
    (lambda w: w.update(extra=np.zeros((1, 1), dtype=np.float32)), TensorNameError),
    (lambda w: w.update({"scorer.head.w": np.zeros((1, 16), dtype=np.float32)}),
     TensorShapeError),
])
def test_checkpoint_save_and_load_reject_alike(tmp_path, tamper, error):
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(27))
    tamper(w)
    with pytest.raises(error):
        save_checkpoint(w, cfg, tmp_path / "saved.sdvc")
    write_checkpoint_file(cfg.to_dict(), w, tmp_path / "raw.sdvc")
    with pytest.raises(error):
        load_checkpoint(tmp_path / "raw.sdvc")
