"""Network forward: config rules, init, attention invariants, numpy oracle."""

import gc
import math
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import sdvsum.autodiff
import sdvsum.model
from sdvsum.autodiff import ShapeError, Tape, mse
from sdvsum.errors import ConfigError, DataFormatError
from sdvsum.model import (
    ModelConfig,
    _text_representation,
    attention_matrices,
    cross_modal_attention,
    fuse_heads,
    init_weights,
    load_checkpoint,
    make_score_fn,
    model_forward,
    parameter_count,
    positional_encoding,
    save_checkpoint,
    score_frames,
    scorer_forward,
    split_heads,
    tensor_shapes,
)
from sdvsum.rng import Rng
from sdvsum.sdve import write_checkpoint_file
from sdvsum.training import _add_gradient, bce_loss


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
        m, t = Y.shape[0], 8   # the condenser's fixed T
        idx = [(i * m) // t for i in range(t)]
        flat = Y[idx].reshape(1, t * d)
        y_rep = flat @ w64["condenser.w"] + w64["condenser.b"]
    else:
        y_rep = Y
    scale = math.sqrt(d) if cfg.use_scaling else 1.0
    z = np_multi_head(X, y_rep, w64, "attn", cfg.heads, scale)
    z = z + positional_encoding(X.shape[0], d).astype(np.float64)
    z = np_layer_norm(z, w64["post.ln.gain"], w64["post.ln.bias"])
    att = np_multi_head(z, z, w64, "enc0.attn", cfg.heads, math.sqrt(cfg.head_dim))
    z = np_layer_norm(z + att, w64["enc0.ln1.gain"], w64["enc0.ln1.bias"])
    hidden = np.maximum(z @ w64["enc0.ffn.w1"] + w64["enc0.ffn.b1"], 0.0)
    ffn = hidden @ w64["enc0.ffn.w2"] + w64["enc0.ffn.b2"]
    z = np_layer_norm(z + ffn, w64["enc0.ln2.gain"], w64["enc0.ln2.bias"])
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

    single = ModelConfig(dim=64, heads=8, text_rep="single_vector")
    s2 = tensor_shapes(single)
    assert s2["condenser.w"] == (8 * 64, 64)
    assert s2["condenser.b"] == (1, 64)


def test_parameter_count_multi_below_single():
    base = dict(dim=64, heads=8)
    multi = parameter_count(ModelConfig(**base))
    single = parameter_count(ModelConfig(**base, text_rep="single_vector"))
    assert single - multi == 8 * 64 * 64 + 64  # condenser weights + bias


def test_parameter_count_matches_shapes():
    cfg = ModelConfig(dim=32, heads=4, text_rep="single_vector", ffn_dim=40)
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
# the single-vector text representation's sampling rule


def condense(y, w, cfg):
    return _text_representation(Tape(), y, w, cfg)[0].value


def test_condense_exact_fit_and_stride():
    cfg = ModelConfig(dim=8, heads=2, text_rep="single_vector")
    w = init_weights(cfg, Rng(3))
    rng = np.random.default_rng(0)
    y20 = rng.normal(size=(20, 8)).astype(np.float32)
    # M=20, T=8 -> rows floor(i*20/8) = {0,2,5,7,10,12,15,17}; those rows as M=T must match
    direct = condense(y20[[0, 2, 5, 7, 10, 12, 15, 17]], w, cfg)
    strided = condense(y20, w, cfg)
    assert np.array_equal(direct, strided)


def test_condense_single_sentence_repeats():
    cfg = ModelConfig(dim=8, heads=2, text_rep="single_vector")
    w = init_weights(cfg, Rng(3))
    y1 = np.random.default_rng(1).normal(size=(1, 8)).astype(np.float32)
    rep = np.repeat(y1, 8, axis=0)
    assert np.array_equal(condense(y1, w, cfg), condense(rep, w, cfg))


def test_condense_is_bitwise_the_on_tape_gather_and_flatten():
    """Stacked ragged scripts, M < T, M = T and M > T, against a numpy
    transcription of the row gather and flatten that once ran on the tape,
    as two ops, feeding the condenser's ``linear``."""
    t, d = 8, 8
    cfg = ModelConfig(dim=d, heads=2, text_rep="single_vector")
    w = init_weights(cfg, Rng(5))
    rng = np.random.default_rng(6)
    sizes = [3, 8, 13]
    bounds = np.cumsum([0] + sizes).tolist()
    y = rng.normal(size=(sum(sizes), d)).astype(np.float32)
    g = rng.normal(size=(len(sizes), d)).astype(np.float32)

    idx = [lo + (i * (hi - lo)) // t for lo, hi in zip(bounds, bounds[1:]) for i in range(t)]
    flat = np.ascontiguousarray(y[idx]).reshape(len(sizes), t * d)   # gather, flatten
    want = flat @ w["condenser.w"]
    want += w["condenser.b"]

    tape = Tape()
    out = _text_representation(tape, y, w, cfg, bounds)[0]
    out.bwd(g)
    assert len(tape.nodes) == 4   # the gathered constant, two parameters, one linear
    assert out.value.tobytes() == want.tobytes()
    _, w_leaf, b_leaf = out.parents
    assert w_leaf.grad.tobytes() == (flat.T @ g).tobytes()
    assert b_leaf.grad.tobytes() == g.sum(axis=0, keepdims=True).tobytes()


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
    ModelConfig(dim=8, heads=4, text_rep="single_vector"),
    ModelConfig(dim=8, heads=2, text_rep="single_vector", use_scaling=True, ffn_dim=12),
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


@pytest.mark.parametrize("text_rep", ["multi_vector", "single_vector"])
def test_the_script_is_checked_once_per_forward(monkeypatch, text_rep):
    cfg = ModelConfig(dim=8, heads=2, text_rep=text_rep)
    w = init_weights(cfg, Rng(30))
    rng = np.random.default_rng(31)
    X, Y = unit_rows(rng, 4, 8), unit_rows(rng, 3, 8)
    checked = []
    for owner in (sdvsum.autodiff, sdvsum.model):
        monkeypatch.setattr(owner, "matrix",
                            lambda a, real=owner.matrix: (checked.append(a), real(a))[1])
    for forward in (score_frames, attention_matrices):
        for script in (Y, Y.tolist()):
            checked.clear()
            forward(X, script, w, cfg)
            assert [np.shape(a) for a in checked].count(Y.shape) == 1
    monkeypatch.undo()
    assert np.array_equal(score_frames(X, Y.tolist(), w, cfg), score_frames(X, Y, w, cfg))
    for bad, error in ((np.where(Y == Y[0, 0], np.nan, Y), ValueError), (Y[0], ShapeError),
                       (Y[None], ShapeError), ([[np.inf] * 8], ValueError)):
        for forward in (score_frames, attention_matrices):
            with pytest.raises(error):
                forward(X, bad, w, cfg)


@pytest.mark.parametrize("layers", [1])   # the blob names the fixed architecture
@pytest.mark.parametrize("use_scaling", [False, True])
@pytest.mark.parametrize("scorer_head", ["direct"])
@pytest.mark.parametrize("text_rep", ["multi_vector", "single_vector"])
@pytest.mark.parametrize("heads", [4, 8])
@pytest.mark.parametrize("dim", [16, 64])
def test_inference_is_bitwise_the_recording_tape(dim, heads, text_rep, scorer_head,
                                                 use_scaling, layers):
    """The scorer (joined Q/K/V, no tape), ``score_frames`` (per-head, no tape)
    and a recording tape give the same bytes, and so do the attention matrices,
    on a config read as a checkpoint blob that names its architecture."""
    cfg = ModelConfig.from_dict(dict(dim=dim, heads=heads, text_rep=text_rep,
                                     scorer_head=scorer_head, use_scaling=use_scaling,
                                     encoder_layers=layers))
    w = init_weights(cfg, Rng(40))
    rng = np.random.default_rng(41)
    X, Y = unit_rows(rng, 7, dim), unit_rows(rng, 4, dim)
    tape = Tape()
    recorded = model_forward(tape, X, Y, w, cfg, training=False).value[:, 0].tobytes()
    assert make_score_fn(w, cfg)(X, Y).tobytes() == recorded
    assert score_frames(X, Y, w, cfg).tobytes() == recorded

    y_rep = _text_representation(tape, Y, w, cfg)[0]
    collected = []
    cross_modal_attention(tape, tape.constant(X), y_rep, w, cfg, collect=collected)
    got = attention_matrices(X, Y, w, cfg)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in collected]


def test_a_scorer_calls_score_frames_through_the_module(monkeypatch):
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(42))
    rng = np.random.default_rng(43)
    X, Y = unit_rows(rng, 5, 16), unit_rows(rng, 3, 16)
    fn = make_score_fn(w, cfg)
    calls = []
    monkeypatch.setattr(sdvsum.model, "score_frames",
                        lambda *a, real=score_frames: (calls.append(a), real(*a))[1])
    assert np.array_equal(fn(X, Y), score_frames(X, Y, w, cfg))
    assert len(calls) == 1
    fused = {f"{b}.{p}{k}" for b in ("attn", "enc0.attn") for p in "wb" for k in "qkv"}
    per_head = {name for name in w if any(f".h{h}." in name for h in range(4))}
    assert set(calls[0][2]) == set(w) - per_head | fused


def test_make_score_fn_runs_on_fused_weights_as_given(monkeypatch):
    cfg = ModelConfig(dim=16, heads=4)
    fused = fuse_heads(init_weights(cfg, Rng(46)), cfg)
    rng = np.random.default_rng(47)
    calls = []
    monkeypatch.setattr(sdvsum.model, "score_frames", lambda *a: calls.append(a))
    make_score_fn(fused, cfg)(unit_rows(rng, 5, 16), unit_rows(rng, 3, 16))
    given = calls[0][2]
    assert list(given) == list(fused) and all(given[n] is a for n, a in fused.items())


@pytest.mark.parametrize("dim, text_rep, scorer_head, layers, mode", [
    (16, "multi_vector", "direct", 1, "script_driven"),
    (16, "single_vector", "direct", 1, "generic"),
    (64, "multi_vector", "direct", 1, "generic"),
    (64, "single_vector", "direct", 1, "script_driven"),
    (512, "multi_vector", "direct", 1, "script_driven"),
    (512, "single_vector", "direct", 1, "generic"),
])
def test_fused_and_per_head_weights_give_the_same_gradient_bytes(dim, text_rep, scorer_head,
                                                                 layers, mode):
    # a stacked training group with dropout, run as training runs it, on both layouts,
    # on a config read as a checkpoint blob that names the fixed architecture
    cfg = ModelConfig.from_dict(dict(dim=dim, heads=4 if dim == 16 else 8, text_rep=text_rep,
                                     scorer_head=scorer_head, encoder_layers=layers))
    w = init_weights(cfg, Rng(48))
    rng = np.random.default_rng(49)
    stack = [(f"v{i}", unit_rows(rng, n, dim), unit_rows(rng, m, dim),
              (rng.random(n) < 0.4).astype(np.float32) if mode == "script_driven"
              else rng.random(n).astype(np.float32))
             for i, (n, m) in enumerate([(7, 3), (5, 4)])]
    loss_fn = bce_loss if mode == "script_driven" else mse

    def gradients(weights):
        grads = {name: np.zeros_like(a) for name, a in weights.items()}
        losses = _add_gradient(stack, weights, grads, cfg, Rng(50).stream("dropout", 1), loss_fn)
        return grads, losses

    per_head, losses = gradients(w)
    fused, fused_losses = gradients(fuse_heads(w, cfg))
    assert len(fused) == len(w) - 6 * (cfg.heads - 1) * 2   # 6 per block, 2 blocks
    assert fused_losses == losses
    split = split_heads(fused, cfg)
    assert split.keys() == per_head.keys()
    assert all(split[n].tobytes() == per_head[n].tobytes() for n in per_head)


def test_a_checkpoint_of_fused_weights_is_the_per_head_checkpoint(tmp_path):
    cfg = ModelConfig(dim=16, heads=4, text_rep="single_vector")
    w = init_weights(cfg, Rng(51))
    save_checkpoint(w, cfg, tmp_path / "per_head.sdvc")
    save_checkpoint(fuse_heads(w, cfg), cfg, tmp_path / "fused.sdvc")
    assert (tmp_path / "fused.sdvc").read_bytes() == (tmp_path / "per_head.sdvc").read_bytes()
    loaded, _ = load_checkpoint(tmp_path / "fused.sdvc")
    assert list(loaded) == list(tensor_shapes(cfg))


def test_a_no_record_forward_keeps_nothing(monkeypatch):
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(44))
    rng = np.random.default_rng(45)
    X, Y = unit_rows(rng, 6, 16), unit_rows(rng, 3, 16)
    made = []
    node_init = sdvsum.autodiff.Node.__init__
    monkeypatch.setattr(sdvsum.autodiff.Node, "__init__",
                        lambda self, *a: (made.append(self), node_init(self, *a))[1])
    tape = Tape(grad=False)
    f = model_forward(tape, X, Y, w, cfg, training=False)
    monkeypatch.undo()
    assert tape.nodes == []
    assert len(made) > len(w)
    assert all(n.parents == () and n.bwd is None and not n.needs_grad for n in made)
    assert np.array_equal(f.value[:, 0], score_frames(X, Y, w, cfg))
    with pytest.raises(ValueError, match="records nothing"):
        tape.backward(bce_loss(f, np.ones(6, dtype=np.float32)))
    # a leaf is checked as on a recording tape
    with pytest.raises(ShapeError):
        tape.param("scorer.head.b", np.zeros((1, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        tape.param("nan", [[np.nan]])


def test_inference_deterministic():
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(16))
    rng = np.random.default_rng(17)
    X, Y = unit_rows(rng, 5, 16), unit_rows(rng, 3, 16)
    assert np.array_equal(score_frames(X, Y, w, cfg), score_frames(X, Y, w, cfg))


def test_training_dropout_stochastic_but_seeded():
    cfg = ModelConfig(dim=16, heads=4)
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
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
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
# memory at real video lengths


def _traced_peak(run) -> tuple[float, float]:
    """The tracemalloc peak of ``run()`` in MiB, and its wall time in seconds."""
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        run()
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, seconds


def _long_video(frames: int):
    cfg = ModelConfig(dim=64)
    rng = np.random.default_rng(frames)
    X, Y = unit_rows(rng, frames, 64), unit_rows(rng, 6, 64)
    return cfg, init_weights(cfg, Rng(frames)), X, Y, rng


def test_inference_memory_at_4000_frames():
    # each head's 4000 x 4000 logits (61 MiB) are freed before the next head's
    cfg, w, X, Y, _ = _long_video(4000)
    peak, seconds = _traced_peak(lambda: score_frames(X, Y, w, cfg))
    print(f"\n4,000-frame inference: peak {peak:.0f} MiB, {seconds:.2f} s")
    assert peak <= 160, f"peak {peak:.0f} MiB ({seconds:.2f} s)"


def test_training_step_memory_at_2000_frames():
    cfg, w, X, Y, rng = _long_video(2000)
    grads = {name: np.zeros_like(a) for name, a in w.items()}
    labels = (rng.random(2000) < 0.2).astype(np.float32)
    peak, seconds = _traced_peak(lambda: _add_gradient(
        [("long", X, Y, labels)], w, grads, cfg, Rng(1).stream("dropout", 0), bce_loss))
    print(f"\n2,000-frame training step: peak {peak:.0f} MiB, {seconds:.2f} s")
    assert peak <= 250, f"peak {peak:.0f} MiB ({seconds:.2f} s)"
    assert all(np.isfinite(g).all() for g in grads.values())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(dim=16, heads=4, text_rep="single_vector")
    w = init_weights(cfg, Rng(22))
    path = tmp_path / "m.sdvc"
    save_checkpoint(w, cfg, path)
    w2, cfg2 = load_checkpoint(path)
    assert cfg2.to_dict() == cfg.to_dict()
    assert set(w2) == set(w)
    for k in w:
        assert np.array_equal(w2[k], w[k])


@pytest.mark.parametrize("key, value", [
    ("use_scaling", "false"), ("dim", 16.0), ("heads", True), ("dropout_rate", False),
    ("text_rep", 1), ("ffn_dim", 64.0), ("single_vector_t", None),
])
def test_config_from_dict_rejects_mistyped_values(key, value):
    blob = ModelConfig(dim=16, heads=4).to_dict()
    blob[key] = value
    with pytest.raises(ConfigError, match=key):
        ModelConfig.from_dict(blob)


def test_checkpoint_config_names_the_fixed_architecture():
    config = ModelConfig(dim=16, heads=4)
    blob = config.to_dict()
    fixed = ("encoder_layers", "scorer_head", "single_vector_t", "dropout_rate")
    assert {k: blob[k] for k in fixed} == {"encoder_layers": 1, "scorer_head": "direct",
                                           "single_vector_t": 8, "dropout_rate": 0.5}
    assert ModelConfig.from_dict(blob) == config
    for key in fixed:   # an older blob omits it
        assert ModelConfig.from_dict({k: v for k, v in blob.items() if k != key}) == config


@pytest.mark.parametrize("key, value", [
    ("encoder_layers", 2), ("encoder_layers", True), ("scorer_head", "hidden"),
    ("single_vector_t", 3), ("single_vector_t", 8.0), ("dropout_rate", 0.0),
])
def test_config_from_dict_refuses_another_architecture(key, value):
    blob = dict(ModelConfig(dim=16, heads=4).to_dict(), **{key: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{key} {value!r}')} is not this model"):
        ModelConfig.from_dict(blob)


def test_config_from_dict_accepts_null_ffn_dim():
    blob = ModelConfig(dim=16, heads=4).to_dict()
    assert blob["ffn_dim"] is None
    assert ModelConfig.from_dict(blob).ffn_dim is None


def test_checkpoint_rejects_missing_tensor(tmp_path):
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(24))
    del w["scorer.head.b"]
    with pytest.raises(DataFormatError,
                       match=r"m.sdvc: missing tensors \['scorer.head.b'\], unexpected \[\]"):
        save_checkpoint(w, cfg, tmp_path / "m.sdvc")


@pytest.mark.parametrize("tamper, fault", [
    (lambda w: w.pop("scorer.head.b"), r"missing tensors \['scorer.head.b'\], unexpected \[\]"),
    (lambda w: w.update(extra=np.zeros((1, 1), dtype=np.float32)),
     r"missing tensors \[\], unexpected \['extra'\]"),
    (lambda w: w.update({"scorer.head.w": np.zeros((1, 16), dtype=np.float32)}),
     r"tensor 'scorer.head.w' has shape \(1, 16\), expected \(16, 1\)"),
], ids=["missing", "unexpected", "shape"])
def test_checkpoint_save_and_load_reject_alike(tmp_path, tamper, fault):
    cfg = ModelConfig(dim=16, heads=4)
    w = init_weights(cfg, Rng(27))
    tamper(w)
    with pytest.raises(DataFormatError, match=f"cannot save .*saved.sdvc: {fault}"):
        save_checkpoint(w, cfg, tmp_path / "saved.sdvc")
    write_checkpoint_file(cfg.to_dict(), w, tmp_path / "raw.sdvc")
    with pytest.raises(DataFormatError, match=f"checkpoint .*raw.sdvc: {fault}"):
        load_checkpoint(tmp_path / "raw.sdvc")
