import inspect
import weakref

import numpy as np
import pytest

from sdvsum import autodiff
from sdvsum.autodiff import (
    ShapeError,
    Tape,
    add,
    attention,
    bce,
    dropout,
    dropout_mask,
    layer_norm,
    linear,
    matrix,
    mse,
    relu,
    sigmoid,
)
from sdvsum.model import ModelConfig, init_weights, model_forward
from sdvsum.rng import Rng

from gradcheck import GradCheckReport, bilinear, grad_check


def rnd(*shape, seed=0, lo=-1.0, hi=1.0):
    g = np.random.default_rng(seed)
    return g.uniform(lo, hi, size=shape).astype(np.float32)


def mean_square(x):
    """Mean of the squared entries: ``mse`` against zeros."""
    return mse(x, np.zeros(x.shape, dtype=np.float32))


# ---------------------------------------------------------------------------
# matrix validation


def test_matrix_rejects_non_2d():
    with pytest.raises(ShapeError):
        matrix(np.zeros(3))
    with pytest.raises(ShapeError):
        matrix(np.zeros((2, 2, 2)))


def test_matrix_rejects_nan_inf():
    with pytest.raises(ValueError):
        matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        matrix([[np.inf, 0.0]])


def test_matrix_is_float32():
    assert matrix([[1, 2], [3, 4]]).dtype == np.float32


# ---------------------------------------------------------------------------
# forward semantics


# The matrix product, the bias-row broadcast and the column-block join are
# all parts of the one ``linear`` op; the tests keep the names of the ops
# (matmul, add, concat_cols) that did each before.


def product(a, b):
    """``a @ b`` as a ``linear`` op with a zero bias."""
    return linear(a, b, a.tape.constant(np.zeros((1, b.shape[1]))))


def test_matmul_identity():
    tape = Tape()
    m = rnd(2, 2, seed=1)
    out = product(tape.constant(np.eye(2)), tape.constant(m))
    np.testing.assert_array_equal(out.value, m)


def test_matmul_hand_case():
    tape = Tape()
    out = product(tape.constant([[1, 2], [3, 4]]), tape.constant([[5], [6]]))
    np.testing.assert_array_equal(out.value, [[17], [39]])


def test_matmul_shape_error_names_both_shapes():
    tape = Tape()
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        product(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))
    with pytest.raises(ShapeError, match=r"\(1, 2\)"):
        linear(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((3, 3))),
               tape.constant(np.zeros((1, 2))))


def test_matmul_associativity():
    tape = Tape()
    a, b, c = rnd(4, 5, seed=2), rnd(5, 6, seed=3), rnd(6, 3, seed=4)
    left = product(product(tape.constant(a), tape.constant(b)), tape.constant(c))
    right = product(tape.constant(a), product(tape.constant(b), tape.constant(c)))
    np.testing.assert_allclose(left.value, right.value, atol=1e-4)


def test_add_broadcast_bias_row():
    tape = Tape()
    x = tape.constant(np.zeros((3, 2)))
    b = tape.constant([[1.0, 2.0]])
    np.testing.assert_array_equal(linear(x, tape.constant(np.ones((2, 2))), b).value,
                                  [[1, 2]] * 3)


def softmax_rows(logits):
    """One-head attention with K = V = identity: its output is softmax(logits)."""
    tape = Tape()
    eye = tape.constant(np.eye(np.shape(logits)[1]))
    return attention(tape.constant(logits), eye, eye, heads=1)


def test_softmax_rows_symmetry_and_stability():
    out = softmax_rows([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]])
    np.testing.assert_allclose(out.value[0], [1 / 3] * 3, atol=1e-6)
    assert out.value[1, 0] > 0.999
    assert np.all(np.isfinite(out.value))


def test_softmax_rows_against_high_precision():
    row = np.array([[1.0, 2.0, 3.0]])
    out = softmax_rows(row)
    exact = np.exp(row.astype(np.float64))
    exact /= exact.sum()
    np.testing.assert_allclose(out.value, exact, atol=1e-6)


def test_softmax_rows_sum_to_one():
    x = rnd(7, 9, seed=5, lo=-1000, hi=1000)
    out = softmax_rows(x)
    sums = out.value.astype(np.float64).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)
    assert out.value.min() >= 0.0 and out.value.max() <= 1.0


def test_layer_norm_constant_row_is_zero():
    tape = Tape()
    out = layer_norm(tape.constant([[3.0, 3.0, 3.0, 3.0]]),
                     tape.constant(np.ones((1, 4))), tape.constant(np.zeros((1, 4))))
    np.testing.assert_allclose(out.value, 0.0, atol=1e-2)


def test_layer_norm_two_point_row():
    tape = Tape()
    out = layer_norm(tape.constant([[1.0, 3.0]]),
                     tape.constant(np.ones((1, 2))), tape.constant(np.zeros((1, 2))))
    np.testing.assert_allclose(out.value, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_variance_floor_is_1e_5():
    # row [0, 1e-3]: variance 2.5e-7, so x-hat = 5e-4 / sqrt(2.5e-7 + eps) is
    # 0.156 at eps 1e-5 (0.447 at 1e-6, 1.0 at 0)
    tape = Tape()
    out = layer_norm(tape.constant([[0.0, 1e-3]]),
                     tape.constant(np.ones((1, 2))), tape.constant(np.zeros((1, 2))))
    want = 5e-4 / np.sqrt(2.5e-7 + 1e-5)
    np.testing.assert_allclose(out.value, [[-want, want]], rtol=1e-4)
    assert abs(want - 0.156) < 1e-3


def test_relu_subgradient_convention():
    tape = Tape()
    x = tape.param("x", [[-1.0, 0.0, 2.0]])
    loss = bilinear(relu(x), 1, np.float32(1) / np.float32(3))
    loss.tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, np.float32(1) / np.float32(3)]])


def test_sigmoid_at_zero():
    tape = Tape()
    assert sigmoid(tape.constant([[0.0]])).value[0, 0] == 0.5


def test_sigmoid_extreme_inputs_finite():
    tape = Tape()
    out = sigmoid(tape.constant([[-100.0, 100.0]]))
    assert np.all(np.isfinite(out.value))
    assert 0.0 <= out.value[0, 0] < 1e-30
    assert out.value[0, 1] == 1.0  # saturates in float32


def test_concat_cols_block_identity():
    tape = Tape()
    a, b = rnd(5, 32, seed=6), rnd(5, 32, seed=7)
    out = linear(tape.constant(np.eye(5)), [tape.constant(a), tape.constant(b)],
                 tape.constant(np.zeros((1, 64))))
    assert out.shape == (5, 64)
    np.testing.assert_array_equal(out.value[:, :32], a)


def test_linear_over_blocks_is_bitwise_linear_over_the_joined_block():
    x, g = rnd(6, 5, seed=50), rnd(6, 9, seed=51)
    w, b = rnd(5, 9, seed=52), rnd(1, 9, seed=53)
    cuts = [0, 2, 3, 9]
    whole = Tape()
    xw, ww, bw = (whole.param(n, a) for n, a in (("x", x), ("w", w), ("b", b)))
    joined = linear(xw, ww, bw)
    joined.bwd(g)
    split = Tape()
    xs = split.param("x", x)
    ws = [split.param(f"w{i}", w[:, lo:hi]) for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
    bs = [split.param(f"b{i}", b[:, lo:hi]) for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
    blocks = linear(xs, ws, bs)
    blocks.bwd(g)
    assert blocks.value.tobytes() == joined.value.tobytes()
    assert xs.grad.tobytes() == xw.grad.tobytes()
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        assert ws[i].grad.tobytes() == np.ascontiguousarray(ww.grad[:, lo:hi]).tobytes()
        assert bs[i].grad.tobytes() == np.ascontiguousarray(bw.grad[:, lo:hi]).tobytes()


def test_dropout_identity_contracts():
    tape = Tape()
    a = tape.constant(rnd(4, 4, seed=8))
    assert dropout(a, dropout_mask(a.shape, 0.0, np.random.default_rng(0), True)) is a
    assert dropout(a, dropout_mask(a.shape, 0.5, None, False)) is a


def test_dropout_survivor_fraction():
    tape = Tape()
    a = tape.constant(np.ones((100, 100)))
    out = dropout(a, dropout_mask(a.shape, 0.5, Rng(3).stream("dropout"), True))
    survivors = (out.value != 0).mean()
    assert 0.47 <= survivors <= 0.53
    np.testing.assert_allclose(out.value[out.value != 0], 2.0)


def test_dropout_training_without_rng_rejected():
    tape = Tape()
    with pytest.raises(ValueError):
        dropout(tape.constant(np.ones((2, 2))), dropout_mask((2, 2), 0.5, None, True))


def one_block_attention(q, k, v, heads, c, mask, g):
    """Attention over one block, in the numpy calls of the unsegmented op.

    Returns the output, the Q, K and V gradients for upstream gradient g, and
    the attention matrices before dropout.
    """
    n, width = q.shape
    m, hd = k.shape[0], width // heads
    qs = np.ascontiguousarray(q.reshape(n, heads, hd).transpose(1, 0, 2))
    kts = np.ascontiguousarray(k.reshape(m, heads, hd).transpose(1, 2, 0))
    vs = np.ascontiguousarray(v.reshape(m, heads, hd).transpose(1, 0, 2))
    att = qs @ kts
    att *= c
    att -= att.max(axis=2, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=2, keepdims=True, dtype=np.float64).astype(np.float32)
    dropped = att if mask is None else att * mask
    out = np.concatenate(dropped @ vs, axis=1)
    gs = np.ascontiguousarray(g.reshape(n, heads, hd).transpose(1, 0, 2))
    gv = np.concatenate(dropped.transpose(0, 2, 1) @ gs, axis=1)
    d = gs @ vs.transpose(0, 2, 1)
    if mask is not None:
        d *= mask
    d -= (d * att).sum(axis=2, keepdims=True)
    d *= att
    d *= c
    gq = np.concatenate(d @ kts.transpose(0, 2, 1), axis=1)
    gk = np.ascontiguousarray((qs.transpose(0, 2, 1) @ d).transpose(2, 0, 1)).reshape(m, width)
    return out, gq, gk, gv, att


@pytest.mark.parametrize("q_offsets,k_offsets", [
    (None, None), ([0, 9], [0, 7]), ([0, 2, 9], [0, 1, 7]), ([0, 1, 4, 5, 9], [0, 2, 3, 5, 7]),
])
@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_segmented_attention_is_bitwise_each_segment_alone(q_offsets, k_offsets, rate):
    q, g = rnd(9, 6, seed=40), rnd(9, 6, seed=41)
    k, v = rnd(7, 6, seed=42), rnd(7, 6, seed=43)
    qo, ko = q_offsets or [0, 9], k_offsets or [0, 7]
    stream = np.random.default_rng(44)
    masks = [dropout_mask((3, b - a, hi - lo), rate, stream, rate > 0)
             for a, b, lo, hi in zip(qo, qo[1:], ko, ko[1:])]
    tape = Tape()
    qn, kn, vn = (tape.param(name, a) for name, a in (("q", q), ("k", k), ("v", v)))
    collected = []
    out = attention(qn, kn, vn, 3, 0.8, masks if rate else None, collected, q_offsets, k_offsets)
    out.bwd(g)

    c = np.float32(1.0 / 0.8)
    for s, (a, b, lo, hi) in enumerate(zip(qo, qo[1:], ko, ko[1:])):
        want = one_block_attention(q[a:b], k[lo:hi], v[lo:hi], 3, c, masks[s], g[a:b])
        assert out.value[a:b].tobytes() == want[0].tobytes()
        assert qn.grad[a:b].tobytes() == want[1].tobytes()
        # a key or value row of one segment gets gradient from its own queries only
        assert kn.grad[lo:hi].tobytes() == want[2].tobytes()
        assert vn.grad[lo:hi].tobytes() == want[3].tobytes()
        assert all(np.array_equal(collected[3 * s + h], want[4][h]) for h in range(3))
    assert len(collected) == 3 * (len(qo) - 1)


# every segment of a case has the same number of logits, so one ATT_BLOCK
# gives every segment the same head step
@pytest.mark.parametrize("q_offsets,k_offsets,logits", [
    ([0, 9], [0, 7], 63), ([0, 2, 5, 9], [0, 6, 10, 13], 12), ([0, 1, 4, 10], [0, 6, 8, 9], 6),
])
@pytest.mark.parametrize("rate", [0.0, 0.5])
@pytest.mark.parametrize("step", [1, 2])
def test_head_blocks_are_bitwise_one_block(monkeypatch, q_offsets, k_offsets, logits, rate, step):
    # 3 heads run as blocks of 1, 1, 1 or of 2, 1
    monkeypatch.setattr(autodiff, "ATT_BLOCK", step * logits)
    n, m = q_offsets[-1], k_offsets[-1]
    q, g = rnd(n, 6, seed=50), rnd(n, 6, seed=51)
    k, v = rnd(m, 6, seed=52), rnd(m, 6, seed=53)
    stream = np.random.default_rng(54)
    masks = [dropout_mask((3, b - a, hi - lo), rate, stream, rate > 0)
             for a, b, lo, hi in zip(q_offsets, q_offsets[1:], k_offsets, k_offsets[1:])]
    tape = Tape()
    qn, kn, vn = (tape.param(name, a) for name, a in (("q", q), ("k", k), ("v", v)))
    collected = []
    out = attention(qn, kn, vn, 3, 0.8, masks if rate else None, collected, q_offsets, k_offsets)
    out.bwd(g)

    c = np.float32(1.0 / 0.8)
    spans = zip(q_offsets, q_offsets[1:], k_offsets, k_offsets[1:])
    for s, (a, b, lo, hi) in enumerate(spans):
        assert (b - a) * (hi - lo) == logits
        want = one_block_attention(q[a:b], k[lo:hi], v[lo:hi], 3, c, masks[s], g[a:b])
        assert out.value[a:b].tobytes() == want[0].tobytes()
        assert qn.grad[a:b].tobytes() == want[1].tobytes()
        assert kn.grad[lo:hi].tobytes() == want[2].tobytes()
        assert vn.grad[lo:hi].tobytes() == want[3].tobytes()
        # per segment, then per head
        assert all(collected[3 * s + h].tobytes() == want[4][h].tobytes() for h in range(3))
    assert len(collected) == 3 * (len(q_offsets) - 1)


def test_criterion_1_attention_checks_pass_in_one_head_blocks(monkeypatch):
    from test_acceptance import _op_checks
    monkeypatch.setattr(autodiff, "ATT_BLOCK", 1)
    checks = [(name, params, build) for name, params, build in _op_checks()
              if name.startswith("attention")]
    assert len(checks) >= 4
    for name, params, build in checks:
        report = grad_check(lambda pr, build=build: build(Tape(), pr), params, eps=1e-3)
        assert report.passed, f"{name}: {report.summary()}"


def test_no_record_attention_keeps_no_block(monkeypatch):
    # a no-record forward frees each head block before the next one's logits
    monkeypatch.setattr(autodiff, "ATT_BLOCK", 1)
    alive = []
    real_exp = np.exp

    def exp(x, *args, **kwargs):
        alive.append(weakref.ref(x))
        alive[:] = [r for r in alive if r() is not None]
        assert len(alive) == 1, f"{len(alive)} blocks of logits alive"
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(autodiff.np, "exp", exp)
    tape = Tape(grad=False)
    q, kv = tape.param("q", rnd(9, 6, seed=60)), tape.param("kv", rnd(7, 6, seed=61))
    attention(q, kv, kv, 3)
    assert len(tape.nodes) == 0


def test_segment_offsets_are_checked():
    tape = Tape()
    q, kv = tape.constant(rnd(4, 2)), tape.constant(rnd(3, 2))
    for qo, ko in [([0, 2, 4], [0, 3]), ([0, 4, 4], [0, 1, 3]), ([0, 2, 5], [0, 1, 3]),
                   ([1, 4], [0, 3])]:
        with pytest.raises(ShapeError):
            attention(q, kv, kv, 1, q_offsets=qo, k_offsets=ko)
    with pytest.raises(ShapeError):
        attention(q, kv, kv, 1, masks=[None, None])
    with pytest.raises(ShapeError):
        attention(q, kv, kv, 1, masks=[np.ones((1, 3, 4), dtype=np.float32)])
    with pytest.raises(ShapeError):
        dropout(q, np.ones((2, 4), dtype=np.float32))


def composite_loss(x, target, bounds, eps=None):
    """Segment means and d(sum of means)/dx of BCE (``eps`` given) or MSE.

    A float32 numpy transcription of the clamp / log / mul / affine / add /
    scale / sub / mean_all chain that built each loss before it was one op.
    """
    f32 = np.float32
    g = np.empty_like(x)
    for lo, hi in zip(bounds, bounds[1:]):   # mean_all backward from 1 per segment
        g[lo:hi] = f32(1) / f32(hi - lo)
    if eps is None:
        d = x - target                                  # sub
        per_row = d * d                                 # mul
        gd = g * d
        grad = gd + gd                                  # mul backward, both operands
    else:
        c = np.clip(x, f32(eps), f32(1.0 - eps))        # clamp
        one_minus_c = c * f32(-1) + f32(1)              # affine(c, -1, 1)
        one_minus_y = 1.0 - target
        per_row = (target * np.log(c) + one_minus_y * np.log(one_minus_c)) * f32(-1)
        g = g * f32(-1)                                 # scale backward
        grad = ((g * one_minus_y) / one_minus_c) * f32(-1)
        grad += (g * target) / c                        # the two log branches
        grad = grad * ((x >= eps) & (x <= 1.0 - eps))   # clamp backward
    means = [f32(per_row[lo:hi].sum(dtype=np.float64) / (hi - lo))
             for lo, hi in zip(bounds, bounds[1:])]
    return means, grad


@pytest.mark.parametrize("op", ["bce", "mse"])
def test_loss_ops_are_bitwise_the_composite_chain(op):
    rng = np.random.default_rng(60)
    for _ in range(40):
        sizes = rng.integers(1, 20, size=rng.integers(1, 5))
        n = int(sizes.sum())
        bounds = [0, *np.cumsum(sizes).tolist()]
        # logits up to ±30 saturate the sigmoid, so many rows are clamped
        x = (1.0 / (1.0 + np.exp(-rng.uniform(-30, 30, size=(n, 1))))).astype(np.float32)
        x[0], x[-1] = 0.0, 1.0
        if op == "bce":
            target = (rng.random((n, 1)) < 0.5).astype(np.float32)
            eps = 1e-7
        else:
            target, eps = rng.random((n, 1)).astype(np.float32), None
        tape = Tape()
        f = tape.param("f", x)
        collected = []
        if op == "bce":
            loss = bce(f, target, bounds, collected)
        else:
            loss = mse(f, target, bounds, collected)
        loss.bwd(np.ones((1, 1), dtype=np.float32))   # f.grad keeps the sign of zeros
        means, want = composite_loss(x, target, bounds, eps)
        assert len(tape.nodes) == 2   # the parameter and one loss node
        assert collected == [float(m) for m in means]
        assert loss.value[0, 0] == np.float32(np.array(means).sum(dtype=np.float64))
        assert f.grad.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# backward sweep


def test_backward_mean_of_weights_is_uniform():
    tape = Tape()
    w = tape.param("w", rnd(2, 2, seed=9))
    grads = tape.backward(bilinear(w, 0.5, 0.5))
    np.testing.assert_array_equal(grads["w"], np.full((2, 2), 0.25))


def test_backward_linear_outer_structure():
    tape = Tape()
    w = tape.param("w", rnd(3, 2, seed=10))
    x = np.array([[2.0], [5.0]], dtype=np.float32)
    grads = tape.backward(bilinear(product(w, tape.constant(x)), 1 / 3, 1))
    np.testing.assert_allclose(grads["w"], np.tile(x.T, (3, 1)) / 3)


def test_backward_requires_scalar_loss():
    tape = Tape()
    w = tape.param("w", rnd(2, 2, seed=11))
    with pytest.raises(ShapeError):
        tape.backward(relu(w))


def test_backward_twice_does_not_double_gradients():
    tape = Tape()
    w = tape.param("w", rnd(2, 2, seed=12))
    loss = mean_square(w)
    first = {k: v.copy() for k, v in tape.backward(loss).items()}
    second = tape.backward(loss)
    np.testing.assert_array_equal(first["w"], second["w"])


def test_backward_frees_op_gradients_and_keeps_leaf_gradients():
    tape = Tape()
    x = tape.param("x", rnd(4, 3, seed=18))
    w, b = tape.param("w", rnd(3, 2, seed=19)), tape.param("b", rnd(1, 2, seed=20))
    hidden = linear(x, w, b)
    loss = mean_square(add(sigmoid(hidden), relu(hidden)))
    first = {k: v.copy() for k, v in tape.backward(loss).items()}
    x_grad = x.grad.copy()
    nodes = [ref() for ref in tape.nodes]
    ops = [n for n in nodes if n.parents]
    assert len(ops) == 5 and all(n.grad is None for n in ops)
    assert all(n.grad is not None for n in nodes if not n.parents)
    second = tape.backward(loss)
    assert all(first[k].tobytes() == second[k].tobytes() for k in first)
    assert x.grad.tobytes() == x_grad.tobytes()


def test_unreached_parameter_gets_zero_gradient():
    tape = Tape()
    w = tape.param("w", rnd(2, 2, seed=13))
    tape.param("unused", rnd(3, 3, seed=14))
    grads = tape.backward(bilinear(w))
    np.testing.assert_array_equal(grads["unused"], np.zeros((3, 3)))


def _sigmoid_layer_loss(x_seed):
    """Loss through one sigmoid layer on fresh inputs, plus a registered unused parameter."""
    tape = Tape()
    w = tape.param("w", rnd(3, 2, seed=15))
    b = tape.param("b", rnd(1, 2, seed=16))
    unused = tape.param("unused", rnd(2, 2, seed=17))
    x = tape.constant(rnd(4, 3, seed=x_seed))
    return tape, bilinear(sigmoid(linear(x, w, b))), unused


def test_backward_into_sums_gradients_in_place():
    fresh = [tape.backward(loss) for tape, loss, _ in map(_sigmoid_layer_loss, (20, 21))]
    into = {"w": np.zeros((3, 2), dtype=np.float32), "b": np.zeros((1, 2), dtype=np.float32),
            "unused": np.full((2, 2), 7.0, dtype=np.float32)}
    buffers = dict(into)
    for tape, loss, _ in map(_sigmoid_layer_loss, (20, 21)):
        assert tape.backward(loss, into=into) is into
    for name in ("w", "b"):
        assert into[name] is buffers[name]
        assert into[name].tobytes() == (fresh[0][name] + fresh[1][name]).tobytes()
    np.testing.assert_array_equal(into["unused"], np.full((2, 2), 7.0))


def _copying_accum(node, g):
    """``_accum`` with every op node's first gradient a copy, as before ownership."""
    if node.needs_grad:
        if node.grad is None:
            node.grad = g.astype(np.float32, copy=True)
        else:
            node.grad += g


def _ownership_cases():
    """Criterion 1's gradient checks, a model loss, and nodes whose gradient has two sources."""
    from test_acceptance import _op_checks

    def p(t, pr, name):
        return t.param(name, pr[name])

    def twice(x):
        return add(x, x)

    cfg = ModelConfig(dim=16, heads=4)
    rng = np.random.default_rng(2)
    X, Y = rng.normal(size=(6, 16)), rng.normal(size=(3, 16))
    labels = np.array([1, 0, 1, 0, 0, 1], dtype=np.float32)
    linear_params = {"a": rnd(3, 4, seed=61), "w": rnd(4, 4, seed=62), "b": rnd(1, 4, seed=63)}
    return [*_op_checks(), (
        "add_self", {"a": rnd(3, 3, seed=60)},
        lambda t, pr: bilinear(twice(sigmoid(p(t, pr, "a"))))), (
        "two_ops", {"a": rnd(3, 3, seed=64)},
        lambda t, pr: bilinear((lambda x: add(relu(x), sigmoid(x)))(sigmoid(p(t, pr, "a"))))), (
        "linear_and_add", linear_params,
        lambda t, pr: bilinear((lambda x: add(x, linear(x, p(t, pr, "w"), p(t, pr, "b"))))(
            relu(p(t, pr, "a"))))), (
        "model", init_weights(cfg, Rng(17)),
        lambda t, pr: bce(model_forward(t, X, Y, pr, cfg, Rng(3).stream("dropout", 0), True),
                          labels)),
    ]


def _checked_backward(tape, loss):
    """``tape.backward(loss)``, checking after each backward rule that every op
    node's gradient owns its memory and that no two nodes hold one array (but the
    node just swept, which the sweep drops next)."""
    nodes = [ref() for ref in tape.nodes]

    def check(swept):
        held = [n.grad for n in nodes if n.name is None and n is not swept and n.grad is not None]
        leaves = {id(n.grad) for n in nodes if n.name is not None}
        assert all(a.base is None for a in held)
        assert len({id(a) for a in held} - leaves) == len(held)

    for n in nodes:
        if n.bwd is not None:
            n.bwd = (lambda rule, n: lambda g: (rule(g), check(n)))(n.bwd, n)
    return tape.backward(loss)


@pytest.mark.parametrize("case", [name for name, _, _ in _ownership_cases()])
def test_kept_gradients_are_the_bytes_of_copied_ones(monkeypatch, case):
    _, params, build = next(c for c in _ownership_cases() if c[0] == case)
    tape = Tape()
    kept = _checked_backward(tape, build(tape, params))
    monkeypatch.setattr(autodiff, "_accum", _copying_accum)
    tape = Tape()
    copied = tape.backward(build(tape, params))
    assert kept.keys() == copied.keys() == params.keys()
    assert all(kept[n].tobytes() == copied[n].tobytes() for n in kept)


def test_backward_into_needs_every_registered_parameter():
    tape, loss, _ = _sigmoid_layer_loss(22)
    into = {"w": np.zeros((3, 2), dtype=np.float32), "unused": np.zeros((2, 2), dtype=np.float32)}
    with pytest.raises(ShapeError, match="'b'"):
        tape.backward(loss, into=into)
    into["b"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ShapeError, match="'b'"):
        tape.backward(loss, into=into)


def test_a_name_registered_again_with_another_shape_is_refused():
    tape = Tape()
    tape.param("w", rnd(2, 2, seed=23))
    with pytest.raises(ShapeError, match="'w'"):
        tape.param("w", rnd(3, 2, seed=23))


def _shared_weight_loss(leaves: int):
    """Loss over two layers of one weight ``w``: one leaf used twice, or a leaf per use."""
    tape = Tape()
    w_value, b_value = rnd(3, 2, seed=24), rnd(1, 2, seed=25)
    ws = [tape.param("w", w_value) for _ in range(leaves)]
    b = tape.param("b", b_value)
    first = linear(tape.constant(rnd(4, 3, seed=26)), ws[0], b)
    second = linear(tape.constant(rnd(4, 3, seed=27)), ws[-1], b)
    return tape, mean_square(add(sigmoid(first), relu(second)))


def test_leaves_of_one_name_add_into_one_buffer_bitwise():
    """Two leaves of a name, each used once, give bitwise the gradients of one
    leaf used twice: with fresh buffers and added into given ones."""
    def buffers():
        return {"w": rnd(3, 2, seed=28), "b": rnd(1, 2, seed=29)}

    (one_tape, one_loss), (two_tape, two_loss) = map(_shared_weight_loss, (1, 2))
    fresh_one, fresh_two = one_tape.backward(one_loss), two_tape.backward(two_loss)
    into_one, into_two = buffers(), buffers()
    one_tape.backward(one_loss, into=into_one)
    two_tape.backward(two_loss, into=into_two)
    assert np.any(fresh_one["w"])
    for name in ("w", "b"):
        assert fresh_one[name].tobytes() == fresh_two[name].tobytes()
        assert into_one[name].tobytes() == into_two[name].tobytes()
        assert into_one[name].tobytes() != buffers()[name].tobytes()


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    with pytest.raises(ValueError):
        add(t1.constant(np.ones((2, 2))), t2.constant(np.ones((2, 2))))


# ---------------------------------------------------------------------------
# gradient checking


def check_op(build, shapes, seed=0, eps=1e-3, tol=1e-3, lo=-1.0, hi=1.0):
    """Gradient-check a composite: build(tape, *param_nodes) -> scalar node."""
    g = np.random.default_rng(seed)
    params = {
        f"p{i}": g.uniform(lo, hi, size=s).astype(np.float32)
        for i, s in enumerate(shapes)
    }

    def f(values):
        tape = Tape()
        nodes = [tape.param(k, values[k]) for k in sorted(values)]
        return build(tape, *nodes)

    report = grad_check(f, params, eps=eps, tol=tol)
    assert report.passed, report.summary()
    return report


def test_grad_quadratic_is_tight():
    report = check_op(lambda t, p: mean_square(p), [(3, 3)], seed=20)
    assert report.max_error < 1e-4


def test_grad_matmul():
    check_op(lambda t, x, w, b: bilinear(linear(x, w, b)), [(3, 4), (4, 2), (1, 2)], seed=21)


def test_grad_add_with_bias_broadcast():
    def build(t, a, b):
        return mean_square(linear(a, t.constant(np.eye(3)), b))
    check_op(build, [(4, 3), (1, 3)], seed=23)


def test_grad_relu_away_from_kink():
    # inputs kept away from 0 so finite differences cannot cross it
    check_op(lambda t, p: bilinear(relu(p)), [(4, 4)], seed=24, lo=0.1, hi=1.0)
    check_op(lambda t, p: bilinear(relu(p)), [(4, 4)], seed=25, lo=-1.0, hi=-0.1)


def test_grad_sigmoid_log_clamp():
    # with all labels 1, bce is the mean of -log(sigmoid(p))
    check_op(lambda t, p: bce(sigmoid(p), np.ones(p.shape)), [(3, 5)], seed=26)
    # scores in (0.2, 0.8), far inside the clamp [1e-7, 1 - 1e-7]
    y = np.array([[1.0], [0.0], [1.0]])
    check_op(lambda t, p: bce(p, y), [(3, 1)], seed=27, lo=0.2, hi=0.8)


def test_grad_softmax_rows():
    def build(t, p):
        eye = t.constant(np.eye(4))
        return bilinear(attention(p, eye, eye, heads=1))
    check_op(build, [(3, 4)], seed=28)


def test_grad_layer_norm_all_inputs():
    def build(t, a, bias, gain):
        return mean_square(layer_norm(a, gain, bias))
    check_op(build, [(4, 6), (1, 6), (1, 6)], seed=29)


def test_grad_shape_surgery():
    def build(t, p, q):
        joined = linear(t.constant(np.eye(3)), [p, q], t.constant(np.zeros((1, 5))))
        return mean_square(joined)
    check_op(build, [(3, 2), (3, 3)], seed=30)


def test_grad_dropout_frozen_mask():
    # a fresh generator with a fixed seed per call makes f deterministic
    def build(t, p):
        out = dropout(p, dropout_mask(p.shape, 0.4, np.random.default_rng(99), True))
        return mean_square(out)
    check_op(build, [(5, 5)], seed=31)


def test_grad_check_detects_nondeterminism():
    state = {"calls": 0}

    def f(params):
        state["calls"] += 1
        tape = Tape()
        p = tape.param("p", params["p"])
        return bilinear(p, state["calls"])

    with pytest.raises(ValueError, match="not deterministic"):
        grad_check(f, {"p": np.ones((2, 2), dtype=np.float32)})


def test_grad_check_flags_corrupted_backward():
    def f(params):
        tape = Tape()
        p = tape.param("p", params["p"])
        out = sigmoid(p)
        # corrupt the backward rule of the sigmoid node
        out.bwd = lambda g: None
        return bilinear(out)

    report = grad_check(f, {"p": rnd(2, 2, seed=32)})
    assert not report.passed


def _scaled_backward(op):
    """``op`` whose nodes pass 1.01 g, not g, to their backward rule."""
    def scaled(*args, **kwargs):
        node = op(*args, **kwargs)
        bwd = node.bwd
        node.bwd = lambda g: bwd(g * np.float32(1.01))
        return node
    return scaled


@pytest.mark.parametrize("op, check", [
    ("linear", "linear"), ("add", "add"), ("relu", "relu"), ("sigmoid", "sigmoid"),
    ("layer_norm", "layer_norm"), ("dropout", "dropout_train"), ("attention", "attention"),
])
def test_criterion_1_catches_a_one_percent_backward_error(monkeypatch, op, check):
    # the reducer must stay sensitive: an mse reducer read 4.7e-4 for sigmoid here
    import test_acceptance
    monkeypatch.setattr(test_acceptance, op, _scaled_backward(getattr(autodiff, op)))
    _, params, build = next(c for c in test_acceptance._op_checks() if c[0] == check)
    report = grad_check(lambda pr: build(Tape(), pr), params, eps=1e-3)
    assert report.max_error > 1e-3, report.summary()


def test_grad_check_report_summary_format():
    report = GradCheckReport(errors={"a": 2e-4, "b": 1e-5}, tol=1e-3)
    assert report.passed
    assert "PASS" in report.summary()
    assert GradCheckReport(errors={"a": 5e-3}, tol=1e-3).passed is False


def test_every_differentiable_op_has_a_criterion_1_gradient_check():
    from test_acceptance import _op_checks
    checked = [name for name, _, _ in _op_checks()]
    ops = [name for name in autodiff.__all__
           if inspect.isfunction(getattr(autodiff, name))
           and inspect.signature(getattr(autodiff, name)).return_annotation
           in ("Node", autodiff.Node)]
    missing = [op for op in ops if not any(c == op or c.startswith(op + "_") for c in checked)]
    assert "linear" in ops and not missing, f"no criterion 1 gradient check for {missing}"


def test_grad_check_eps_range_enforced():
    def f(params):
        tape = Tape()
        return bilinear(tape.param("p", params["p"]))

    with pytest.raises(ValueError):
        grad_check(f, {"p": np.ones((1, 1), dtype=np.float32)}, eps=1.0)


# hypothesis property: softmax rows sum to 1 for adversarial magnitudes
hyp = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def small_matrix(draw, max_rows=6, max_cols=6, magnitude=1000.0):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    vals = draw(st.lists(
        st.floats(-magnitude, magnitude, allow_nan=False, width=32),
        min_size=rows * cols, max_size=rows * cols,
    ))
    return np.array(vals, dtype=np.float32).reshape(rows, cols)


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_softmax_rows_stochastic_property(m):
    out = softmax_rows(m)
    np.testing.assert_allclose(out.value.astype(np.float64).sum(axis=1), 1.0, atol=1e-6)
