import numpy as np
import pytest

from sdvsum.autodiff import (
    ShapeError,
    Tape,
    add,
    affine,
    attention,
    clamp,
    concat_cols,
    dropout,
    layer_norm,
    log,
    matmul,
    matrix,
    mean_all,
    mul,
    relu,
    reshape,
    scale,
    sigmoid,
    sub,
    take_rows,
)
from sdvsum.rng import Rng

from gradcheck import GradCheckReport, grad_check


def rnd(*shape, seed=0, lo=-1.0, hi=1.0):
    g = np.random.default_rng(seed)
    return g.uniform(lo, hi, size=shape).astype(np.float32)


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


def test_matmul_identity():
    tape = Tape()
    m = rnd(2, 2, seed=1)
    out = matmul(tape.constant(np.eye(2)), tape.constant(m))
    np.testing.assert_array_equal(out.value, m)


def test_matmul_hand_case():
    tape = Tape()
    out = matmul(tape.constant([[1, 2], [3, 4]]), tape.constant([[5], [6]]))
    np.testing.assert_array_equal(out.value, [[17], [39]])


def test_matmul_shape_error_names_both_shapes():
    tape = Tape()
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))


def test_matmul_associativity():
    tape = Tape()
    a, b, c = rnd(4, 5, seed=2), rnd(5, 6, seed=3), rnd(6, 3, seed=4)
    left = matmul(matmul(tape.constant(a), tape.constant(b)), tape.constant(c))
    right = matmul(tape.constant(a), matmul(tape.constant(b), tape.constant(c)))
    np.testing.assert_allclose(left.value, right.value, atol=1e-4)


def test_add_broadcast_bias_row():
    tape = Tape()
    a = tape.constant(np.zeros((3, 2)))
    b = tape.constant([[1.0, 2.0]])
    np.testing.assert_array_equal(add(a, b).value, [[1, 2]] * 3)


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


def test_relu_subgradient_convention():
    tape = Tape()
    x = tape.leaf([[-1.0, 0.0, 2.0]], needs_grad=True)
    loss = mean_all(relu(x))
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
    out = concat_cols([tape.constant(a), tape.constant(b)])
    assert out.shape == (5, 64)
    np.testing.assert_array_equal(out.value[:, :32], a)


def test_dropout_identity_contracts():
    tape = Tape()
    a = tape.constant(rnd(4, 4, seed=8))
    assert dropout(a, 0.0, training=True, rng=np.random.default_rng(0)) is a
    assert dropout(a, 0.5, training=False) is a


def test_dropout_survivor_fraction():
    tape = Tape()
    a = tape.constant(np.ones((100, 100)))
    out = dropout(a, 0.5, rng=Rng(3).stream("dropout"), training=True)
    survivors = (out.value != 0).mean()
    assert 0.47 <= survivors <= 0.53
    np.testing.assert_allclose(out.value[out.value != 0], 2.0)


def test_dropout_training_without_rng_rejected():
    tape = Tape()
    with pytest.raises(ValueError):
        dropout(tape.constant(np.ones((2, 2))), 0.5, training=True)


def test_take_rows_with_repetition():
    tape = Tape()
    a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
    out = take_rows(a, [1, 1, 0])
    np.testing.assert_array_equal(out.value, [[3, 4], [3, 4], [1, 2]])


# ---------------------------------------------------------------------------
# backward sweep


def test_backward_mean_of_weights_is_uniform():
    tape = Tape()
    w = tape.param("w", rnd(2, 2, seed=9))
    grads = tape.backward(mean_all(w))
    np.testing.assert_array_equal(grads["w"], np.full((2, 2), 0.25))


def test_backward_linear_outer_structure():
    tape = Tape()
    w = tape.param("w", rnd(3, 2, seed=10))
    x = np.array([[2.0], [5.0]], dtype=np.float32)
    grads = tape.backward(mean_all(matmul(w, tape.constant(x))))
    np.testing.assert_allclose(grads["w"], np.tile(x.T, (3, 1)) / 3)


def test_backward_requires_scalar_loss():
    tape = Tape()
    w = tape.param("w", rnd(2, 2, seed=11))
    with pytest.raises(ShapeError):
        tape.backward(relu(w))


def test_backward_twice_does_not_double_gradients():
    tape = Tape()
    w = tape.param("w", rnd(2, 2, seed=12))
    loss = mean_all(mul(w, w))
    first = {k: v.copy() for k, v in tape.backward(loss).items()}
    second = tape.backward(loss)
    np.testing.assert_array_equal(first["w"], second["w"])


def test_unreached_parameter_gets_zero_gradient():
    tape = Tape()
    w = tape.param("w", rnd(2, 2, seed=13))
    tape.param("unused", rnd(3, 3, seed=14))
    grads = tape.backward(mean_all(w))
    np.testing.assert_array_equal(grads["unused"], np.zeros((3, 3)))


def _sigmoid_layer_loss(x_seed):
    """Loss through one sigmoid layer on fresh inputs, plus a registered unused parameter."""
    tape = Tape()
    w = tape.param("w", rnd(3, 2, seed=15))
    b = tape.param("b", rnd(1, 2, seed=16))
    unused = tape.param("unused", rnd(2, 2, seed=17))
    x = tape.constant(rnd(4, 3, seed=x_seed))
    return tape, mean_all(sigmoid(add(matmul(x, w), b))), unused


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


def test_backward_into_needs_every_registered_parameter():
    tape, loss, _ = _sigmoid_layer_loss(22)
    into = {"w": np.zeros((3, 2), dtype=np.float32), "unused": np.zeros((2, 2), dtype=np.float32)}
    with pytest.raises(ShapeError, match="'b'"):
        tape.backward(loss, into=into)
    into["b"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ShapeError, match="'b'"):
        tape.backward(loss, into=into)


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    with pytest.raises(ValueError):
        add(t1.constant(np.ones((2, 2))), t2.constant(np.ones((2, 2))))


# ---------------------------------------------------------------------------
# gradient checking


def total(x):
    """Sum of all entries: the mean of the entries scaled by their count.

    Gradients stay of order 1, where ``grad_check``'s relative error is
    sharpest. Scaling before the float64 mean rounds the loss once.
    """
    return mean_all(scale(x, x.value.size))


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
    report = check_op(lambda t, p: total(mul(p, p)), [(3, 3)], seed=20)
    assert report.max_error < 1e-4


def test_grad_matmul():
    check_op(lambda t, a, b: total(matmul(a, b)), [(3, 4), (4, 2)], seed=21)


def test_grad_sub_scale_affine():
    check_op(
        lambda t, a, b: total(scale(sub(a, affine(b, 0.5, -0.2)), 1.7)),
        [(4, 3), (4, 3)], seed=22,
    )


def test_grad_add_with_bias_broadcast():
    check_op(lambda t, a, b: total(mul(add(a, b), add(a, b))), [(4, 3), (1, 3)], seed=23)


def test_grad_relu_away_from_kink():
    # inputs kept away from 0 so finite differences cannot cross it
    check_op(lambda t, p: total(relu(p)), [(4, 4)], seed=24, lo=0.1, hi=1.0)
    check_op(lambda t, p: mean_all(relu(p)), [(4, 4)], seed=25, lo=-1.0, hi=-0.1)


def test_grad_sigmoid_log_clamp():
    check_op(lambda t, p: total(log(sigmoid(p))), [(3, 5)], seed=26)
    # clamp active region only: values in (0.2, 0.8) with clamp [0.1, 0.9]
    check_op(lambda t, p: total(clamp(p, 0.1, 0.9)), [(3, 3)], seed=27, lo=0.2, hi=0.8)


def test_grad_softmax_rows():
    def build(t, p):
        probe = t.constant(np.linspace(0.1, 1.0, 12).reshape(3, 4))
        eye = t.constant(np.eye(4))
        return total(mul(attention(p, eye, eye, heads=1), probe))
    check_op(build, [(3, 4)], seed=28)


def test_grad_layer_norm_all_inputs():
    def build(t, a, bias, gain):
        return total(mul(layer_norm(a, gain, bias), layer_norm(a, gain, bias)))
    check_op(build, [(4, 6), (1, 6), (1, 6)], seed=29)


def test_grad_shape_surgery():
    def build(t, p, q):
        joined = concat_cols([p, q])
        took = take_rows(joined, [2, 0, 1, 2])
        return mean_all(mul(reshape(took, 2, 10), reshape(took, 2, 10)))
    check_op(build, [(3, 2), (3, 3)], seed=30)


def test_grad_dropout_frozen_mask():
    # a fresh generator with a fixed seed per call makes f deterministic
    def build(t, p):
        out = dropout(p, 0.4, rng=np.random.default_rng(99), training=True)
        return total(mul(out, out))
    check_op(build, [(5, 5)], seed=31)


def test_grad_check_detects_nondeterminism():
    state = {"calls": 0}

    def f(params):
        state["calls"] += 1
        tape = Tape()
        p = tape.param("p", params["p"])
        return scale(total(p), float(state["calls"]))

    with pytest.raises(ValueError, match="not deterministic"):
        grad_check(f, {"p": np.ones((2, 2), dtype=np.float32)})


def test_grad_check_flags_corrupted_backward():
    def f(params):
        tape = Tape()
        p = tape.param("p", params["p"])
        out = mul(p, p)
        # corrupt the backward rule of the product node
        out.bwd = lambda g: None
        return total(out)

    report = grad_check(f, {"p": rnd(2, 2, seed=32)})
    assert not report.passed


def test_grad_check_report_summary_format():
    report = GradCheckReport(errors={"a": 2e-4, "b": 1e-5}, tol=1e-3)
    assert report.passed
    assert "PASS" in report.summary()
    assert GradCheckReport(errors={"a": 5e-3}, tol=1e-3).passed is False


def test_grad_check_eps_range_enforced():
    def f(params):
        tape = Tape()
        return total(tape.param("p", params["p"]))

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
