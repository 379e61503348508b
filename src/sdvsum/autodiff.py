"""Reverse-mode automatic differentiation over dense float32 matrices.

Every value is a 2-D float32 array. A :class:`Tape` records operations in
creation order, which is by construction a topological order, so the backward
sweep is a single reverse walk over the tape. Gradients are accumulated into
per-node buffers; a named parameter's buffer is the caller's array of that
name (fresh zeros by default), so several tapes can sum into one set.

A tape holds its nodes only weakly, while each node holds its tape and its
parents: with no reference cycle, a tape and its nodes are freed as soon as
the caller drops the result nodes. There is no release step.

Nodes that no parameter feeds into carry ``needs_grad=False`` and are skipped
during the backward sweep, so constant inputs (frame embeddings, positional
encodings, labels) cost nothing beyond their forward value.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "ShapeError",
    "matrix",
    "Node",
    "Tape",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "affine",
    "relu",
    "sigmoid",
    "log",
    "clamp",
    "layer_norm",
    "dropout",
    "attention",
    "concat_cols",
    "take_rows",
    "reshape",
    "mean_all",
]

_F32 = np.float32


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


def matrix(data) -> np.ndarray:
    """Coerce ``data`` to a finite 2-D float32 row-major array.

    Rejects anything that is not two-dimensional with positive extents, and
    any NaN/Inf entry; this is the single choke point where non-finite values
    are refused.
    """
    a = np.ascontiguousarray(data, dtype=_F32)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got array of shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"matrix extents must be positive, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf")
    return a


class Node:
    """One tape entry: a cached forward value plus a backward rule.

    ``bwd`` takes the gradient w.r.t. this node's value and pushes
    contributions into the parents' accumulators. ``needs_grad`` marks whether
    any parameter is reachable through this node.
    """

    __slots__ = ("value", "grad", "parents", "bwd", "needs_grad", "tape", "name", "__weakref__")

    def __init__(self, value, parents, bwd, needs_grad, tape, name=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.bwd = bwd
        self.needs_grad = needs_grad
        self.tape = tape
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() on non-scalar node of shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Node{tag} shape={self.shape} needs_grad={self.needs_grad}>"


class Tape:
    """Creation-ordered operation record for one forward pass.

    A tape owns all nodes created against it. Mixing nodes from different
    tapes in one operation is an error. Named parameters are registered via
    :meth:`param` and receive gradients from :meth:`backward`.

    ``nodes`` (weak references, creation order) and ``params`` keep no node
    alive. A node that nothing reaches any more lies on no path to the loss,
    so the backward sweep loses nothing by skipping it.
    """

    def __init__(self):
        self.nodes: list[weakref.ref] = []
        self.params: weakref.WeakValueDictionary[str, Node] = weakref.WeakValueDictionary()
        # every registered name, so backward knows which gradient buffers it needs
        self._param_shapes: dict[str, tuple[int, int]] = {}

    def leaf(self, value, name: str | None = None, needs_grad: bool = False) -> Node:
        node = Node(matrix(value), (), None, needs_grad, self, name)
        self.nodes.append(weakref.ref(node))
        return node

    def constant(self, value) -> Node:
        return self.leaf(value)

    def param(self, name: str, value) -> Node:
        """Register (or fetch) the unique leaf for a named parameter.

        Arrays that are already 2-D float32 and contiguous skip re-validation:
        parameters are checked where they are created (initialization,
        checkpoint load), and one tape per training sample would otherwise
        re-scan every weight on every step.
        """
        node = self.params.get(name)
        if node is None:
            if not (isinstance(value, np.ndarray) and value.dtype == _F32
                    and value.ndim == 2 and value.flags.c_contiguous):
                value = matrix(value)
            node = Node(value, (), None, True, self, name)
            self.nodes.append(weakref.ref(node))
            self.params[name] = node
            self._param_shapes[name] = value.shape
        return node

    def backward(self, loss: Node, into: dict | None = None) -> dict[str, np.ndarray]:
        """Reverse sweep from a scalar loss node, adding d(loss)/d(param) into ``into``.

        ``into`` (fresh zeros by default, and returned) maps each registered
        parameter to a float32 buffer of its shape; unreached ones keep their value.
        """
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.shape != (1, 1):
            raise ShapeError(f"backward needs a 1x1 loss node, got shape {loss.shape}")
        if into is None:
            into = {name: np.zeros(shape, dtype=_F32) for name, shape in self._param_shapes.items()}
        wrong = [name for name, shape in self._param_shapes.items()
                 if name not in into or into[name].shape != shape]
        if wrong:
            raise ShapeError(f"backward: no gradient buffer of the parameter's shape for {wrong}")
        live = [node for node in (ref() for ref in self.nodes) if node is not None]
        for node in live:
            node.grad = None
        for name, p in self.params.items():
            p.grad = into[name]
        loss.grad = np.ones((1, 1), dtype=_F32)
        for node in reversed(live):
            if node.bwd is not None and node.grad is not None:
                node.bwd(node.grad)
        return into


def _accum(node: Node, g: np.ndarray) -> None:
    if not node.needs_grad:
        return
    if node.grad is None:
        node.grad = g.astype(_F32, copy=True)
    else:
        node.grad += g


def _op(value: np.ndarray, parents: tuple[Node, ...], bwd) -> Node:
    tape = parents[0].tape
    for p in parents[1:]:
        if p.tape is not tape:
            raise ValueError("operands belong to different tapes")
    needs = any(p.needs_grad for p in parents)
    node = Node(value, parents, bwd if needs else None, needs, tape)
    tape.nodes.append(weakref.ref(node))
    return node


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Node, b: Node) -> Node:
    """Matrix product; backward is dA = g Bᵀ, dB = Aᵀ g."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    out = a.value @ b.value

    def bwd(g):
        if a.needs_grad:
            _accum(a, g @ b.value.T)
        if b.needs_grad:
            _accum(b, a.value.T @ g)

    return _op(out, (a, b), bwd)


def add(a: Node, b: Node) -> Node:
    """Elementwise sum; ``b`` may be a 1-row bias broadcast over a's rows."""
    if a.shape == b.shape:
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
    elif b.shape == (1, a.shape[1]):
        def bwd(g):
            _accum(a, g)
            if b.needs_grad:
                _accum(b, g.sum(axis=0, keepdims=True))
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _op(a.value + b.value, (a, b), bwd)


def sub(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        _accum(a, g)
        if b.needs_grad:
            _accum(b, -g)

    return _op(a.value - b.value, (a, b), bwd)


def mul(a: Node, b: Node) -> Node:
    """Hadamard product of equal-shaped operands."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        if a.needs_grad:
            _accum(a, g * b.value)
        if b.needs_grad:
            _accum(b, g * a.value)

    return _op(a.value * b.value, (a, b), bwd)


def scale(a: Node, c: float) -> Node:
    c = _F32(c)

    def bwd(g):
        _accum(a, g * c)

    return _op(a.value * c, (a,), bwd)


def affine(a: Node, alpha: float, beta: float) -> Node:
    """Elementwise alpha*a + beta."""
    alpha = _F32(alpha)

    def bwd(g):
        _accum(a, g * alpha)

    return _op(a.value * alpha + _F32(beta), (a,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a: Node) -> Node:
    # Subgradient at exactly 0 is taken as 0.
    def bwd(g):
        _accum(a, g * (a.value > 0))

    return _op(np.maximum(a.value, 0), (a,), bwd)


def sigmoid(a: Node) -> Node:
    x = a.value
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        _accum(a, g * (out * (1.0 - out)))

    return _op(out, (a,), bwd)


def log(a: Node) -> Node:
    if np.any(a.value <= 0):
        raise ValueError("log requires strictly positive input")
    out = np.log(a.value)

    def bwd(g):
        _accum(a, g / a.value)

    return _op(out, (a,), bwd)


def clamp(a: Node, lo: float, hi: float) -> Node:
    """Clip into [lo, hi]; gradient passes only where no clipping happened."""
    if not lo < hi:
        raise ValueError(f"clamp needs lo < hi, got [{lo}, {hi}]")
    out = np.clip(a.value, _F32(lo), _F32(hi))

    def bwd(g):
        _accum(a, g * ((a.value >= lo) & (a.value <= hi)))

    return _op(out, (a,), bwd)


def layer_norm(a: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
    """Per-row standardization followed by a learnable affine transform."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    cols = a.shape[1]
    if gain.shape != (1, cols) or bias.shape != (1, cols):
        raise ShapeError(
            f"layer_norm: gain/bias must be 1x{cols}, got {gain.shape} and {bias.shape}"
        )
    x = a.value
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _F32(eps))
    xhat = xc * inv
    out = xhat * gain.value + bias.value

    def bwd(g):
        if gain.needs_grad:
            _accum(gain, (g * xhat).sum(axis=0, keepdims=True))
        if bias.needs_grad:
            _accum(bias, g.sum(axis=0, keepdims=True))
        if a.needs_grad:
            dxhat = g * gain.value
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            _accum(a, inv * (dxhat - m1 - xhat * m2))

    return _op(out, (a, gain, bias), bwd)


def _dropout_mask(shape, rate: float, rng: np.random.Generator | None,
                  training: bool) -> np.ndarray | None:
    """Inverted-dropout multiplier, or None when off (inference mode or rate 0).

    When off it draws nothing, so evaluation never depends on an RNG stream.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an RNG stream")
    keep = (rng.random(shape) >= rate)
    return keep.astype(_F32) * _F32(1.0 / (1.0 - rate))


def dropout(a: Node, rate: float, rng: np.random.Generator | None = None,
            training: bool = False) -> Node:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    In inference mode (or at rate 0) this returns ``a`` itself.
    """
    m = _dropout_mask(a.shape, rate, rng, training)
    if m is None:
        return a
    out = a.value * m

    def bwd(g):
        _accum(a, g * m)

    return _op(out, (a,), bwd)


def attention(q: Node, k: Node, v: Node, heads: int, logit_scale: float = 1.0,
              rate: float = 0.0, rng: np.random.Generator | None = None,
              training: bool = False, collect: list[np.ndarray] | None = None) -> Node:
    """Multi-head attention: head h is softmax(Q_h K_hᵀ / logit_scale) V_h.

    ``q`` is N x (H*hd), ``k`` and ``v`` are M x (H*hd), and head h owns
    columns [h*hd, (h+1)*hd) of each and of the N x (H*hd) result. Softmax
    rows are divided by their float64 sums, which keeps them within a few
    float32 ulps of 1 at any length. Dropout hits the attention matrices (one
    (H, N, M) mask draw); ``collect`` receives each head's N x M attention
    matrix before dropout.
    """
    n, width = q.shape
    m = k.shape[0]
    if heads < 1 or width % heads or k.shape[1] != width or v.shape != k.shape:
        raise ShapeError(f"attention: {heads} heads over q {q.shape}, k {k.shape}, v {v.shape}")
    hd = width // heads
    # contiguous per-head stacks: Q and V as (H, rows, hd), K as Kᵀ (H, hd, M)
    qs = np.ascontiguousarray(q.value.reshape(n, heads, hd).transpose(1, 0, 2))
    kts = np.ascontiguousarray(k.value.reshape(m, heads, hd).transpose(1, 2, 0))
    vs = np.ascontiguousarray(v.value.reshape(m, heads, hd).transpose(1, 0, 2))
    c = _F32(1.0 / logit_scale)   # at 1.0 the products below are exact

    # softmax in place on the logits: one (H, N, M) buffer, no temporaries
    att = qs @ kts
    att *= c
    att -= att.max(axis=2, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=2, keepdims=True, dtype=np.float64).astype(_F32)
    if collect is not None:
        collect.extend(att)
    mask = _dropout_mask(att.shape, rate, rng, training)
    dropped = att if mask is None else att * mask
    out = np.concatenate(dropped @ vs, axis=1)   # heads side by side

    def bwd(g):
        gs = np.ascontiguousarray(g.reshape(n, heads, hd).transpose(1, 0, 2))
        if v.needs_grad:
            _accum(v, np.concatenate(dropped.transpose(0, 2, 1) @ gs, axis=1))
        if not (q.needs_grad or k.needs_grad):
            return
        d = gs @ vs.transpose(0, 2, 1)
        if mask is not None:
            d *= mask
        d -= (d * att).sum(axis=2, keepdims=True)
        d *= att
        d *= c
        if q.needs_grad:
            _accum(q, np.concatenate(d @ kts.transpose(0, 2, 1), axis=1))
        if k.needs_grad:
            dkt = qs.transpose(0, 2, 1) @ d
            _accum(k, np.ascontiguousarray(dkt.transpose(2, 0, 1)).reshape(m, width))

    return _op(out, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# shape surgery


def concat_cols(parts: list[Node]) -> Node:
    """Concatenate along columns; all parts must share the row count."""
    if not parts:
        raise ValueError("concat_cols of an empty list")
    rows = parts[0].shape[0]
    for p in parts[1:]:
        if p.shape[0] != rows:
            raise ShapeError(
                f"concat_cols: row counts differ, {parts[0].shape} vs {p.shape}"
            )
    out = np.concatenate([p.value for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.needs_grad:
                _accum(p, np.ascontiguousarray(g[:, lo:hi]))

    return _op(out, tuple(parts), bwd)


def take_rows(a: Node, indices: list[int]) -> Node:
    """Gather rows (repetition allowed); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0 or idx.min() < 0 or idx.max() >= a.shape[0]:
        raise ShapeError(f"take_rows indices {indices} outside matrix of shape {a.shape}")
    out = np.ascontiguousarray(a.value[idx])

    def bwd(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        _accum(a, full)

    return _op(out, (a,), bwd)


def reshape(a: Node, rows: int, cols: int) -> Node:
    if rows * cols != a.shape[0] * a.shape[1]:
        raise ShapeError(f"cannot reshape {a.shape} to ({rows}, {cols})")
    out = a.value.reshape(rows, cols)

    def bwd(g):
        _accum(a, g.reshape(a.shape))

    return _op(out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions


def mean_all(a: Node) -> Node:
    n = a.value.size
    out = np.array([[a.value.sum(dtype=np.float64) / n]], dtype=_F32)

    def bwd(g):
        _accum(a, np.full_like(a.value, g[0, 0] / _F32(n)))

    return _op(out, (a,), bwd)
