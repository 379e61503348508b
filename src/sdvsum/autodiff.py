"""Reverse-mode automatic differentiation over dense float32 matrices.

Every value is a 2-D float32 array. A :class:`Tape` records operations in
creation order, which is by construction a topological order, so the backward
sweep is a single reverse walk over the tape. Gradients are accumulated into
per-node buffers. Each ``param`` call makes one named leaf, which backward
binds to the caller's array of that name (fresh zeros by default), so several
tapes can sum into one set; a name that comes again with another shape is refused.

A tape holds its nodes only weakly, while each node holds its tape and its
parents: with no reference cycle, a tape and its nodes are freed as soon as
the caller drops the result nodes. There is no release step.

Inference runs on ``Tape(grad=False)``, which records nothing: leaves need no
gradient, an op's node keeps no parents and no backward rule, ``nodes`` stays
empty, and ``backward`` refuses to run. An intermediate is freed once read,
and ``attention``, which forms each segment's heads in blocks of at most
``ATT_BLOCK`` logits, then holds one block at a time.

The tape has nine ops, and the model runs each of them: ``linear``,
``add``, ``relu``, ``sigmoid``, ``layer_norm``, ``dropout``, ``attention``,
``bce`` and ``mse``.
Nodes that no parameter feeds into carry ``needs_grad=False`` and are skipped
during the backward sweep, so constant inputs (frame embeddings, positional
encodings, labels) cost nothing beyond their forward value.

Several samples can share one tape stacked along rows. Row-wise ops need
nothing for that; ``attention`` and the two losses, ``bce`` and ``mse``,
take segment offsets ``(0, n1, n1 + n2, ..., N)`` that keep each sample to
its own rows. A loss is one node whose value is the sum of the segments'
mean losses.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "ATT_BLOCK",
    "BCE_CLAMP",
    "ShapeError",
    "matrix",
    "Node",
    "Tape",
    "linear",
    "add",
    "relu",
    "sigmoid",
    "layer_norm",
    "segment_offsets",
    "dropout_mask",
    "dropout",
    "attention",
    "bce",
    "mse",
]

_F32 = np.float32
BCE_CLAMP = 1e-7       # float32 margin against log(0) at saturated sigmoid outputs
_LN_EPS = _F32(1e-5)   # layer_norm's variance floor
ATT_BLOCK = 1 << 18    # most logits in one block of attention heads: 1 MiB of float32


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
    tapes in one operation is an error. Each :meth:`param` call makes one named
    leaf, which :meth:`backward` binds to the gradient buffer of its name.

    ``nodes`` (weak references, creation order) keeps no node alive. A node
    that nothing reaches any more lies on no path to the loss, so the
    backward sweep loses nothing by skipping it.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.nodes: list[weakref.ref] = []
        # every registered name, so backward knows which gradient buffers it needs
        self._param_shapes: dict[str, tuple[int, int]] = {}

    def _keep(self, node: Node) -> Node:
        if self.grad:
            self.nodes.append(weakref.ref(node))
        return node

    def constant(self, value) -> Node:
        return self._keep(Node(matrix(value), (), None, False, self))

    def param(self, name: str, value) -> Node:
        """A new leaf of the named parameter, which backward binds to ``into[name]``.

        A name that comes again with another shape is a ``ShapeError``. Arrays
        that are already 2-D float32 and contiguous skip re-validation:
        parameters are checked where they are created (initialization,
        checkpoint load) or changed (training's per-epoch finiteness check),
        and one tape per training group would otherwise re-scan every weight.
        """
        if not (isinstance(value, np.ndarray) and value.dtype == _F32
                and value.ndim == 2 and value.flags.c_contiguous):
            value = matrix(value)
        shape = self._param_shapes.setdefault(name, value.shape)
        if shape != value.shape:
            raise ShapeError(f"parameter {name!r} registered as {shape}, now {value.shape}")
        return self._keep(Node(value, (), None, self.grad, self, name))

    def backward(self, loss: Node, into: dict | None = None) -> dict[str, np.ndarray]:
        """Reverse sweep from a scalar loss node, adding d(loss)/d(param) into ``into``.

        ``into`` (fresh zeros by default, and returned) maps each registered
        parameter to a float32 buffer of its shape; unreached ones keep their value.
        Each leaf of a name adds into that one buffer. An op node's gradient is
        dropped once pushed to its parents; leaves keep theirs.
        """
        if not self.grad:
            raise ValueError("backward on a tape that records nothing (grad=False)")
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
            node.grad = None if node.name is None else into[node.name]
        loss.grad = np.ones((1, 1), dtype=_F32)
        for node in reversed(live):
            if node.bwd is not None and node.grad is not None:
                node.bwd(node.grad)
                node.grad = None
        return into


def _accum(node: Node, g: np.ndarray) -> None:
    # An op node keeps its first gradient uncopied when the caller made it for
    # this call, a writeable, base-less float32 array that nothing else holds
    # (``add`` hands its g to both parents, so it copies it for one); a view is copied.
    if not node.needs_grad:
        return
    if node.grad is not None:
        node.grad += g
    elif g.base is None and g.dtype == _F32 and g.flags.writeable:
        node.grad = g
    else:
        node.grad = g.astype(_F32, copy=True)


def _op(value: np.ndarray, parents: tuple[Node, ...], bwd) -> Node:
    tape = parents[0].tape
    for p in parents[1:]:
        if p.tape is not tape:
            raise ValueError("operands belong to different tapes")
    if not tape.grad:
        return Node(value, (), None, False, tape)
    needs = any(p.needs_grad for p in parents)
    return tape._keep(Node(value, parents, bwd if needs else None, needs, tape))


# ---------------------------------------------------------------------------
# linear algebra


def _join(blocks: list[Node]) -> np.ndarray:
    return blocks[0].value if len(blocks) == 1 else np.concatenate(
        [p.value for p in blocks], axis=1)


def _split(blocks: list[Node], g: np.ndarray) -> None:
    """Push column block i of ``g`` to ``blocks[i]``."""
    lo = 0
    for p in blocks:
        if p.needs_grad:
            _accum(p, g[:, lo:lo + p.shape[1]])
        lo += p.shape[1]


def linear(x: Node, w, b) -> Node:
    """Projection x W + b, the 1-row bias b broadcast over x's rows.

    ``w`` and ``b`` are each one node or a list of column blocks (one per
    attention head, say), joined in order; backward is dx = g Wᵀ,
    dW = xᵀ g and db = Σ_rows g, split back into the blocks.
    """
    ws = w if isinstance(w, list) else [w]
    bs = b if isinstance(b, list) else [b]
    wv, bv = _join(ws), _join(bs)
    if wv.shape[0] != x.shape[1] or bv.shape != (1, wv.shape[1]):
        raise ShapeError(f"linear: x {x.shape} does not fit W {wv.shape} and b {bv.shape}")
    out = x.value @ wv
    out += bv
    w_grad, b_grad = (any(p.needs_grad for p in blocks) for blocks in (ws, bs))

    def bwd(g):
        if x.needs_grad:
            _accum(x, g @ wv.T)
        if w_grad:
            _split(ws, x.value.T @ g)
        if b_grad:
            _split(bs, g.sum(axis=0, keepdims=True))

    return _op(out, (x, *ws, *bs), bwd)


def add(a: Node, b: Node) -> Node:
    """Elementwise sum of equal-shaped operands."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, g.copy() if a.grad is g else g)

    return _op(a.value + b.value, (a, b), bwd)


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


def layer_norm(a: Node, gain: Node, bias: Node) -> Node:
    """Per-row standardization followed by a learnable affine transform."""
    cols = a.shape[1]
    if gain.shape != (1, cols) or bias.shape != (1, cols):
        raise ShapeError(
            f"layer_norm: gain/bias must be 1x{cols}, got {gain.shape} and {bias.shape}"
        )
    x = a.value
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
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


def segment_offsets(offsets, rows: int) -> tuple[int, ...]:
    """Validated segment boundaries ``(0, ..., rows)``; ``None`` is one segment."""
    if offsets is None:
        return (0, rows)
    out = tuple(int(o) for o in offsets)
    if (len(out) < 2 or out[0] != 0 or out[-1] != rows
            or any(a >= b for a, b in zip(out, out[1:]))):
        raise ShapeError(f"segment offsets {out} do not split {rows} rows into non-empty runs")
    return out


def dropout_mask(shape, rate: float, rng: np.random.Generator | None,
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


def dropout(a: Node, mask: np.ndarray | None) -> Node:
    """Multiply by a ``dropout_mask`` of a's shape; with no mask, ``a`` itself."""
    if mask is None:
        return a
    if mask.shape != a.shape:
        raise ShapeError(f"dropout: mask of shape {mask.shape} for {a.shape}")
    out = a.value * mask

    def bwd(g):
        _accum(a, g * mask)

    return _op(out, (a,), bwd)


def _rows(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def attention(q: Node, k: Node, v: Node, heads: int, logit_scale: float = 1.0,
              masks: list[np.ndarray | None] | None = None,
              collect: list[np.ndarray] | None = None,
              q_offsets=None, k_offsets=None) -> Node:
    """Multi-head attention: head h is softmax(Q_h K_hᵀ / logit_scale) V_h.

    ``q`` is N x (H*hd), ``k`` and ``v`` are M x (H*hd), and head h owns
    columns [h*hd, (h+1)*hd) of each and of the N x (H*hd) result. Softmax
    rows are divided by their float64 sums, which keeps them within a few
    float32 ulps of 1 at any length.

    With ``q_offsets`` and ``k_offsets`` (equally many segments), the query
    rows of segment s attend only to the key rows of segment s; the op runs
    each segment alone, so no cross-segment logits are formed. A segment's
    heads run in blocks of at most ``ATT_BLOCK`` logits (one head at least),
    which stay in cache; heads are independent, so no bit moves. The blocks
    are kept for backward only if q, k or v needs a gradient.
    ``masks`` holds one (H, n_s, m_s) ``dropout_mask`` per segment (or None)
    for the attention matrices; ``collect`` receives each segment's per-head
    attention matrices, before dropout.
    """
    n, width = q.shape
    m = k.shape[0]
    if heads < 1 or width % heads or k.shape[1] != width or v.shape != k.shape:
        raise ShapeError(f"attention: {heads} heads over q {q.shape}, k {k.shape}, v {v.shape}")
    qo, ko = segment_offsets(q_offsets, n), segment_offsets(k_offsets, m)
    if len(qo) != len(ko) or masks is not None and len(masks) != len(qo) - 1:
        raise ShapeError(f"attention: {len(qo) - 1} query and {len(ko) - 1} key segments, "
                         f"{'no' if masks is None else len(masks)} masks")
    hd = width // heads
    c = _F32(1.0 / logit_scale)   # at 1.0 the products below are exact
    segments, outs = [], []
    for s, (a, b, lo, hi) in enumerate(zip(qo, qo[1:], ko, ko[1:])):
        # contiguous per-head stacks: Q and V as (H, rows, hd), K as Kᵀ (H, hd, M)
        qs = np.ascontiguousarray(q.value[a:b].reshape(b - a, heads, hd).transpose(1, 0, 2))
        kts = np.ascontiguousarray(k.value[lo:hi].reshape(hi - lo, heads, hd).transpose(1, 2, 0))
        vs = np.ascontiguousarray(v.value[lo:hi].reshape(hi - lo, heads, hd).transpose(1, 0, 2))
        mask = None if masks is None else masks[s]
        if mask is not None and mask.shape != (heads, b - a, hi - lo):
            raise ShapeError(f"attention: segment {s} mask {mask.shape} for {heads, b - a, hi - lo}")
        step = max(1, ATT_BLOCK // ((b - a) * (hi - lo)))
        blocks, heads_out = [], []
        for blk in (slice(h, h + step) for h in range(0, heads, step)):
            # softmax in place on the logits: one (step, n, m) buffer, no temporaries
            att = qs[blk] @ kts[blk]
            att *= c
            att -= att.max(axis=2, keepdims=True)
            np.exp(att, out=att)
            att /= att.sum(axis=2, keepdims=True, dtype=np.float64).astype(_F32)
            if collect is not None:
                collect.extend(att)
            dropped = att if mask is None else att * mask[blk]
            heads_out.extend(dropped @ vs[blk])
            if q.needs_grad or k.needs_grad or v.needs_grad:
                blocks.append((blk, att, dropped))
            del att, dropped   # unless kept, freed before the next block's logits
        outs.append(np.concatenate(heads_out, axis=1))   # heads side by side
        segments.append((a, b, qs, kts, vs, mask, blocks))

    def bwd(g):
        gq, gk, gv = [], [], []
        for a, b, qs, kts, vs, mask, blocks in segments:
            gs = np.ascontiguousarray(g[a:b].reshape(b - a, heads, hd).transpose(1, 0, 2))
            pv, pq, pk = [], [], []
            for blk, att, dropped in blocks:
                if v.needs_grad:
                    pv.extend(dropped.transpose(0, 2, 1) @ gs[blk])
                if not (q.needs_grad or k.needs_grad):
                    continue
                d = gs[blk] @ vs[blk].transpose(0, 2, 1)
                if mask is not None:
                    d *= mask[blk]
                d -= (d * att).sum(axis=2, keepdims=True)
                d *= att
                d *= c
                if q.needs_grad:
                    pq.extend(d @ kts[blk].transpose(0, 2, 1))
                if k.needs_grad:
                    pk.append(qs[blk].transpose(0, 2, 1) @ d)
            if pv:
                gv.append(np.concatenate(pv, axis=1))
            if pq:
                gq.append(np.concatenate(pq, axis=1))
            if pk:
                gk.append(np.ascontiguousarray(_rows(pk).transpose(2, 0, 1)).reshape(-1, width))
        if gv:
            _accum(v, _rows(gv))
        if gq:
            _accum(q, _rows(gq))
        if gk:
            _accum(k, _rows(gk))

    return _op(_rows(outs), (q, k, v), bwd)


# ---------------------------------------------------------------------------
# losses


def _segment_loss(f: Node, per_row: np.ndarray, offsets, collect, pull) -> Node:
    """One 1 x 1 node: the sum over row segments of each segment's mean of ``per_row``.

    ``collect`` receives the segment means. Backward gives each entry of a
    segment of n entries the gradient g / n and adds ``pull`` of those
    gradients into ``f``.
    """
    bounds = segment_offsets(offsets, f.shape[0])
    sizes = [(hi - lo) * f.shape[1] for lo, hi in zip(bounds, bounds[1:])]
    means = np.array([[per_row[lo:hi].sum(dtype=np.float64) / size]
                      for lo, hi, size in zip(bounds, bounds[1:], sizes)], dtype=_F32)
    if collect is not None:
        collect.extend(means[:, 0].tolist())

    def bwd(g):
        full = np.empty_like(per_row)
        for lo, hi, size in zip(bounds, bounds[1:], sizes):
            full[lo:hi] = g[0, 0] / _F32(size)
        _accum(f, pull(full))

    return _op(np.array([[means.sum(dtype=np.float64)]], dtype=_F32), (f,), bwd)


def _target(f: Node, t, what: str) -> np.ndarray:
    """``t`` as a matrix of ``f``'s shape; a vector reads as a column."""
    t = matrix(np.reshape(t, (-1, 1)) if np.ndim(t) == 1 else t)
    if t.shape != f.shape:
        raise ShapeError(f"{what}: target {t.shape} for scores {f.shape}")
    return t


def bce(f: Node, y, offsets=None, collect: list[float] | None = None) -> Node:
    """Binary cross-entropy of scores ``f`` against labels ``y`` of its shape
    (or a vector of its length, read as a column).

    Scores are clipped to [BCE_CLAMP, 1 - BCE_CLAMP] before the logs; the gradient
    passes only where none was clipped. The value is the sum over row segments
    of each segment's mean loss; ``collect`` receives the means.
    """
    eps = BCE_CLAMP
    y = _target(f, y, "bce")
    x = f.value
    c = np.clip(x, _F32(eps), _F32(1.0 - eps))
    one_minus_c = c * _F32(-1) + _F32(1)
    one_minus_y = 1.0 - y

    def pull(g):
        g = -g
        return ((g * y) / c - (g * one_minus_y) / one_minus_c) * ((x >= eps) & (x <= 1.0 - eps))

    per_row = -(y * np.log(c) + one_minus_y * np.log(one_minus_c))
    return _segment_loss(f, per_row, offsets, collect, pull)


def mse(f: Node, t, offsets=None, collect: list[float] | None = None) -> Node:
    """Squared error of scores ``f`` against targets ``t`` of its shape (or a
    vector of its length, read as a column).

    The value is the sum over row segments of each segment's mean loss;
    ``collect`` receives the means.
    """
    d = f.value - _target(f, t, "mse")

    def pull(g):
        gd = g * d
        return gd + gd

    return _segment_loss(f, d * d, offsets, collect, pull)
