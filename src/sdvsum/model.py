"""Cross-modal attention network that scores video frames against a script.

Forward path: frame embeddings X (N x D) query script sentence embeddings
Y (M x D) through multi-head cross-modal attention (queries from video, keys
and values from text). Per head, attention is ``softmax(Q K^T)`` -- unscaled
by default; ``use_scaling`` divides the logits by sqrt(D) first. All heads
run as one stacked ``attention`` tape op on Q, K and V projected for every
head at once. Its output, the heads side by side, is projected by a D x D
linear, and a fixed sinusoidal positional encoding is added. Every dense
layer is one ``linear`` tape op. Training and ``make_score_fn`` hold each
block's Q/K/V fused (``fuse_heads``); checkpoints store it per head
(``split_heads``). After a dropout + layer-norm stage the frame
representations pass through one Transformer encoder block and a linear
sigmoid head, giving one importance score in (0, 1) per frame.

Two text representations are supported: ``multi_vector`` keeps all M sentence
embeddings as keys/values; ``single_vector`` first condenses the script into
one vector by concatenating T = 8 uniformly spaced sentence embeddings (a
numpy gather: embeddings are constants) and projecting to D. The condenser is
what makes the single-vector model strictly larger in parameter count.

That architecture is fixed, and so is its dropout rate. A checkpoint's config
still names them (``encoder_layers`` 1, ``scorer_head`` "direct",
``single_vector_t`` 8, ``dropout_rate`` 0.5), and a checkpoint that names
another value is refused.

Inside the encoder block, self-attention always uses the conventional
sqrt(D/H) scaling; ``use_scaling`` only governs the cross-modal stage.
Dropout, at ``DROPOUT_RATE``, is applied to attention matrices and to the
post-attention stage, nowhere else.

One forward pass can score several samples stacked along rows (a training
group): frame and sentence offsets mark each sample's rows, both attention
blocks keep every sample to its own frames and sentences, and the row-wise
layers run once for the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from . import sdve
from .autodiff import (
    Node,
    ShapeError,
    Tape,
    add,
    attention,
    dropout,
    dropout_mask,
    layer_norm,
    linear,
    matrix,
    relu,
    segment_offsets,
    sigmoid,
)
from .errors import ConfigError, DataFormatError
from .rng import Rng

__all__ = [
    "TEXT_REPS",
    "SINGLE_VECTOR_T",
    "DROPOUT_RATE",
    "scalar_fields",
    "ModelConfig",
    "tensor_shapes",
    "parameter_count",
    "init_weights",
    "positional_encoding",
    "cross_modal_attention",
    "scorer_forward",
    "model_forward",
    "score_frames",
    "make_score_fn",
    "fuse_heads",
    "split_heads",
    "attention_matrices",
    "save_checkpoint",
    "load_checkpoint",
]

TEXT_REPS = ("multi_vector", "single_vector")
SINGLE_VECTOR_T = 8   # sentences the single-vector condenser concatenates
DROPOUT_RATE = 0.5    # of the cross-modal attention matrices and the post-attention stage
# the fixed architecture and dropout rate, by the names a checkpoint's config gives them
_FIXED = {"encoder_layers": 1, "scorer_head": "direct", "single_vector_t": SINGLE_VECTOR_T,
          "dropout_rate": DROPOUT_RATE}


def scalar_fields(cls) -> dict[str, type]:
    """Name -> type of each field of ``cls`` that holds one bool, int, float or str."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        kinds = [k for k in get_args(hints[f.name]) or (hints[f.name],) if k is not type(None)]
        if len(kinds) == 1 and kinds[0] in (bool, int, float, str):
            out[f.name] = kinds[0]
    return out


@dataclass
class ModelConfig:
    dim: int = 512
    heads: int = 8
    use_scaling: bool = False
    text_rep: str = "multi_vector"
    ffn_dim: int | None = None   # None -> 4*dim

    def validate(self) -> None:
        if self.dim < 1 or self.heads < 1:
            raise ConfigError(f"dim and heads must be positive, got {self.dim}, {self.heads}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} is not divisible by heads {self.heads}")
        if self.dim % 2 != 0:
            raise ConfigError(f"dim must be even for sinusoidal positions, got {self.dim}")
        if self.text_rep not in TEXT_REPS:
            raise ConfigError(f"text_rep must be one of {TEXT_REPS}, got {self.text_rep!r}")
        if self.ffn_dim is not None and self.ffn_dim < 1:
            raise ConfigError(f"ffn_dim must be >= 1, got {self.ffn_dim}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def ffn(self) -> int:
        return 4 * self.dim if self.ffn_dim is None else self.ffn_dim

    def to_dict(self) -> dict:
        return {**asdict(self), **_FIXED}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config a checkpoint's blob names; it may name the fixed architecture."""
        d = dict(d)
        for key, fixed in _FIXED.items():
            value = d.pop(key, fixed)
            if value != fixed or type(value) is not type(fixed):
                raise ConfigError(f"{key} {value!r} is not this model's architecture "
                                  f"({key} {fixed!r})")
        kinds = scalar_fields(cls)
        unknown = set(d) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        for key, value in d.items():
            # a bool is no int; a field whose default is None (ffn_dim) may be null
            if not (type(value) is kinds[key] or value is None and getattr(cls, key) is None):
                raise ConfigError(f"model config key {key!r} needs a {kinds[key].__name__}, "
                                  f"got {value!r}")
        config = cls(**d)
        config.validate()
        return config


def _attention_block(prefix: str, config: ModelConfig) -> dict[str, tuple[int, int]]:
    d, hd = config.dim, config.head_dim
    shapes = {}
    for h in range(config.heads):
        for kind in "qkv":
            shapes[f"{prefix}.h{h}.w{kind}"] = (d, hd)
            shapes[f"{prefix}.h{h}.b{kind}"] = (1, hd)
    shapes[f"{prefix}.out.w"] = (d, d)
    shapes[f"{prefix}.out.b"] = (1, d)
    return shapes


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Fixed, ordered name -> shape map for every trainable tensor."""
    config.validate()
    d = config.dim
    shapes: dict[str, tuple[int, int]] = {}
    if config.text_rep == "single_vector":
        shapes["condenser.w"] = (SINGLE_VECTOR_T * d, d)
        shapes["condenser.b"] = (1, d)
    shapes.update(_attention_block("attn", config))
    shapes["post.ln.gain"] = (1, d)
    shapes["post.ln.bias"] = (1, d)
    shapes.update(_attention_block("enc0.attn", config))
    shapes["enc0.ln1.gain"] = (1, d)
    shapes["enc0.ln1.bias"] = (1, d)
    shapes["enc0.ffn.w1"] = (d, config.ffn)
    shapes["enc0.ffn.b1"] = (1, config.ffn)
    shapes["enc0.ffn.w2"] = (config.ffn, d)
    shapes["enc0.ffn.b2"] = (1, d)
    shapes["enc0.ln2.gain"] = (1, d)
    shapes["enc0.ln2.bias"] = (1, d)
    shapes["scorer.head.w"] = (d, 1)
    shapes["scorer.head.b"] = (1, 1)
    return shapes


def parameter_count(config: ModelConfig) -> int:
    return sum(r * c for r, c in tensor_shapes(config).values())


_XAVIER_GAIN = math.sqrt(2.0)


def init_weights(config: ModelConfig, rng: Rng) -> dict[str, np.ndarray]:
    """Xavier-uniform weights (gain sqrt(2)), biases 0.1, layer-norm gain 1 / bias 0.

    Draws come from the "init" stream in tensor_shapes order, so two inits
    with the same seed are bitwise identical.
    """
    g = rng.stream("init")
    weights = {}
    for name, (rows, cols) in tensor_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            w = np.ones((rows, cols))
        elif leaf == "bias":
            w = np.zeros((rows, cols))
        elif leaf.startswith("b"):
            w = np.full((rows, cols), 0.1)
        else:
            bound = _XAVIER_GAIN * math.sqrt(6.0 / (rows + cols))
            w = g.uniform(-bound, bound, size=(rows, cols))
        weights[name] = w.astype(np.float32)
    return weights


# dim -> read-only position table of the most rows asked for so far
_POSITIONS: dict[int, np.ndarray] = {}


def positional_encoding(n: int, dim: int) -> np.ndarray:
    """Sinusoidal position matrix: PE[p, 2i] = sin(p/10000^(2i/D)), odd cols cos.

    Read-only: the first ``n`` rows of a cached per-dimension table. Each
    entry depends only on its own position, so a row of the table is bitwise
    the row a table of any length would hold.
    """
    if dim % 2 != 0:
        raise ValueError(f"positional encoding needs an even dimension, got {dim}")
    if n < 1:
        raise ValueError(f"positional encoding needs n >= 1, got {n}")
    table = _POSITIONS.get(dim)
    if table is None or table.shape[0] < n:
        pos = np.arange(n, dtype=np.float64)[:, None]
        rate = np.power(10000.0, -np.arange(0, dim, 2, dtype=np.float64) / dim)[None, :]
        pe = np.empty((n, dim), dtype=np.float64)
        pe[:, 0::2] = np.sin(pos * rate)
        pe[:, 1::2] = np.cos(pos * rate)
        table = _POSITIONS[dim] = pe.astype(np.float32)
        table.flags.writeable = False
    return table[:n]


def _weight(weights: dict[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return weights[name]
    except KeyError:
        raise DataFormatError(f"missing weight tensor {name!r}") from None


def _p(tape: Tape, weights: dict[str, np.ndarray], name: str) -> Node:
    return tape.param(name, _weight(weights, name))


def _dense(tape: Tape, x: Node, weights, prefix: str, suffix: str = "") -> Node:
    """The ``linear`` layer of weight ``<prefix>.w<suffix>`` and bias ``<prefix>.b<suffix>``."""
    return linear(x, _p(tape, weights, f"{prefix}.w{suffix}"),
                  _p(tape, weights, f"{prefix}.b{suffix}"))


def _multi_head(tape: Tape, q_in: Node, kv_in: Node, weights, prefix: str,
                heads: int, logit_scale: float, masks=None,
                collect: list[np.ndarray] | None = None,
                q_offsets=None, k_offsets=None) -> Node:
    """Attention block: one ``linear`` per Q/K/V, over the fused ``<prefix>.w{q,k,v}`` /
    ``b{q,k,v}`` when the weights hold them, else over a checkpoint's per-head blocks."""
    joint = [_dense(tape, x, weights, prefix, kind) if f"{prefix}.w{kind}" in weights else
             linear(x, [_p(tape, weights, f"{prefix}.h{h}.w{kind}") for h in range(heads)],
                    [_p(tape, weights, f"{prefix}.h{h}.b{kind}") for h in range(heads)])
             for x, kind in ((q_in, "q"), (kv_in, "k"), (kv_in, "v"))]
    att = attention(*joint, heads, logit_scale, masks, collect, q_offsets, k_offsets)
    return _dense(tape, att, weights, f"{prefix}.out")


def cross_modal_attention(tape: Tape, x: Node, y_rep: Node, weights,
                          config: ModelConfig, masks=None,
                          collect: list[np.ndarray] | None = None,
                          x_offsets=None, y_offsets=None) -> Node:
    """Frames attend to text; heads concatenated, projected, positions added.

    Stacked samples (``x_offsets``/``y_offsets``) attend to their own text
    rows, and each sample's positions count from 0. ``masks`` are the
    per-sample attention dropout masks.
    """
    d = config.dim
    if x.shape[1] != d or y_rep.shape[1] != d:
        raise ShapeError(
            f"expected {d}-dimensional embeddings, got X {x.shape} and text {y_rep.shape}"
        )
    logit_scale = math.sqrt(d) if config.use_scaling else 1.0
    z = _multi_head(tape, x, y_rep, weights, "attn", config.heads, logit_scale,
                    masks, collect, x_offsets, y_offsets)
    bounds = segment_offsets(x_offsets, x.shape[0])
    positions = [positional_encoding(hi - lo, d) for lo, hi in zip(bounds, bounds[1:])]
    return add(z, tape.constant(np.concatenate(positions)))


def scorer_forward(tape: Tape, z: Node, weights, config: ModelConfig, offsets=None) -> Node:
    """Encoder block plus linear sigmoid head; input is the post-norm Z.

    Stacked samples (row ``offsets``) attend only to their own frames.
    """
    # the encoder block itself runs dropout-free
    att = _multi_head(tape, z, z, weights, "enc0.attn", config.heads,
                      math.sqrt(config.head_dim), q_offsets=offsets, k_offsets=offsets)
    z = layer_norm(add(z, att), _p(tape, weights, "enc0.ln1.gain"),
                   _p(tape, weights, "enc0.ln1.bias"))
    hidden = relu(_dense(tape, z, weights, "enc0.ffn", "1"))
    z = layer_norm(add(z, _dense(tape, hidden, weights, "enc0.ffn", "2")),
                   _p(tape, weights, "enc0.ln2.gain"), _p(tape, weights, "enc0.ln2.bias"))
    return sigmoid(_dense(tape, z, weights, "scorer.head"))


def _text_representation(tape: Tape, y, weights, config: ModelConfig,
                         offsets=None) -> tuple[Node, tuple[int, ...]]:
    """The text rows the frames attend to, and each sample's offsets into them.

    The one place the raw script ``y`` is checked (by ``matrix``). Single-vector
    text is one row per sample: T = 8 uniformly spaced sentences concatenated
    (in numpy) and projected to 1 x D by the condenser. Row i of a sample of M
    sentences is floor(i*M/T): the exact-fit case M=T walks every sentence
    once, M<T repeats sentences, M>T strides uniformly.
    """
    if config.text_rep == "single_vector":
        y = matrix(y)
        bounds, t = segment_offsets(offsets, y.shape[0]), SINGLE_VECTOR_T
        idx = [lo + (i * (hi - lo)) // t for lo, hi in zip(bounds, bounds[1:]) for i in range(t)]
        flat = tape.constant(y[idx].reshape(len(bounds) - 1, t * config.dim))
        return _dense(tape, flat, weights, "condenser"), tuple(range(len(bounds)))
    y = tape.constant(y)
    return y, segment_offsets(offsets, y.shape[0])


def _dropout_masks(config: ModelConfig, rng_gen, training: bool, x_offsets, y_offsets):
    """Per-sample cross-modal attention masks, and the stacked post-attention mask.

    Drawn sample by sample, each sample's (H, n, m) attention mask and then
    its (n, D) post-attention mask: the order in which a forward pass of that
    sample alone draws them, so stacking leaves the masks unchanged.
    """
    att, post = [], []
    for a, b, lo, hi in zip(x_offsets, x_offsets[1:], y_offsets, y_offsets[1:]):
        att.append(dropout_mask((config.heads, b - a, hi - lo), DROPOUT_RATE, rng_gen, training))
        post.append(dropout_mask((b - a, config.dim), DROPOUT_RATE, rng_gen, training))
    if att[0] is None:
        return None, None
    return att, np.concatenate(post)


def model_forward(tape: Tape, x, y, weights, config: ModelConfig,
                  rng_gen=None, training: bool = False,
                  x_offsets=None, y_offsets=None) -> Node:
    """Full network: text rep -> cross-modal attention -> dropout+norm -> scorer.

    ``x`` and ``y`` are arrays (embeddings are data, never differentiated).
    Returns the N x 1 score node; inference mode (training=False) is
    deterministic and needs no RNG. Samples stacked along rows are scored as
    if each ran alone: ``x_offsets`` and ``y_offsets`` are their frame and
    sentence boundaries ``(0, n1, n1 + n2, ..., N)`` (one sample by default).
    """
    x = tape.constant(x)
    x_offsets = segment_offsets(x_offsets, x.shape[0])
    y_rep, y_offsets = _text_representation(tape, y, weights, config, y_offsets)
    att_masks, post_mask = _dropout_masks(config, rng_gen, training, x_offsets, y_offsets)
    z = cross_modal_attention(tape, x, y_rep, weights, config, att_masks,
                              x_offsets=x_offsets, y_offsets=y_offsets)
    z = dropout(z, post_mask)
    z = layer_norm(z, _p(tape, weights, "post.ln.gain"), _p(tape, weights, "post.ln.bias"))
    return scorer_forward(tape, z, weights, config, x_offsets)


def score_frames(x: np.ndarray, y: np.ndarray, weights, config: ModelConfig) -> np.ndarray:
    """Inference-mode scores as a flat (N,) float32 array, on a tape that records nothing."""
    f = model_forward(Tape(grad=False), x, y, weights, config, training=False)
    return f.value[:, 0].copy()


def make_score_fn(weights, config: ModelConfig):
    """The (X, Y) -> scores function that evaluation calls, over fixed weights.

    Per-head Q/K/V tensors are joined here, once (``fuse_heads``); fused ones
    are used as given, uncopied. A caller that changes the weights in place
    must make a new function (training's validation makes one each epoch).
    """
    weights = fuse_heads(weights, config)
    return lambda x, y: score_frames(x, y, weights, config)


def _head_names(config: ModelConfig) -> dict[str, list[str]]:
    """Each fused Q/K/V tensor's name -> its per-head tensors' names, in head order."""
    blocks = [name[:-len(".h0.wq")] for name in tensor_shapes(config) if name.endswith(".h0.wq")]
    return {f"{b}.{p}{kind}": [f"{b}.h{h}.{p}{kind}" for h in range(config.heads)]
            for b in blocks for kind in "qkv" for p in "wb"}


def fuse_heads(weights, config: ModelConfig) -> dict[str, np.ndarray]:
    """``weights`` (or gradients) in the fused layout that training holds: after the
    other tensors, each block's ``<block>.wq`` ... ``.bv``, its heads' tensors joined
    along columns in head order (a fused array is used as given)."""
    fused = _head_names(config)
    per_head = {name for names in fused.values() for name in names}
    out = {name: _weight(weights, name) for name in tensor_shapes(config) if name not in per_head}
    for name, names in fused.items():
        out[name] = weights[name] if name in weights else np.concatenate(
            [_weight(weights, n) for n in names], axis=1)
    return out


def split_heads(weights, config: ModelConfig) -> dict[str, np.ndarray]:
    """``weights`` with each fused Q/K/V tensor replaced by its heads' column views."""
    hd, fused = config.head_dim, _head_names(config)
    out = {name: a for name, a in weights.items() if name not in fused}
    out.update({n: weights[name][:, h * hd:(h + 1) * hd] for name, names in fused.items()
                if name in weights for h, n in enumerate(names)})
    return out


def attention_matrices(x: np.ndarray, y: np.ndarray, weights,
                       config: ModelConfig) -> list[np.ndarray]:
    """Per-head cross-modal attention matrices A_h in inference mode."""
    tape = Tape(grad=False)
    y_rep, _ = _text_representation(tape, y, weights, config)
    collected: list[np.ndarray] = []
    cross_modal_attention(tape, tape.constant(x), y_rep, weights, config, collect=collected)
    return collected


# ---------------------------------------------------------------------------
# persistence


def _check_tensors(tensors: dict[str, np.ndarray], config: ModelConfig, where: str) -> None:
    """Names and shapes must match ``tensor_shapes(config)`` exactly."""
    expected = tensor_shapes(config)
    missing = [name for name in expected if name not in tensors]
    extra = sorted(set(tensors) - set(expected))
    if missing or extra:
        raise DataFormatError(f"{where}: missing tensors {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if tuple(tensors[name].shape) != shape:
            raise DataFormatError(
                f"{where}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}"
            )


def save_checkpoint(weights: dict[str, np.ndarray], config: ModelConfig, path) -> None:
    """Write per-head or fused weights (split by ``split_heads``) as the same SDVC bytes."""
    weights = split_heads(weights, config)
    _check_tensors(weights, config, f"cannot save {path}")
    ordered = {name: weights[name] for name in tensor_shapes(config)}
    sdve.write_checkpoint_file(config.to_dict(), ordered, path)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    blob, tensors = sdve.read_checkpoint_file(path)
    try:
        config = ModelConfig.from_dict(blob)
    except (TypeError, ValueError) as e:
        raise DataFormatError(f"checkpoint {path}: bad model config: {e}") from e
    _check_tensors(tensors, config, f"checkpoint {path}")
    return tensors, config
