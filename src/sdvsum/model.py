"""Cross-modal attention network that scores video frames against a script.

Forward path: frame embeddings X (N x D) query script sentence embeddings
Y (M x D) through multi-head cross-modal attention (queries from video, keys
and values from text). Per head, attention is ``softmax(Q K^T)`` -- unscaled
by default; ``use_scaling`` divides the logits by sqrt(D) first. All heads
run as one stacked ``attention`` tape op on Q, K and V projected for every
head at once. Its output, the heads side by side, is projected by a D x D
linear, and a fixed sinusoidal positional encoding is added. After a
dropout + layer-norm stage the frame representations pass through a small
Transformer encoder stack and a sigmoid scoring head, giving one importance
score in (0, 1) per frame.

Two text representations are supported: ``multi_vector`` keeps all M sentence
embeddings as keys/values; ``single_vector`` first condenses the script into
one vector by concatenating T uniformly spaced sentence embeddings and
projecting to D. The condenser is what makes the single-vector model strictly
larger in parameter count.

Inside the encoder stack, self-attention always uses the conventional
sqrt(D/H) scaling; ``use_scaling`` only governs the cross-modal stage.
Dropout is applied to attention matrices and to the post-attention stage,
nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import sdve
from .autodiff import (
    Node,
    ShapeError,
    Tape,
    add,
    attention,
    concat_cols,
    dropout,
    layer_norm,
    matmul,
    relu,
    reshape,
    sigmoid,
    take_rows,
)
from .errors import (ConfigError, ConfigMismatchError, DataFormatError, TensorNameError,
                     TensorShapeError)
from .rng import Rng

__all__ = [
    "TEXT_REPS",
    "SCORER_HEADS",
    "ModelConfig",
    "tensor_shapes",
    "parameter_count",
    "init_weights",
    "positional_encoding",
    "condense_text",
    "cross_modal_attention",
    "scorer_forward",
    "model_forward",
    "score_frames",
    "make_score_fn",
    "attention_matrices",
    "save_checkpoint",
    "load_checkpoint",
]

TEXT_REPS = ("multi_vector", "single_vector")
SCORER_HEADS = ("direct", "hidden")


@dataclass
class ModelConfig:
    dim: int = 512
    heads: int = 8
    use_scaling: bool = False
    text_rep: str = "multi_vector"
    single_vector_t: int = 8
    dropout_rate: float = 0.5
    encoder_layers: int = 1
    ffn_dim: int | None = None   # None -> 4*dim
    scorer_head: str = "direct"

    def validate(self) -> None:
        if self.dim < 1 or self.heads < 1:
            raise ConfigError(f"dim and heads must be positive, got {self.dim}, {self.heads}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} is not divisible by heads {self.heads}")
        if self.dim % 2 != 0:
            raise ConfigError(f"dim must be even for sinusoidal positions, got {self.dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.text_rep not in TEXT_REPS:
            raise ConfigError(f"text_rep must be one of {TEXT_REPS}, got {self.text_rep!r}")
        if self.scorer_head not in SCORER_HEADS:
            raise ConfigError(f"scorer_head must be one of {SCORER_HEADS}, got {self.scorer_head!r}")
        if self.encoder_layers < 1:
            raise ConfigError(f"encoder_layers must be >= 1, got {self.encoder_layers}")
        if self.single_vector_t < 1:
            raise ConfigError(f"single_vector_t must be >= 1, got {self.single_vector_t}")
        if self.ffn_dim is not None and self.ffn_dim < 1:
            raise ConfigError(f"ffn_dim must be >= 1, got {self.ffn_dim}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def ffn(self) -> int:
        return 4 * self.dim if self.ffn_dim is None else self.ffn_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        config = cls(**d)
        config.validate()
        return config


def _attention_block(prefix: str, q_dim: int, kv_dim: int, heads: int,
                     head_dim: int, out_dim: int) -> dict[str, tuple[int, int]]:
    shapes = {}
    for h in range(heads):
        shapes[f"{prefix}.h{h}.wq"] = (q_dim, head_dim)
        shapes[f"{prefix}.h{h}.bq"] = (1, head_dim)
        shapes[f"{prefix}.h{h}.wk"] = (kv_dim, head_dim)
        shapes[f"{prefix}.h{h}.bk"] = (1, head_dim)
        shapes[f"{prefix}.h{h}.wv"] = (kv_dim, head_dim)
        shapes[f"{prefix}.h{h}.bv"] = (1, head_dim)
    shapes[f"{prefix}.out.w"] = (heads * head_dim, out_dim)
    shapes[f"{prefix}.out.b"] = (1, out_dim)
    return shapes


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Fixed, ordered name -> shape map for every trainable tensor."""
    config.validate()
    d, hd = config.dim, config.head_dim
    shapes: dict[str, tuple[int, int]] = {}
    if config.text_rep == "single_vector":
        shapes["condenser.w"] = (config.single_vector_t * d, d)
        shapes["condenser.b"] = (1, d)
    shapes.update(_attention_block("attn", d, d, config.heads, hd, d))
    shapes["post.ln.gain"] = (1, d)
    shapes["post.ln.bias"] = (1, d)
    for l in range(config.encoder_layers):
        shapes.update(_attention_block(f"enc{l}.attn", d, d, config.heads, hd, d))
        shapes[f"enc{l}.ln1.gain"] = (1, d)
        shapes[f"enc{l}.ln1.bias"] = (1, d)
        shapes[f"enc{l}.ffn.w1"] = (d, config.ffn)
        shapes[f"enc{l}.ffn.b1"] = (1, config.ffn)
        shapes[f"enc{l}.ffn.w2"] = (config.ffn, d)
        shapes[f"enc{l}.ffn.b2"] = (1, d)
        shapes[f"enc{l}.ln2.gain"] = (1, d)
        shapes[f"enc{l}.ln2.bias"] = (1, d)
    if config.scorer_head == "hidden":
        shapes["scorer.hidden.w"] = (d, d)
        shapes["scorer.hidden.b"] = (1, d)
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


def positional_encoding(n: int, dim: int) -> np.ndarray:
    """Sinusoidal position matrix: PE[p, 2i] = sin(p/10000^(2i/D)), odd cols cos."""
    if dim % 2 != 0:
        raise ValueError(f"positional encoding needs an even dimension, got {dim}")
    if n < 1:
        raise ValueError(f"positional encoding needs n >= 1, got {n}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    rate = np.power(10000.0, -np.arange(0, dim, 2, dtype=np.float64) / dim)[None, :]
    pe = np.empty((n, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(pos * rate)
    pe[:, 1::2] = np.cos(pos * rate)
    return pe.astype(np.float32)


def _p(tape: Tape, weights: dict[str, np.ndarray], name: str) -> Node:
    try:
        value = weights[name]
    except KeyError:
        raise TensorNameError(f"missing weight tensor {name!r}") from None
    return tape.param(name, value)


def _multi_head(tape: Tape, q_in: Node, kv_in: Node, weights, prefix: str,
                heads: int, logit_scale: float, drop: float, rng_gen, training: bool,
                collect: list[np.ndarray] | None = None) -> Node:
    """Attention block; one matmul per Q/K/V against all heads' weights side by side."""
    joint = []
    for x, kind in ((q_in, "q"), (kv_in, "k"), (kv_in, "v")):
        w = concat_cols([_p(tape, weights, f"{prefix}.h{h}.w{kind}") for h in range(heads)])
        b = concat_cols([_p(tape, weights, f"{prefix}.h{h}.b{kind}") for h in range(heads)])
        joint.append(add(matmul(x, w), b))
    att = attention(*joint, heads, logit_scale, drop, rng_gen, training, collect)
    return add(matmul(att, _p(tape, weights, f"{prefix}.out.w")),
               _p(tape, weights, f"{prefix}.out.b"))


def condense_text(tape: Tape, y: Node, weights, config: ModelConfig) -> Node:
    """Concatenate T uniformly spaced sentence embeddings and project to 1 x D.

    Row i of the sample is floor(i*M/T): the exact-fit case M=T walks every
    sentence once, M<T repeats sentences, M>T strides uniformly.
    """
    if config.text_rep != "single_vector":
        raise ConfigError("condense_text is only defined for text_rep='single_vector'")
    m, t = y.shape[0], config.single_vector_t
    idx = [(i * m) // t for i in range(t)]
    flat = reshape(take_rows(y, idx), 1, t * config.dim)
    return add(matmul(flat, _p(tape, weights, "condenser.w")),
               _p(tape, weights, "condenser.b"))


def cross_modal_attention(tape: Tape, x: Node, y_rep: Node, weights,
                          config: ModelConfig, rng_gen=None, training: bool = False,
                          collect: list[np.ndarray] | None = None) -> Node:
    """Frames attend to text; heads concatenated, projected, positions added."""
    d = config.dim
    if x.shape[1] != d or y_rep.shape[1] != d:
        raise ShapeError(
            f"expected {d}-dimensional embeddings, got X {x.shape} and text {y_rep.shape}"
        )
    logit_scale = math.sqrt(d) if config.use_scaling else 1.0
    z = _multi_head(tape, x, y_rep, weights, "attn", config.heads, logit_scale,
                    config.dropout_rate, rng_gen, training, collect)
    return add(z, tape.constant(positional_encoding(x.shape[0], d)))


def scorer_forward(tape: Tape, z: Node, weights, config: ModelConfig,
                   rng_gen=None, training: bool = False) -> Node:
    """Encoder stack plus sigmoid scoring head; input is the post-norm Z."""
    d = config.dim
    for l in range(config.encoder_layers):
        # the encoder layer itself runs dropout-free; the rate applies to the
        # cross-modal attention matrices and the post-attention stage only
        att = _multi_head(tape, z, z, weights, f"enc{l}.attn", config.heads,
                          math.sqrt(config.head_dim), 0.0, rng_gen, training)
        z = layer_norm(add(z, att),
                       _p(tape, weights, f"enc{l}.ln1.gain"),
                       _p(tape, weights, f"enc{l}.ln1.bias"))
        hidden = relu(add(matmul(z, _p(tape, weights, f"enc{l}.ffn.w1")),
                          _p(tape, weights, f"enc{l}.ffn.b1")))
        ffn = add(matmul(hidden, _p(tape, weights, f"enc{l}.ffn.w2")),
                  _p(tape, weights, f"enc{l}.ffn.b2"))
        z = layer_norm(add(z, ffn),
                       _p(tape, weights, f"enc{l}.ln2.gain"),
                       _p(tape, weights, f"enc{l}.ln2.bias"))
    if config.scorer_head == "hidden":
        z = relu(add(matmul(z, _p(tape, weights, "scorer.hidden.w")),
                     _p(tape, weights, "scorer.hidden.b")))
    logits = add(matmul(z, _p(tape, weights, "scorer.head.w")),
                 _p(tape, weights, "scorer.head.b"))
    return sigmoid(logits)


def _text_representation(tape: Tape, y: Node, weights, config: ModelConfig) -> Node:
    if config.text_rep == "single_vector":
        return condense_text(tape, y, weights, config)
    return y


def model_forward(tape: Tape, x, y, weights, config: ModelConfig,
                  rng_gen=None, training: bool = False) -> Node:
    """Full network: text rep -> cross-modal attention -> dropout+norm -> scorer.

    ``x`` and ``y`` may be arrays or existing nodes on ``tape``. Returns the
    N x 1 score node; inference mode (training=False) is deterministic and
    needs no RNG.
    """
    if not isinstance(x, Node):
        x = tape.constant(x)
    if not isinstance(y, Node):
        y = tape.constant(y)
    y_rep = _text_representation(tape, y, weights, config)
    z = cross_modal_attention(tape, x, y_rep, weights, config, rng_gen, training)
    z = dropout(z, config.dropout_rate, rng_gen, training)
    z = layer_norm(z, _p(tape, weights, "post.ln.gain"), _p(tape, weights, "post.ln.bias"))
    return scorer_forward(tape, z, weights, config, rng_gen, training)


def score_frames(x: np.ndarray, y: np.ndarray, weights, config: ModelConfig) -> np.ndarray:
    """Inference-mode scores as a flat (N,) float32 array."""
    tape = Tape()
    f = model_forward(tape, x, y, weights, config, training=False)
    return f.value[:, 0].copy()


def make_score_fn(weights, config: ModelConfig):
    """Close over fixed weights; the resulting (X, Y) -> scores feeds evaluation."""
    return lambda x, y: score_frames(x, y, weights, config)


def attention_matrices(x: np.ndarray, y: np.ndarray, weights,
                       config: ModelConfig) -> list[np.ndarray]:
    """Per-head cross-modal attention matrices A_h in inference mode."""
    tape = Tape()
    y_rep = _text_representation(tape, tape.constant(y), weights, config)
    collected: list[np.ndarray] = []
    cross_modal_attention(tape, tape.constant(x), y_rep, weights, config,
                          training=False, collect=collected)
    return collected


# ---------------------------------------------------------------------------
# persistence


def _check_tensors(tensors: dict[str, np.ndarray], config: ModelConfig, where: str) -> None:
    """Names and shapes must match ``tensor_shapes(config)`` exactly."""
    expected = tensor_shapes(config)
    missing = [name for name in expected if name not in tensors]
    extra = sorted(set(tensors) - set(expected))
    if missing or extra:
        raise TensorNameError(f"{where}: missing tensors {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if tuple(tensors[name].shape) != shape:
            raise TensorShapeError(
                f"{where}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}"
            )


def save_checkpoint(weights: dict[str, np.ndarray], config: ModelConfig, path) -> None:
    _check_tensors(weights, config, f"cannot save {path}")
    ordered = {name: weights[name] for name in tensor_shapes(config)}
    sdve.write_checkpoint_file(config.to_dict(), ordered, path)


def load_checkpoint(path, expect: ModelConfig | None = None
                    ) -> tuple[dict[str, np.ndarray], ModelConfig]:
    blob, tensors = sdve.read_checkpoint_file(path)
    try:
        config = ModelConfig.from_dict(blob)
    except (TypeError, ValueError) as e:
        raise DataFormatError(f"checkpoint {path}: bad model config: {e}") from e
    if expect is not None and expect.to_dict() != config.to_dict():
        raise ConfigMismatchError(
            f"checkpoint {path} was written with config {config.to_dict()}, "
            f"expected {expect.to_dict()}"
        )
    _check_tensors(tensors, config, f"checkpoint {path}")
    return tensors, config
