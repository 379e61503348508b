"""Supervised training of the frame scorer.

Two regimes share the loop; ``mode`` picks, once per run, the loss and the
validation protocol, and ``metrics.mode_pairs``, the rule evaluation scores
by, gives the samples: each (text, references) pair of a training video is
one sample whose target is the per-frame mean of its references.
``script_driven`` pairs each summary's script with its own labels, under
binary cross-entropy (``bce_loss``: the ``bce`` op, refusing labels other
than 0/1); ``generic`` pairs the description with all of them, under ``mse``.

The recipe's batch size 4 over variable-length videos is a group of up to
``BATCH_SIZE`` samples whose losses are averaged before a single Adam step,
without any padding. The group's samples are stacked along rows into one
tape: one forward pass, in which every sample attends only to its own frames
and sentences, one loss (the sum of the samples' mean losses) and one
backward.
Consecutive samples share a tape while their frames total at most
``STACK_ROWS``; a longer sample runs alone, since stacking saves nothing at
that length and costs memory. The weights, the group gradient and Adam's
moments are flat float32 buffers whose views are the named tensors, in
``model.fuse_heads``' layout (one Q, K and V tensor per attention block; the
checkpoint splits them per head). Each backward adds the sum of its samples'
gradients straight into the gradient buffer; a group (the remainder group at
epoch end included) ends in one divide by its actual size, one Adam step and
one zero-fill. L2 regularization is coupled: ``L2_FACTOR * theta`` is added
to the gradient before the Adam moments.

The validation split passes ``mode_pairs`` before anything is written.
A group runs with numpy's floating-point warnings off: a non-finite sample
loss, which is where an overflowing Adam step shows, is one ``NumericError``
naming the epoch, the sample and the Adam steps so far. After every epoch the
weights must be finite (else a ``NumericError`` before anything of that epoch
is written), and the model is scored on the validation split with dropout
disabled. Only the weights with the highest validation F-Score (earliest epoch
on ties) are kept, in one checkpoint, ``best.sdvc``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Node, Tape, bce, mse
from .datasets import DatasetManifest, LoadedVideo, load_split
from .errors import ConfigError, DataFormatError, NumericError
from .metrics import average_ground_truth, evaluate_generic, evaluate_script_driven, mode_pairs
from .model import ModelConfig, fuse_heads, init_weights, make_score_fn, model_forward
from .rng import Rng, check_seed
from .sdve import atomic_write

__all__ = [
    "TRAIN_MODES",
    "BEST_CHECKPOINT",
    "STACK_ROWS",
    "ADAM_SLICE",
    "BATCH_SIZE",
    "L2_FACTOR",
    "TrainConfig",
    "bce_loss",
    "average_ground_truth",
    "OptimizerState",
    "adam_step",
    "EpochRecord",
    "TrainReport",
    "train_run",
]

TRAIN_MODES = ("script_driven", "generic")

# the one checkpoint a run keeps, under its output directory
BEST_CHECKPOINT = "best.sdvc"

# most frames stacked into one training tape: at 512-frame samples stacking
# saved no time and raised the training memory peak by about half
STACK_ROWS = 512

# elements per pass of adam_step: 256 KB per float32 buffer, so the slices of
# the update's five buffers stay in cache between its operations
ADAM_SLICE = 1 << 16


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    epochs: int = 50
    mode: str = "script_driven"
    seed: int = 42

    def validate(self) -> None:
        # adam_step computes in float32: the step size must keep its meaning there
        with np.errstate(over="ignore"):
            lr = np.float32(self.learning_rate)
        if not 0 < lr < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite in float32, "
                              f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        check_seed(self.seed)


# ---------------------------------------------------------------------------
# losses


def bce_loss(f: Node, labels: np.ndarray, offsets=None,
             collect: list[float] | None = None) -> Node:
    """``autodiff.bce`` for strictly 0/1 labels; any other label is a ``DataFormatError``."""
    y = np.asarray(labels, dtype=np.float32)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataFormatError("bce_loss needs strictly binary labels")
    return bce(f, y, offsets, collect)


# ---------------------------------------------------------------------------
# optimizer

# the recipe's samples per Adam step and coupled L2 factor, and Adam's usual
# decay rates and epsilon: the recipe varies only the step size
BATCH_SIZE = 4
L2_FACTOR = 1e-4
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray   # adam_step's work buffer, one slice long
    step: int = 0

    @classmethod
    def for_weights(cls, w: np.ndarray) -> "OptimizerState":
        return cls(m=np.zeros_like(w), v=np.zeros_like(w),
                   scratch=np.empty(min(w.size, ADAM_SLICE), dtype=w.dtype))


def adam_step(w: np.ndarray, g: np.ndarray, state: OptimizerState,
              config: TrainConfig) -> None:
    """One in-place Adam update of ``w`` with coupled L2 on the gradient ``g``.

    ``g`` doubles as scratch and holds no gradient afterwards. Each element
    gets the float32 operations of ``g' = g + l2*w``, ``m = b1*m + (1-b1)*g'``,
    ``v = b2*v + (1-b2)*(g'*g')``, ``w -= lr*(m/c1) / (sqrt(v/c2) + eps)``.
    The update runs over ``ADAM_SLICE``-element slices; being elementwise, it
    gives the same bits as one pass over the whole buffers.
    """
    state.step += 1
    t = state.step
    b1, b2 = np.float32(ADAM_BETA1), np.float32(ADAM_BETA2)
    lr = np.float32(config.learning_rate)
    eps = np.float32(ADAM_EPS)
    l2 = np.float32(L2_FACTOR)
    c1 = np.float32(1.0 - ADAM_BETA1 ** t)
    c2 = np.float32(1.0 - ADAM_BETA2 ** t)
    for lo in range(0, w.size, ADAM_SLICE):
        hi = min(lo + ADAM_SLICE, w.size)
        ws, gs, m, v = w[lo:hi], g[lo:hi], state.m[lo:hi], state.v[lo:hi]
        s = state.scratch[:hi - lo]
        gs += np.multiply(ws, l2, out=s)
        m *= b1
        m += np.multiply(gs, 1 - b1, out=s)
        v *= b2
        v += np.multiply(np.multiply(gs, gs, out=gs), 1 - b2, out=gs)
        np.multiply(np.divide(m, c1, out=s), lr, out=s)
        np.add(np.sqrt(np.divide(v, c2, out=gs), out=gs), eps, out=gs)
        ws -= np.divide(s, gs, out=s)


# ---------------------------------------------------------------------------
# the loop


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_fscore: float

    def to_json(self) -> str:
        """The epoch's line of ``train_report.jsonl`` and of ``train``'s output."""
        return json.dumps(asdict(self))


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_fscore: float = 0.0
    checkpoint: str = BEST_CHECKPOINT   # relative to the run's output directory

    def to_json_lines(self) -> str:
        lines = [r.to_json() for r in self.epochs]
        lines.append(json.dumps({"best_epoch": self.best_epoch,
                                 "best_val_fscore": self.best_val_fscore,
                                 "checkpoint": self.checkpoint}))
        return "\n".join(lines) + "\n"


def _stacks(samples: list[tuple]):
    """Runs of consecutive samples with at most ``STACK_ROWS`` frames in all.

    A sample longer than that forms a run of its own.
    """
    run: list[tuple] = []
    rows = 0
    for sample in samples:
        n = sample[1].shape[0]
        if run and rows + n > STACK_ROWS:
            yield run
            run, rows = [], 0
        run.append(sample)
        rows += n
    if run:
        yield run


def _stacked(arrays) -> tuple[np.ndarray, list[int]]:
    """The arrays joined along rows, and the row offsets where each starts."""
    return np.concatenate(arrays), np.cumsum([0] + [a.shape[0] for a in arrays]).tolist()


def _add_gradient(stack: list[tuple], weights, grads, model_config: ModelConfig,
                  drop_gen, loss_fn) -> list[float]:
    """Add the sum of the stacked samples' gradients into ``grads``; return their losses.

    One tape runs the forward, the mode's ``loss_fn(f, target, offsets,
    collect)`` and the backward. It is freed on return, before the next
    stack's forward or the Adam step.
    """
    _, xs, ys, targets = zip(*stack)
    x, x_offsets = _stacked(xs)
    y, y_offsets = _stacked(ys)
    tape = Tape()
    f = model_forward(tape, x, y, weights, model_config, drop_gen, True, x_offsets, y_offsets)
    losses: list[float] = []
    loss = loss_fn(f, _stacked(targets)[0], x_offsets, losses)
    tape.backward(loss, into=grads)
    return losses


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each array of ``like`` as a same-shaped view of ``flat``, laid out in order."""
    parts = np.split(flat, np.cumsum([a.size for a in like.values()])[:-1])
    return {name: p.reshape(a.shape) for (name, a), p in zip(like.items(), parts)}


def train_run(manifest: DatasetManifest, model_config: ModelConfig,
              train_config: TrainConfig, out_dir, on_epoch=None,
              cache: dict[str, LoadedVideo] | None = None) -> TrainReport:
    """Train, validate each epoch, keep the best epoch's weights.

    Under ``out_dir``, an epoch that beats every earlier one overwrites
    ``BEST_CHECKPOINT``, and every epoch then rewrites ``train_report.jsonl``
    with the epochs so far. Its checkpoint field is that relative name, so
    reports are identical across output locations. ``cache`` is ``load_split``'s.
    The two are separate atomic writes, the report second: if the report write
    itself fails after a new ``BEST_CHECKPOINT``, the report on disk (an earlier
    epoch's, or an earlier run's) no longer describes that checkpoint.
    """
    # Looked up on each call, not bound at import: perfbench/tracing.py wraps
    # model.save_checkpoint and this module's evaluate_script_driven, bce_loss,
    # model_forward, load_split, init_weights and adam_step after import, and
    # its train_samples_per_s divides by the epoch minus validation and
    # checkpoint time, so a binding made at import would escape the wrapper
    # and silently change that metric.
    from .model import save_checkpoint

    model_config.validate()
    train_config.validate()
    out_dir = Path(out_dir)
    rng = Rng(train_config.seed)
    cache = {} if cache is None else cache

    mode = train_config.mode
    samples = [(v.id, v.frames, text, average_ground_truth(refs))
               for v in load_split(manifest, "train", cache) for text, refs in mode_pairs(v, mode)]
    for v in load_split(manifest, "validation", cache):
        mode_pairs(v, mode)   # what validation would refuse after the first epoch
    loss_fn, evaluate = ((mse, evaluate_generic) if mode == "generic"
                         else (bce_loss, evaluate_script_driven))

    # drawn per head, as stored, then held fused: save_checkpoint splits it again
    init = fuse_heads(init_weights(model_config, rng), model_config)
    w = np.concatenate([a.reshape(-1) for a in init.values()])
    g = np.zeros_like(w)
    weights, grads = _views(w, init), _views(g, init)
    state = OptimizerState.for_weights(w)

    report = TrainReport()
    for epoch in range(1, train_config.epochs + 1):
        order = rng.stream("shuffle", epoch).permutation(len(samples))
        drop_gen = rng.stream("dropout", epoch)

        epoch_losses: list[float] = []
        for start in range(0, len(order), BATCH_SIZE):
            group = [samples[i] for i in order[start:start + BATCH_SIZE]]
            # numpy stays silent: a blow-up is reported once, as a NumericError
            with np.errstate(all="ignore"):
                losses = [loss for stack in _stacks(group) for loss in
                          _add_gradient(stack, weights, grads, model_config, drop_gen, loss_fn)]
                bad = [vid for (vid, *_), loss in zip(group, losses) if not math.isfinite(loss)]
                if bad:   # an overflowing Adam step shows in a later loss
                    raise NumericError(
                        f"non-finite training loss at epoch {epoch}, sample {bad[0]!r}, after "
                        f"{state.step} Adam step(s); largest |weight| {float(np.abs(w).max()):.3g}")
                g /= np.float32(len(group))   # the group's actual size
                adam_step(w, g, state, train_config)
            g.fill(0)
            epoch_losses += losses
        # a blow-up mid-epoch fails the next group's loss; this catches the last update
        if not np.isfinite(w).all():
            raise NumericError(f"non-finite weights after epoch {epoch}")

        val = evaluate(make_score_fn(weights, model_config), manifest, "validation",
                       cache=cache).fscore

        record = EpochRecord(epoch, float(np.mean(epoch_losses)), val)
        report.epochs.append(record)
        out_dir.mkdir(parents=True, exist_ok=True)   # only now: a failed run writes nothing
        if not report.best_epoch or val > report.best_val_fscore:
            save_checkpoint(weights, model_config, out_dir / BEST_CHECKPOINT)
            report.best_epoch, report.best_val_fscore = epoch, val
        # after the checkpoint: a failure in a later epoch leaves the two in step
        with atomic_write(out_dir / "train_report.jsonl", "w", encoding="utf-8") as fh:
            fh.write(report.to_json_lines())
        if on_epoch is not None:
            on_epoch(record)
    return report
