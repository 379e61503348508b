"""Supervised training of the frame scorer.

Two regimes share the loop. ``script_driven`` treats every (video, reference
summary) pair as one sample and minimizes per-frame binary cross-entropy
against that summary's labels. ``generic`` uses one sample per video: the
full-video description embedding conditions the model and the target is the
per-frame mean of all reference summaries, under mean squared error.

"Batch size 4" over variable-length videos is gradient accumulation: losses
of up to ``batch_size`` samples are averaged before a single Adam step, which
is mathematically the batched update without any padding or masking. The
remainder group at epoch end still steps (averaged over its actual size).
L2 regularization is coupled: ``l2_factor * theta`` is added to the gradient
before the Adam moments.

After every epoch the model is scored on the validation split with dropout
disabled; the checkpoint with the highest validation F-Score (earliest epoch
on ties) is selected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import (
    Node,
    ShapeError,
    Tape,
    add,
    affine,
    clamp,
    log,
    mean_all,
    mul,
    scale,
    sub,
)
from .datasets import DatasetManifest, LoadedVideo, load_split
from .errors import ConfigError, LabelError, ManifestError, NumericError
from .metrics import average_ground_truth, evaluate_generic, evaluate_script_driven
from .model import ModelConfig, init_weights, make_score_fn, model_forward
from .rng import Rng

__all__ = [
    "TRAIN_MODES",
    "BCE_CLAMP",
    "TrainConfig",
    "bce_loss",
    "mse_loss",
    "average_ground_truth",
    "OptimizerState",
    "adam_step",
    "EpochRecord",
    "TrainReport",
    "train_run",
]

TRAIN_MODES = ("script_driven", "generic")

# float32 safety margin against log(0) at saturated sigmoid outputs
BCE_CLAMP = 1e-7


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    l2_factor: float = 1e-4
    batch_size: int = 4
    epochs: int = 50
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    mode: str = "script_driven"
    seed: int = 42

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2_factor < 0:
            raise ConfigError(f"l2_factor must be >= 0, got {self.l2_factor}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


# ---------------------------------------------------------------------------
# losses


def _as_column(values: np.ndarray, n: int, what: str) -> np.ndarray:
    a = np.asarray(values, dtype=np.float32)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.shape != (n, 1):
        raise ShapeError(f"{what} has shape {a.shape}, expected ({n}, 1)")
    return a


def bce_loss(f: Node, labels: np.ndarray) -> Node:
    """Mean binary cross-entropy of scores against 0/1 labels.

    Scores are clamped to [1e-7, 1 - 1e-7] before the logs, so a saturated
    sigmoid cannot produce log(0).
    """
    n = f.shape[0]
    y = _as_column(labels, n, "labels")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise LabelError("bce_loss needs strictly binary labels")
    tape = f.tape
    c = clamp(f, BCE_CLAMP, 1.0 - BCE_CLAMP)
    pos = mul(tape.constant(y), log(c))
    neg = mul(tape.constant(1.0 - y), log(affine(c, -1.0, 1.0)))
    return scale(mean_all(add(pos, neg)), -1.0)


def mse_loss(f: Node, target: np.ndarray) -> Node:
    """Mean squared error of scores against real-valued targets in [0, 1]."""
    n = f.shape[0]
    t = _as_column(target, n, "target")
    diff = sub(f, f.tape.constant(t))
    return mean_all(mul(diff, diff))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_weights(cls, weights: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(w) for k, w in weights.items()},
            v={k: np.zeros_like(w) for k, w in weights.items()},
        )


def adam_step(weights: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptimizerState, config: TrainConfig) -> None:
    """One in-place Adam update with coupled L2 on the gradients."""
    state.step += 1
    t = state.step
    b1, b2 = np.float32(config.adam_beta1), np.float32(config.adam_beta2)
    lr = np.float32(config.learning_rate)
    eps = np.float32(config.adam_eps)
    c1 = np.float32(1.0 - config.adam_beta1 ** t)
    c2 = np.float32(1.0 - config.adam_beta2 ** t)
    for name, w in weights.items():
        g = grads[name] + np.float32(config.l2_factor) * w
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        w -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# ---------------------------------------------------------------------------
# the loop


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_fscore: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_fscore: float = 0.0
    checkpoint: str = ""

    def to_json_lines(self) -> str:
        lines = [
            json.dumps({"epoch": r.epoch, "train_loss": r.train_loss,
                        "val_fscore": r.val_fscore})
            for r in self.epochs
        ]
        lines.append(json.dumps({"best_epoch": self.best_epoch,
                                 "best_val_fscore": self.best_val_fscore,
                                 "checkpoint": self.checkpoint}))
        return "\n".join(lines) + "\n"


def _generic_samples(videos: list[LoadedVideo]) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    samples = []
    for v in videos:
        if v.description is None:
            raise ManifestError(f"video {v.id!r}: generic mode needs a description embedding")
        target = average_ground_truth([s.labels for s in v.summaries])
        samples.append((v.id, v.frames, v.description, target))
    return samples


def train_run(manifest: DatasetManifest, model_config: ModelConfig,
              train_config: TrainConfig, out_dir, on_epoch=None) -> TrainReport:
    """Train, validate each epoch, checkpoint each epoch, select the best.

    Writes ``epoch_XXX.sdvc`` per epoch plus ``train_report.jsonl`` under
    ``out_dir``. The report's checkpoint field is the best epoch's file name
    relative to ``out_dir``, so reports are identical across output locations.
    """
    # Looked up on each call, not bound at import: perfbench/tracing.py wraps
    # model.save_checkpoint and this module's evaluate_script_driven to split
    # an epoch's time, and its train_samples_per_s divides by the epoch minus
    # validation and checkpoint time, so a binding made at import would
    # escape the wrapper and silently change that metric.
    from .model import save_checkpoint

    model_config.validate()
    train_config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = Rng(train_config.seed)
    cache: dict[str, LoadedVideo] = {}

    train_videos = load_split(manifest, "train", cache)
    if not train_videos:
        raise ManifestError("train split is empty")
    if not manifest.split_videos("validation"):
        raise ManifestError("validation split is empty")

    weights = init_weights(model_config, rng)
    state = OptimizerState.for_weights(weights)
    generic = train_config.mode == "generic"

    if generic:
        base_samples = _generic_samples(train_videos)
    else:
        base_samples = [
            (v.id, v.frames, s.script, s.labels)
            for v in train_videos for s in v.summaries
        ]

    report = TrainReport()
    best = (-1.0, 0)
    for epoch in range(1, train_config.epochs + 1):
        order = rng.stream("shuffle", epoch).permutation(len(base_samples))
        drop_gen = rng.stream("dropout", epoch)

        epoch_losses: list[float] = []
        group_grads: dict[str, np.ndarray] | None = None
        group_size = 0

        def flush_group():
            nonlocal group_grads, group_size
            if group_size == 0:
                return
            averaged = {k: g / np.float32(group_size) for k, g in group_grads.items()}
            adam_step(weights, averaged, state, train_config)
            group_grads = None
            group_size = 0

        for i in order:
            vid, x, y, target = base_samples[i]
            tape = Tape()
            f = model_forward(tape, x, y, weights, model_config,
                              rng_gen=drop_gen, training=True)
            loss = mse_loss(f, target) if generic else bce_loss(f, target)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, sample {vid!r}"
                )
            epoch_losses.append(value)
            grads = tape.backward(loss)
            if group_grads is None:
                group_grads = grads
            else:
                for k in group_grads:
                    group_grads[k] += grads[k]
            group_size += 1
            if group_size == train_config.batch_size:
                flush_group()
        flush_group()

        score_fn = make_score_fn(weights, model_config)
        if generic:
            val = evaluate_generic(score_fn, manifest, "validation", cache=cache).fscore
        else:
            val = evaluate_script_driven(score_fn, manifest, "validation", cache=cache).fscore

        name = f"epoch_{epoch:03d}.sdvc"
        save_checkpoint(weights, model_config, out_dir / name)
        record = EpochRecord(epoch=epoch, train_loss=float(np.mean(epoch_losses)),
                             val_fscore=val)
        report.epochs.append(record)
        if val > best[0]:
            best = (val, epoch)
            report.best_epoch = epoch
            report.best_val_fscore = val
            report.checkpoint = name
        if on_epoch is not None:
            on_epoch(record)

    (out_dir / "train_report.jsonl").write_text(report.to_json_lines(), encoding="utf-8")
    return report
