"""Flat ``key = value`` files of two kinds: a run configuration (``train``,
``ablate``) and a synthesis spec (``synth``).

One reader, no nesting: every key has a documented default, a key outside
its file's kind is rejected, and ``#`` starts a comment. Defaults follow the
reference implementation details (heads 8, lr 5e-5, 50 epochs); its dropout
0.5, L2 1e-4 and batch size 4 are no keys but constants
(``model.DROPOUT_RATE``, ``training.L2_FACTOR``, ``training.BATCH_SIZE``), as
are the corpus's ``datasets.NOISE`` and its summaries' share of the frames,
``selection.TOP_FRACTION``. Paths are CLI flags, not keys.

The keys are the config dataclasses' own fields, of the same name and type
(``int | None`` reads as ``int``), so a field added to one of them is a key
with no other edit: a run configuration's keys are every bool, int, float
or str field of ``ModelConfig`` and ``TrainConfig`` except ``dim``, a spec's
every such field of ``SynthSpec``. The model's width is no key but the
data's, passed to ``parse_config`` as ``dim``. Both parsers take the CLI's
``--seed``, which beats the file's ``seed``, which beats 42.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .datasets import SynthSpec
from .errors import ConfigError
from .model import ModelConfig, scalar_fields
from .training import TrainConfig

__all__ = ["RunConfig", "parse_config", "parse_spec", "RUN_KEYS", "SPEC_KEYS"]

_MODEL_KEYS = {key: kind for key, kind in scalar_fields(ModelConfig).items() if key != "dim"}
RUN_KEYS = {**_MODEL_KEYS, **scalar_fields(TrainConfig)}
SPEC_KEYS = scalar_fields(SynthSpec)


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig


def _convert(key: str, value: str, kind, origin: str, lineno: int):
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ValueError
            return lowered == "true"
        if kind is int:
            return int(value, 10)
        if kind is not float:
            return value
        number = float(value)
    except ValueError:
        raise ConfigError(
            f"{origin}:{lineno}: cannot read {value!r} as {kind.__name__} for key {key!r}"
        ) from None
    if not math.isfinite(number):
        raise ConfigError(f"{origin}:{lineno}: key {key!r} must be finite, got {value!r}")
    return number


def _read(path, kinds: dict[str, type], seed: int | None) -> dict[str, object]:
    """The file's values (``None``: none) for keys of ``kinds``, ``seed`` beating its own."""
    values: dict[str, object] = {}
    if path is not None:
        origin = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {origin}: {e}") from e
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            if key not in kinds:
                raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
            values[key] = _convert(key, value, kinds[key], origin, lineno)
    if seed is not None:
        values["seed"] = seed
    return values


def parse_config(path=None, seed: int | None = None, dim: int | None = None) -> RunConfig:
    """A run configuration, its model ``dim`` wide (``None``: ``ModelConfig``'s 512).

    Its training settings are validated here; its model where one is built,
    since ``ablate`` swaps in each variant's ``heads``, ``text_rep`` and
    ``use_scaling`` first.
    """
    values = _read(path, RUN_KEYS, seed)
    model = ModelConfig(**{k: v for k, v in values.items() if k in _MODEL_KEYS})
    if dim is not None:
        model.dim = dim
    train = TrainConfig(**{k: v for k, v in values.items() if k not in _MODEL_KEYS})
    train.validate()
    return RunConfig(model, train)


def parse_spec(path=None, seed: int | None = None) -> SynthSpec:
    """A synthesis spec, validated."""
    spec = SynthSpec(**_read(path, SPEC_KEYS, seed))
    spec.validate()
    return spec
