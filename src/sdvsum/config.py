"""Flat ``key = value`` run configuration covering model, training and
synthesis settings.

One namespace, one file format, no nesting: every key has a documented
default, unknown keys are rejected, and ``#`` starts a comment. Defaults
follow the reference implementation details (dim 512, heads 8, lr 5e-5,
dropout 0.5, L2 1e-4, batch 4, 50 epochs). Paths are CLI flags, not keys.

The keys are the config dataclasses' own fields: every bool, int, float or
str field of ``ModelConfig``, ``TrainConfig`` and ``SynthSpec`` is a key of
the same name and type (``int | None`` reads as ``int``), so a field added
to one of them is a key with no other edit. A key sets every field of that
name, which is how two keys fan out: ``dim`` sets both the model and the
synthetic-corpus embedding dimension (when absent each keeps its own
default: 512 for the model, 64 for synthesis); ``seed`` seeds both training
and synthesis. ``parse_config`` takes the CLI's ``--seed`` and a manifest's
dimension as arguments, so each value is checked once, at its final setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .datasets import SynthSpec
from .errors import ConfigError
from .model import ModelConfig, scalar_fields
from .training import TrainConfig

__all__ = ["RunConfig", "parse_config", "KNOWN_KEYS"]


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthSpec = field(default_factory=SynthSpec)

    def assign(self, key: str, value) -> None:
        """Set ``key`` on every section with a field of that name."""
        for section in (self.model, self.train, self.synth):
            if key in {f.name for f in fields(section)}:
                setattr(section, key, value)


_KEY_TYPES = {key: kind for cls in (ModelConfig, TrainConfig, SynthSpec)
              for key, kind in scalar_fields(cls).items()}
KNOWN_KEYS = frozenset(_KEY_TYPES)


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


def parse_config(path=None, seed: int | None = None, dim: int | None = None,
                 sections: tuple[str, ...] = ("model", "train", "synth")) -> RunConfig:
    """Parse a config file (``None``: all defaults), then validate it once.

    ``seed`` (the ``--seed`` flag) beats the file's ``seed``, which beats 42.
    ``dim`` (a manifest's dimension) sets the model's width, which the file
    may only repeat; the synthetic corpus keeps its own ``dim``. Only the
    named ``sections`` are validated, so a command checks what it uses.
    """
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
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
            values[key] = _convert(key, value, _KEY_TYPES[key], origin, lineno)

    if seed is not None:
        values["seed"] = seed
    config = RunConfig()
    for key, value in values.items():
        config.assign(key, value)
    if dim is not None:
        if values.get("dim", dim) != dim:
            raise ConfigError(f"config sets dim={values['dim']} but the manifest "
                              f"declares dimension {dim}")
        config.model.dim = dim
    for name in sections:
        getattr(config, name).validate()
    return config
