"""Flat ``key = value`` run configuration covering model, training and
synthesis settings plus optional paths.

One namespace, one file format, no nesting: every key has a documented
default, unknown keys are rejected, and ``#`` starts a comment. Defaults
follow the reference implementation details (dim 512, heads 8, lr 5e-5,
dropout 0.5, L2 1e-4, batch 4, 50 epochs).

The keys are the config dataclasses' own fields: every bool, int, float or
str field of ``RunConfig``, ``ModelConfig``, ``TrainConfig`` and ``SynthSpec``
is a key of the same name and type (``int | None`` reads as ``int``), so a
field added to one of them is a key with no other edit. A key sets every
field of that name, which is how two keys fan out: ``dim`` sets both the
model and the synthetic-corpus embedding dimension (when absent each keeps
its own default: 512 for the model, 64 for synthesis); ``seed`` seeds both
training and synthesis and can be overridden by the CLI ``--seed`` flag.
"""

from __future__ import annotations

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
    manifest: str | None = None
    out: str | None = None
    seed: int = 42
    explicit: frozenset = frozenset()

    def was_set(self, key: str) -> bool:
        return key in self.explicit

    def assign(self, key: str, value) -> None:
        """Set ``key`` on this config and on every section with a field of that name."""
        for section in (self, self.model, self.train, self.synth):
            if key in {f.name for f in fields(section)}:
                setattr(section, key, value)


_KEY_TYPES = {key: kind for cls in (RunConfig, ModelConfig, TrainConfig, SynthSpec)
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
        if kind is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(
            f"{origin}:{lineno}: cannot read {value!r} as {kind.__name__} for key {key!r}"
        ) from None


def parse_config(path=None) -> RunConfig:
    """Parse a config file; ``None`` gives the all-defaults configuration."""
    values: dict[str, object] = {}
    if path is not None:
        origin = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
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

    config = RunConfig(explicit=frozenset(values))
    for key, value in values.items():
        config.assign(key, value)
    config.model.validate()
    config.train.validate()
    config.synth.validate()
    return config
