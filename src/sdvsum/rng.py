"""Deterministic, purpose-labeled random streams.

One experiment seed fans out into independent generators keyed by a short
string label ("init", "dropout", "data", "shuffle") plus optional integer
indices. Streams are independent of each other and of consumption order:
drawing more from one stream never shifts another, which is what makes
weight init, dropout masks and data shuffling individually reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError

__all__ = ["Rng", "check_seed"]


def check_seed(seed: int) -> None:
    """A seed must be an unsigned 64-bit integer, as ``SeedSequence`` entropy."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")


def _label_words(label: str) -> list[int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]


class Rng:
    """Root seed holder; hand out child generators by purpose."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        check_seed(seed)
        self.seed = int(seed)

    def stream(self, label: str, *indices: int) -> np.random.Generator:
        """A fresh generator for (seed, label, indices); same args, same stream."""
        entropy = [self.seed, *_label_words(label), *(int(i) for i in indices)]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"
