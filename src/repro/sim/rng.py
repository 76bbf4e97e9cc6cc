"""Seeded random-number streams.

Every source of randomness in a simulation must come through a named
stream from the :class:`RngRegistry`, so that (a) runs are reproducible
from a single root seed and (b) adding randomness to one subsystem does
not perturb the stream seen by another (stream independence is derived
from stable hashing of the stream name, not from draw order).
"""

from __future__ import annotations

import hashlib
import random


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A family of independent, named ``random.Random`` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name`` (created on first use)."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.root_seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RngRegistry":
        """A child registry whose root seed is derived from ``name``."""
        return RngRegistry(_derive_seed(self.root_seed, name))

    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)

    def choice(self, name: str, seq):
        return self.stream(name).choice(seq)

    def bernoulli(self, name: str, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self.stream(name).random() < p
