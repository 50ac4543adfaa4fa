"""Seeded, splittable random streams.

Each consumer (masking, init, augmentation, speckle, ...) gets its own child
stream derived from the root seed and a name, so adding a consumer never
perturbs the draws of another. Draws are counter-based and stateless: a
stream is (seed, path of names), and ``at(counter)`` gives the generator for
one counter value, such as a step or a sample index. A run resumes bitwise
from its step alone, with no random state to checkpoint.
"""

from __future__ import annotations

import zlib

import numpy as np


def _name_key(name):
    return zlib.crc32(name.encode("utf-8"))


class Rng:
    """Deterministic stream keyed by (seed, path-of-names)."""

    def __init__(self, seed, _key=()):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._key = tuple(_key)

    def child(self, name):
        """Independent sub-stream; same name always yields the same stream."""
        return Rng(self.seed, self._key + (_name_key(name),))

    def at(self, counter):
        """Generator for an explicit counter (e.g. per step)."""
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=self._key + (int(counter),))
        return np.random.Generator(np.random.Philox(seq))
