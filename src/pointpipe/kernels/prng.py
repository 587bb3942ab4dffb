"""Seeded synthetic point clouds.

Uses splitmix64, a tiny language-neutral 64-bit generator, so identical
seeds give bit-identical clouds regardless of platform or numpy version.
The algorithm identifier is recorded alongside any synthetic output.
"""

from __future__ import annotations

import numpy as np

PRNG_ID = "splitmix64"

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of splitmix64 for ``seed``, as uint64.
    Whole-array ``np.uint64`` arithmetic wraps mod 2**64, as the
    generator's does, without a warning."""
    x = np.uint64(seed & _MASK) + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def unit_uniform(seed: int, count: int) -> np.ndarray:
    """``count`` doubles uniform in [0, 1): top 53 bits of each output."""
    return (splitmix64(seed, count) >> np.uint64(11)) * 2.0**-53


def synthetic_cloud(count: int, seed: int) -> np.ndarray:
    """Uniform points in the unit cube, shape (count, 3)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return unit_uniform(seed, 3 * count).reshape(count, 3)
