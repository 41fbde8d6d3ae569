"""Counter-based deterministic random stream.

The generator is splitmix64: output_i = mix64(seed + (i+1) * GOLDEN) where
GOLDEN is the 64-bit golden-ratio increment.  Streams depend only on the
seed and the draw index, never on Python's process state, so experiments
replay bit-for-bit.  Gaussian variates use Marsaglia's polar method with a
fixed rejection schedule; cross-platform stability is exact up to libm's
rounding of log/sqrt (identical on any one machine).
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(z):
    """The splitmix64 finaliser of a Python int, or of every entry of a
    uint64 array, which it may overwrite (numpy's arithmetic wraps mod
    2**64)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


class Stream:
    """Sequential view of the counter-based stream for one 64-bit seed."""

    __slots__ = ("seed", "counter", "_gauss_pending")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0
        self._gauss_pending: float | None = None

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * _GOLDEN) & _MASK)

    def next_u64s(self, count: int, at: np.ndarray) -> np.ndarray:
        """The draws at the 0-based positions `at` among the next `count`,
        as a uint64 array: what `next_u64` would return at those calls.
        The stream moves past all `count` draws."""
        counters = at.astype(np.uint64) + np.uint64(self.counter + 1)
        self.counter += count
        return mix64(counters * np.uint64(_GOLDEN) + np.uint64(self.seed))

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        """Standard normal via the polar method (pairs cached)."""
        if self._gauss_pending is not None:
            z = self._gauss_pending
            self._gauss_pending = None
            return z
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                factor = math.sqrt(-2.0 * math.log(s) / s)
                self._gauss_pending = v * factor
                return u * factor


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for a named substream (probes, folds, ...)."""
    h = seed & _MASK
    for ch in label:
        h = mix64(h ^ ord(ch))
    return h
