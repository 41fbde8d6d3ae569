"""Counter-based deterministic random stream.

The generator is splitmix64: output_i = mix64(seed + (i+1) * GOLDEN) where
GOLDEN is the 64-bit golden-ratio increment.  Streams depend only on the
seed and the draw index, never on Python's process state, so experiments
replay bit-for-bit.  Gaussian variates use Marsaglia's polar method with a
fixed rejection schedule; cross-platform stability is exact up to libm's
rounding of log (identical on any one machine; sqrt is correctly rounded).

Draws come one at a time (`next_u64`, `gaussian`) or in bulk
(`next_u64s`, `gaussians`).  A bulk draw mixes a whole array of counters
at once and leaves the stream where the same number of single draws
would, so the two can be mixed freely.
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

    def gaussians(self, count: int) -> np.ndarray:
        """The next `count` values of `gaussian`, as a float64 array, with
        the counter and the cached half of a pair left where `count` calls
        would leave them.  The candidate pairs (u, v) come from one array
        pass over the counters, in the per-call order of arithmetic, and
        the first of them inside the unit disc are taken, in order.  Each
        taken pair's log goes through `math.log`, as in `gaussian`, since
        `np.log` may round differently."""
        out = np.empty(count)
        done = 0
        if count and self._gauss_pending is not None:
            out[0], self._gauss_pending, done = self._gauss_pending, None, 1
        pairs = (count - done + 1) // 2
        kept = []
        while pairs:
            tries = _polar_tries(pairs)
            draws = self.next_u64s(2 * tries, np.arange(2 * tries))
            uv = 2.0 * ((draws >> np.uint64(11)).astype(np.float64) * 2.0**-53) - 1.0
            uv = uv.reshape(tries, 2)
            s = uv[:, 0] * uv[:, 0] + uv[:, 1] * uv[:, 1]
            taken = np.flatnonzero((0.0 < s) & (s < 1.0))[:pairs]
            if len(taken) == pairs:  # give back the tries after the last one taken
                self.counter -= 2 * (tries - 1 - int(taken[-1]))
            kept.append(uv[taken])
            pairs -= len(taken)
        if done < count:
            uv = np.concatenate(kept)
            s = uv[:, 0] * uv[:, 0] + uv[:, 1] * uv[:, 1]
            logs = np.fromiter(map(math.log, s.tolist()), dtype=np.float64, count=len(s))
            # u * factor, then v * factor, pair by pair
            values = (uv * np.sqrt(-2.0 * logs / s)[:, None]).reshape(-1)
            out[done:] = values[: count - done]
            if (count - done) % 2:
                self._gauss_pending = float(values[-1])
        return out

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


def _polar_tries(pairs: int) -> int:
    """Candidate pairs `Stream.gaussians` draws at once to take `pairs` of
    them: 4/pi tries a pair on average, and the spares make a second pass
    rare (it takes over eight standard deviations)."""
    return pairs + pairs * 2 // 7 + 5 * math.isqrt(pairs) + 8


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for a named substream (probes, folds, ...)."""
    h = seed & _MASK
    for ch in label:
        h = mix64(h ^ ord(ch))
    return h
