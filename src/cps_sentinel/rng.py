"""Deterministic pseudo-random generator shared by every stochastic component.

A splitmix64 state update drives all sampling (weight init, plant noise,
dropout masks, Gaussian augmentation, k-means++ seeding, GA operators) so
that a run is reproducible from its integer seeds alone, independent of
platform or library RNG versions.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_seed(*parts: int) -> int:
    """Fold integers into a single 64-bit seed, order-sensitively."""
    state = 0
    for part in parts:
        state = _mix((state + _GOLDEN + (int(part) & _MASK64)) & _MASK64)
    return state


class Rng:
    """splitmix64 generator with scalar and vectorized draws."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def _u64_array(self, n: int) -> np.ndarray:
        steps = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix_array(states)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_array(self, n: int) -> np.ndarray:
        return (self._u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_range(self, low: float, high: float) -> float:
        return low + (high - low) * self.uniform()

    def randint(self, n: int) -> int:
        """Integer in [0, n) by rejection, unbiased."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def gauss(self) -> float:
        """One standard normal via Box-Muller."""
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gauss_array(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        u = self.uniform_array(2 * pairs)
        u1 = 1.0 - u[:pairs]
        u2 = u[pairs:]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def shuffle(self, items: np.ndarray) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
