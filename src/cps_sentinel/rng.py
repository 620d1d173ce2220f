"""Deterministic pseudo-random generator shared by every stochastic component.

A splitmix64 state update drives all sampling (weight init, plant noise,
dropout masks, Gaussian augmentation, k-means++ seeding, GA operators) so
that a run is reproducible from its integer seeds alone, independent of
platform or library RNG versions. The exception is `Rng.gauss_array`, the
augmentation noise: numpy's vectorized `log`, `cos` and `sin` transform its
uniforms, so its bits may differ between numpy builds.
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

    def gauss_batch(self, n: int) -> np.ndarray:
        """Exactly `[self.gauss() for _ in range(n)]`, as an array, leaving the
        generator where those draws would.

        The uniforms come in one draw. `math.log` and `math.cos` stay scalar, as
        numpy's differ in some bits; numpy's `sqrt` and products round as Python's.
        """
        u = self.uniform_array(2 * n)
        logs = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64, n)
        coss = np.fromiter(map(math.cos, ((2.0 * math.pi) * u[1::2]).tolist()), np.float64, n)
        return np.sqrt(-2.0 * logs) * coss

    def gauss_array(self, n: int) -> np.ndarray:
        """n standard normals, two per uniform pair through numpy's vectorized
        `log`, `cos` and `sin`: a different stream from `gauss()`, and unlike
        it and `gauss_batch`, one whose bits may differ between numpy builds."""
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
        """In-place Fisher-Yates over a 1-D array: the scalar stream of
        `items[i], items[j] = items[j], items[i]` with `j = randint(i + 1)` for
        i = n-1 down to 1, batched.

        The n-1 draws come in one vectorized call and reduce modulo their
        bounds in uint64. If any draw is one `randint` would reject, the
        generator is rewound and the scalar loop runs, so the permutation and
        the generator's end state are always those of the scalar loop.
        """
        if items.ndim != 1:
            raise ValueError(f"shuffle takes a 1-D array, not {items.ndim}-D")
        n = len(items)
        if n < 2:
            return
        start = self._state
        draws = self._u64_array(n - 1)
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        # randint rejects x >= 2**64 - 2**64 % bound; in uint64, -bound % bound
        # is 2**64 % bound.
        if np.any(draws > np.uint64(_MASK64) - (np.uint64(0) - bounds) % bounds):
            self._state = start
            for i in range(n - 1, 0, -1):
                j = self.randint(i + 1)
                items[i], items[j] = items[j], items[i]
            return
        values = items.tolist()
        for i, j in zip(range(n - 1, 0, -1), (draws % bounds).tolist()):
            values[i], values[j] = values[j], values[i]
        items[:] = values
