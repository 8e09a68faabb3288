"""Portable deterministic random numbers.

Every random choice in this package (bootstrap resampling, per-node feature
subsets, low-Kp downsampling, synthetic data) flows through ``PortableRng``,
a SplitMix64 generator.  The state transition is 64-bit integer arithmetic
only, so a given seed yields bit-identical output on every platform and
Python/numpy version — which is what lets tests pin exact values and lets
``--threads N`` never change a result.

State transition (all arithmetic mod 2**64)::

    state <- state + 0x9E3779B97F4A7C15
    z <- state
    z <- (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z <- (z ^ (z >> 27)) * 0x94D049BB133111EB
    output <- z ^ (z >> 31)

``block(count)`` produces exactly the same values as ``count`` scalar calls;
vectorised consumers and scalar consumers therefore share one stream
definition.  Uniform floats are ``(u64 >> 11) * 2**-53`` (exact in float64).
Integer draws use plain ``u64 % n``: the modulo bias is below ``n / 2**64``
and irrelevant here, and keeping one draw per value makes the scalar and
block paths trivially identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PortableRng", "derive_seed"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Derive a child seed from ``seed`` and a tuple of integer keys.

    Used to fan a single user-facing seed out to independent streams
    (per-tree streams, the downsampling stream, the synthetic-data streams)
    without the streams overlapping.
    """
    acc = _finalize(seed & _MASK)
    for key in keys:
        acc = _finalize((acc ^ _finalize((key & _MASK) ^ _GOLDEN)) & _MASK)
    return acc


class PortableRng:
    """SplitMix64 stream with matching scalar and vectorised draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    @property
    def state(self) -> int:
        """The 64-bit state; the next draw continues from it."""
        return self._state

    # -- raw 64-bit draws --------------------------------------------------

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _finalize(self._state)

    def block_u64(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array.

        Equivalent to ``count`` calls of :meth:`next_u64`: state after a
        block of ``k`` equals state after ``k`` scalar draws.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)  # wraps mod 2**64
        self._state = (self._state + _GOLDEN * count) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    # -- uniforms ----------------------------------------------------------

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def block_random(self, count: int) -> np.ndarray:
        return (self.block_u64(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    # -- bounded integers --------------------------------------------------

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def block_below(self, n: int, count: int) -> np.ndarray:
        """``count`` integers in [0, n), one u64 draw per value."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.block_u64(count) % np.uint64(n)).astype(np.int64)

    # -- derived draws -----------------------------------------------------

    def subset(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct indices from ``range(n)``, ascending.

        Defined as: draw one u64 key per index, keep the ``k`` smallest keys
        (stable order on ties).  One vectorised pass, uniform over subsets.
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        keys = self.block_u64(n)
        chosen = np.argsort(keys, kind="stable")[:k]
        chosen.sort()
        return chosen

    def block_noise(self, count: int) -> np.ndarray:
        """Zero-mean, unit-variance noise: sum of 12 uniforms minus 6.

        Irwin–Hall approximation to a Gaussian; uses only additions, so the
        result is exactly reproducible everywhere (no libm involved).
        """
        u = self.block_random(12 * count).reshape(12, count)
        acc = u[0].copy()
        for i in range(1, 12):  # fixed summation order, platform-stable
            acc += u[i]
        return acc - 6.0
