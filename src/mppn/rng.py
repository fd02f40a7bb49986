"""Seeded splitmix64 generator used for every random choice in the toolkit.

The generator is self-contained so that parameter initialization, batch
shuffling, and synthetic data are bit-reproducible regardless of the numpy
version in use.  Streams are separated by deriving child seeds from string
tags, never by sharing one generator across concerns.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray) -> np.ndarray:
    # finalizer of splitmix64, vectorized over uint64 arrays
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *tags: int | str) -> int:
    """Fold tags into a base seed, giving an independent child seed.

    String tags are hashed with blake2b so the derivation is stable across
    processes and Python versions.
    """
    state = seed & _MASK
    for tag in tags:
        if isinstance(tag, str):
            tag = int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "little")
        state = (state + _GAMMA) & _MASK
        state ^= _mix_int(tag & _MASK)
        state = _mix_int(state)
    return state


class SplitMix64:
    """Deterministic 64-bit PRNG with a vectorized output path."""

    def __init__(self, seed: int):
        self._state = np.uint64(seed & _MASK)

    def _raw(self, n: int) -> np.ndarray:
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        block = self._state + steps  # uint64 arithmetic wraps
        self._state = block[-1] if n else self._state
        return _mix(block)

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1)."""
        return (self._raw(n) >> np.uint64(11)) * 2.0**-53

    def uniform(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        return (low + self.uniform01(n) * (high - low)).reshape(shape)

    def normal(self, shape: tuple[int, ...], sd: float = 1.0) -> np.ndarray:
        """Box-Muller gaussians with the requested standard deviation."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = 1.0 - self.uniform01(m)  # (0, 1], keeps log finite
        u2 = self.uniform01(m)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return (sd * z[:n]).reshape(shape)

    def integers(self, bound: int, n: int) -> np.ndarray:
        if bound <= 0:
            raise ValueError(f"integers: bound must be positive, got {bound}")
        return (self._raw(n) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        out = np.arange(n, dtype=np.int64)
        if n < 2:
            return out
        draws = self._raw(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(draws[n - 1 - i] % np.uint64(i + 1))
            out[i], out[j] = out[j], out[i]
        return out


def seeded_parameters(shapes: dict[str, tuple[int, ...]], seed: int,
                      tag: str) -> dict[str, np.ndarray]:
    """Initial values of a model's parameters, drawn from the stream
    ``derive(seed, tag)`` in the order of ``shapes`` (name -> shape).

    A parameter named ``*weight`` is uniform in +-1/sqrt(fan_in), its
    fan-in being the rows of an [in, out] matrix or in*k of an
    [out, in, k] kernel; every other parameter (biases, gate logits)
    starts at zero and draws nothing.
    """
    rng = SplitMix64(derive(seed, tag))
    arrays = {}
    for name, shape in shapes.items():
        if name.endswith("weight"):
            bound = 1.0 / math.sqrt(shape[0] if len(shape) == 2 else math.prod(shape[1:]))
            arrays[name] = rng.uniform(-bound, bound, shape)
        else:
            arrays[name] = np.zeros(shape)
    return arrays
