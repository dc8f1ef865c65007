"""Dense-array numerics: sigmoid, softmax, seeded initialization.

Conventions used everywhere downstream:
  - arrays are contiguous row-major numpy ndarrays with 1 to 3 axes,
    3-axis data ordered (batch, time, feature);
  - float32 for training, float64 for gradient-check mode;
  - no broadcasting tricks across modules, no autodiff: backward passes
    are written explicitly per layer.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One splitmix64 scramble step; used to turn arbitrary seeds into good states."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """xorshift64* pseudo-random stream.

    The generator is fixed and self-contained so that a given seed produces
    the same stream on every platform and library version. Instances are
    single-owner: share the values they produce, not the generator.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = _splitmix64(self.seed)
        if self._state == 0:
            self._state = _GOLDEN

    def spawn(self, stream: int) -> "Rng":
        """Derive an independent child stream; pure function of (seed, stream)."""
        return Rng(_splitmix64(self.seed ^ ((stream + 1) * _GOLDEN & _MASK64)))

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def uniform(self, low: float, high: float, shape, dtype=np.float64):
        """Uniform samples in [low, high) of the given shape: one ``random()``
        draw per element, in row-major order."""
        count = int(np.prod(shape))
        draws = np.array([self.random() for _ in range(count)], dtype=np.float64)
        out = low + (high - low) * draws
        return out.reshape(shape).astype(dtype)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n)."""
        order = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.integer(i + 1)
            order[i], order[j] = order[j], order[i]
        return order


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), computed as 0.5 * tanh(x / 2) + 0.5: tanh never
    overflows, and the steps run in place on one temporary."""
    x = np.asarray(x)
    out = np.array(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    out *= 0.5
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (max-subtracted)."""
    logits = np.asarray(logits)
    if logits.size == 0:
        raise ValueError("softmax of empty input")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def uniform_init(rng: Rng, shape, limit: float, dtype=np.float32) -> np.ndarray:
    """i.i.d. uniform entries in [-limit, +limit]; deterministic given the seed."""
    if limit <= 0:
        raise ValueError("limit must be positive")
    return rng.uniform(-limit, limit, shape=shape, dtype=dtype)
