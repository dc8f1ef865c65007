"""Dense-array numerics: the seeded random stream, softmax, initialization.

Conventions used everywhere downstream:
  - arrays are row-major numpy ndarrays, sequence data ordered
    (batch, time, feature), with stack axes in front at inference;
  - float32 for training, float64 for gradient-check mode;
  - no broadcasting tricks across modules, no autodiff: backward passes
    are written explicitly per layer.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULTIPLIER = 0x2545F4914F6CDD1D


def _splitmix64(x: int) -> int:
    """One splitmix64 scramble step; used to turn arbitrary seeds into good states."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _xorshift(x: int) -> int:
    """One xorshift64 state step."""
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    return x ^ (x >> 27)


# The state step is linear over GF(2): a 64x64 bit matrix, stored as its 64
# columns (the images of the single-bit states). _JUMPS[j] is that matrix to
# the power 2^j, each entry the square of the one before: 2^j state steps in
# one table read, built once at import and read-only. Shift counts are
# uint64, so numpy 1.x value-based casting and NEP 50 agree on the result
# type; the operands are arrays, never numpy scalars, which warn where arrays
# wrap.
_SHIFT = np.arange(64, dtype=np.uint64)
_ARRAY_MULTIPLIER = np.array(_MULTIPLIER, dtype=np.uint64)


def _apply(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``matrix`` (64 columns) times each state: the xor of the columns whose
    bit is set, kept by multiplying each column by its bit. A matrix applied
    to another's columns is their product."""
    bits = np.unpackbits(states.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return np.bitwise_xor.reduce(matrix * bits.reshape(-1, 64), axis=1)


_JUMPS = [np.array([_xorshift(1 << k) for k in range(64)], dtype=np.uint64)]
for _ in range(63):
    _JUMPS.append(_apply(_JUMPS[-1], _JUMPS[-1]))
for _jump in _JUMPS:
    _jump.flags.writeable = False
_JUMPS = tuple(_JUMPS)


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
        self._state = _xorshift(self._state)
        return (self._state * _MULTIPLIER) & _MASK64

    def next_u64_array(self, n: int) -> np.ndarray:
        """The next ``n`` ``next_u64`` outputs as a uint64 array, leaving the
        generator where ``n`` calls would.

        The stream is cut into lanes of 2^a consecutive states, a from ``n``'s
        bit length so that a lane is about sqrt(n)/6 long: each lane costs a
        jump, each step a few numpy calls. Lane j starts ``j * 2^a`` state
        steps ahead: doubling the lane starts with ``_JUMPS[a]``,
        ``_JUMPS[a + 1]``, ... places them all. The lanes then take their 2^a
        steps together in numpy, each step writing one contiguous row (column
        writes a power-of-two stride apart measured slower), and reading them
        out lane by lane gives the sequential stream.
        """
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        a = max((n - 1).bit_length() - 5, 0) // 2
        lanes = -(-n >> a)
        starts = np.array([self._state], dtype=np.uint64)
        for jump in _JUMPS[a:a + (lanes - 1).bit_length()]:
            starts = np.concatenate([starts, _apply(jump, starts[:lanes - len(starts)])])
        states = np.empty((1 << a, lanes), dtype=np.uint64)
        prev, scratch = starts, np.empty(lanes, dtype=np.uint64)
        for row in states:
            np.right_shift(prev, _SHIFT[12], out=scratch)
            np.bitwise_xor(prev, scratch, out=row)
            np.left_shift(row, _SHIFT[25], out=scratch)
            row ^= scratch
            np.right_shift(row, _SHIFT[27], out=scratch)
            row ^= scratch
            prev = row
        states = states.T.reshape(-1)[:n]
        self._state = int(states[-1])
        states *= _ARRAY_MULTIPLIER
        return states

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def uniform(self, low: float, high: float, shape, dtype=np.float64):
        """Uniform samples in [low, high) of the given shape: one ``next_u64``
        draw per element, in row-major order, its top 53 bits scaled into
        [0, 1)."""
        # in place where the dtype allows: for the embedding these are the
        # largest arrays a model's initialisation makes
        draws = self.next_u64_array(int(np.prod(shape)))
        draws >>= _SHIFT[11]
        out = draws * (2.0 ** -53)
        del draws
        out *= high - low
        out += low
        return out.reshape(shape).astype(dtype)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n)."""
        order = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.integer(i + 1)
            order[i], order[j] = order[j], order[i]
        return order


# 0-d halves: numpy converts a Python float operand anew on every ufunc call
HALF = {np.dtype(t): np.array(0.5, dtype=t) for t in (np.float32, np.float64)}


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
