"""Dense-array numerics: sigmoid, softmax, seeded initialization.

Conventions used everywhere downstream:
  - arrays are contiguous row-major numpy ndarrays with 1 to 3 axes,
    3-axis data ordered (batch, time, feature);
  - float32 for training, float64 for gradient-check mode;
  - no broadcasting tricks across modules, no autodiff: backward passes
    are written explicitly per layer.
"""

from __future__ import annotations

import functools

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
# columns (the images of the single-bit states). Shift counts are uint64, so
# numpy 1.x value-based casting and NEP 50 agree on the result type; the
# operands are arrays, never numpy scalars, which warn where arrays wrap.
_SHIFT = np.arange(64, dtype=np.uint64)
_ARRAY_MULTIPLIER = np.array(_MULTIPLIER, dtype=np.uint64)
_STEP = np.array([_xorshift(1 << k) for k in range(64)], dtype=np.uint64)


def _apply(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``matrix`` (64 columns) times each state: the xor of the columns whose
    bit is set, kept by multiplying each column by its bit. A matrix applied
    to another's columns is their product."""
    bits = np.unpackbits(states.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return np.bitwise_xor.reduce(matrix * bits.reshape(-1, 64), axis=1)


def _lane_count(n: int) -> int:
    """Lanes for ``n`` draws, about 4 sqrt(n): each lane costs a jump, each
    step a few numpy calls."""
    return 1 << ((n - 1).bit_length() + 4) // 2


@functools.lru_cache(maxsize=32)
def _lane_jumps(steps: int, levels: int) -> tuple[np.ndarray, ...]:
    """The step matrix to the powers ``steps``, 2 ``steps``, 4 ``steps``, ...
    (``levels`` of them): doubling with these places the lane starts."""
    power, base, e = np.left_shift(np.uint64(1), _SHIFT), _STEP, steps
    while e:
        if e & 1:
            power = _apply(base, power)
        base = _apply(base, base)
        e >>= 1
    jumps = []
    for _ in range(levels):
        power.flags.writeable = False
        jumps.append(power)
        power = _apply(power, power)
    return tuple(jumps)


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

        The stream is cut into lanes of ``steps`` consecutive states. Lane j
        starts ``j * steps`` state steps ahead, reached with powers of the
        step's GF(2) matrix; all lanes then take their ``steps`` steps in
        numpy, and reading them out lane by lane gives the sequential stream.
        """
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        steps = -(-n // _lane_count(n))
        lanes = -(-n // steps)
        starts = np.array([self._state], dtype=np.uint64)
        for jump in _lane_jumps(steps, (lanes - 1).bit_length()):
            starts = np.concatenate([starts, _apply(jump, starts)])
        states = np.empty((lanes, steps), dtype=np.uint64)
        prev, scratch = starts[:lanes], np.empty(lanes, dtype=np.uint64)
        for k in range(steps):
            row = states[:, k]
            np.right_shift(prev, _SHIFT[12], out=scratch)
            np.bitwise_xor(prev, scratch, out=row)
            np.left_shift(row, _SHIFT[25], out=scratch)
            row ^= scratch
            np.right_shift(row, _SHIFT[27], out=scratch)
            row ^= scratch
            prev = row
        states = states.reshape(-1)[:n]
        self._state = int(states[-1])
        return states * _ARRAY_MULTIPLIER

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def uniform(self, low: float, high: float, shape, dtype=np.float64):
        """Uniform samples in [low, high) of the given shape: the floats of
        ``random()`` drawn once per element, in row-major order."""
        draws = (self.next_u64_array(int(np.prod(shape))) >> _SHIFT[11]) * (2.0 ** -53)
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
