"""Network layers with explicit forward and backward passes.

Each forward returns the values the matching backward needs (a cache);
each backward accumulates parameter gradients into a plain dict keyed by
block name and returns the gradients flowing to its inputs. There is no
autodiff graph: the chain rule is spelled out per layer.

The LSTM cell lets every gate read the cell state through full square
matrices (``w_ci``, ``w_cf``, ``w_co``), not the diagonal peephole vectors
of common variants, and the output gate reads the freshly updated cell
state. Both choices are deliberate and the backward pass differentiates
them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import Rng, sigmoid, uniform_init

CONV_WIDTH = 3


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


@dataclass
class LSTMParams:
    """Weights and biases of one recurrence direction.

    ``w_x*`` act on the token embedding, ``w_h*`` on the previous hidden
    state, ``w_c*`` on the cell state (full matrices), ``b_*`` are biases;
    gate suffixes: i=input, f=forget, g=candidate, o=output.
    """

    w_xi: np.ndarray
    w_xf: np.ndarray
    w_xg: np.ndarray
    w_xo: np.ndarray
    w_hi: np.ndarray
    w_hf: np.ndarray
    w_hg: np.ndarray
    w_ho: np.ndarray
    w_ci: np.ndarray
    w_cf: np.ndarray
    w_co: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_g: np.ndarray
    b_o: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.w_hi.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_xi.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class ConvParams:
    filters: np.ndarray  # (num_filters, CONV_WIDTH, embed_dim)
    bias: np.ndarray     # (num_filters,)

    @property
    def num_filters(self) -> int:
        return self.filters.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return {"filters": self.filters, "bias": self.bias}


@dataclass
class DenseParams:
    weight: np.ndarray  # (input_dim, num_classes)
    bias: np.ndarray    # (num_classes,)

    def blocks(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}


def init_lstm_params(rng: Rng | None, input_size: int, hidden: int, dtype=np.float32) -> LSTMParams:
    """Glorot-uniform weights; zero biases except the forget gate at 1."""
    def w(fan_in, fan_out):
        return uniform_init(rng, (fan_in, fan_out), glorot_limit(fan_in, fan_out), dtype)

    return LSTMParams(
        w_xi=w(input_size, hidden), w_xf=w(input_size, hidden),
        w_xg=w(input_size, hidden), w_xo=w(input_size, hidden),
        w_hi=w(hidden, hidden), w_hf=w(hidden, hidden),
        w_hg=w(hidden, hidden), w_ho=w(hidden, hidden),
        w_ci=w(hidden, hidden), w_cf=w(hidden, hidden), w_co=w(hidden, hidden),
        b_i=np.zeros(hidden, dtype=dtype),
        b_f=np.ones(hidden, dtype=dtype),
        b_g=np.zeros(hidden, dtype=dtype),
        b_o=np.zeros(hidden, dtype=dtype),
    )


def init_conv_params(rng: Rng | None, embed_dim: int, num_filters: int,
                     dtype=np.float32) -> ConvParams:
    fan_in = CONV_WIDTH * embed_dim
    limit = glorot_limit(fan_in, num_filters)
    return ConvParams(
        filters=uniform_init(rng, (num_filters, CONV_WIDTH, embed_dim), limit, dtype),
        bias=np.zeros(num_filters, dtype=dtype),
    )


def init_dense_params(rng: Rng | None, input_dim: int, num_classes: int,
                      dtype=np.float32) -> DenseParams:
    limit = glorot_limit(input_dim, num_classes)
    return DenseParams(
        weight=uniform_init(rng, (input_dim, num_classes), limit, dtype),
        bias=np.zeros(num_classes, dtype=dtype),
    )


# ---------------------------------------------------------------------------
# embedding

def embedding_forward(indices, table: np.ndarray) -> np.ndarray:
    """Row lookup; PAD (index 0) rows are zero regardless of table contents."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= table.shape[0]):
        raise ValueError("embedding index out of range")
    out = table[indices].copy()
    out[indices == 0] = 0
    return out


def embedding_backward(indices, d_out: np.ndarray, grad_table: np.ndarray) -> None:
    """Scatter-add rows of ``d_out`` into ``grad_table``; PAD stays frozen."""
    indices = np.asarray(indices, dtype=np.intp)
    mask = indices != 0
    np.add.at(grad_table, indices[mask], d_out[mask])


# ---------------------------------------------------------------------------
# LSTM cell

class CellCache(NamedTuple):
    params: LSTMParams
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    o: np.ndarray


def lstm_cell_forward(x, h_prev, c_prev, p: LSTMParams):
    """One memory-cell step.

    Gate order: input and forget gates read (x, h_prev, c_prev); the
    candidate reads (x, h_prev); the output gate reads (x, h_prev, c_new).
    """
    if x.shape != (p.input_size,) or h_prev.shape != (p.hidden_size,):
        raise ValueError(
            f"cell shapes disagree: x {x.shape}, h {h_prev.shape}, "
            f"params ({p.input_size}, {p.hidden_size})"
        )
    i = sigmoid(x @ p.w_xi + h_prev @ p.w_hi + c_prev @ p.w_ci + p.b_i)
    f = sigmoid(x @ p.w_xf + h_prev @ p.w_hf + c_prev @ p.w_cf + p.b_f)
    g = np.tanh(x @ p.w_xg + h_prev @ p.w_hg + p.b_g)
    c = f * c_prev + i * g
    o = sigmoid(x @ p.w_xo + h_prev @ p.w_ho + c @ p.w_co + p.b_o)
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, c, CellCache(p, x, h_prev, c_prev, i, f, g, c, tanh_c, o)


def lstm_cell_backward(cache: CellCache, dh, dc_in, grads: dict[str, np.ndarray]):
    """Exact gradients of one cell step.

    Accumulates parameter gradients into ``grads`` (keys as in
    ``LSTMParams.blocks``) and returns (dx, dh_prev, dc_prev). ``dc_in`` is
    the gradient arriving at the new cell state from the following step.
    The output gate's dependence on the new cell state contributes to dc
    before the cell update is unwound.
    """
    p, x, h_prev, c_prev, i, f, g, c, tanh_c, o = cache

    do = dh * tanh_c
    dzo = do * o * (1.0 - o)
    grads["w_xo"] += np.outer(x, dzo)
    grads["w_ho"] += np.outer(h_prev, dzo)
    grads["w_co"] += np.outer(c, dzo)
    grads["b_o"] += dzo

    dc = dc_in + dh * o * (1.0 - tanh_c * tanh_c) + dzo @ p.w_co.T

    di = dc * g
    df = dc * c_prev
    dg = dc * i
    dc_prev = dc * f

    dzg = dg * (1.0 - g * g)
    grads["w_xg"] += np.outer(x, dzg)
    grads["w_hg"] += np.outer(h_prev, dzg)
    grads["b_g"] += dzg

    dzf = df * f * (1.0 - f)
    grads["w_xf"] += np.outer(x, dzf)
    grads["w_hf"] += np.outer(h_prev, dzf)
    grads["w_cf"] += np.outer(c_prev, dzf)
    grads["b_f"] += dzf
    dc_prev = dc_prev + dzf @ p.w_cf.T

    dzi = di * i * (1.0 - i)
    grads["w_xi"] += np.outer(x, dzi)
    grads["w_hi"] += np.outer(h_prev, dzi)
    grads["w_ci"] += np.outer(c_prev, dzi)
    grads["b_i"] += dzi
    dc_prev = dc_prev + dzi @ p.w_ci.T

    dx = dzi @ p.w_xi.T + dzf @ p.w_xf.T + dzg @ p.w_xg.T + dzo @ p.w_xo.T
    dh_prev = dzi @ p.w_hi.T + dzf @ p.w_hf.T + dzg @ p.w_hg.T + dzo @ p.w_ho.T
    return dx, dh_prev, dc_prev


# ---------------------------------------------------------------------------
# bidirectional unrolling

class BiLSTMCache(NamedTuple):
    fwd_steps: list      # CellCache per position 0..true_len-1
    bwd_steps: list      # CellCache per processing step true_len-1..0
    seq_len: int
    true_len: int


def _run_chain(X, positions, p: LSTMParams):
    hidden = p.hidden_size
    h = np.zeros(hidden, dtype=X.dtype)
    c = np.zeros(hidden, dtype=X.dtype)
    caches = []
    for t in positions:
        h, c, cache = lstm_cell_forward(X[t], h, c, p)
        caches.append(cache)
    return h, caches


def bilstm_forward(X: np.ndarray, true_len: int, p_fwd: LSTMParams, p_bwd: LSTMParams):
    """Final hidden states of both directions over the first ``true_len`` rows.

    Positions past ``true_len`` never enter either recurrence, so trailing
    padding cannot change the outputs.
    """
    if not 1 <= true_len <= X.shape[0]:
        raise ValueError(f"true_len {true_len} out of range for {X.shape[0]} rows")
    h_fwd, fwd_steps = _run_chain(X, range(true_len), p_fwd)
    h_bwd, bwd_steps = _run_chain(X, range(true_len - 1, -1, -1), p_bwd)
    return h_fwd, h_bwd, BiLSTMCache(fwd_steps, bwd_steps, X.shape[0], true_len)


def _chain_backward(caches, positions, d_final, dX, grads):
    hidden = d_final.shape[0]
    dh = d_final
    dc = np.zeros(hidden, dtype=d_final.dtype)
    for step in range(len(caches) - 1, -1, -1):
        dx, dh, dc = lstm_cell_backward(caches[step], dh, dc, grads)
        dX[positions[step]] += dx


def bilstm_backward(cache: BiLSTMCache, d_fwd, d_bwd, grads_fwd, grads_bwd) -> np.ndarray:
    """Backpropagation through time for both chains; returns d(embeddings)."""
    first = cache.fwd_steps[0]
    dX = np.zeros((cache.seq_len, first.x.shape[0]), dtype=first.x.dtype)
    _chain_backward(cache.fwd_steps, list(range(cache.true_len)), d_fwd, dX, grads_fwd)
    _chain_backward(cache.bwd_steps, list(range(cache.true_len - 1, -1, -1)), d_bwd, dX, grads_bwd)
    return dX


# ---------------------------------------------------------------------------
# convolution and pooling

class ConvCache(NamedTuple):
    windows: np.ndarray   # (n_windows, CONV_WIDTH * embed_dim)
    active: np.ndarray    # ReLU mask, (n_windows, num_filters)
    params: ConvParams
    seq_len: int
    embed_dim: int


def conv_forward(X: np.ndarray, p: ConvParams, true_len: int):
    """Valid width-3 convolution + ReLU over the first ``true_len`` rows."""
    if true_len < CONV_WIDTH:
        raise ValueError(f"need at least {CONV_WIDTH} positions, got {true_len}")
    n_windows = true_len - CONV_WIDTH + 1
    embed_dim = X.shape[1]
    windows = np.stack([X[t:t + CONV_WIDTH].reshape(-1) for t in range(n_windows)])
    flat_filters = p.filters.reshape(p.num_filters, -1)
    pre = windows @ flat_filters.T + p.bias
    active = pre > 0
    fmap = np.where(active, pre, 0)
    return fmap, ConvCache(windows, active, p, X.shape[0], embed_dim)


def conv_backward(cache: ConvCache, d_fmap: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    windows, active, p, seq_len, embed_dim = cache
    d_pre = np.where(active, d_fmap, 0)
    grads["bias"] += d_pre.sum(axis=0)
    grads["filters"] += (d_pre.T @ windows).reshape(p.filters.shape)
    d_windows = d_pre @ p.filters.reshape(p.num_filters, -1)
    dX = np.zeros((seq_len, embed_dim), dtype=d_fmap.dtype)
    for t in range(windows.shape[0]):
        dX[t:t + CONV_WIDTH] += d_windows[t].reshape(CONV_WIDTH, embed_dim)
    return dX


def maxpool_over_time(fmap: np.ndarray):
    """Per-feature max over time; argmax rows cached for the backward pass."""
    if fmap.shape[0] < 1:
        raise ValueError("cannot pool an empty feature map")
    argmax = fmap.argmax(axis=0)  # first occurrence wins ties
    pooled = fmap[argmax, np.arange(fmap.shape[1])]
    return pooled, argmax


def maxpool_backward(argmax: np.ndarray, d_pooled: np.ndarray, length: int) -> np.ndarray:
    d_fmap = np.zeros((length, d_pooled.shape[0]), dtype=d_pooled.dtype)
    d_fmap[argmax, np.arange(d_pooled.shape[0])] = d_pooled
    return d_fmap


# ---------------------------------------------------------------------------
# dense head and dropout

def dense_forward(vec: np.ndarray, p: DenseParams) -> np.ndarray:
    if vec.shape != (p.weight.shape[0],):
        raise ValueError(f"dense input {vec.shape} does not match weight {p.weight.shape}")
    return vec @ p.weight + p.bias


def dense_backward(vec: np.ndarray, p: DenseParams, d_logits: np.ndarray,
                   grads: dict[str, np.ndarray]) -> np.ndarray:
    grads["weight"] += np.outer(vec, d_logits)
    grads["bias"] += d_logits
    return d_logits @ p.weight.T


def dropout(x: np.ndarray, rate: float, training: bool, rng: Rng | None):
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Inference (or rate 0) is the identity and draws nothing from ``rng``.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return x, None
    keep = np.array([rng.random() >= rate for _ in range(x.size)]).reshape(x.shape)
    mask = keep.astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(d_out: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return d_out if mask is None else d_out * mask
