"""Network layers with explicit forward and backward passes.

Each forward returns the values the matching backward needs (a cache);
each backward accumulates parameter gradients into a plain dict keyed by
block name and returns the gradients flowing to its inputs. There is no
autodiff graph: the chain rule is spelled out per layer.

The LSTM cell lets every gate read the cell state through full square
matrices (``w_ci``, ``w_cf``, ``w_co``), not the diagonal peephole vectors
of common variants, and the output gate reads the freshly updated cell
state. Both choices are deliberate and the backward pass differentiates
them exactly. Each direction stores its weights gate-stacked, one matrix per
operand (the fused-gate layout of Appleyard et al., arXiv 1604.01946), so a
cell step makes one product per operand and a chain's weight gradients come
from one product per stack over all its steps. The 15 per-gate blocks that
the model file and the optimizer name are column views of those stacks.
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


# The gates each stack holds, in column order (the candidate g does not read
# the cell). A block is named by its stack and gate: w_xi ... w_co, b_i ... b_o.
_STACK_GATES = {"w_x": "ifgo", "w_h": "ifgo", "w_c": "ifo", "b": "ifgo"}


def _gate_views(stacks: dict[str, np.ndarray], hidden: int) -> dict[str, np.ndarray]:
    """The per-gate column views of gate-stacked arrays, keyed by block name."""
    return {(stack if stack != "b" else "b_") + gate:
            stacks[stack][..., k * hidden:(k + 1) * hidden]
            for stack, gates in _STACK_GATES.items() for k, gate in enumerate(gates)}


class LSTMParams:
    """Weights and biases of one recurrence direction, stored gate-stacked.

    ``w_x`` (input_size, 4H) acts on the token embedding, ``w_h`` (H, 4H) on
    the previous hidden state, and ``b`` (4H) is the bias, each with gate
    columns i, f, g, o (input, forget, candidate, output) of width H; ``w_c``
    (H, 3H) acts on the cell state, gate columns i, f, o. ``blocks()`` gives
    the 15 per-gate column views ``w_xi`` ... ``b_o``, in a fixed order;
    writing into a view writes into its stack. A new instance holds zeros.
    """

    def __init__(self, input_size: int, hidden: int, dtype=np.float32):
        self.w_x = np.zeros((input_size, 4 * hidden), dtype=dtype)
        self.w_h = np.zeros((hidden, 4 * hidden), dtype=dtype)
        self.w_c = np.zeros((hidden, 3 * hidden), dtype=dtype)
        self.b = np.zeros(4 * hidden, dtype=dtype)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return _gate_views(vars(self), self.hidden_size)


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
    """Glorot-uniform weights; zero biases except the forget gate at 1.

    Weights are drawn block by block in ``blocks()`` order, so a seed gives
    the same values as drawing ``w_xi``, ``w_xf``, ... ``w_co`` one by one.
    """
    p = LSTMParams(input_size, hidden, dtype)
    blocks = p.blocks()
    for name, view in blocks.items():
        if name.startswith("w_"):
            view[...] = uniform_init(rng, view.shape, glorot_limit(*view.shape), dtype)
    blocks["b_f"][...] = 1
    return p


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
    gates: np.ndarray   # activated i, f, g, o, stacked like ``LSTMParams.b``
    c: np.ndarray
    tanh_c: np.ndarray


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
    H = p.hidden_size
    # The bias joins the input projection before the recurrent term: other
    # summation orders raise the gradient check's round-off past its bound.
    z = (x @ p.w_x + p.b) + h_prev @ p.w_h
    z[:2 * H] += c_prev @ p.w_c[:, :2 * H]
    gates = np.empty_like(z)
    gates[:2 * H] = sigmoid(z[:2 * H])
    gates[2 * H:3 * H] = np.tanh(z[2 * H:3 * H])
    i, f, g = gates[:H], gates[H:2 * H], gates[2 * H:3 * H]
    c = f * c_prev + i * g
    gates[3 * H:] = sigmoid(z[3 * H:] + c @ p.w_c[:, 2 * H:])
    tanh_c = np.tanh(c)
    h = gates[3 * H:] * tanh_c
    return h, c, CellCache(p, x, h_prev, c_prev, gates, c, tanh_c)


def lstm_cell_backward(cache: CellCache, dh, dc_in):
    """Exact gradients of one cell step.

    Returns (dz, dh_prev, dc_prev), where ``dz`` is the gradient of the
    stacked gate pre-activations (gates as in ``LSTMParams.b``); the caller
    forms the weight and bias gradients and ``dx = dz @ p.w_x.T`` from it.
    ``dc_in`` is the gradient arriving at the new cell state from the
    following step. The output gate's dependence on the new cell state
    contributes to dc before the cell update is unwound.
    """
    p, x, h_prev, c_prev, gates, c, tanh_c = cache
    H = p.hidden_size
    i, f, g, o = gates[:H], gates[H:2 * H], gates[2 * H:3 * H], gates[3 * H:]
    dz = np.empty_like(gates)
    dz[3 * H:] = dh * tanh_c * o * (1.0 - o)
    dc = dc_in + dh * o * (1.0 - tanh_c * tanh_c) + dz[3 * H:] @ p.w_c[:, 2 * H:].T
    dz[:H] = dc * g * i * (1.0 - i)
    dz[H:2 * H] = dc * c_prev * f * (1.0 - f)
    dz[2 * H:3 * H] = dc * i * (1.0 - g * g)
    dc_prev = dc * f + dz[:2 * H] @ p.w_c[:, :2 * H].T
    dh_prev = dz @ p.w_h.T
    return dz, dh_prev, dc_prev


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
    """Backpropagation through time over one chain; then one product per
    gate-stack over all steps gives its weight gradients and its rows of dX."""
    p = caches[0].params
    H = p.hidden_size
    dh = d_final
    dc = np.zeros_like(d_final)
    dz = [None] * len(caches)
    for step in range(len(caches) - 1, -1, -1):
        dz[step], dh, dc = lstm_cell_backward(caches[step], dh, dc)
    dz = np.stack(dz)
    x, h_prev, c_prev, c = (np.stack([getattr(s, field) for s in caches])
                            for field in ("x", "h_prev", "c_prev", "c"))
    dX[positions] += dz @ p.w_x.T
    stacks = {
        "w_x": x.T @ dz,
        "w_h": h_prev.T @ dz,
        "w_c": np.hstack([c_prev.T @ dz[:, :2 * H], c.T @ dz[:, 3 * H:]]),
        "b": dz.sum(axis=0),
    }
    for name, grad in _gate_views(stacks, H).items():
        grads[name] += grad


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
