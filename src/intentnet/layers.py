"""Network layers with explicit forward and backward passes.

The model hands the layers a batch of B utterances padded to its longest
effective length T: indices (B, T), embeddings (B, T, E); sample b's own
positions are 0 .. L_b - 1, ``true_len[b]``, and a batch of one is the same
code. Each layer computes over the X it is given, and only two read lengths:
the recurrence reads sample b's final state after its own L_b steps (its
backward direction runs over each sample reversed within its length), and
max pooling counts only the sample's own L_b - 2 windows. Positions past L_b
are thus computed over but reach no output, and get exactly zero gradient.

Each forward returns the values the matching backward needs (a cache);
each backward accumulates parameter gradients into a parameter object of
the layer's own class (built zero, so gradients have the parameters'
shapes) and returns the gradients flowing to its inputs. There is no
autodiff graph: the chain rule is spelled out per layer.

The LSTM cell lets every gate read the cell state through full square
matrices (``w_ci``, ``w_cf``, ``w_co``), not the diagonal peephole vectors
of common variants, and the output gate reads the freshly updated cell
state. Both choices are deliberate and the backward pass differentiates
them exactly. Each direction stores its weights gate-stacked, one matrix per
operand (the fused-gate layout of Appleyard et al., arXiv 1604.01946), so a
cell step makes one product per operand for the whole batch and a chain's
weight gradients come from one product per stack over all its B * T rows.
The 15 per-gate blocks that the model file and the optimizer name are
column views of those stacks.
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
        H = self.hidden_size
        return {(stack if stack != "b" else "b_") + gate:
                getattr(self, stack)[..., k * H:(k + 1) * H]
                for stack, gates in _STACK_GATES.items() for k, gate in enumerate(gates)}


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


def init_weights(rng: Rng, *params) -> None:
    """Draw Glorot-uniform values, in place, into every block of two or more
    axes, object by object in ``blocks()`` order; biases are left as they
    are. A block's fans are its first axis and the product of the others."""
    for p in params:
        for view in p.blocks().values():
            if view.ndim >= 2:
                limit = glorot_limit(view.shape[0], math.prod(view.shape[1:]))
                view[...] = uniform_init(rng, view.shape, limit, view.dtype)


# ---------------------------------------------------------------------------
# embedding

def embedding_forward(indices, table: np.ndarray) -> np.ndarray:
    """Row lookup for an index array of any shape, (B, T) in the model; PAD
    (index 0) rows are zero regardless of table contents."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= table.shape[0]):
        raise ValueError("embedding index out of range")
    out = table[indices]
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
    """One memory-cell step for a batch: ``x`` (B, E), ``h_prev`` and
    ``c_prev`` (B, H); returns the new (B, H) hidden and cell states.

    Gate order: input and forget gates read (x, h_prev, c_prev); the
    candidate reads (x, h_prev); the output gate reads (x, h_prev, c_new).
    """
    if (x.ndim != 2 or x.shape[1] != p.input_size
            or h_prev.shape != (x.shape[0], p.hidden_size)):
        raise ValueError(
            f"cell shapes disagree: x {x.shape}, h {h_prev.shape}, "
            f"params ({p.input_size}, {p.hidden_size})"
        )
    H = p.hidden_size
    # The bias joins the input projection before the recurrent term: other
    # summation orders raise the gradient check's round-off past its bound.
    z = (x @ p.w_x + p.b) + h_prev @ p.w_h
    z[:, :2 * H] += c_prev @ p.w_c[:, :2 * H]
    gates = z  # activated in place, gate by gate
    gates[:, :2 * H] = sigmoid(z[:, :2 * H])
    np.tanh(z[:, 2 * H:3 * H], out=gates[:, 2 * H:3 * H])
    i, f, g = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:3 * H]
    c = f * c_prev + i * g
    gates[:, 3 * H:] = sigmoid(z[:, 3 * H:] + c @ p.w_c[:, 2 * H:])
    tanh_c = np.tanh(c)
    h = gates[:, 3 * H:] * tanh_c
    return h, c, CellCache(p, x, h_prev, c_prev, gates, c, tanh_c)


def lstm_cell_backward(cache: CellCache, dh, dc_in):
    """Exact gradients of one batched cell step.

    Returns (dz, dh_prev, dc_prev), where ``dz`` (B, 4H) is the gradient of
    the stacked gate pre-activations (gates as in ``LSTMParams.b``); the
    caller forms the weight and bias gradients and ``dx = dz @ p.w_x.T``
    from it. ``dc_in`` is the gradient arriving at the new cell state from
    the following step. The output gate's dependence on the new cell state
    contributes to dc before the cell update is unwound.
    """
    p, x, h_prev, c_prev, gates, c, tanh_c = cache
    H = p.hidden_size
    i, f, g, o = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:3 * H], gates[:, 3 * H:]
    dz = np.empty_like(gates)
    dz[:, 3 * H:] = dh * tanh_c * o * (1.0 - o)
    dc = dc_in + dh * o * (1.0 - tanh_c * tanh_c) + dz[:, 3 * H:] @ p.w_c[:, 2 * H:].T
    dz[:, :H] = dc * g * i * (1.0 - i)
    dz[:, H:2 * H] = dc * c_prev * f * (1.0 - f)
    dz[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
    dc_prev = dc * f + dz[:, :2 * H] @ p.w_c[:, :2 * H].T
    dh_prev = dz @ p.w_h.T
    return dz, dh_prev, dc_prev


# ---------------------------------------------------------------------------
# bidirectional unrolling

class BiLSTMCache(NamedTuple):
    fwd_steps: list        # CellCache per step 0..T-1 over X
    bwd_steps: list        # CellCache per step 0..T-1 over X reversed per sample
    true_len: np.ndarray   # (B,)


def _lengths(true_len, batch: int, seq_len: int) -> np.ndarray:
    """Per-sample lengths as a (B,) int array, each within [1, seq_len]."""
    lengths = np.asarray(true_len, dtype=np.intp)
    if (lengths.shape != (batch,) or not batch
            or lengths.min() < 1 or lengths.max() > seq_len):
        raise ValueError(f"lengths {lengths.tolist()} out of range for "
                         f"{batch} sequences of {seq_len} rows")
    return lengths


def _reverse(X: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each sample's first L_b rows in reverse order, zeros after them:
    ``out[b, t] = X[b, L_b - 1 - t]`` for t < L_b, over X's rows. On those
    rows the gather is its own inverse."""
    pos = lengths[:, None] - 1 - np.arange(X.shape[1])
    out = X[np.arange(len(lengths))[:, None], np.maximum(pos, 0)]
    out[pos < 0] = 0
    return out


def _run_chain(X, p: LSTMParams):
    """All T steps over X (B, T, E); the hidden state after each step."""
    h = np.zeros((X.shape[0], p.hidden_size), dtype=X.dtype)
    c = np.zeros_like(h)
    states, caches = [], []
    for t in range(X.shape[1]):
        h, c, cache = lstm_cell_forward(X[:, t], h, c, p)
        states.append(h)
        caches.append(cache)
    return np.stack(states), caches


def bilstm_forward(X: np.ndarray, true_len, p_fwd: LSTMParams, p_bwd: LSTMParams):
    """Final (B, H) hidden states of both directions over X (B, T, E).

    Both chains run T steps over the whole batch, and sample b's final state
    is read after its own L_b steps. The backward chain reads each sample
    reversed within its length, so in both directions a sample's positions
    past L_b come after its final state and cannot change it.
    """
    lengths = _lengths(true_len, X.shape[0], X.shape[1])
    rows = np.arange(len(lengths))
    fwd_states, fwd_steps = _run_chain(X, p_fwd)
    bwd_states, bwd_steps = _run_chain(_reverse(X, lengths), p_bwd)
    return (fwd_states[lengths - 1, rows], bwd_states[lengths - 1, rows],
            BiLSTMCache(fwd_steps, bwd_steps, lengths))


def _chain_backward(caches, lengths, d_final, grads: LSTMParams):
    """Backpropagation through time over one chain, ``d_final[b]`` entering
    at step L_b - 1; then one product per gate-stack over all B * T rows
    adds its weight gradients into ``grads`` and gives d(inputs), returned
    as (B, T, E).

    The steps after a sample's last one receive no gradient, so their dz
    rows are exactly zero and add nothing to the products.
    """
    p = caches[0].params
    H = p.hidden_size
    ends = lengths == np.arange(1, len(caches) + 1)[:, None]  # (T, B)
    dh = np.zeros_like(d_final)
    dc = np.zeros_like(d_final)
    dz = [None] * len(caches)
    for step in range(len(caches) - 1, -1, -1):
        dh[ends[step]] = d_final[ends[step]]
        dz[step], dh, dc = lstm_cell_backward(caches[step], dh, dc)
    dz = np.concatenate(dz)  # rows ordered (step, sample)
    x, h_prev, c_prev, c = (np.concatenate([getattr(s, field) for s in caches])
                            for field in ("x", "h_prev", "c_prev", "c"))
    grads.w_x += x.T @ dz
    grads.w_h += h_prev.T @ dz
    grads.w_c[:, :2 * H] += c_prev.T @ dz[:, :2 * H]
    grads.w_c[:, 2 * H:] += c.T @ dz[:, 3 * H:]
    grads.b += dz.sum(axis=0)
    return (dz @ p.w_x.T).reshape(len(caches), len(lengths), -1).transpose(1, 0, 2)


def bilstm_backward(cache: BiLSTMCache, d_fwd, d_bwd, grads_fwd: LSTMParams,
                    grads_bwd: LSTMParams) -> np.ndarray:
    """Backpropagation through time for both chains; returns d(embeddings),
    (B, T, E)."""
    lengths = cache.true_len
    dX = _chain_backward(cache.fwd_steps, lengths, d_fwd, grads_fwd)
    dX += _reverse(_chain_backward(cache.bwd_steps, lengths, d_bwd, grads_bwd), lengths)
    return dX


# ---------------------------------------------------------------------------
# convolution and pooling

class ConvCache(NamedTuple):
    windows: np.ndarray   # (B * n_windows, CONV_WIDTH * embed_dim)
    active: np.ndarray    # ReLU mask, (B, n_windows, num_filters)
    params: ConvParams


def conv_forward(X: np.ndarray, p: ConvParams):
    """Valid width-3 convolution + ReLU over every window of X: (B, T, E)
    gives (B, T - 2, num_filters). Which windows count is for pooling to
    say (``maxpool_over_time``)."""
    B, n = X.shape[0], X.shape[1] - CONV_WIDTH + 1
    # window w of a sample is its rows w, w+1, w+2 laid end to end
    windows = np.concatenate([X[:, k:k + n] for k in range(CONV_WIDTH)], axis=2)
    windows = windows.reshape(B * n, -1)
    pre = (windows @ p.filters.reshape(p.num_filters, -1).T + p.bias).reshape(B, n, -1)
    active = pre > 0
    fmap = np.where(active, pre, 0)
    return fmap, ConvCache(windows, active, p)


def conv_backward(cache: ConvCache, d_fmap: np.ndarray, grads: ConvParams) -> np.ndarray:
    windows, active, p = cache
    B, n, F = d_fmap.shape
    d_pre = np.where(active, d_fmap, 0).reshape(B * n, F)
    grads.bias += d_pre.sum(axis=0)
    grads.filters += (d_pre.T @ windows).reshape(p.filters.shape)
    d_windows = (d_pre @ p.filters.reshape(F, -1)).reshape(B, n, CONV_WIDTH, -1)
    dX = np.zeros((B, n + CONV_WIDTH - 1, d_windows.shape[3]), dtype=d_fmap.dtype)
    for k in range(CONV_WIDTH):
        dX[:, k:k + n] += d_windows[:, :, k]
    return dX


def maxpool_over_time(fmap: np.ndarray, lengths):
    """Per-sample, per-feature max over the first ``lengths[b]`` rows of
    fmap (B, n, F); argmax rows (B, F) cached for the backward pass. Rows
    past a sample's length are masked out, so its maximum and argmax (the
    first occurrence wins ties) are those of its own rows alone."""
    lengths = _lengths(lengths, fmap.shape[0], fmap.shape[1])
    own = np.arange(fmap.shape[1]) < lengths[:, None]
    argmax = np.where(own[:, :, None], fmap, -np.inf).argmax(axis=1)
    pooled = np.take_along_axis(fmap, argmax[:, None], axis=1)[:, 0]
    return pooled, argmax


def maxpool_backward(argmax: np.ndarray, d_pooled: np.ndarray, length: int) -> np.ndarray:
    d_fmap = np.zeros((d_pooled.shape[0], length, d_pooled.shape[1]), dtype=d_pooled.dtype)
    np.put_along_axis(d_fmap, argmax[:, None], d_pooled[:, None], axis=1)
    return d_fmap


# ---------------------------------------------------------------------------
# dense head and dropout

def dense_forward(vec: np.ndarray, p: DenseParams) -> np.ndarray:
    """Logits (B, C) of the fused vectors ``vec`` (B, D)."""
    if vec.ndim != 2 or vec.shape[1] != p.weight.shape[0]:
        raise ValueError(f"dense input {vec.shape} does not match weight {p.weight.shape}")
    return vec @ p.weight + p.bias


def dense_backward(vec: np.ndarray, p: DenseParams, d_logits: np.ndarray,
                   grads: DenseParams) -> np.ndarray:
    grads.weight += vec.T @ d_logits
    grads.bias += d_logits.sum(axis=0)
    return d_logits @ p.weight.T


def dropout(x: np.ndarray, rate: float, rng: Rng | None):
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    The mask comes from ``rng.uniform``, one draw per element in row-major
    order, so a (B, F) batch gets the masks of B one-row calls made in turn.
    Without ``rng`` (inference), or at rate 0, it is the identity: no draws.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rng is None or rate == 0.0:
        return x, None
    keep = rng.uniform(0.0, 1.0, x.shape) >= rate
    mask = keep.astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(d_out: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return d_out if mask is None else d_out * mask
